"""Integer polynomial primitives: the hot inner loops of the exact layer.

A polynomial is a plain list of Python ints, little-endian (index =
exponent), normalized so the last entry is nonzero; the zero polynomial is
the empty list.  Inputs are never mutated.

qcharsum._kernel re-exports these functions unchanged; tests/test_kernel.py
checks them on seeded random inputs against independent references.
"""

from math import gcd


def zz_strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def zz_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i in range(len(b)):
        out[i] += b[i]
    return zz_strip(out)


def zz_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i in range(len(b)):
        out[i] -= b[i]
    return zz_strip(out)


def zz_neg(a):
    return [-c for c in a]


def zz_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return zz_strip(out)


def zz_mul_scalar(a, s):
    if s == 0:
        return []
    return [c * s for c in a]


def zz_content(a):
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def zz_primitive(a):
    """Return (content, primitive) with content > 0; ([] stays ([], 0))."""
    if not a:
        return 0, []
    g = zz_content(a)
    if g == 1:
        return 1, list(a)
    return g, [c // g for c in a]


def zz_divexact(a, b):
    """Quotient a // b when b divides a exactly; ValueError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    la, lb = len(a), len(b)
    if la < lb:
        raise ValueError("inexact polynomial division")
    r = list(a)
    bl = b[-1]
    q = [0] * (la - lb + 1)
    for k in range(la - lb, -1, -1):
        c = r[k + lb - 1]
        if c:
            if c % bl:
                raise ValueError("inexact polynomial division")
            t = c // bl
            q[k] = t
            for j in range(lb):
                r[k + j] -= t * b[j]
    if any(r):
        raise ValueError("inexact polynomial division")
    return zz_strip(q)


def zz_prem(a, b):
    """Pseudo-remainder: lc(b)^j * a mod b for some j >= 0 (content-agnostic).

    Only used inside the primitive-PRS gcd, where any positive scaling of the
    true remainder is acceptable because content is stripped afterwards.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    bl = b[-1]
    while len(r) - 1 >= db and r:
        lead = r[-1]
        off = len(r) - 1 - db
        if bl != 1:
            for i in range(len(r)):
                r[i] *= bl
        for j in range(db + 1):
            r[off + j] -= lead * b[j]
        zz_strip(r)
    return r


def zz_gcd(a, b):
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    if not a:
        f = list(b)
    elif not b:
        f = list(a)
    else:
        # split off the common power of the variable first: cheap and very
        # frequent here (group orders carry large q^k factors)
        va = 0
        while a[va] == 0:
            va += 1
        vb = 0
        while b[vb] == 0:
            vb += 1
        v = va if va < vb else vb
        f = a[va:]
        g = b[vb:]
        _, f = zz_primitive(f)
        _, g = zz_primitive(g)
        if len(f) < len(g):
            f, g = g, f
        while g:
            r = zz_prem(f, g)
            _, r = zz_primitive(r)
            f, g = g, r
        f = [0] * v + f
    _, f = zz_primitive(f)
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f
