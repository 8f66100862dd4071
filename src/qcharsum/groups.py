"""Brute-force enumeration of the small matrix groups.

Used as the ground-truth oracle for group orders and involution counts:
everything here works by explicitly listing group elements over a
table-driven finite field, with no character theory involved.

* FiniteField(q): q = p^k <= 25, arithmetic via precomputed tables, with
  the modulus found by trial division among monic degree-k polynomials.
* A vector of F_Q^n is coded as the int a = sum_i d_i Q^i in 0..Q^n - 1,
  digit i being coordinate i, and a matrix as the tuple of its row codes.
  The tables digits[a], vadd[a][b] (the code of a + b) and vscale[c][a]
  (the code of c*a) are built once per (Q, n), one coordinate at a time
  from the field tables, with rows as arrays of 16-bit codes.
* The general linear group is enumerated by extending linearly
  independent rows: a span is a list of codes with a bytearray membership
  map, and extending it by v takes every s + c*v through the tables.  The
  unitary group (Hermitian form = identity, entries conjugated by
  a -> a^q in F_{q^2}) is enumerated by extending orthonormal rows, drawn
  from the unit vectors, with the unit vectors orthogonal to each listed
  once.
* g*g = I is tested row by row: row i of g*g is sum_k g_ik * row_k through
  the tables, compared with the unit code Q^i.  The enumeration yields
  frames, the first n - 1 rows with the list of possible last rows, and
  the count sends to that test only the last rows that make row 0 of g*g
  the unit code.
* Budgets: group order <= 1e7, and for the unitary flavor the per-row
  scan space (q^2)^n <= 1e5.  The addition table has at most 2^24 entries
  (Q^n <= 4096, 32 MiB); of the groups within the first two budgets it
  leaves out U(3,5) only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod


def _prime_power(q: int):
    if q < 2:
        raise ValueError("field size must be >= 2")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1


def _field_size(q: int):
    """(p, k) with q = p^k <= 25, the sizes the field tables support."""
    if q > 25:
        raise ValueError("field tables support q <= 25")
    return _prime_power(q)


def _poly_rem(num, den, p):
    num = list(num)
    dq = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dq - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            for k in range(dq + 1):
                num[i - dq + k] = (num[i - dq + k] - c * den[k]) % p
    return num[:dq]


def _find_modulus(p: int, k: int):
    """First monic irreducible of degree k over Z/p, by trial division."""
    for tail in product(range(p), repeat=k):
        cand = list(tail) + [1]
        if cand[0] == 0:
            continue
        reducible = False
        for d in range(1, k // 2 + 1):
            for dtail in product(range(p), repeat=d):
                div = list(dtail) + [1]
                if not any(_poly_rem(cand, div, p)):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """F_q with q = p^k <= 25; elements are ints 0..q-1 encoding base-p
    coefficient vectors; add/mul are full lookup tables."""

    __slots__ = ("q", "p", "k", "add", "mul", "neg", "inv")

    def __init__(self, q: int):
        p, k = _field_size(q)
        self.q, self.p, self.k = q, p, k
        modulus = _find_modulus(p, k) if k > 1 else (0, 1)

        def digits(a):
            out = []
            for _ in range(k):
                out.append(a % p)
                a //= p
            return out

        def encode(ds):
            a = 0
            for c in reversed(ds):
                a = a * p + c
            return a

        add = []
        mul = []
        for a in range(q):
            da = digits(a)
            add.append(tuple(encode([(x + y) % p for x, y in zip(da, digits(b))])
                             for b in range(q)))
            row = []
            for b in range(q):
                db = digits(b)
                conv = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            conv[i + j] = (conv[i + j] + x * y) % p
                row.append(encode(_poly_rem(conv, modulus, p) if k > 1 else conv))
            mul.append(tuple(row))
        self.add = tuple(add)
        self.mul = tuple(mul)
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)
        self.inv = tuple(inv)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv[a], -e
        out = 1
        while e:
            if e & 1:
                out = self.mul[out][a]
            a = self.mul[a][a]
            e >>= 1
        return out


class _VectorTables:
    """F_Q^n with each vector coded as the int a = sum_i d_i Q^i in
    0..Q^n - 1, digit i being coordinate i.  `digits[a]` is the coordinate
    tuple of a, `vadd[a][b]` the code of a + b and `vscale[c][a]` that of
    c*a; `units[i]` = Q^i is the code of the i-th unit vector."""

    __slots__ = ("field", "n", "size", "units", "digits", "vadd", "vscale")

    def __init__(self, Q: int, n: int):
        if n < 0:
            raise ValueError(f"rank must be >= 0, got {n}")
        if Q ** (2 * n) > _TABLE_BUDGET:
            raise ValueError("vector addition table exceeds budget")
        # imported here so that importing the package loads no extension
        # module that only the enumeration needs
        from array import array
        F = self.field = FiniteField(Q)
        self.n, self.size = n, Q ** n
        self.units = tuple(Q ** i for i in range(n))
        # one coordinate at a time: the codes of F_Q^(k+1) are a + Q^k x,
        # with a a code of F_Q^k and x the new top coordinate
        digits, vadd = [()], [array("H", [0])]
        vscale = [array("H", [0]) for _ in range(Q)]
        for top in self.units:
            digits = [d + (x,) for x in range(Q) for d in digits]
            highs = [[top * y for y in row] for row in F.add]
            vadd = [array("H", [t + h for h in highs[x] for t in row])
                    for x in range(Q) for row in vadd]
            vscale = [array("H", [s + top * m for m in F.mul[c] for s in vscale[c]])
                      for c in range(Q)]
        self.digits, self.vadd, self.vscale = digits, vadd, vscale


@lru_cache(maxsize=1)
def _vector_tables(Q: int, n: int) -> _VectorTables:
    return _VectorTables(Q, n)


def _rows_square_to_identity(T: _VectorTables, rows) -> bool:
    """g*g == I for g given by its row codes.  Row i of g*g is
    sum_k g_ik * row_k, folded through the tables over the nonzero g_ik,
    and is compared with the unit code Q^i; the test stops at the first row
    that differs."""
    digits, vadd, vscale = T.digits, T.vadd, T.vscale
    for r, unit in zip(rows, T.units):
        acc = 0
        for c, row_k in zip(digits[r], rows):
            if c:
                acc = vadd[acc][vscale[c][row_k]]
        if acc != unit:
            return False
    return True


def _gl_frames(T: _VectorTables):
    """Yield (rows, last) for every choice of the first n - 1 rows of an
    invertible matrix over F_Q, with `last` the codes of its possible last
    rows: each row is a vector outside the span of the rows before it.  A
    span is a list of codes with a bytearray membership map."""
    n, size, vadd, vscale = T.n, T.size, T.vadd, T.vscale
    rows = []

    def rec(span):
        member = bytearray(size)
        for s in span:
            member[s] = 1
        outside = [v for v in range(size) if not member[v]]
        if len(rows) == n - 1:
            yield tuple(rows), outside
            return
        for v in outside:
            rows.append(v)
            multiples = [scale[v] for scale in vscale]
            yield from rec([vadd[s][m] for s in span for m in multiples])
            rows.pop()

    yield from rec([0])


def _u_frames(T: _VectorTables, q: int):
    """Yield (rows, last) as _gl_frames does, for the matrices over F_Q,
    Q = q^2, whose rows are orthonormal under
    herm(x, y) = sum_i x_i * conj(y_i), conj being a -> a^q.  The unit
    vectors and, for each, the unit vectors orthogonal to it are listed
    once; each row is then a unit vector orthogonal to every row before it."""
    F, n, digits = T.field, T.n, T.digits
    add, mul = F.add, F.mul
    conj = tuple(F.pow(a, q) for a in range(F.q))
    norm = [0]  # herm(v, v) for every code v, one coordinate at a time
    for _ in range(n):
        norm = [add[mul[x][conj[x]]][s] for x in range(F.q) for s in norm]
    unit = [v for v in range(T.size) if norm[v] == 1]

    def herm(x, y):
        acc = 0
        for a, b in zip(digits[x], digits[y]):
            acc = add[acc][mul[a][conj[b]]]
        return acc

    orthogonal = {v: {u for u in unit if herm(u, v) == 0} for v in unit}
    rows = []

    def rec(candidates):
        if len(rows) == n - 1:
            yield tuple(rows), candidates
            return
        for v in candidates:
            rows.append(v)
            ortho = orthogonal[v]
            yield from rec([u for u in candidates if u in ortho])
            rows.pop()

    yield from rec(unit)


def _group_frames(flavor: str, n: int, q: int):
    """The tables of the group's coordinate space and a generator of its
    frames (rows, last), for n >= 1: the elements are rows + (v,) for v in
    last."""
    T = _vector_tables(q if flavor == "gl" else q * q, n)
    return T, _gl_frames(T) if flavor == "gl" else _u_frames(T, q)


_ORDER_BUDGET = 10 ** 7
_SCAN_BUDGET = 10 ** 5
_TABLE_BUDGET = 2 ** 24  # entries of vadd, (Q^n)^2


def _theoretical_order(flavor: str, n: int, q: int) -> int:
    if flavor == "gl":
        return prod(q ** n - q ** i for i in range(n))
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - (-1) ** i
    return out


def _check_budget(flavor: str, n: int, q: int) -> None:
    if flavor not in ("gl", "u"):
        raise ValueError(f"flavor must be 'gl' or 'u', got {flavor!r}")
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    if _theoretical_order(flavor, n, q) > _ORDER_BUDGET:
        raise ValueError("group order exceeds enumeration budget")
    if flavor == "u" and (q * q) ** n > _SCAN_BUDGET:
        raise ValueError("unitary row-scan space exceeds budget")
    _field_size(q * q if flavor == "u" else q)


@lru_cache(maxsize=None)
def _enumerate_stats(flavor: str, n: int, q: int):
    _check_budget(flavor, n, q)
    if n == 0:
        return 1, 1  # the empty matrix, its own square
    T, frames = _group_frames(flavor, n, q)
    digits, vadd, vscale = T.digits, T.vadd, T.vscale
    order = sqrts = 0
    for rows, last in frames:
        order += len(last)
        if rows:
            # Row 0 of g*g is sum_k g_0k * row_k: the terms of the frame's
            # rows, then g_0,n-1 times the last row.  Only the last rows
            # that make it the unit code 1 can pass the full test.
            g0 = digits[rows[0]]
            acc = 0
            for c, row_k in zip(g0, rows):
                if c:
                    acc = vadd[acc][vscale[c][row_k]]
            plus, times = vadd[acc], vscale[g0[-1]]
            last = [v for v in last if plus[times[v]] == 1]
        for v in last:
            if _rows_square_to_identity(T, rows + (v,)):
                sqrts += 1
    return order, sqrts


def group_order(flavor: str, n: int, q: int) -> int:
    """|GL(n,q)| or |U(n,q)| by explicit enumeration."""
    return _enumerate_stats(flavor, n, q)[0]


def count_square_roots_of_identity(flavor: str, n: int, q: int) -> int:
    """Number of enumerated group elements g with g*g = identity."""
    return _enumerate_stats(flavor, n, q)[1]
