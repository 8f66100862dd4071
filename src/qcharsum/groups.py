"""Brute-force enumeration of the small matrix groups.

Used as the ground-truth oracle for group orders and involution counts:
everything here works by explicitly listing group elements over a
table-driven finite field, with no character theory involved.

* FiniteField(q): q = p^k <= 25, arithmetic via precomputed tables, with
  the modulus found by trial division among monic degree-k polynomials.
* The general linear group is enumerated by extending linearly
  independent rows; the unitary group (Hermitian form = identity, entries
  conjugated by a -> a^q in F_{q^2}) by extending orthonormal rows.
* Budgets: group order <= 1e7, and for the unitary flavor the per-row
  scan space (q^2)^n <= 1e5.
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
        if q > 25:
            raise ValueError("field tables support q <= 25")
        p, k = _prime_power(q)
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


def _mat_mul(F: FiniteField, A, B):
    n = len(A)
    add, mul = F.add, F.mul
    out = []
    for i in range(n):
        row_a = A[i]
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[row_a[k]][B[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _squares_to_identity(F: FiniteField, g) -> bool:
    """g*g == I, computed entry by entry and stopped at the first entry
    that differs from the identity matrix."""
    n = len(g)
    add, mul = F.add, F.mul
    for i in range(n):
        row = g[i]
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[row[k]][g[k][j]]]
            if acc != (1 if i == j else 0):
                return False
    return True


def _identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def gl_matrices(n: int, q: int):
    """Yield every invertible n x n matrix over F_q (budget-guarded)."""
    F = FiniteField(q)
    vectors = list(product(range(q), repeat=n))
    add, mul = F.add, F.mul
    rows = []

    def rec(span):
        level = len(rows)
        for v in vectors:
            if v in span:
                continue
            rows.append(v)
            if level + 1 == n:
                yield tuple(rows)
            else:
                bigger = set()
                for s in span:
                    for c in range(q):
                        bigger.add(tuple(add[s[i]][mul[c][v[i]]] for i in range(n)))
                yield from rec(bigger)
            rows.pop()

    yield from rec({tuple([0] * n)})


def u_matrices(n: int, q: int):
    """Yield every matrix g over F_{q^2} with conj(g)^T g = I, where
    conj is a -> a^q; equivalently the rows are orthonormal under
    herm(x, y) = sum_i x_i * conj(y_i)."""
    F = FiniteField(q * q)
    conj = tuple(F.pow(a, q) for a in range(F.q))
    add, mul = F.add, F.mul
    vectors = list(product(range(F.q), repeat=n))

    def herm(x, y):
        acc = 0
        for i in range(n):
            acc = add[acc][mul[x[i]][conj[y[i]]]]
        return acc

    unit = [v for v in vectors if herm(v, v) == 1]
    rows = []

    def rec():
        for v in unit:
            if all(herm(v, r) == 0 for r in rows):
                rows.append(v)
                if len(rows) == n:
                    yield tuple(rows)
                else:
                    yield from rec()
                rows.pop()

    yield from rec()


_ORDER_BUDGET = 10 ** 7
_SCAN_BUDGET = 10 ** 5


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
    FiniteField(q * q if flavor == "u" else q)  # validates field size


@lru_cache(maxsize=None)
def _enumerate_stats(flavor: str, n: int, q: int):
    _check_budget(flavor, n, q)
    gen = gl_matrices(n, q) if flavor == "gl" else u_matrices(n, q)
    F = FiniteField(q if flavor == "gl" else q * q)
    order = 0
    sqrts = 0
    for g in gen:
        order += 1
        if _squares_to_identity(F, g):
            sqrts += 1
    return order, sqrts


def group_order(flavor: str, n: int, q: int) -> int:
    """|GL(n,q)| or |U(n,q)| by explicit enumeration."""
    return _enumerate_stats(flavor, n, q)[0]


def count_square_roots_of_identity(flavor: str, n: int, q: int) -> int:
    """Number of enumerated group elements g with g*g = identity."""
    return _enumerate_stats(flavor, n, q)[1]
