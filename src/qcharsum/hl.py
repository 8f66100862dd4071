"""Principal specializations of Hall-Littlewood polynomials.

Main entry points:

* hl_principal_poly(lam): P_lam(1, z, z^2, ...; t) cleared of denominators,
  F_lam(z, t) = (z;z)_n P_lam(1, z, z^2, ...; t) with n = |lam| <= 12, as a
  map {(t-exponent, z-exponent): int}.  It is built by the branching rule
  for Hall-Littlewood functions (Macdonald III (5.8'), (5.11')): peeling
  x_1 = 1 off P_lam gives F_lam as a sum over the horizontal strips lam/mu
  of psi_(lam/mu)(t) z^|mu| F_mu prod_(i=|mu|+1)^(n-1) (1 - z^i), so no
  tableau is walked, no matrix inverted and no rational arithmetic done.
  Each t-coefficient is kept as one int, the z-polynomial evaluated at
  z = 2^32, and the map is read back from it once.
* kostka_foulkes(n): the full transition matrix K_{lam,mu}(t) between Schur
  and Hall-Littlewood bases at size n, together with its inverse (both are
  unitriangular in dominance order, hence in the reverse-lexicographic
  enumeration order).  Column mu of K comes from one walk over chains of
  horizontal strips, which meets every semistandard tableau of content mu,
  of every shape, exactly once; its charge (Lascoux-Schutzenberger) goes
  into the bucket of its shape.  Entries are integer coefficient tuples in
  t, and the inverse is solved in integers.  No library route reads it:
  the tests check F_lam against sum_mu K_inv(lam, mu)(t) f_mu(z), where
  f_mu(z) = (z;z)_n s_mu(1, z, ...) = z^n(mu) (z;z)_n / prod_b (1 - z^h(b))
  (_fake_degree, Stanley, EC2, Cor. 7.21.5).
* hl_principal(lam, z, t): P_lam(1, z, z^2, ...; t) = F_lam(z, t) / (z;z)_n
  at any z and t in Q(q).  With z = a/b and t = c/d over Z[q], numerator
  and denominator are integer polynomials built with no gcd, and the
  quotient is normalized once and returned as a RatFunc.
* hl_finite_oracle(lam, xs, t): an independent check that never touches
  tableaux: P_lam in m <= 6 concrete variables as Macdonald's symmetrization
  over the cosets S_m / S_m^lam.  Every term is polynomial in t, so no
  division by v_lam(t) is needed and no t-polynomial is kept: t is
  substituted at once, even where v_lam(t) vanishes (t = -1 with repeated
  parts).  Times the Vandermonde product prod_{i<j} (x_i - x_j), every
  term is an integer polynomial over one common denominator, so the sum is
  taken in integers and normalized once; the value is always a RatFunc.
  The `oracle-hl-finite` check compares it with hl_principal, and so checks
  F_lam and the branching rule behind it.
* rogers_szego / rs_multi / pochhammer_cd: small q-series ingredients in
  any ring, for the worked examples; the unitary partition sums of chars
  build their weights in integer lists.

hl_principal and hl_finite_oracle evaluate their integer polynomials at
q = 2^s (Kronecker substitution): each polynomial is packed into one Python
int per call, every product is one int product, and numerator and
denominator are read back once in balanced base 2^s (_pack, _unpack) and
normalized once.  The read is exact because evaluation at 2^s is a ring map
Z[q] -> Z and s is chosen, from L1 norms, so that every coefficient of the
result has absolute value < 2^(s-1).

The checks ask for the same values over and over, so the t-rows of F_lam
and its map are memoized by lam, and P_lam(z; t) by (lam, z, t), with z and
t taken as RatFuncs.  The unitary partition sums read F_lam directly, so the
P_lam memo serves the oracle check, the worked examples and the CLI.
Outside this module the memos are reached only through hl_principal_poly
and hl_principal, so patching one of those names in a caller's namespace
intercepts every call it makes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from . import _kernel as _k
from .exact import RatFunc
from .partitions import Partition, _gauss_row, enumerate_partitions

_KOSTKA_BUDGET = 12


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


# ---------------------------------------------------------------------------
# Charge and the Kostka-Foulkes table.
# ---------------------------------------------------------------------------


def charge(word) -> int:
    """Charge of a word with partition content (Lascoux-Schutzenberger).

    Standard subwords are extracted one after another: the rightmost 1,
    then, scanning leftward cyclically, the next 2, 3, ...  A letter's
    index is its predecessor's, plus one when the scan wraps past the start
    of the word; the charge is the sum of the indices.  Each value keeps the
    sorted positions of its letters, so each step of the scan is a bisection.
    """
    where = [[] for _ in range(max(word, default=0) + 2)]
    for i, a in enumerate(word):
        where[a].append(i)
    total = 0
    while where[1]:
        cur = where[1].pop()
        idx = 0
        v = 2
        while where[v]:
            ps = where[v]
            k = bisect_left(ps, cur)
            if not k:
                k = len(ps)
                idx += 1
            cur = ps.pop(k - 1)
            total += idx
            v += 1
    return total


def _charge_column(mu: tuple) -> dict:
    """{lam: counts} over the semistandard tableaux of content mu, where
    counts[c] is the number of tableaux of shape lam with charge c.

    One walk covers every shape.  The values v = 1, 2, ... are placed in
    turn, each as a horizontal strip of mu[v-1] cells: row i > 0 gains at
    most shape[i-1] - shape[i] cells (the first empty row at most the last
    row's length) and row 0 takes whatever the rows below it leave.  So
    every chain of strips is a tableau and no branch is abandoned.
    """
    rows = len(mu)
    if not rows:
        return {(): [1]}
    shape = [0] * rows
    fill = [[] for _ in range(rows)]
    column = {}

    def place(v, i, left):
        # put `left` more cells of value v + 1 into rows i, i - 1, ..., 0,
        # passing over the rows that can take none
        while i and (not left or shape[i - 1] == shape[i]):
            i -= 1
        if i:
            row, base = fill[i], shape[i]
            top = min(shape[i - 1] - base, left)
            for add in range(top + 1):
                if add:
                    row.append(v + 1)
                    shape[i] = base + add
                place(v, i - 1, left - add)
            shape[i] = base
            del row[base:]
            return
        shape[0] += left
        fill[0].extend([v + 1] * left)
        if v + 1 < rows:
            place(v + 1, shape.index(0) if not shape[-1] else rows - 1, mu[v + 1])
        else:
            c = charge([a for row in reversed(fill) for a in row])
            counts = column.setdefault(tuple(p for p in shape if p), [])
            if c >= len(counts):
                counts.extend([0] * (c + 1 - len(counts)))
            counts[c] += 1
        shape[0] -= left
        del fill[0][shape[0]:]

    place(0, 0, mu[0])
    return column


@dataclass(frozen=True)
class KostkaTable:
    """Kostka-Foulkes matrix at size n and its inverse.

    Both maps send a pair of part-tuples (lam, mu) to a polynomial in t with
    integer coefficients, stored as a tuple (index = power of t, last entry
    nonzero); pairs whose polynomial is 0 are absent.  Rows are indexed by
    the Schur label: s_lam = sum_mu K[lam, mu] P_mu and
    P_lam = sum_mu K_inv[lam, mu] s_mu.  `order` lists the partitions of n
    reverse-lexicographically, in which both matrices are upper unitriangular.
    """

    n: int
    order: tuple
    K: dict
    K_inv: dict


@lru_cache(maxsize=None)
def kostka_foulkes(n: int) -> KostkaTable:
    """Kostka-Foulkes transition data for partitions of n (n <= 12).

    Column mu of K is the charge generating function of the tableaux of
    content mu, bucketed by shape (Macdonald III.6); K_inv is solved by
    back-substitution in integer coefficient lists.
    """
    if not (0 <= n <= _KOSTKA_BUDGET):
        raise ValueError(f"kostka_foulkes supports 0 <= n <= {_KOSTKA_BUDGET}")
    order = tuple(enumerate_partitions(n))
    labels = [p.parts for p in order]
    K = {}
    for mu in labels:
        for lam, counts in _charge_column(mu).items():
            K[lam, mu] = tuple(counts)
    K_inv = {}
    for i, lam in enumerate(labels):
        row = {i: [1]}
        for j in range(i + 1, len(labels)):
            acc = []
            for k, co in row.items():
                b = K.get((labels[k], labels[j]))
                if b is not None:
                    acc = _k.zz_sub(acc, _k.zz_mul(co, b))
            if acc:
                row[j] = acc
        for j, co in row.items():
            K_inv[lam, labels[j]] = tuple(co)
    return KostkaTable(n=n, order=order, K=K, K_inv=K_inv)


# ---------------------------------------------------------------------------
# Integer principal specializations, cleared of (z;z)_n.
# ---------------------------------------------------------------------------


def _times_one_minus_zpow(co: list, h: int) -> list:
    """Coefficients of (1 - z^h) * co."""
    out = co + [0] * h
    for k, c in enumerate(co):
        out[k + h] -= c
    return out


def _over_one_minus_zpow(co: list, h: int) -> list:
    """Coefficients of co / (1 - z^h); ValueError unless the division is exact."""
    deg = len(co) - 1 - h
    out = []
    for k in range(deg + 1):
        out.append(co[k] + (out[k - h] if k >= h else 0))
    for k in range(max(deg + 1, 0), len(co)):
        if co[k] + (out[k - h] if 0 <= k - h <= deg else 0):
            raise ValueError("inexact division by 1 - z^h")
    return out


@lru_cache(maxsize=None)
def _fake_degree(parts: tuple) -> tuple:
    """f_mu(z) = z^n(mu) (z;z)_n / prod_b (1 - z^h(b)), n = |mu|, as integers.

    This is (z;z)_n s_mu(1, z, z^2, ...), the major-index generating
    function of the standard tableaux of shape mu, so every division by a
    hook factor is exact.
    """
    mu = Partition(parts)
    co = [0] * mu.n_stat() + [1]
    for i in range(1, mu.size + 1):
        co = _times_one_minus_zpow(co, i)
    for h in mu.hooks():
        co = _over_one_minus_zpow(co, h)
    return tuple(co)


def hl_principal_poly(lam) -> MappingProxyType:
    """F_lam(z, t) = (z;z)_n P_lam(1, z, z^2, ...; t), n = |lam| <= 12, over the integers.

    A read-only map {(t-exponent, z-exponent): nonzero int}, read once from
    the t-rows of _hl_rows.  It is memoized, so a second call returns the
    same object.
    """
    return _hl_principal_poly(_as_partition(lam).parts)


@lru_cache(maxsize=None)
def _hl_principal_poly(parts: tuple) -> MappingProxyType:
    if sum(parts) > _KOSTKA_BUDGET:
        raise ValueError(f"hl_principal_poly supports |lam| <= {_KOSTKA_BUDGET}")
    return MappingProxyType({(k, e): c for k, row in enumerate(_hl_rows(parts))
                             for e, c in enumerate(_unpack(row, _ROW_BITS)) if c})


# Row k of F_lam is its t^k coefficient, a polynomial in z, evaluated at
# z = 2^_ROW_BITS.  The read-back is exact while every coefficient of F_lam
# is below 2^31 in absolute value; for |lam| <= 12 the recursive L1 bound of
# the branching rule is below 2^29.
_ROW_BITS = 32


def _strips_below(lam: tuple):
    """The mu != lam for which lam/mu is a horizontal strip: lam_(i+1) <= mu_i <= lam_i."""
    for mu in product(*(range(low, high + 1) for low, high in zip(lam[1:] + (0,), lam))):
        if mu != lam:
            yield mu[:len(mu) - mu.count(0)]


def _strip_weight(lam: tuple, mu: tuple) -> list:
    """psi_(lam/mu)(t) for a horizontal strip lam/mu (Macdonald III (5.8')).

    It is the product of 1 - t^(m_j(mu)) over the columns j >= 1 that hold
    no cell of the strip while column j + 1 does, as an integer list in t.
    """
    cols = {c for i, part in enumerate(lam)
            for c in range((mu[i] if i < len(mu) else 0) + 1, part + 1)}
    psi = [1]
    for c in cols:
        if c > 1 and c - 1 not in cols:
            psi = _times_one_minus_zpow(psi, mu.count(c - 1))
    return psi


@lru_cache(maxsize=None)
def _hl_rows(lam: tuple) -> tuple:
    """F_lam as a tuple of t-rows, each an int (see _ROW_BITS), by the branching rule.

    Peeling x_1 = 1 off P_lam = sum_T psi_T(t) x^T (Macdonald III (5.11'))
    gives P_lam(1, z, ...) = sum_mu psi_(lam/mu)(t) z^|mu| P_mu(1, z, ...)
    over the horizontal strips lam/mu.  The mu = lam term moved left, and
    both sides times (z;z)_(n-1):
    F_lam = sum_(mu != lam) psi_(lam/mu)(t) z^|mu| F_mu prod_(i=|mu|+1)^(n-1) (1 - z^i).
    The mu are grouped by size m, and the factors applied by Horner's rule.
    """
    n = sum(lam)
    if not n:
        return (1,)
    by_size: dict = {}
    for mu in _strips_below(lam):
        acc = by_size.setdefault(sum(mu), [])
        rows = _hl_rows(mu)
        for j, c in enumerate(_strip_weight(lam, mu)):
            if c:
                acc.extend([0] * (j + len(rows) - len(acc)))
                for k, row in enumerate(rows, j):
                    acc[k] += c * row
    out: list = []
    for m in range(min(by_size), n):
        out = [row - (row << _ROW_BITS * m) for row in out]  # times 1 - z^m
        g = by_size.get(m, ())
        out.extend([0] * (len(g) - len(out)))
        for k, row in enumerate(g):
            out[k] += row << _ROW_BITS * m
    return tuple(out)


# ---------------------------------------------------------------------------
# Principal values P_lam = F_lam / (z;z)_n.
# ---------------------------------------------------------------------------


def hl_principal(lam, z, t) -> RatFunc:
    """P_lam(1, z, z^2, ...; t) = F_lam(z, t) / (z;z)_n, n = |lam|.

    z and t are taken as RatFuncs, and the value is memoized by (lam, z, t).
    Numerator and denominator are evaluated at q = 2^s as Python ints and
    read back once, then normalized once as a RatFunc.
    """
    return _hl_value(_as_partition(lam).parts, RatFunc(z), RatFunc(t))


def _pack(co: list, s: int) -> int:
    """The integer polynomial co evaluated at q = 2^s."""
    v = 0
    for c in reversed(co):
        v = (v << s) + c
    return v


def _unpack(v: int, s: int) -> list:
    """The integer polynomial whose value at q = 2^s is v, read in balanced
    base 2^s: a digit >= 2^(s-1) stands for digit - 2^s.  The read is exact
    when every coefficient has absolute value < 2^(s-1)."""
    mask, half, base = (1 << s) - 1, 1 << (s - 1), 1 << s
    co = []
    while v:
        digit = v & mask
        if digit >= half:
            digit -= base
        co.append(digit)
        v = (v - digit) >> s
    return co


@lru_cache(maxsize=None)
def _hl_value(parts: tuple, z: RatFunc, t: RatFunc) -> RatFunc:
    # With z = a/b, t = c/d, N = n(n+1)/2 >= deg_z F and K = deg_t F:
    # F(z, t) / (z;z)_n = sum F[k, e] c^k d^(K-k) a^e b^(N-e)
    #                     / (d^K prod_{i<=n} (b^i - a^i)).
    # Both are evaluated at q = 2^s, with s from L1 norms (|fg|_1 <=
    # |f|_1 |g|_1), and read back once.
    f = _hl_principal_poly(parts)
    n = sum(parts)
    big_n = n * (n + 1) // 2
    big_k = max(k for k, _ in f)
    (a, b), (c, d) = (z.n, z.d), (t.n, t.d)
    na, nb, nc, nd = (sum(map(abs, co)) for co in (a, b, c, d))
    num_bound = sum(map(abs, f.values())) * max(nc, nd) ** big_k * max(na, nb) ** big_n
    den_bound = nd ** big_k * prod(na ** i + nb ** i for i in range(1, n + 1))
    s = max(num_bound, den_bound).bit_length() + 1
    a, b, c, d = (_pack(co, s) for co in (a, b, c, d))
    ab = [a ** e * b ** (big_n - e) for e in range(big_n + 1)]
    by_k = {}
    for (k, e), co in f.items():
        by_k[k] = by_k.get(k, 0) + co * ab[e]
    num = sum(c ** k * d ** (big_k - k) * row for k, row in by_k.items())
    den = d ** big_k * prod(b ** i - a ** i for i in range(1, n + 1))
    return RatFunc.from_ic(_unpack(num, s), _unpack(den, s))


# ---------------------------------------------------------------------------
# Finite-variable oracle.
# ---------------------------------------------------------------------------


def _rearrangements(parts: tuple):
    """The distinct orderings of parts, each once, in lexicographic order
    (the next-permutation step: raise the last ascent, reverse the tail)."""
    word = sorted(parts)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def hl_finite_oracle(lam, xs, t) -> RatFunc:
    """P_lam(x_1..x_m; t) by symmetrizing over the cosets S_m / S_m^lam (m <= 6).

    Macdonald III (2.2): the sum, over the distinct rearrangements e of lam
    padded with zeros to m parts, of x^e prod_{e_i > e_j} (x_i - t x_j) /
    (x_i - x_j).  Each term is polynomial in t, so t may be any element of
    Q(q), including values where v_lam(t) = 0.  The xs must be distinct.

    Times V = prod_{i<j} (x_i - x_j), a term is x^e prod_{e_i > e_j}
    +-(x_i - t x_j) prod_{i<j, e_i = e_j} (x_i - x_j), with -1 where i > j.
    With x_i = a_i/b_i and t = c/d over Z[q], every such term is an integer
    polynomial over the one denominator prod_i b_i^lam_1 d^P prod_{i<j}
    (a_i b_j - a_j b_i), P the number of pairs with e_i != e_j.  Each a_i,
    b_i, c and d is evaluated once at q = 2^s, every term and the denominator
    are Python int products, num and den are read back once, and the quotient
    is normalized once, so the value is always a RatFunc.
    """
    lam = _as_partition(lam)
    xs = tuple(RatFunc(x) for x in xs)
    t = RatFunc(t)
    m = len(xs)
    if m > 6:
        raise ValueError("finite oracle supports at most 6 variables")
    if lam.ell > m:
        raise ValueError("need at least ell(lam) variables")
    if len(set(xs)) != m:
        raise ValueError("variables must be distinct")
    # r = a/b, the integer pair that r stores
    a, b = [r.n for r in xs + (t,)], [r.d for r in xs + (t,)]
    top = lam.parts[0] if lam.parts else 0
    padded = lam.parts + (0,) * (m - lam.ell)
    cosets = list(_rearrangements(padded))
    unequal = sum(padded[i] != padded[j] for i in range(m) for j in range(i))
    # Every integer polynomial below is evaluated at q = 2^s, so a product is
    # one int product, and num and den are read back once.  s comes from L1
    # norms (|fg|_1 <= |f|_1 |g|_1): a term, and den, are bounded by
    # prod_i max(|a_i|, |b_i|)^lam_1 times max(|c|, |d|) (|a_i| |b_j| +
    # |a_j| |b_i|) per pair i < j, and num by the number of cosets times that.
    na, nb = [sum(map(abs, co)) for co in a], [sum(map(abs, co)) for co in b]
    ncd = max(na.pop(), nb.pop())
    bound = len(cosets) * prod(max(na[i], nb[i]) ** top for i in range(m)) * prod(
        ncd * (na[i] * nb[j] + na[j] * nb[i]) for i in range(m) for j in range(i))
    s = bound.bit_length() + 1
    a, b = [_pack(co, s) for co in a], [_pack(co, s) for co in b]
    c, d = a.pop(), b.pop()
    # x_i^k, cleared to a_i^k b_i^(lam_1 - k)
    mono = [{k: a[i] ** k * b[i] ** (top - k) for k in set(padded)} for i in range(m)]
    cross = {(i, j): a[i] * b[j] for i in range(m) for j in range(m) if i != j}
    moved = {}  # V (x_i - t x_j) / (x_i - x_j), cleared, for e_i > e_j
    for (i, j), ab in cross.items():
        f = ab * d - c * cross[j, i]
        moved[i, j] = -f if i > j else f
    still = {(i, j): ab - cross[j, i]  # x_i - x_j, cleared
             for (i, j), ab in cross.items() if i < j}
    num = 0
    for e in cosets:
        term = prod(mono[i][e[i]] for i in range(m))
        for i, j in still:  # one factor per pair i < j
            term *= (moved[i, j] if e[i] > e[j] else
                     moved[j, i] if e[i] < e[j] else still[i, j])
        num += term
    den = d ** unequal * prod(b[i] ** top for i in range(m)) * prod(still.values())
    return RatFunc.from_ic(_unpack(num, s), _unpack(den, s))


# ---------------------------------------------------------------------------
# Small q-series ingredients.
# ---------------------------------------------------------------------------


def rogers_szego(m: int, z, t):
    """H_m(z; t) = sum_j [m choose j]_t z^j, by Horner's rule in z, with
    each [m choose j]_t the integer row _gauss_row(m)[j] read at t by
    Horner's rule."""
    acc = None
    for row in reversed(_gauss_row(m)):
        c = t * 0
        for a in reversed(row):
            c = c * t + a
        acc = c if acc is None else acc * z + c
    return acc


def rs_multi(lam, z, t):
    """prod over distinct part sizes of H_{multiplicity}(z; t)."""
    lam = _as_partition(lam)
    acc = t * 0 + 1
    for mult in lam.mults().values():
        acc = acc * rogers_szego(mult, z, t)
    return acc


def pochhammer_cd(c, d, m: int):
    """(c; d)_m = prod_{j=0}^{m-1} (1 - c d^j)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    one = c * 0 + 1
    acc = one
    power = one
    for _ in range(m):
        acc = acc * (one - c * power)
        power = power * d
    return acc
