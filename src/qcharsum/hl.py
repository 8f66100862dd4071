"""Principal specializations of Schur and Hall-Littlewood polynomials.

Main entry points:

* schur_principal(lam, z): s_lam(1, z, z^2, ...) as the classical hook
  product z^{n(lam)} / prod_b (1 - z^{h(b)}).
* kostka_foulkes(n): the full transition matrix K_{lam,mu}(t) between Schur
  and Hall-Littlewood bases at size n, computed from tableaux via the
  charge statistic, together with its inverse (both are unitriangular in
  dominance order, hence in the reverse-lexicographic enumeration order).
* hl_principal(lam, z, t): P_lam(1, z, z^2, ...; t) obtained by expanding P
  in Schur functions through the inverse Kostka-Foulkes matrix.
* hl_finite_oracle(lam, xs, t): an independent check that never touches
  tableaux: the alternating-sum definition of P_lam in m <= 6 concrete
  variables.  The t-dependence is kept polynomial until the very end so
  that specializations where v_lam(t) vanishes (notably t = -1 with
  repeated parts) are handled exactly.
* rogers_szego / rs_multi / rs_homog / pochhammer_cd / c_nu: the small
  q-series ingredients used by the degree-sum formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .exact import QPoly, RatFunc
from .partitions import Partition, enumerate_partitions, dominates, gaussian_binomial

_KOSTKA_BUDGET = 12


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


def schur_principal(lam, z):
    """s_lam at x_i = z^(i-1) for i >= 1: z^n(lam) / prod_b (1 - z^h(b))."""
    lam = _as_partition(lam)
    one = z * 0 + 1
    num = one * z ** lam.n_stat() if lam.size else one
    den = one
    for h in lam.hooks():
        den = den * (one - z ** h)
    return num / den


# ---------------------------------------------------------------------------
# Tableaux, charge, Kostka-Foulkes.
# ---------------------------------------------------------------------------


def _horizontal_extensions(shape, bound, k):
    """All ways to add k cells to `shape` (row lengths), no two in a column,
    staying inside row bounds `bound`."""
    rows = len(bound)
    out = []

    def rec(i, left, acc):
        if i == rows:
            if left == 0:
                out.append(tuple(acc))
            return
        cap = bound[i] - shape[i]
        if i > 0:
            cap = min(cap, max(0, shape[i - 1] - shape[i]))
        lo = 0
        # cells still to place must fit in the remaining rows; cheap prune
        for add in range(lo, min(cap, left) + 1):
            acc.append(shape[i] + add)
            rec(i + 1, left - add, acc)
            acc.pop()

    rec(0, k, [])
    return out


def _ssyt_words(lam: Partition, mu: Partition):
    """Reading words (bottom row first, each row left to right) of all
    semistandard tableaux of shape lam and content mu."""
    rows = lam.ell
    target = tuple(lam.parts)
    words = []
    fill = [[] for _ in range(rows)]

    def rec(v, shape):
        if v > mu.ell:
            if shape == target:
                word = []
                for r in range(rows - 1, -1, -1):
                    word.extend(fill[r])
                words.append(tuple(word))
            return
        k = mu[v - 1]
        for newshape in _horizontal_extensions(shape, target, k):
            for r in range(rows):
                fill[r].extend([v] * (newshape[r] - shape[r]))
            rec(v + 1, newshape)
            for r in range(rows):
                del fill[r][len(fill[r]) - (newshape[r] - shape[r]):]

    rec(1, (0,) * rows)
    return words


def charge(word) -> int:
    """Charge of a word with partition content, by repeated extraction of
    standard subwords scanning right-to-left cyclically."""
    remaining = list(word)
    total = 0
    while remaining:
        n = len(remaining)
        # pick the rightmost 1, then cyclically leftward the next value
        pos = max(i for i, a in enumerate(remaining) if a == 1)
        chosen = {1: pos}
        need = 2
        cur = pos
        present = set(remaining)
        while need in present:
            found = None
            for step in range(1, n):
                j = (cur - step) % n
                if remaining[j] == need and j not in chosen.values():
                    found = j
                    break
            if found is None:
                break
            chosen[need] = found
            cur = found
            need += 1
        # index statistic on the extracted subword, in original word order
        idx = 0
        for v in range(2, need):
            if chosen[v] > chosen[v - 1]:
                idx += 1
            total += idx
        for j in sorted(chosen.values(), reverse=True):
            del remaining[j]
    return total


@dataclass(frozen=True)
class KostkaTable:
    """Kostka-Foulkes matrix at size n and its inverse.

    Both maps send a pair of part-tuples (lam, mu) to a polynomial in t.
    Rows are indexed by the Schur label: s_lam = sum_mu K[lam, mu] P_mu and
    P_lam = sum_mu K_inv[lam, mu] s_mu.
    """

    n: int
    order: tuple
    K: dict
    K_inv: dict


def _kostka_poly(lam: Partition, mu: Partition) -> QPoly:
    co = {}
    for w in _ssyt_words(lam, mu):
        c = charge(w)
        co[c] = co.get(c, 0) + 1
    if not co:
        return QPoly()
    return QPoly([co.get(i, 0) for i in range(max(co) + 1)])


@lru_cache(maxsize=None)
def kostka_foulkes(n: int) -> KostkaTable:
    """Kostka-Foulkes transition data for partitions of n (n <= 12)."""
    if not (0 <= n <= _KOSTKA_BUDGET):
        raise ValueError(f"kostka_foulkes supports 0 <= n <= {_KOSTKA_BUDGET}")
    order = tuple(enumerate_partitions(n))
    m = len(order)
    one = QPoly([1])
    K = {}
    for i, lam in enumerate(order):
        for j, mu in enumerate(order):
            if i == j:
                K[(lam.parts, mu.parts)] = one
            elif j > i and dominates(lam, mu):
                p = _kostka_poly(lam, mu)
                if p:
                    K[(lam.parts, mu.parts)] = p
    # invert the unit upper-triangular matrix by back-substitution
    K_inv = {}
    for i in range(m):
        K_inv[(order[i].parts, order[i].parts)] = one
        for j in range(i + 1, m):
            acc = QPoly()
            for k in range(i, j):
                a = K_inv.get((order[i].parts, order[k].parts))
                b = K.get((order[k].parts, order[j].parts))
                if a is not None and b is not None:
                    acc = acc + a * b
            if acc:
                K_inv[(order[i].parts, order[j].parts)] = -acc
    return KostkaTable(n=n, order=order, K=K, K_inv=K_inv)


@dataclass(frozen=True)
class HLValue:
    lam: Partition
    z: object
    t: object
    value: object


def hl_principal(lam, z, t) -> HLValue:
    """P_lam(1, z, z^2, ...; t), via the inverse Kostka-Foulkes expansion."""
    lam = _as_partition(lam)
    table = kostka_foulkes(lam.size)
    acc = None
    for mu in table.order:
        c = table.K_inv.get((lam.parts, mu.parts))
        if c is None:
            continue
        term = c.eval(t) * schur_principal(mu, z)
        acc = term if acc is None else acc + term
    return HLValue(lam=lam, z=z, t=t, value=acc)


# ---------------------------------------------------------------------------
# Finite-variable oracle.
# ---------------------------------------------------------------------------


def _perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = p[i]
        length = 1
        seen[i] = True
        while j != i:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _tp_add(a, b, zero):
    n = max(len(a), len(b))
    out = [zero] * n
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def _tp_divexact_monic(num, den, zero):
    """Divide coefficient lists exactly by a monic integer polynomial."""
    if len(num) < len(den):
        if any(c for c in num):
            raise AssertionError("inexact division in finite oracle")
        return [zero]
    num = list(num)
    dq = len(den) - 1
    out = [zero] * (len(num) - dq)
    for i in range(len(num) - 1, dq - 1, -1):
        c = num[i]
        out[i - dq] = c
        if c:
            for k in range(dq + 1):
                num[i - dq + k] = num[i - dq + k] - c * den[k]
    if any(c for c in num[:dq]):
        raise AssertionError("inexact division in finite oracle")
    return out


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _v_poly(mults) -> list:
    """prod over multiplicities k of (1-t)(1-t^2)...(1-t^k) / (1-t)^k,
    i.e. the product of t-factorials [k]_t!."""
    out = [1]
    for k in mults:
        for j in range(2, k + 1):
            out = _int_poly_mul(out, [1] * j)
    return out


_FINITE_CACHE = {}


def hl_finite_oracle(lam, xs, t):
    """P_lam(x_1..x_m; t) from the alternating-sum definition (m <= 6).

    The xs must be distinct and nonzero; t may be any scalar, including
    values where v_lam(t) = 0, because division happens at the polynomial
    level before t is substituted.
    """
    lam = _as_partition(lam)
    xs = tuple(Fraction(x) if isinstance(x, int) else x for x in xs)
    m = len(xs)
    if m > 6:
        raise ValueError("finite oracle supports at most 6 variables")
    if lam.ell > m:
        raise ValueError("need at least ell(lam) variables")
    if len(set(xs)) != m:
        raise ValueError("variables must be distinct")
    key = (lam.parts, xs)
    coeffs = _FINITE_CACHE.get(key)
    if coeffs is None:
        zero = xs[0] * 0
        exps = list(lam.parts) + [0] * (m - lam.ell)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        total = [zero]
        for p in permutations(range(m)):
            scalar = _perm_sign(p) * (xs[0] * 0 + 1)
            for k in range(m):
                if exps[k]:
                    scalar = scalar * xs[p[k]] ** exps[k]
            poly = [scalar]
            for (i, j) in pairs:
                c0, c1 = xs[p[i]], -xs[p[j]]
                nxt = [zero] * (len(poly) + 1)
                for idx, c in enumerate(poly):
                    if c:
                        nxt[idx] = nxt[idx] + c * c0
                        nxt[idx + 1] = nxt[idx + 1] + c * c1
                poly = nxt
            total = _tp_add(total, poly, zero)
        vandermonde = xs[0] * 0 + 1
        for (i, j) in pairs:
            vandermonde = vandermonde * (xs[i] - xs[j])
        total = [c / vandermonde for c in total]
        mults = [m - lam.ell] + [v for v in lam.mults().values()]
        coeffs = tuple(_tp_divexact_monic(total, _v_poly(mults), zero))
        _FINITE_CACHE[key] = coeffs
    acc = t * 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# ---------------------------------------------------------------------------
# Small q-series ingredients.
# ---------------------------------------------------------------------------


def rogers_szego(m: int, z, t):
    """H_m(z; t) = sum_j [m choose j]_t z^j."""
    acc = None
    for j in range(m, -1, -1):
        c = gaussian_binomial(m, j).eval(t)
        acc = c if acc is None else acc * z + c
    return acc


def rs_homog(m: int, a, b, t):
    """sum_j [m choose j]_t a^(m-j) b^j, i.e. a^m H_m(b/a; t) cleared of a."""
    acc = None
    for j in range(m + 1):
        term = gaussian_binomial(m, j).eval(t) * a ** (m - j) * b ** j
        acc = term if acc is None else acc + term
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


def c_nu(nu, t):
    """prod over part sizes of (1-t)(1-t^3)...(1-t^(m_i-1)), odd exponents."""
    nu = _as_partition(nu)
    one = t * 0 + 1
    acc = one
    for mult in nu.mults().values():
        k = 1
        while k <= mult - 1:
            acc = acc * (one - t ** k)
            k += 2
    return acc
