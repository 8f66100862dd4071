"""Real character degree sums and involution counts.

Conventions used throughout (gamma for the linear flavor, omega for the
unitary one); the group orders and prefactors below are the memoized integer
product _order_ic, shifted by q^binom(n,2) or not:

* gamma_n = |GL(n,q)| = q^binom(n,2) * prod_{i=1..n} (q^i - 1)
* omega_n = |U(n,q)|  = q^binom(n,2) * prod_{i=1..n} (q^i - (-1)^i)
* prefactors: (q^n-1)...(q-1) for gl, (q^n-(-1)^n)...(q+1) for u.

Characters are parametrized by assigning a partition to each polynomial
class (polycount module); a character is real iff conjugate classes carry
equal partitions.  Its degree is the prefactor times one hook factor per
class (Green's degree formula, char_degree).  Two routes sum those degrees:

* real_degree_sum_oracle enumerates the real characters one by one, over
  the classes of the orbit census (brute_poly_census), with char_degree;
* real_sum_gf_from_classes factors the generating function over
  self-conjugate classes and pairs.  Its per-class blocks are built from the
  fake-degree polynomials f_mu(y) = (y;y)_n s_mu(1, y, ...) of the hl module
  at y = x^d, x = +-q, and raised to the symbolic class counts by finite
  binomial series, all in integer lists scaled by (x;x)_n that multiply by
  the q-binomial convolution over the Gaussian rows of partitions._gauss_row
  (the rows the qseries products read too).  The powers of the blocks are
  memoized, since they depend neither on q nor on its parity; the class
  counts come through the count_selfdual_and_pairs binding on every call.

Everything is exact: RatFunc values symbolically (q=None), and at integer q
the symbolic value for q's parity evaluated at q, an int (polycount._finish).
The closed-form involution count is the paper's sum of group-order
quotients, each term built from the previous one by ratios of factors
1 - x^a in integer lists (_involution_terms), so it shares no group-order
code with the generating-function side it is checked against.  A rank
n < 0 raises ValueError (_check_rank).

The unitary partition sums over Hall-Littlewood values P_lam(1, z, z^2, ...;
t) at z = -1/q are polynomials in w = 1/q over one denominator: the u
prefactor is q^N (-w;-w)_n, N = binom(n+1, 2), and P_lam = F_lam(-w, t) /
(-w;-w)_|lam| with the integer F_lam of hl_principal_poly.  They are summed
as integer lists in w, with the Gaussian rows of partitions (_rs_at_wpow),
and turned into Q(q) once per result (_from_w).

The eps-split of U(n, q) is a pair: the degree sums over the real
characters with indicator +1 and with indicator -1, whose sum is the real
degree sum and whose difference is the involution count.  Each eps-split
route (u_eps_sums_closed, u_eps_sums_alt_even, u_eps_sums_gf) returns the
pair (plus, minus) from one computation.  The generating-function values
(real_degree_sum_gf, involution_count_gf, u_eps_sums_gf) are all read by
_named_gf_values: prefactor times the u^n coefficient of a named series.
The series are stored scaled by the prefactor's own product (x;x)_n, so
each value is one re-indexing of an integer polynomial
(qseries.named_gf_value); the series themselves, named_gf, are re-exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm, prod
from operator import add, neg, sub

from . import _kernel as _k
from .exact import RatFunc, Series
from .partitions import Partition, _gauss_row, enumerate_partitions, partitions_up_to
from .polycount import (_as_scalar, _finish, brute_poly_census, count_selfdual_and_pairs,
                        parity_e)
from .hl import _fake_degree, _over_one_minus_zpow, _times_one_minus_zpow, hl_principal_poly
from .qseries import named_gf, named_gf_value  # noqa: F401 (named_gf is re-exported)


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def _qval(q):
    """Symbolic q for None, else q as a Fraction (validated by _as_scalar)."""
    _as_scalar(q)
    return RatFunc.x() if q is None else Fraction(q)


def _check_rank(n: int) -> None:
    """The one check of a rank argument."""
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")


def _parity_name(q, parity) -> str:
    return {1: "even", 2: "odd"}[parity_e(q, parity)]


@lru_cache(maxsize=None)
def _order_ic(eps: int, n: int) -> tuple:
    """Integer coefficient tuple of prod_{i=1..n} (q^i - eps^i), eps = +-1."""
    out = (1,)
    for i in range(1, n + 1):  # times q^i - eps^i: shift by i, subtract
        out = tuple(a - eps ** i * b for a, b in zip((0,) * i + out, out + (0,) * i))
    return out


def _order_value(eps: int, n: int, shift: int, q):
    """q^shift * prod_{i=1..n} (q^i - eps^i): an int, or a RatFunc at q=None."""
    _qval(q)
    _check_rank(n)
    return _finish(RatFunc.from_ic((0,) * shift + _order_ic(eps, n), (1,)), q)


def gl_group_order(n: int, q=None):
    """gamma_n; an int for integer q, a RatFunc for q=None."""
    return _order_value(1, n, _binom2(n), q)


def u_group_order(n: int, q=None):
    """omega_n; an int for integer q, a RatFunc for q=None."""
    return _order_value(-1, n, _binom2(n), q)


def gl_prefactor(n: int, q=None):
    """(q^n - 1)(q^(n-1) - 1)...(q - 1)."""
    return _order_value(1, n, 0, q)


def u_prefactor_abs(n: int, q=None):
    """(q^n - (-1)^n)(q^(n-1) - (-1)^(n-1))...(q + 1), without sign."""
    return _order_value(-1, n, 0, q)


def _involution_terms(n: int, e: int):
    """The terms (shift, weight, co) = weight x^shift co of the involution
    count in x = eps*q, r <= n/2, each co the previous one times a ratio of
    factors 1 - x^a.  Even (e = 1): (-1)^r x^binom(r,2) (x;x)_n / ((x;x)_r
    (x;x)_(n-2r)); odd: x^(r(n-r)) [n choose r]_x, with weight 2 for the
    equal term of n - r unless 2r = n."""
    co = [1]
    yield 0, 1 if e == 1 or n == 0 else 2, co
    for r in range(1, n // 2 + 1):
        if e == 1:  # times (1 - x^(n-2r+2)) (1 - x^(n-2r+1)) / (1 - x^r)
            co = _times_one_minus_zpow(_times_one_minus_zpow(co, n - 2 * r + 2), n - 2 * r + 1)
            co = _over_one_minus_zpow(co, r)
            yield r * (r - 1) // 2, (-1) ** r, co
        else:  # times (1 - x^(n-r+1)) / (1 - x^r)
            co = _over_one_minus_zpow(_times_one_minus_zpow(co, n - r + 1), r)
            yield r * (n - r), 1 if 2 * r == n else 2, co


def _involution_sum_ic(eps: int, n: int, e: int) -> list:
    """Integer coefficient list in q of the symbolic involution count."""
    terms = list(_involution_terms(n, e))
    shift, _, co = terms[-1]  # the last term reaches the top degree
    total = [0] * (shift + len(co))
    for shift, weight, co in terms:
        end = shift + len(co)
        part = total[shift:end] if weight < 2 else map(add, total[shift:end], co)
        total[shift:end] = map(sub if weight < 0 else add, part, co)  # += weight*co
    if eps < 0:  # from x = -q to q
        total[1::2] = map(neg, total[1::2])
    return total


def involution_count(flavor: str, n: int, q=None, parity=None):
    """Number of group elements squaring to the identity, by closed formula.

    With g = gamma (gl) or omega (u):
    Even characteristic:  sum_{r <= n/2} g_n / (q^(r(2n-3r)) g_r g_(n-2r))
    Odd characteristic:   sum_{r <= n}   g_n / (g_r g_(n-r))
    The same sums are built without division in x = eps*q (eps = 1 for gl,
    -1 for u), each term from the previous one (_involution_terms), as one
    integer polynomial, which integer q evaluates:
    Even characteristic:  sum_{r <= n/2} (-1)^r x^binom(r,2) (x;x)_n
                                         / ((x;x)_r (x;x)_(n-2r))
    Odd characteristic:   sum_{r <= n}   x^(r(n-r)) [n choose r]_x
    """
    if flavor not in ("gl", "u"):
        raise ValueError(f"flavor must be 'gl' or 'u', got {flavor!r}")
    _check_rank(n)
    _as_scalar(q)
    e = parity_e(q, parity)
    ic = _involution_sum_ic(1 if flavor == "gl" else -1, n, e)
    return _finish(RatFunc.from_ic(ic, (1,)), q)


# ---------------------------------------------------------------------------
# Character degrees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharParam:
    """A character label: partitions attached to polynomial classes.

    assignments: tuple of (kind, d, parts) with kind in {"selfdual", "pair"};
    d is the class degree and parts the attached partition.  A "pair" entry
    stands for a conjugate pair of classes carrying the same partition, so
    it contributes its factor squared and weight 2*d*|parts|.
    """

    flavor: str
    assignments: tuple

    def __post_init__(self):
        if self.flavor not in ("gl", "u"):
            raise ValueError("flavor must be 'gl' or 'u'")
        for kind, d, parts in self.assignments:
            if kind not in ("selfdual", "pair") or d < 1:
                raise ValueError(f"bad assignment ({kind!r}, {d}, {parts})")
            Partition(parts)

    @property
    def weight(self) -> int:
        total = 0
        for kind, d, parts in self.assignments:
            mult = 2 if kind == "pair" else 1
            total += mult * d * Partition(parts).size
        return total


def _class_factor(flavor: str, d: int, lam: Partition, qq):
    """q^(d*n(lam')) / prod_boxes (q^(d*h) - 1)   [gl]
    q^(d*n(lam')) / prod_boxes (q^(d*h) - (-1)^(d*h))   [u]."""
    eps = 1 if flavor == "gl" else -1
    den = prod((qq ** (d * h) - eps ** (d * h) for h in lam.hooks()), start=qq ** 0)
    return qq ** (d * lam.conjugate().n_stat()) / den


def char_degree(param: CharParam, q=None):
    """Exact degree of the character labelled by `param` at rank = weight."""
    n = param.weight
    qq = _qval(q)
    pref = gl_prefactor(n, q) if param.flavor == "gl" else u_prefactor_abs(n, q)
    out = qq ** 0 * pref
    for kind, d, parts in param.assignments:
        f = _class_factor(param.flavor, d, Partition(parts), qq)
        out = out * (f * f if kind == "pair" else f)
    return _finish(out, q)


# ---------------------------------------------------------------------------
# Degree-sum generating functions from class data.
# ---------------------------------------------------------------------------


def _eulerian_product(a: list, b: list) -> list:
    """(x;x)_n (AB)_n = sum_j [n choose j]_x A_j B_(n-j) for series stored
    by their scaled coefficients A_n = (x;x)_n a_n, integer lists in x, over
    the memoized Gaussian rows of partitions._gauss_row."""
    out = []
    for n in range(len(a)):
        row, acc = _gauss_row(n), []
        for j in range(n + 1):
            if a[j] and b[n - j]:
                acc = _k.zz_add(acc, _k.zz_mul(row[j], _k.zz_mul(a[j], b[n - j])))
        out.append(acc)
    return out


def _at_power(co: list, d: int) -> list:
    """co(x^d) for an integer coefficient list co in x."""
    out = [0] * (d * (len(co) - 1) + 1)
    out[::d] = co
    return out


def _signed(co, eps: int) -> list:
    """p(eps*x) for the integer coefficient list co of p: a list in
    x = eps*q read in q, or the other way round."""
    return [-c if eps < 0 and i % 2 else c for i, c in enumerate(co)]


@lru_cache(maxsize=None)
def _assignment_blocks(flavor: str, d: int, order: int) -> tuple:
    """The powers (T_d - 1)^k and (G_d - 1)^k, k = 0, 1, ..., of the
    per-class generating functions in u

    T_d = sum_lam u^(d|lam|) f(d,lam) for one self-conjugate class,
    G_d = sum_lam u^(2d|lam|) f(d,lam)^2 for one conjugate pair,

    f the class factor of the degree formula (_class_factor).  A power is
    the list over n <= order of its scaled coefficients (x;x)_n c_n, integer
    lists in x = q (gl) or -q (u); k runs to order // d for T_d and to
    order // (2d) for G_d, the last powers below u^(order+1).

    Put y = x^d.  Since lam and lam' have the same hooks, f(d,lam) =
    sigma_lam f_lam'(y)/(y;y)_m for |lam| = m, with the fake degree
    f_mu(y) = (y;y)_m s_mu(1, y, y^2, ...) of hl._fake_degree (Stanley, EC2,
    Cor. 7.21.5) and sigma_lam = (-1)^m, or (-1)^n(lam) for u at odd d.  So
    scaled T_d holds at u^(dm) the sum of sigma_lam f_lam'(y) prod_(i <= dm, d not
    dividing i) (1 - x^i), and G_d at u^(2dm) the sum of f_lam'(y)^2 times
    [2m, m]_y and that product up to 2dm.  The powers depend neither on q
    nor on its parity, so they are memoized per (flavor, d, order).
    """
    odd_u = flavor == "u" and d % 2 == 1
    kept = [[1]]  # kept[n] = prod_(i <= n, d not dividing i) (1 - x^i)
    for i in range(1, order + 1):
        kept.append(kept[-1] if i % d == 0 else _times_one_minus_zpow(kept[-1], i))
    t_one = [[] for _ in range(order + 1)]  # T_d - 1
    g_one = [[] for _ in range(order + 1)]  # G_d - 1
    for m in range(1, order // d + 1):
        paired = 2 * d * m <= order
        t_sum, g_sum = [], []
        for lam in enumerate_partitions(m):
            f = _fake_degree(lam.conjugate().parts)
            sign = (-1) ** (lam.n_stat() if odd_u else m)
            t_sum = _k.zz_add(t_sum, _k.zz_mul_scalar(f, sign))
            if paired:
                g_sum = _k.zz_add(g_sum, _k.zz_mul(f, f))
        t_one[d * m] = _k.zz_mul(_at_power(t_sum, d), kept[d * m])
        if paired:
            g_sum = _at_power(_k.zz_mul(g_sum, _gauss_row(2 * m)[m]), d)
            g_one[2 * d * m] = _k.zz_mul(g_sum, kept[2 * d * m])
    blocks = []
    for one, step in ((t_one, d), (g_one, 2 * d)):
        powers = [[[1]] + [[] for _ in range(order)]]
        for _ in range(order // step):
            powers.append(_eulerian_product(powers[-1], one))
        blocks.append(powers)
    return tuple(blocks)


def real_sum_gf_from_classes(flavor: str, order: int, q=None, parity=None) -> Series:
    """Generating function sum_n u^n * (real degree sum at rank n)/prefactor,
    assembled from the class-count formulas (count_selfdual_and_pairs at
    symbolic q) and the per-class blocks: the product over d of
    T_d^N*(d) G_d^M*(d).  A block B with count N = P/D, P in Z[q], enters as
    B^N = sum_k C(N, k) (B - 1)^k over the powers of _assignment_blocks.
    With u scaled by M = lcm(D)*order!, coefficient n of a factor is
    sum_k P(P-D)...(P-(k-1)D) M^n/(D^k k!) (B - 1)^k_n, an integer list in
    x = eps*q (eps = 1 for gl, -1 for u).  The factors multiply by the
    q-binomial convolution over the rows partitions._gauss_row, and
    coefficient n of the product is normalized once, over (x;x)_n M^n.  At
    numeric q the coefficients are evaluated.
    """
    par = _parity_name(q, parity)
    _qval(q)
    eps = 1 if flavor == "gl" else -1
    factors = []
    for d in range(1, order + 1):
        cc = count_selfdual_and_pairs(d, None, flavor, parity=par)
        for powers, count in zip(_assignment_blocks(flavor, d, order),
                                 (cc.n_selfdual, cc.m_pairs)):
            if count and len(powers) > 1:
                factors.append((powers, count))
    big_m = lcm(*(r.d[0] for _, r in factors)) * factorial(order)
    total = [[1]] + [[] for _ in range(order)]
    for powers, r in factors:
        (den,), num = r.d, _signed(r.n, eps)  # r = P/D, P as a list in x
        factor = [[] for _ in range(order + 1)]
        binom = [1]  # P(P-D)...(P-(k-1)D)
        for k, power in enumerate(powers):
            if k:
                binom = _k.zz_mul(binom, _k.zz_add(num, [(1 - k) * den]))
            scale = den ** k * factorial(k)
            for n, co in enumerate(power):
                if co:
                    term = _k.zz_mul_scalar(_k.zz_mul(binom, co), big_m ** n // scale)
                    factor[n] = _k.zz_add(factor[n], term)
        total = _eulerian_product(total, factor)
    co, pochhammer = [], [1]  # (x;x)_n
    for n, p in enumerate(total):
        if n:
            pochhammer = _times_one_minus_zpow(pochhammer, n)
        den = _k.zz_mul_scalar(_signed(pochhammer, eps), big_m ** n)
        co.append(RatFunc.from_ic(_signed(p, eps), den))
    return Series(co if q is None else [c.eval(q) for c in co], order)


def _labels(slots: list, start: int, n: int):
    """Every tuple of (kind, d, parts) that puts nonempty partitions on
    distinct slots of slots[start:], of total weight n."""
    if n == 0:
        yield ()
        return
    for j in range(start, len(slots)):
        kind, d = slots[j]
        unit = 2 * d if kind == "pair" else d
        for m in range(1, n // unit + 1):
            for lam in enumerate_partitions(m):
                for rest in _labels(slots, j + 1, n - unit * m):
                    yield ((kind, d, lam.parts),) + rest


def real_degree_sum_oracle(flavor: str, n: int, q: int) -> int:
    """Real-character degree sum at rank n by enumeration of the real
    characters: the classes of each degree d <= n come from the orbit census
    (brute_poly_census), each self-conjugate class and each conjugate pair a
    slot of unit weight d or 2d; every assignment of nonempty partitions to
    distinct slots with total weight n labels one real character, whose
    degree char_degree takes from the hook formula."""
    if flavor not in ("gl", "u"):
        raise ValueError("flavor must be 'gl' or 'u'")
    if not isinstance(q, int):
        raise ValueError("the oracle needs numeric q")
    if n > 4 or q > 5:
        raise ValueError("oracle budget: n <= 4 and q <= 5")
    _check_rank(n)
    slots = []
    for d in range(1, n + 1):
        cc = brute_poly_census(d, q, flavor)
        slots += [("selfdual", d)] * cc.n_selfdual + [("pair", d)] * cc.m_pairs
    return sum(char_degree(CharParam(flavor, labels), q)
               for labels in _labels(slots, 0, n))


def _named_gf_values(flavor: str, names: tuple, n: int, q, parity, u_sign: int):
    """Prefactor times the u^n coefficient of named_gf(flavor + "_" + name)
    for each name; the u prefactor is taken with sign u_sign.  The unsigned
    prefactor is q^binom(n+1,2) (x;x)_n, x = 1/q (gl) or -1/q (u), the scale
    the series are stored in, so named_gf_value reads each value off by one
    re-indexing, with no group-order product and no RatFunc normalization."""
    if flavor not in ("gl", "u"):
        raise ValueError(f"flavor must be 'gl' or 'u', got {flavor!r}")
    _qval(q)
    _check_rank(n)
    par = _parity_name(q, parity)
    sign = 1 if flavor == "gl" else u_sign
    values = (named_gf_value(f"{flavor}_{name}", par, n) for name in names)
    return tuple(_finish(v if sign > 0 else -v, q) for v in values)


def real_degree_sum_gf(flavor: str, n: int, q=None, parity=None):
    """Real-character degree sum at rank n from the named closed-form
    generating functions (prefactor times u^n coefficient)."""
    return _named_gf_values(flavor, ("real_gf",), n, q, parity, (-1) ** n)[0]


def involution_count_gf(flavor: str, n: int, q=None, parity=None):
    """Involution count at rank n via the generating-function route."""
    return _named_gf_values(flavor, ("invol_gf",), n, q, parity,
                            (-1) ** (n + _binom2(n)))[0]


def u_eps_sums_gf(n: int, q=None, parity=None) -> tuple:
    """(plus, minus): the degree sums over the real characters of U(n, q)
    with indicator-like label epsilon = +1 and -1, from the eps-split
    generating functions."""
    return _named_gf_values("u", ("eps_plus_gf", "eps_minus_gf"), n, q, parity,
                            (-1) ** n)


# ---------------------------------------------------------------------------
# Unitary closed-form sums over Hall-Littlewood specializations, in Z[w].
# ---------------------------------------------------------------------------


def _hl_at_minus_w(lam: Partition, sign: int, deg: int) -> list:
    """F_lam(-w, t) at t = sign * w^deg, as an integer list in w = 1/q."""
    co = []
    for (k, e), c in hl_principal_poly(lam).items():
        i = deg * k + e
        co.extend([0] * (i + 1 - len(co)))
        co[i] += c * sign ** k * (-1) ** e
    return _k.zz_strip(co)


def _from_w(co: list, shift: int) -> RatFunc:
    """q^shift * p(1/q) for the integer list co of p in w = 1/q, normalized once."""
    e = shift - len(co) + 1
    return RatFunc.from_ic([0] * max(e, 0) + co[::-1], [0] * max(-e, 0) + [1])


def _rs_at_wpow(m: int, s: int) -> list:
    """The Rogers-Szego polynomial H_m(w^s; w) = sum_j w^(s*j) [m choose j]_w."""
    return reduce(_k.zz_add, ([0] * (s * j) + list(b) for j, b in enumerate(_gauss_row(m))), [])


def u_real_sum_even_closed(n: int, q=None):
    """Even-characteristic real degree sum: prefactor times the sum over
    |lam| = n of q^(-(l(lam_odd)+n)/2) P_lam(z; 1/q), z = -1/q, which is
    q^N sum_lam w^((l(lam_odd)+n)/2) F_lam(-w, w): no denominator is left."""
    _check_rank(n)
    total = []
    for lam in enumerate_partitions(n):
        total = _k.zz_add(total, [0] * ((lam.ell_odd + n) // 2) + _hl_at_minus_w(lam, 1, 1))
    return _finish(_from_w(total, _binom2(n + 1)), q)


def _unsumodd_sum(n: int, form: int) -> list:
    """E, the integer list in w = 1/q behind one of the two partition-pair
    expressions (form 1 or 2) for the odd-characteristic real degree sum.

    Each expression sums weighted terms
    q^(-|nu|-(l(lam_odd)+|lam|)/2) P_lam(z; 1/q) P_nu(z; -1), z = -1/q,
    over |lam| + |nu| = n.  Form 1 takes the nu with
    all multiplicities even, form 2 the pairs where the odd part of lam and
    the even part of nu have even multiplicities.  Over (-w;-w)_n a pair
    takes the weight [n choose |lam|]_(-w), so the expression is
    q^N E(1/q) / prefactor with E a polynomial in w.  The sign and weight of
    a pair split into a lam factor and a nu factor (l(nu_odd) + |nu| is
    even), so E sums over lam and over nu once per |lam|."""
    _check_rank(n)
    if form not in (1, 2):
        raise ValueError(f"form must be 1 or 2, got {form!r}")
    total = []
    for k in range(n + 1):
        lam_sum, nu_sum = [], []
        for lam in enumerate_partitions(k):
            odd = lam.odd_part().mults().values()
            if form == 1:  # H_m(1; w) per multiplicity m of lam_odd
                weight = reduce(_k.zz_mul, (_rs_at_wpow(m, 0) for m in odd), [(-1) ** lam.ell_odd])
            elif all(m % 2 == 0 for m in odd):  # (w; w^2)_(m/2): 1 - w^i, i < m odd
                weight = reduce(_times_one_minus_zpow, (i for m in odd for i in range(1, m, 2)),
                                [(-1) ** (lam.ell_odd // 2)])
            else:
                continue
            even = (_rs_at_wpow(m, 1) for m in lam.even_part().mults().values())
            term = _k.zz_mul(reduce(_k.zz_mul, even, weight), _hl_at_minus_w(lam, 1, 1))
            lam_sum = _k.zz_add(lam_sum, [0] * ((lam.ell_odd + k) // 2) + term)
        for nu in enumerate_partitions(n - k):
            if form == 1 and all(m % 2 == 0 for m in nu.mults().values()):
                c = (-1) ** (nu.size // 2) * 2 ** (nu.ell // 2)
            elif form == 2 and all(m % 2 == 0 for m in nu.even_part().mults().values()):
                c = ((-1) ** ((nu.ell_odd + nu.size) // 2)
                     * 2 ** sum((m + 1) // 2 for m in nu.mults().values()))
            else:
                continue
            nu_sum = _k.zz_add(nu_sum, _k.zz_mul_scalar(_hl_at_minus_w(nu, -1, 0), c))
        weight = _signed(_gauss_row(n)[k], -1)  # [n choose k]_(-w)
        total = _k.zz_add(total, [0] * (n - k) + _k.zz_mul(weight, _k.zz_mul(lam_sum, nu_sum)))
    return total


def u_real_sum_odd_closed(n: int, q=None):
    """Odd-characteristic real degree sum: (-1)^n q^N E(1/q), the prefactor
    times either expression, with the two forms' E asserted equal first."""
    e1, e2 = _unsumodd_sum(n, 1), _unsumodd_sum(n, 2)
    if e1 != e2:
        raise AssertionError(f"odd-characteristic expressions disagree at n={n}")
    return _finish(_from_w(_k.zz_mul_scalar(e1, (-1) ** n), _binom2(n + 1)), q)


def u_real_sum_closed(n: int, q=None, parity=None):
    """Closed-form unitary real degree sum (partition-sum route)."""
    e = parity_e(q, parity)
    return u_real_sum_even_closed(n, q) if e == 1 else u_real_sum_odd_closed(n, q)


def u_eps_sums_closed(n: int, q=None, parity=None) -> tuple:
    """(plus, minus) = (real sum +- involution count)/2, closed-form routes
    for both, each taken once."""
    par = _parity_name(q, parity)
    real = u_real_sum_closed(n, None, par)
    inv = involution_count("u", n, None, par)
    return tuple(_finish((real + sign * inv) * Fraction(1, 2), q) for sign in (1, -1))


def u_eps_sums_alt_even(n: int, q=None) -> tuple:
    """(plus, minus): even-characteristic eps-split sums via the alternative
    double sum, for sign = +1 and -1:
    (-1)^n * prefactor * [ (1 + sign (-1)^binom(n,2))/2 * S(n)
      + 1/2 * sum_{k=1..n/2} T_k * S(n-2k) ]
    with (-1)^m prefactor(m) S(m) = (-1)^binom(m,2) I(m), I(m) the even
    involution count of U(m), and T_k the partition sum of q^(-k) P_lam(z;
    1/q), z = -1/q, over l(lam_odd) + |lam| = 2k.  prefactor(n) /
    prefactor(n-2k) * T_k is q^(N_n - N_(n-2k)) [n choose 2k]_(-w) sum_lam
    w^k F_lam(-w, w) prod_{i=|lam|+1..2k} (1 - (-w)^i), N_m = binom(m+1, 2).
    The sum is built once; only the sign * I(n) term differs between the two."""
    inv_n = involution_count("u", n, None, "even")
    total = (-1) ** _binom2(n) * inv_n
    for k in range(1, n // 2 + 1):
        t_k = []
        for lam in partitions_up_to(2 * k):
            if lam.ell_odd + lam.size == 2 * k:
                rest = reduce(_times_one_minus_zpow, range(lam.size + 1, 2 * k + 1), [1])
                t_k = _k.zz_add(t_k, _k.zz_mul(_hl_at_minus_w(lam, 1, 1), _signed(rest, -1)))
        t_k = [0] * k + _k.zz_mul(_signed(_gauss_row(n)[2 * k], -1), t_k)
        ratio = _from_w(t_k, _binom2(n + 1) - _binom2(n - 2 * k + 1))
        inv = involution_count("u", n - 2 * k, None, "even")
        total = total + (-1) ** _binom2(n - 2 * k) * ratio * inv
    return tuple(_finish((total + sign * inv_n) * Fraction(1, 2), q) for sign in (1, -1))


# ---------------------------------------------------------------------------
# Weyl-group analogues.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sym_degrees(m: int) -> tuple:
    """The irreducible character degrees m!/H(lam) of S_m, over lam |- m."""
    fact = factorial(m)
    return tuple(fact // prod(lam.hooks()) for lam in enumerate_partitions(m))


def _b_degree_sum(n: int) -> int:
    return sum(comb(n, k) * sum(_sym_degrees(k)) * sum(_sym_degrees(n - k))
               for k in range(n + 1))


def weyl_degree_sum(family: str, n: int) -> int:
    """Character degree sum of the Weyl group of rank n in family A
    (symmetric group S_n), B (hyperoctahedral group) or D (its index-two
    rotation subgroup), from the hook-length degrees of S_m alone.

    The irreducibles of B_n are labelled by pairs (lam, tau) with
    |lam| + |tau| = n and have degree C(n, |lam|) f_lam f_tau, so the B sum is
    sum_k C(n, k) S(k) S(n - k), with S(m) the degree sum of S_m.  Those of
    D_n are the pairs up to swapping, a pair (lam, lam) splitting in two, so
    the D sum is (B sum + C(n, n/2) sum_{lam |- n/2} f_lam^2) / 2.
    """
    _check_rank(n)
    if family == "A":
        return sum(_sym_degrees(n))
    if family not in ("B", "D"):
        raise ValueError(f"family must be 'A', 'B', or 'D', got {family!r}")
    b_sum = _b_degree_sum(n)
    if family == "B":
        return b_sum
    diag = comb(n, n // 2) * sum(f * f for f in _sym_degrees(n // 2)) if n % 2 == 0 else 0
    if (b_sum + diag) % 2:
        raise AssertionError("degree sum halving failed")
    return (b_sum + diag) // 2


def weyl_involutions(family: str, n: int) -> int:
    """Involution count of the Weyl group of rank n in family A, B or D.  The
    exponential generating functions exp(u + u^2/2) for A and exp(2u + u^2)
    for B give the recurrences a_n = a_(n-1) + (n-1) a_(n-2) and
    b_n = 2 b_(n-1) + 2 (n-1) b_(n-2); for D, exp(u^2) (exp(2u) + 1) / 2
    gives (b_n + [n even] n!/(n/2)!) / 2."""
    _check_rank(n)
    if family not in ("A", "B", "D"):
        raise ValueError(f"family must be 'A', 'B', or 'D', got {family!r}")
    c = 1 if family == "A" else 2
    prev, count = 0, 1
    for k in range(1, n + 1):
        prev, count = count, c * (count + (k - 1) * prev)
    if family != "D":
        return count
    return (count + (factorial(n) // factorial(n // 2) if n % 2 == 0 else 0)) // 2
