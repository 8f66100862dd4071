"""Named checks: every verified identity, example, and oracle concordance.

Each check has a stable id, runs exact arithmetic only, and either passes
or fails with a witness.  A check is two sides, lhs and rhs, that reach
the same quantities by independent routes: each
takes the check's parameters and yields (tag, value) rows, one per rank,
series coefficient or worked value.  One comparison walks both sides in
step (the tags must match) and reports the first row whose values break
the check's relation: equality, with the witness "{tag}: lhs=..., rhs=...",
for the Warnaar checks equal integer dicts, whose witness names the first
monomial that differs, or for oracle-hl-finite a valuation bound.  A
check's note, if it has one, is computed after a pass and reported apart
from any witness.  Sides look up chars.* and this module's imported names
at run time, so a patched binding reaches the check.  `run_all` executes
the registry in order; its `budget` argument ("full" by default, or
"quick") selects default parameter sizes, and callers may override any
parameter a check declares.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import _kernel as _k
from . import chars, groups
from .exact import RatFunc, Series, qpow
from .hl import (hl_finite_oracle, hl_principal, hl_principal_poly,
                 pochhammer_cd, rs_multi)
from .partitions import Partition, _gauss_row, enumerate_partitions
from .polycount import (brute_poly_census, count_irreducible,
                        count_selfdual_and_pairs, count_u_irreducible,
                        divisors)
from .qseries import euler_expand, named_gf, pair_expand, product_of


@dataclass(frozen=True)
class CheckSpec:
    """A registered check.  `sides` is (lhs, rhs); `fn(**params)` compares
    them and returns None (pass), a witness string (fail), or
    ("pass", note).  `qmax`, if set, holds each q of its `qs` to 2 <= q <= qmax."""

    id: str
    tags: tuple
    description: str
    params: dict
    quick: dict
    sides: tuple
    fn: object
    qmax: int | None = None


@dataclass
class CheckReport:
    id: str
    status: str  # "pass" | "fail"
    params: dict
    witness: str | None
    millis: int
    note: str | None = None


# ---------------------------------------------------------------------------
# The comparison and the side plumbing.
# ---------------------------------------------------------------------------

_Q = RatFunc.x()
_ONE = RatFunc.const(1)


def _equal(tag, lhs, rhs):
    """The default relation: None when the two values agree, else the witness."""
    return None if lhs == rhs else f"{tag}: lhs={lhs}, rhs={rhs}"


def _comparison(lhs, rhs, relation, note):
    """The one comparison loop: both sides row by row, under `relation`."""
    def fn(**params):
        for (tag, a), (other, b) in zip(lhs(**params), rhs(**params), strict=True):
            if tag != other:
                raise ValueError(f"sides out of step: {tag!r} against {other!r}")
            witness = relation(tag, a, b)
            if witness:
                return witness
        return None if note is None else ("pass", note(**params))
    return fn


def _per_rank(value, start: int = 1):
    """A side yielding ("n={n}", value(n)) for n = start..nmax; another
    parameter of the check (remark-igl-table's observe_nmax) is its note's."""
    return lambda nmax, **_: ((f"n={n}", value(n)) for n in range(start, nmax + 1))


def _coefficients(prefix: str, series: Series, var: str = "u"):
    """The rows (prefix + var^i, coefficient) of a series, i = 0..order."""
    return ((f"{prefix}{var}^{i}", series.coefficient(i)) for i in range(series.order + 1))


def _by_parity(series):
    """A side yielding the coefficients of series(order, parity), even first."""
    return lambda order: (row for par in ("even", "odd")
                          for row in _coefficients(f"parity {par}: ", series(order, par)))


# ---------------------------------------------------------------------------
# The sides of each check.
# ---------------------------------------------------------------------------


def _weyl_sides(family: str) -> tuple:
    return (_per_rank(lambda n: chars.weyl_degree_sum(family, n), start=0),
            _per_rank(lambda n: chars.weyl_involutions(family, n), start=0))


def _geom_inv(order: int) -> Series:
    """1/(1 - q*w)."""
    return Series([_Q ** k for k in range(order + 1)], order)


def _prodlem_lhs(flavor: str, which: int, order: int, parity) -> Series:
    """The class-count side of identity `which`:
    prod_d (1+s1 w^d)^(-N*(2d)) (1+s2 w^d)^(-M*(d)) with its signs (s1, s2),
    or for identity 4 (u, plain counts) prod_d (1-w^d)^(-Nbar(d)).  Each
    factor (1+s w^d)^(-N) is its finite binomial series
    sum_k (-s)^k N(N+1)...(N+k-1)/k! w^(dk).  With each count N = P/D, P in
    Z[q], and w scaled to m*w, m = lcm(D)*order!, every coefficient is an
    integer list; coefficient n is divided by m^n at the end."""
    factors = []
    for d in range(1, order + 1):
        if which == 4:
            factors.append((-1, d, count_u_irreducible(d, None)))
            continue
        s1, s2 = {1: (-1, -1), 2: (1, -1), 3: (1, 1)}[which]
        factors.append((s1, d, count_selfdual_and_pairs(2 * d, None, flavor, parity).n_selfdual))
        factors.append((s2, d, count_selfdual_and_pairs(d, None, flavor, parity).m_pairs))
    counts = [(sign, d, r) for sign, d, r in factors if r]
    m = lcm(*(r.d[0] for _, _, r in counts)) * factorial(order)
    total = [[1]] + [[]] * order
    for sign, d, r in counts:
        (den,), num = r.d, list(r.n)  # r = P/D has the one-entry denominator D
        factor = [[1]]  # the scaled w^(dk) coefficients; m^d/(den*k) is an integer
        for k in range(1, order // d + 1):
            step = _k.zz_mul_scalar(_k.zz_add(num, [(k - 1) * den]), -sign * m ** d // (den * k))
            factor.append(_k.zz_mul(factor[-1], step))
        for n in range(order, d - 1, -1):  # times the factor, in place from the top
            for k in range(1, n // d + 1):
                total[n] = _k.zz_add(total[n], _k.zz_mul(total[n - d * k], factor[k]))
    return Series([RatFunc.from_ic(c, (m ** n,)) for n, c in enumerate(total)], order)


def _prodlem_rhs(flavor: str, which: int, order: int, parity) -> Series:
    """The closed form of identity `which`: (1-w)^e/(1-qw); 1-w (gl) or 1+w
    (u); for u also (1+w)^e (1-qw)/(1-qw^2) and (1+w)/(1-qw)."""
    e = 1 if parity == "even" else 2
    w_minus = Series([_ONE, -_ONE], order)   # 1 - w
    w_plus = Series([_ONE, _ONE], order)     # 1 + w
    if which == 1:
        return (w_minus ** e) * _geom_inv(order)
    if which == 2:
        return w_minus if flavor == "gl" else w_plus
    if which == 3:
        return ((w_plus ** e) * Series([_ONE, -_Q], order)
                * _geom_inv(order).compose_scale(1, 2))
    return w_plus * _geom_inv(order)


def _prodlem_sides(flavor: str, identities) -> tuple:
    """The sides of a product-identity check: the w-coefficients of
    _prodlem_lhs and _prodlem_rhs for each identity, at symbolic q for both
    parities.  Identity 4 (plain unitary counts) has no parity dependence and
    runs once."""
    def side(series):
        def rows(order: int):
            for which in identities:
                parities = ("even",) if (flavor, which) == ("u", 4) else ("even", "odd")
                for par in parities:
                    yield from _coefficients(f"identity {which} (symbolic q, parity {par}): ",
                                             series(flavor, which, order, par), "w")
        return rows
    return side(_prodlem_lhs), side(_prodlem_rhs)


def _closed_vs_gf(flavor: str, parity: str) -> tuple:
    gf = "real_degree_sum_gf" if flavor == "gl" else "involution_count_gf"
    return (_per_rank(lambda n: chars.involution_count(flavor, n, None, parity)),
            _per_rank(lambda n: getattr(chars, gf)(flavor, n, None, parity)))


def _iden_rhs_coefficient(n: int, squared: bool) -> RatFunc:
    """q^binom(n,2) sum_r 1/(gamma_r gamma_b), b = n-r (squared) or n-2r with
    q^(-r(2n-3r)), over one denominator P_n = prod_{i<=n} (q^i - 1): term r is
    q^(r(n-r)) or q^binom(r,2) times [n, r]_q prod_{i=b+1..n-r} (q^i - 1)."""
    row = _gauss_row(n)
    num = []
    for r in range(n + 1 if squared else n // 2 + 1):
        b = n - r if squared else n - 2 * r
        term = list(row[r])
        for i in range(b + 1, n - r + 1):
            term = _k.zz_mul(term, [-1] + [0] * (i - 1) + [1])
        shift = r * (n - r) if squared else r * (r - 1) // 2
        num = _k.zz_add(num, [0] * shift + term)
    return RatFunc.from_ic(num, chars._order_ic(1, n))


def _iden_sides(squared: bool) -> tuple:
    """The product expansion, which is the linear-flavor involution series
    (odd characteristic when squared), against the gamma-weighted sums."""
    parity = "odd" if squared else "even"
    return (lambda order: _coefficients("", named_gf("gl_invol_gf", parity, order)),
            lambda order: ((f"u^{n}", _iden_rhs_coefficient(n, squared))
                           for n in range(order + 1)))


_IGL_TABLE = {
    1: (0, (1,)),
    2: (2, (1,)),
    3: (1, (-1, 0, 1, 1)),
    4: (2, (-1, 0, 0, 0, 1, 0, 1)),
    5: (6, (-1, -1, 0, 0, 1, 1, 1)),
    6: (5, (1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1, 1, 0, 1)),
    7: (7, (1, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, 0, 0, 1, 1, 1, 1, 1)),
}


def _igl_tabulated(n: int) -> RatFunc:
    shift, coeffs = _IGL_TABLE[n]
    return RatFunc.from_ic(coeffs, (1,)) * qpow(shift)


def _igl_observation(nmax: int, observe_nmax: int) -> str:
    """Reported, not gating: whether the coefficients stay in {-1, 0, 1}."""
    for n in range(1, observe_nmax + 1):
        r = chars.involution_count("gl", n, None, "even")
        if r.d != (1,) or any(c not in (-1, 0, 1) for c in r.n):
            return (f"observation: coefficients leave {{-1,0,1}} at rank "
                    f"{n} (checked up to {observe_nmax})")
    return f"observation: coefficients in {{-1,0,1}} up to rank {observe_nmax}"


def _epsplit_sides(parity: str) -> tuple:
    """The eps-split pair's sum and difference against the real degree sum
    and the involution count."""
    def lhs(nmax: int):
        for n in range(1, nmax + 1):
            plus, minus = chars.u_eps_sums_gf(n, None, parity)
            yield f"n={n} sum", plus + minus
            yield f"n={n} difference", plus - minus

    def rhs(nmax: int):
        for n in range(1, nmax + 1):
            yield f"n={n} sum", chars.real_degree_sum_gf("u", n, None, parity)
            yield f"n={n} difference", chars.involution_count("u", n, None, parity)
    return lhs, rhs


def _eps_pairs(pairs):
    """A side yielding the even-characteristic eps-split pair pairs(n), sign
    by sign, for n = 1..nmax."""
    return lambda nmax: ((f"n={n} sign {sign:+d}", value) for n in range(1, nmax + 1)
                         for sign, value in zip((1, -1), pairs(n)))


def _unsumodd_form(n: int, form: int):
    """(-1)^n q^N E(1/q), N = binom(n+1, 2): the real degree sum from the
    integer sum E of one odd expression, with no unitary prefactor."""
    return (-1) ** n * chars._from_w(chars._unsumodd_sum(n, form), n * (n + 1) // 2)


def _unsumodd_lhs(nmax: int):
    for n in range(1, nmax + 1):
        e1 = _unsumodd_form(n, 1)
        yield f"n={n} expressions", e1
        yield f"n={n} vs series route", e1


def _unsumodd_rhs(nmax: int):
    for n in range(1, nmax + 1):
        yield f"n={n} expressions", _unsumodd_form(n, 2)
        yield f"n={n} vs series route", chars.real_degree_sum_gf("u", n, None, "odd")


def _warnaar_weight(lam: Partition, with_b: bool) -> dict:
    """The weight of lam on the left side, as {(i, j, k): int} for a^i b^j t^k.

    A part size of multiplicity m contributes H_m(ab; t) when even (1 when
    b = 0) and sum_j [m, j]_t a^(m-j) b^j when odd (a^m when b = 0).
    """
    weight = {(0, 0, 0): 1}
    for part, mult in lam.mults().items():
        if not with_b:
            factor = {} if part % 2 == 0 else {(mult, 0, 0): 1}
        else:
            row = _gauss_row(mult)
            factor = {(j if part % 2 == 0 else mult - j, j, k): c
                      for j in range(mult + 1) for k, c in enumerate(row[j]) if c}
        if not factor:
            continue
        product: dict = {}
        for (i1, j1, k1), c1 in weight.items():
            for (i2, j2, k2), c2 in factor.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                product[key] = product.get(key, 0) + c1 * c2
        weight = product
    return weight


# a^i b^j t^k z^e as one exponent e + k*_T + j*_B + i*_A of the integer
# series products of qseries, which only add exponents.  Packing commutes
# with the products, and every digit of a u^n coefficient of the product
# side stays below 2^16 (there e <= binom(n, 2)), so unpacking is exact.
_T, _B, _A = 1 << 16, 1 << 32, 1 << 48


def _unpacked(p: dict) -> dict:
    """{packed exponent: int} as {(i, j, k, e): int} for a^i b^j t^k z^e."""
    out = {}
    for key, c in p.items():
        i, key = divmod(key, _A)
        j, key = divmod(key, _B)
        k, e = divmod(key, _T)
        out[i, j, k, e] = c
    return out


def _warnaar_lhs(order: int, with_b: bool):
    """(z;z)_n times the u^n coefficient of the left side, n = 0..order, z = 1/q.

    The u^n coefficient is sum_{lam |- n} weight(lam) P_lam(1, z, z^2, ...; t),
    so the scaled one is sum weight(lam) F_lam(z, t) with the integer
    F_lam = hl_principal_poly(lam): it is summed in integers, keyed
    (i, j, k, e) for a^i b^j t^k z^e.
    """
    for n in range(order + 1):
        acc: dict = {}
        for lam in enumerate_partitions(n):
            f = hl_principal_poly(lam)
            for (i, j, k1), c1 in _warnaar_weight(lam, with_b).items():
                for (k2, e), c2 in f.items():
                    key = (i, j, k1 + k2, e)
                    acc[key] = acc.get(key, 0) + c1 * c2
        yield f"u^{n}", {key: c for key, c in acc.items() if c}


def _warnaar_rhs(order: int, with_b: bool):
    """(z;z)_n times the u^n coefficient of the product side, n = 0..order:
    the scaled coefficients of the integer series product over z = 1/q of
    prod_{i>=0} (1 + a z^i u), prod_{i<j} (1 - t z^(i+j-2) u^2) /
    (1 - z^(i+j-2) u^2), and prod_{i>=0} (1 + b z^i u) / ((1 - z^i u)
    (1 + z^i u)), or prod_{i>=0} 1/(1 - z^(2i) u^2) when b = 0."""
    # symbol-free factors first: each symbol widens every coefficient of the
    # running product, so it joins last
    factors = [pair_expand(-1, -2, 2, -1)]
    if with_b:
        factors += [euler_expand(-1, 1, 0, 1, -1), euler_expand(1, 1, 0, 1, -1)]
    else:
        factors.append(euler_expand(-1, 2, 0, 2, -1))
    factors += [pair_expand(-1, _T - 2, 2, 1), euler_expand(1, 1, _A, 1, 1)]
    if with_b:
        factors.append(euler_expand(1, 1, _B, 1, 1))
    rhs = product_of(factors)
    for n in range(order + 1):
        yield f"u^{n}", _unpacked(rhs.coefficient(n))


def _same_monomials(tag, lhs, rhs):
    """The relation of the Warnaar checks: the integer dicts keyed
    (i, j, k, e) agree; the witness names the first monomial a^i b^j t^k z^e
    where they differ."""
    for key in sorted(lhs.keys() | rhs.keys()):
        a, b = lhs.get(key, 0), rhs.get(key, 0)
        if a != b:
            i, j, k, e = key
            return f"{tag}: a^{i} b^{j} t^{k} z^{e}: lhs={a}, rhs={b}"
    return None


def _example_u2_even_lhs():
    t = qpow(-1)
    z = -t
    yield "P_(2)", hl_principal([2], z, t)
    yield "P_(1,1)", hl_principal([1, 1], z, t)
    yield "P_(1)", hl_principal([1], z, t)
    yield "h_(2)(1/q;1/q)", rs_multi([2], t, t)
    yield "degree sum", chars.u_real_sum_closed(2, None, "even")
    yield "series route", chars.real_degree_sum_gf("u", 2, None, "even")


def _example_u2_even_rhs():
    q = _Q
    yield "P_(2)", q * (q ** 2 + 1) / ((q + 1) * (q ** 2 - 1))
    yield "P_(1,1)", -(q ** 2) / ((q + 1) * (q ** 2 - 1))
    yield "P_(1)", q / (q + 1)
    yield "h_(2)(1/q;1/q)", (q + 1) / q
    yield "degree sum", q ** 2
    yield "series route", q ** 2


def _example_u3_even_lhs():
    q = _Q
    t = qpow(-1)
    z = -t
    # the double-sum route needs only rank-1 and rank-2 principal values here
    inner = (hl_principal([1], z, t) + hl_principal([2], z, t)) / (-2 * q * (q + 1))
    yield "intermediate", inner
    yield "recombined", -1 * chars.u_prefactor_abs(3, None) * inner
    yield from zip(("eps=+1", "eps=-1"), chars.u_eps_sums_closed(3, None, "even"))
    yield from zip(("eps=+1 series", "eps=-1 series"), chars.u_eps_sums_gf(3, None, "even"))
    yield from zip(("alt route +", "alt route -"), chars.u_eps_sums_alt_even(3))
    yield "involutions", chars.involution_count("u", 3, None, "even")


def _example_u3_even_rhs():
    q = _Q
    plus, minus = q ** 4 - q ** 3 + q ** 2, q ** 2 - q
    yield "intermediate", -(q ** 2) / ((q + 1) ** 2 * (q ** 2 - 1))
    yield "recombined", plus
    yield "eps=+1", plus
    yield "eps=-1", minus
    yield "eps=+1 series", plus
    yield "eps=-1 series", minus
    yield "alt route +", plus
    yield "alt route -", minus
    yield "involutions", q ** 4 - q ** 3 + q


def _example_u2_odd_lhs():
    t = qpow(-1)
    z = -t
    # term values in the two-part expansion at n=2 (second expression)
    yield "(q^-1;q^-2)_1", pochhammer_cd(t, t * t, 1)
    yield "term lam=(2)", rs_multi([2], t, t) * hl_principal([2], z, t) * qpow(-1)
    yield ("term lam=(1,1)", pochhammer_cd(t, t * t, 1) * hl_principal([1, 1], z, t)
           * qpow(-2) * (-1))
    yield "term nu=(1,1)", 2 * hl_principal([1, 1], z, Fraction(-1)) * qpow(-2)
    yield "expressions", _unsumodd_form(2, 1)
    yield "degree sum", chars.u_real_sum_closed(2, None, "odd")
    yield "degree sum series", chars.real_degree_sum_gf("u", 2, None, "odd")
    yield "involutions", chars.involution_count("u", 2, None, "odd")
    yield "eps=-1", chars.u_eps_sums_closed(2, None, "odd")[1]
    yield "eps=-1 series", chars.u_eps_sums_gf(2, None, "odd")[1]


def _example_u2_odd_rhs():
    q = _Q
    yield "(q^-1;q^-2)_1", (q - 1) / q
    yield "term lam=(2)", (q ** 2 + 1) / (q * (q ** 2 - 1))
    yield "term lam=(1,1)", 1 / (q * (q + 1) ** 2)
    yield "term nu=(1,1)", -2 / ((q + 1) * (q ** 2 - 1))
    yield "expressions", _unsumodd_form(2, 2)
    yield "degree sum", q ** 2 + q
    yield "degree sum series", q ** 2 + q
    yield "involutions", q ** 2 - q + 2
    yield "eps=-1", q - 1
    yield "eps=-1 series", q - 1


def _group_side(order, involutions):
    """A side of oracle-brute-involutions: order(flavor, n, q) and
    involutions(flavor, n, q) for each case."""
    def side(cases):
        for flavor, n, q0 in cases:
            yield f"{flavor}({n},{q0}) order", order(flavor, n, q0)
            yield f"{flavor}({n},{q0}) involutions", involutions(flavor, n, q0)
    return side


def _real_sums(value):
    """A side of oracle-real-sums: value(flavor, n, q) row by row."""
    return lambda gl_nmax, u_nmax, qs: (
        (f"{flavor} n={n} q={q0}", value(flavor, n, q0))
        for q0 in qs for flavor, nmax in (("gl", gl_nmax), ("u", u_nmax))
        for n in range(1, nmax + 1))


def _census_side(counts, divisor_sums):
    """A side of oracle-poly-census: the fields of counts(d, q, flavor), then
    the plain-count divisor sums (gl, u) of divisor_sums(m), exact in q."""
    def side(dmax: int, qs, msum: int):
        for flavor in ("gl", "u"):
            for q0 in qs:
                for d in range(1, dmax + 1):
                    c = counts(d, q0, flavor)
                    for field in ("n_plain", "n_selfdual", "m_pairs"):
                        yield f"{flavor} d={d} q={q0} {field}", getattr(c, field)
        for m in range(1, msum + 1):
            for flavor, value in zip(("gl", "u"), divisor_sums(m)):
                yield f"{flavor} divisor sum m={m}", value
    return side


def _hl_rows(sizemax: int):
    """The rows of oracle-hl-finite, as (tag, lam, z, t, m): every lam of
    size <= sizemax in m = min(6, l(lam) + 1) variables, then the documented
    instance lam = (2,1), m = 4, 5, 6 (bound m*(min part) = m), each tagged
    (witness template, bound), with bound 0 for the empty partition; then the
    t = z closed form for every nonempty lam, tagged (text, None)."""
    ts = [(t, str(t)) for t in (qpow(-1), Fraction(-1))]
    for n in range(sizemax + 1):
        for lam in enumerate_partitions(n):
            m = max(1, min(6, lam.ell + 1))
            for z in (qpow(-1), -qpow(-1)):
                for t, t_text in ts:
                    if n == 0:
                        tag = (f"lam={lam}: empty partition mismatch {{diff}}", 0)
                    else:
                        tag = (f"lam={lam} m={m} t={t_text}: valuation {{v}} < {m}; "
                               f"difference {{diff}}", m)
                    yield tag, lam, z, t, m
    for m in (4, 5, 6):
        yield (f"lam=(2,1) m={m}: valuation {{v}} < {m}", m), [2, 1], qpow(-1), qpow(-1), m
    t = qpow(-1)
    for n in range(1, sizemax + 1):
        for lam in enumerate_partitions(n):
            yield (f"t=z lam={lam}", None), lam, t, t, None


def _hl_oracle_side(sizemax: int):
    powers = {z: [z ** i for i in range(6)] for z in (qpow(-1), -qpow(-1))}
    for tag, lam, z, t, m in _hl_rows(sizemax):
        if m is None:  # P_lam(1,t,t^2,...;t) = t^n(lam) / prod (t;t)_mult
            value = _Q ** 0 * t ** lam.n_stat()
            for mult in lam.mults().values():
                value = value / pochhammer_cd(t, t, mult)
        else:
            value = hl_finite_oracle(lam, tuple(powers[z][:m]), t)
        yield tag, value


def _within_valuation_bound(tag, principal, oracle):
    """The relation of oracle-hl-finite.  A row tagged (template, m) holds
    when the oracle value differs from the principal value by O(q^-m) at
    q = oo, or not at all for m = 0; its witness fills the template with the
    valuation v and the difference.  A row tagged (text, None) holds on
    equality."""
    text, m = tag
    if m is None:
        return _equal(text, principal, oracle)
    diff = oracle - principal
    v = diff.valuation_at_infinity()
    if v is None or (m and v >= m):
        return None
    return text.format(v=v, diff=diff)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

REGISTRY = {}


def _register(id_, tags, description, params, quick, lhs, rhs, relation=_equal,
              note=None, qmax=None):
    REGISTRY[id_] = CheckSpec(id=id_, tags=tuple(tags), description=description,
                              params=params, quick=quick, sides=(lhs, rhs),
                              fn=_comparison(lhs, rhs, relation, note), qmax=qmax)


_register("weyl-A", ("weyl",),
          "symmetric group: degree sum equals involution count (EGF route)",
          {"nmax": 12}, {"nmax": 8}, *_weyl_sides("A"))
_register("weyl-B", ("weyl",),
          "hyperoctahedral group: degree sum equals involution count",
          {"nmax": 12}, {"nmax": 8}, *_weyl_sides("B"))
_register("weyl-D", ("weyl",),
          "even-signs subgroup: degree sum equals involution count",
          {"nmax": 12}, {"nmax": 8}, *_weyl_sides("D"))
_register("lemma-prodlem-1", ("gl", "qseries"),
          "class-count product reduces to (1-w)^e/(1-qw)",
          {"order": 8}, {"order": 6}, *_prodlem_sides("gl", (1,)))
_register("lemma-prodlem-2", ("gl", "qseries"),
          "signed class-count product reduces to 1-w",
          {"order": 8}, {"order": 6}, *_prodlem_sides("gl", (2,)))
_register("thm-genfnGL", ("gl", "symbolic"),
          "linear-flavor degree-sum series equals the closed product form",
          {"order": 8}, {"order": 6},
          _by_parity(lambda order, par: chars.real_sum_gf_from_classes(
              "gl", order, None, parity=par)),
          _by_parity(lambda order, par: named_gf("gl_real_gf", par, order)))
_register("thm-even", ("gl", "closed-form"),
          "even characteristic: closed involution sum equals prefactor times "
          "series coefficient", {"nmax": 8}, {"nmax": 6},
          *_closed_vs_gf("gl", "even"))
_register("thm-odd", ("gl", "closed-form"),
          "odd characteristic: closed involution sum equals prefactor times "
          "series coefficient", {"nmax": 10}, {"nmax": 6},
          *_closed_vs_gf("gl", "odd"))
_register("cor-iden", ("gl", "qseries"),
          "formal identity: single product expansion vs gamma-weighted sums",
          {"order": 10}, {"order": 6}, *_iden_sides(False))
_register("cor-cort", ("gl", "qseries"),
          "formal identity: squared product expansion vs gamma-weighted sums",
          {"order": 10}, {"order": 6}, *_iden_sides(True))
_register("remark-igl-table", ("gl", "closed-form"),
          "tabulated involution-count polynomials (ranks 1..7), plus "
          "coefficient observation",
          {"nmax": 7, "observe_nmax": 10}, {"nmax": 7, "observe_nmax": 8},
          _per_rank(lambda n: chars.involution_count("gl", n, None, "even")),
          _per_rank(_igl_tabulated), note=_igl_observation)
_register("u-prodlems", ("u", "qseries"),
          "unitary class-count products reduce to their closed forms",
          {"order": 8}, {"order": 6}, *_prodlem_sides("u", (1, 2, 3, 4)))
_register("thm-degreesU", ("u", "symbolic"),
          "unitary degree-sum series equals the closed product form at -u",
          {"order": 8}, {"order": 6},
          _by_parity(lambda order, par: chars.real_sum_gf_from_classes(
              "u", order, None, parity=par)),
          _by_parity(lambda order, par: named_gf("u_real_gf", par, order).compose_scale(-1)))
_register("thm-warid", ("hl", "warnaar"),
          "two-parameter Hall-Littlewood summation under geometric "
          "substitution, symbolic a, b, t",
          {"order": 8}, {"order": 5},
          lambda order: _warnaar_lhs(order, True), lambda order: _warnaar_rhs(order, True),
          relation=_same_monomials)
_register("cor-warcor", ("hl", "warnaar"),
          "one-parameter specialization of the summation (b=0)",
          {"order": 8}, {"order": 5},
          lambda order: _warnaar_lhs(order, False), lambda order: _warnaar_rhs(order, False),
          relation=_same_monomials)
_register("prop-involU-even", ("u", "closed-form"),
          "even characteristic: unitary involution sum equals signed series "
          "coefficient", {"nmax": 8}, {"nmax": 6},
          *_closed_vs_gf("u", "even"))
_register("prop-involU-odd", ("u", "closed-form"),
          "odd characteristic: unitary involution sum equals signed series "
          "coefficient", {"nmax": 8}, {"nmax": 6},
          *_closed_vs_gf("u", "odd"))
_register("cor-epsplit-even", ("u", "closed-form"),
          "even characteristic: eps-split sums recombine to total and "
          "involution count", {"nmax": 6}, {"nmax": 4}, *_epsplit_sides("even"))
_register("cor-epsplit-odd", ("u", "closed-form"),
          "odd characteristic: eps-split sums recombine to total and "
          "involution count", {"nmax": 6}, {"nmax": 4}, *_epsplit_sides("odd"))
_register("thm-unsumeven", ("u", "closed-form"),
          "even characteristic: partition-sum form of the unitary degree sum",
          {"nmax": 6}, {"nmax": 4},
          _per_rank(lambda n: chars.u_real_sum_closed(n, None, "even")),
          _per_rank(lambda n: chars.real_degree_sum_gf("u", n, None, "even")))
_register("cor-unsumeven-pm", ("u", "closed-form"),
          "even characteristic: closed eps-split values match the series "
          "route", {"nmax": 6}, {"nmax": 4},
          _eps_pairs(lambda n: chars.u_eps_sums_closed(n, None, "even")),
          _eps_pairs(lambda n: chars.u_eps_sums_gf(n, None, "even")))
_register("cor-genfn-even-alt", ("u", "closed-form"),
          "even characteristic: alternative double-sum form of the eps-split",
          {"nmax": 6}, {"nmax": 4},
          _eps_pairs(lambda n: chars.u_eps_sums_alt_even(n)),
          _eps_pairs(lambda n: chars.u_eps_sums_gf(n, None, "even")))
_register("thm-unsumodd", ("u", "closed-form"),
          "odd characteristic: both partition-pair expressions agree and "
          "match the series route", {"nmax": 6}, {"nmax": 4},
          _unsumodd_lhs, _unsumodd_rhs)
_register("example-u2-even", ("u", "example"),
          "rank-2 even-characteristic worked example", {}, {},
          _example_u2_even_lhs, _example_u2_even_rhs)
_register("example-u3-even", ("u", "example"),
          "rank-3 even-characteristic worked example", {}, {},
          _example_u3_even_lhs, _example_u3_even_rhs)
_register("example-u2-odd", ("u", "example"),
          "rank-2 odd-characteristic worked example", {}, {},
          _example_u2_odd_lhs, _example_u2_odd_rhs)
_register("oracle-brute-involutions", ("oracle", "groups"),
          "enumerated group orders and involution counts match closed forms",
          {"cases": [["gl", 2, 2], ["gl", 2, 3], ["gl", 2, 4], ["gl", 2, 5],
                     ["gl", 3, 2], ["gl", 3, 3], ["gl", 4, 2],
                     ["u", 2, 2], ["u", 2, 3], ["u", 3, 2]]},
          {"cases": [["gl", 2, 2], ["gl", 2, 3], ["gl", 3, 2], ["u", 2, 2]]},
          _group_side(lambda *case: groups.group_order(*case),
                      lambda *case: groups.count_square_roots_of_identity(*case)),
          _group_side(lambda flavor, n, q0: (chars.gl_group_order if flavor == "gl"
                                             else chars.u_group_order)(n, q0),
                      lambda *case: chars.involution_count(*case)))
_register("oracle-real-sums", ("oracle", "chars"),
          "real degree sums enumerated character by character with the "
          "degree formula over census classes match series coefficients",
          {"gl_nmax": 4, "u_nmax": 3, "qs": [2, 3]},
          {"gl_nmax": 3, "u_nmax": 2, "qs": [2, 3]},
          _real_sums(lambda *args: chars.real_degree_sum_oracle(*args)),
          _real_sums(lambda *args: chars.real_degree_sum_gf(*args)), qmax=5)
_register("oracle-poly-census", ("oracle", "polycount"),
          "orbit-enumeration census matches count formulas and divisor sums",
          {"dmax": 4, "qs": [2, 3, 4, 5], "msum": 8},
          {"dmax": 3, "qs": [2, 3], "msum": 6},
          _census_side(lambda *args: count_selfdual_and_pairs(*args),
                       lambda m: [sum((d * count(d, None) for d in divisors(m)), RatFunc.const(0))
                                  for count in (count_irreducible, count_u_irreducible)]),
          _census_side(lambda *args: brute_poly_census(*args),
                       lambda m: (_Q ** m, _Q ** m - RatFunc.const((-1) ** m))), qmax=9)
_register("oracle-hl-finite", ("oracle", "hl"),
          "finite-variable Hall-Littlewood oracle agrees with principal "
          "values within the valuation bound",
          {"sizemax": 5}, {"sizemax": 4},
          lambda sizemax: ((tag, hl_principal(lam, z, t))
                           for tag, lam, z, t, _ in _hl_rows(sizemax)),
          _hl_oracle_side, relation=_within_valuation_bound)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


def _params_for(spec: CheckSpec, budget: str, overrides: dict) -> dict:
    if budget not in ("full", "quick"):
        raise ValueError(f"budget must be 'full' or 'quick', got {budget!r}")
    params = dict(spec.params)
    if budget == "quick":
        params.update(spec.quick)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"check {spec.id!r} has no parameter {key!r}; "
                             f"known: {sorted(params)}")
        params[key] = value
    if spec.qmax and not all(2 <= q0 <= spec.qmax for q0 in params["qs"]):
        raise ValueError(f"check {spec.id!r} supports 2 <= q <= {spec.qmax}, got {params['qs']}")
    return params


def run_check(check_id: str, *, budget: str = "full",
              **overrides) -> CheckReport:
    """Run one check at `budget` ("full" or "quick").

    Overrides replace declared parameters only.
    """
    spec = REGISTRY.get(check_id)
    if spec is None:
        raise KeyError(f"unknown check id {check_id!r}; known: {sorted(REGISTRY)}")
    params = _params_for(spec, budget, overrides)
    note = None
    start = time.perf_counter()
    try:
        result = spec.fn(**params)
        if isinstance(result, tuple) and result[0] == "pass":
            status, witness, note = "pass", None, result[1]
        elif result is None:
            status, witness = "pass", None
        else:
            status, witness = "fail", str(result)
    except Exception as exc:  # noqa: BLE001 - a check must never crash the run
        status, witness = "fail", f"error: {type(exc).__name__}: {exc}"
    millis = int((time.perf_counter() - start) * 1000)
    return CheckReport(id=check_id, status=status, params=params,
                       witness=witness, millis=millis, note=note)


def run_all(ids=None, tag=None, overrides=None, budget="full") -> list:
    """Run a selection of checks (all by default), in registry order."""
    overrides = overrides or {}
    selected = []
    for check_id, spec in REGISTRY.items():
        if ids is not None and check_id not in ids:
            continue
        if tag is not None and tag not in spec.tags:
            continue
        selected.append(check_id)
    if ids:
        unknown = set(ids) - set(REGISTRY)
        if unknown:
            raise KeyError(f"unknown check ids: {sorted(unknown)}")
    usable = {check_id: {k: v for k, v in overrides.items() if k in REGISTRY[check_id].params}
              for check_id in selected}
    for check_id in selected:  # an unusable override stops the run before any check
        _params_for(REGISTRY[check_id], budget, usable[check_id])
    return [run_check(check_id, budget=budget, **usable[check_id]) for check_id in selected]


def reports_to_json(reports) -> str:
    rows = []
    for r in reports:
        row = {"id": r.id, "status": r.status, "params": r.params,
               "millis": r.millis}
        if r.witness is not None:
            row["witness"] = r.witness
        if r.note is not None:
            row["note"] = r.note
        rows.append(row)
    return json.dumps(rows, indent=2, sort_keys=True)


def reports_to_tsv(reports) -> str:
    lines = ["id\tstatus\tmillis\twitness\tnote"]
    for r in reports:
        witness = "" if r.witness is None else r.witness.replace("\t", " ")
        note = "" if r.note is None else r.note.replace("\t", " ")
        lines.append(f"{r.id}\t{r.status}\t{r.millis}\t{witness}\t{note}")
    return "\n".join(lines) + "\n"


def summary_lines(reports):
    for r in reports:
        extra = f"  {r.witness}" if r.witness else ""
        yield f"[{r.status.upper()}] {r.id} ({r.millis} ms){extra}"
