"""Named checks: every verified identity, example, and oracle concordance.

Each check has a stable id, runs exact arithmetic only, and either passes,
fails with a witness (the first differing index and both exact values), or
is skipped with a reason.  A runner returns None to pass, a witness string
to fail, or ("pass", note) to pass with an observation note that is reported
apart from any witness.  `run_all` executes the registry in order; its
`budget` argument ("full" by default, or "quick") selects default parameter
sizes, and callers may override any parameter a check declares.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import chars, groups
from .exact import QPoly, RatFunc, Series, SymPoly, qpow
from .hl import (hl_finite_oracle, hl_principal, hl_principal_poly,
                 pochhammer_cd, rs_multi)
from .partitions import Partition, _gauss_row, enumerate_partitions
from .polycount import (brute_poly_census, count_irreducible,
                        count_selfdual_and_pairs, count_u_irreducible,
                        divisors)
from .qseries import (GeometricFactorSpec, PairProductSpec, euler_expand,
                      named_gf, pair_expand, product_of)


class SkipCheck(Exception):
    """Raised by a runner to mark the check skipped (reason in args)."""


@dataclass(frozen=True)
class CheckSpec:
    id: str
    tags: tuple
    description: str
    params: dict
    quick: dict
    fn: object


@dataclass
class CheckReport:
    id: str
    status: str  # "pass" | "fail" | "skipped"
    params: dict
    witness: str | None
    millis: int
    note: str | None = None


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

_Q = RatFunc.x()
_ONE = RatFunc.const(1)


def _series_witness(lhs: Series, rhs: Series, label: str = "u"):
    d = lhs.first_difference(rhs)
    if d is None:
        return None
    return f"{label}^{d}: lhs={lhs.coefficient(d)}, rhs={rhs.coefficient(d)}"


def _value_witness(tag: str, lhs, rhs):
    return None if lhs == rhs else f"{tag}: lhs={lhs}, rhs={rhs}"


def _first_witness(checks):
    """The witness of the first (tag, lhs, rhs) in `checks` whose sides differ."""
    return next(filter(None, (_value_witness(*c) for c in checks)), None)


def _binom_factor_log(sign: int, d: int, order: int, one) -> Series:
    """log(1 + sign*w^d) = sum_k -(-sign)^k w^(dk)/k over the ring of `one`."""
    co = [one * 0] * (order + 1)
    for k in range(1, order // d + 1):
        co[d * k] = one * Fraction(-(-sign) ** k, k)
    return Series(co, order)


def _geom_inv(c, order: int, one) -> Series:
    """1/(1 - c*w) over the ring of `one`."""
    co = [one]
    acc = one
    for _ in range(order):
        acc = acc * c
        co.append(acc)
    return Series(co, order)


def _starred_counts(flavor: str, d: int, q, parity):
    nstar2d = count_selfdual_and_pairs(2 * d, q, flavor, parity).n_selfdual
    mstar = count_selfdual_and_pairs(d, q, flavor, parity).m_pairs
    return nstar2d, mstar


def _prodlem_lhs(flavor: str, signs: tuple, order: int, q, parity) -> Series:
    """exp(sum_d [-N*(2d) log(1+s1 w^d) - M*(d) log(1+s2 w^d)])."""
    one = _ONE if q is None else Fraction(1)
    s1, s2 = signs
    total = Series.constant(one * 0, order)
    for d in range(1, order + 1):
        nstar2d, mstar = _starred_counts(flavor, d, q, parity)
        if nstar2d:
            total = total + _binom_factor_log(s1, d, order, one) * (-1 * nstar2d)
        if mstar:
            total = total + _binom_factor_log(s2, d, order, one) * (-1 * mstar)
    return total.exp()


def _prodlem_pairs(flavor: str, which: int, order: int, q, parity):
    """(lhs, rhs) series for the two product identities of either flavor."""
    one = _ONE if q is None else Fraction(1)
    qq = _Q if q is None else Fraction(q)
    e = 1 if parity == "even" else 2
    w_minus = Series([one, -one], order)   # 1 - w
    w_plus = Series([one, one], order)     # 1 + w
    if which == 1:
        lhs = _prodlem_lhs(flavor, (-1, -1), order, q, parity)
        rhs = (w_minus ** e) * _geom_inv(qq, order, one)
    elif which == 2:
        lhs = _prodlem_lhs(flavor, (1, -1), order, q, parity)
        rhs = w_minus if flavor == "gl" else w_plus
    elif which == 3 and flavor == "u":
        # product over (1+w^d) for both starred counts
        lhs = _prodlem_lhs("u", (1, 1), order, q, parity)
        den_co = [one * 0] * (order + 1)
        den_co[0] = one
        if order >= 2:
            den_co[2] = one * -1 * qq
        rhs = ((w_plus ** e) * Series([one, one * -1 * qq], order)
               * Series(den_co, order).inv())
    elif which == 4 and flavor == "u":
        # plain counts: prod_d (1-w^d)^(-Nbar(d)) = (1+w)/(1-qw)
        total = Series.constant(one * 0, order)
        for d in range(1, order + 1):
            nbar = count_u_irreducible(d, q)
            total = total + _binom_factor_log(-1, d, order, one) * (-1 * nbar)
        lhs = total.exp()
        rhs = w_plus * _geom_inv(qq, order, one)
    else:
        raise ValueError(f"no identity {which} for flavor {flavor}")
    return lhs, rhs


def _prodlem_runner(flavor: str, identities, order: int, qs, symbolic: bool):
    for which in identities:
        settings = []
        if symbolic:
            parities = ("even", "odd")
            if flavor == "u" and which == 4:
                parities = ("even",)  # plain counts carry no parity dependence
            settings.extend((None, par) for par in parities)
        settings.extend((q0, "even" if q0 % 2 == 0 else "odd") for q0 in qs)
        for q0, par in settings:
            lhs, rhs = _prodlem_pairs(flavor, which, order, q0, par)
            w = _series_witness(lhs, rhs, "w")
            if w:
                at = "symbolic q" if q0 is None else f"q={q0}"
                return f"identity {which} ({at}, parity {par}): {w}"
    return None


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


def _at_inverse_q(co: dict) -> SymPoly:
    """{(i, j, k, e): int} read as sum c a^i b^j t^k z^e at z = 1/q.

    Each a^i b^j t^k coefficient becomes one RatFunc over a monomial q^E.
    """
    grouped: dict = {}
    for (i, j, k, e), c in co.items():
        if c:
            grouped.setdefault((i, j, k), {})[e] = c
    out = {}
    for key, by_e in grouped.items():
        top = max(by_e)
        num = [0] * (top + 1)
        for e, c in by_e.items():
            num[top - e] = c
        out[key] = RatFunc(QPoly(num), QPoly.monomial(top))
    return SymPoly(out)


def _warnaar_lhs(order: int, with_b: bool) -> list:
    """(z;z)_n times the u^n coefficient of the left side, n = 0..order, z = 1/q.

    The u^n coefficient is sum_{lam |- n} weight(lam) P_lam(1, z, z^2, ...; t),
    so the scaled one is sum weight(lam) F_lam(z, t) with the integer
    F_lam = hl_principal_poly(lam): it is summed in integers, keyed
    (i, j, k, e) for a^i b^j t^k z^e, and converted to Q(q) once.
    """
    out = []
    for n in range(order + 1):
        acc: dict = {}
        for lam in enumerate_partitions(n):
            f = hl_principal_poly(lam)
            for (i, j, k1), c1 in _warnaar_weight(lam, with_b).items():
                for (k2, e), c2 in f.items():
                    key = (i, j, k1 + k2, e)
                    acc[key] = acc.get(key, 0) + c1 * c2
        out.append(_at_inverse_q(acc))
    return out


def _warnaar_rhs(order: int, with_b: bool) -> Series:
    z = qpow(-1)
    zi = z.reciprocal()
    a = SymPoly.gen("a")
    b = SymPoly.gen("b")
    t = SymPoly.gen("t")
    factors = [
        euler_expand(GeometricFactorSpec(1, 1, a, z, 1), order),
        pair_expand(PairProductSpec(-1, t * zi * zi, 2, z, 1), order),
        pair_expand(PairProductSpec(-1, zi * zi, 2, z, -1), order),
    ]
    if with_b:
        factors.append(euler_expand(GeometricFactorSpec(1, 1, b, z, 1), order))
        factors.append(euler_expand(GeometricFactorSpec(-1, 1, _ONE, z, -1), order))
        factors.append(euler_expand(GeometricFactorSpec(1, 1, _ONE, z, -1), order))
    else:
        factors.append(euler_expand(GeometricFactorSpec(-1, 2, _ONE, z * z, -1), order))
    return product_of(factors)


# ---------------------------------------------------------------------------
# Runners (one per check id).
# ---------------------------------------------------------------------------


def _run_weyl(family):
    def runner(nmax: int):
        for n in range(nmax + 1):
            res = chars.weyl_sums(family, n)
            if res["degree_sum"] != res["involutions"]:
                return (f"n={n}: degree sum {res['degree_sum']} != "
                        f"involutions {res['involutions']}")
        return None
    return runner


def _run_prodlem(which):
    def runner(order: int, qs, symbolic: bool):
        return _prodlem_runner("gl", (which,), order, qs, symbolic)
    return runner


def _run_u_prodlems(order: int, qs, symbolic: bool):
    return _prodlem_runner("u", (1, 2, 3, 4), order, qs, symbolic)


def _run_genfn_gl(order: int):
    for par in ("even", "odd"):
        lhs = chars.real_sum_gf_from_classes("gl", order, None, parity=par)
        rhs = named_gf("gl_real_gf", par, order)
        w = _series_witness(lhs, rhs)
        if w:
            return f"parity {par}: {w}"
    return None


def _run_degrees_u(order: int):
    for par in ("even", "odd"):
        lhs = chars.real_sum_gf_from_classes("u", order, None, parity=par)
        rhs = named_gf("u_real_gf", par, order).compose_scale(-1)
        w = _series_witness(lhs, rhs)
        if w:
            return f"parity {par}: {w}"
    return None


def _run_closed_vs_gf(flavor, parity):
    def runner(nmax: int):
        gf = chars.real_degree_sum_gf if flavor == "gl" else chars.involution_count_gf
        return _first_witness((f"n={n}", chars.involution_count(flavor, n, None, parity),
                               gf(flavor, n, None, parity))
                              for n in range(1, nmax + 1))
    return runner


def _iden_rhs_coefficient(n: int, squared: bool) -> RatFunc:
    g = [chars.gl_group_order(j, None) for j in range(n + 1)]
    total = RatFunc.const(0)
    if squared:
        for r in range(n + 1):
            total = total + Fraction(1) / (g[r] * g[n - r])
    else:
        for r in range(n // 2 + 1):
            total = total + Fraction(1) / (_Q ** (r * (2 * n - 3 * r)) * g[r] * g[n - 2 * r])
    return total * _Q ** (n * (n - 1) // 2)


def _run_iden(squared):
    def runner(order: int):
        e = 2 if squared else 1
        invq = qpow(-1)
        lhs = (euler_expand(GeometricFactorSpec(1, 1, invq, invq, 1), order) ** e
               * euler_expand(GeometricFactorSpec(-1, 2, invq, invq, -1), order))
        rhs = Series([_iden_rhs_coefficient(n, squared) for n in range(order + 1)], order)
        return _series_witness(lhs, rhs)
    return runner


_IGL_TABLE = {
    1: (0, (1,)),
    2: (2, (1,)),
    3: (1, (-1, 0, 1, 1)),
    4: (2, (-1, 0, 0, 0, 1, 0, 1)),
    5: (6, (-1, -1, 0, 0, 1, 1, 1)),
    6: (5, (1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1, 1, 0, 1)),
    7: (7, (1, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, 0, 0, 1, 1, 1, 1, 1)),
}


def _run_igl_table(nmax: int, observe_nmax: int):
    for n in range(1, nmax + 1):
        shift, coeffs = _IGL_TABLE[n]
        expected = RatFunc.const(1) * QPoly(list(coeffs)) * qpow(shift)
        got = chars.involution_count("gl", n, None, "even")
        w = _value_witness(f"n={n}", got, expected)
        if w:
            return w
    # observation (reported, not gating): coefficients stay in {-1, 0, 1}
    first_bad = None
    for n in range(1, observe_nmax + 1):
        v = chars.involution_count("gl", n, None, "even")
        p = v.as_poly()
        if abs(p.content) != 1 or any(c not in (-1, 0, 1) for c in p.ic):
            first_bad = n
            break
    if first_bad is None:
        note = f"observation: coefficients in {{-1,0,1}} up to rank {observe_nmax}"
    else:
        note = (f"observation: coefficients leave {{-1,0,1}} at rank "
                f"{first_bad} (checked up to {observe_nmax})")
    return ("pass", note)


def _run_epsplit(parity):
    def checks(nmax: int):
        for n in range(1, nmax + 1):
            plus, minus = chars.u_eps_sums_gf(n, None, parity)
            yield (f"n={n} sum", plus + minus,
                   chars.real_degree_sum_gf("u", n, None, parity))
            yield (f"n={n} difference", plus - minus,
                   chars.involution_count("u", n, None, parity))
    return lambda nmax: _first_witness(checks(nmax))


def _run_unsumeven(nmax: int):
    return _first_witness((f"n={n}", chars.u_real_sum_closed(n, None, "even"),
                           chars.real_degree_sum_gf("u", n, None, "even"))
                          for n in range(1, nmax + 1))


def _run_eps_pairs(pairs):
    """Compare the even-characteristic eps-split pair pairs(n) with the
    series route's, sign by sign, for n = 1..nmax."""
    def checks(nmax: int):
        for n in range(1, nmax + 1):
            rhs = chars.u_eps_sums_gf(n, None, "even")
            for sign, a, b in zip((1, -1), pairs(n), rhs):
                yield f"n={n} sign {sign:+d}", a, b
    return lambda nmax: _first_witness(checks(nmax))


# through the chars namespace at run time, so a patched binding reaches the check
_run_unsumeven_pm = _run_eps_pairs(lambda n: chars.u_eps_sums_closed(n, None, "even"))
_run_genfn_even_alt = _run_eps_pairs(lambda n: chars.u_eps_sums_alt_even(n))


def _run_unsumodd(nmax: int):
    def checks():
        for n in range(1, nmax + 1):
            e1, e2 = chars.u_unsumodd_exprs(n)
            yield f"n={n} expressions", e1, e2
            yield (f"n={n} vs series route", e1 * chars.u_prefactor_abs(n, None) * (-1) ** n,
                   chars.real_degree_sum_gf("u", n, None, "odd"))
    return _first_witness(checks())


def _run_example_u2_even():
    q = _Q
    t = qpow(-1)
    z = -t
    checks = [
        ("P_(2)", hl_principal([2], z, t),
         q * (q ** 2 + 1) / ((q + 1) * (q ** 2 - 1))),
        ("P_(1,1)", hl_principal([1, 1], z, t),
         -(q ** 2) / ((q + 1) * (q ** 2 - 1))),
        ("P_(1)", hl_principal([1], z, t), q / (q + 1)),
        ("h_(2)(1/q;1/q)", rs_multi([2], t, t), (q + 1) / q),
        ("degree sum", chars.u_real_sum_closed(2, None, "even"), q ** 2),
        ("series route", chars.real_degree_sum_gf("u", 2, None, "even"), q ** 2),
    ]
    return _first_witness(checks)


def _run_example_u3_even():
    q = _Q
    t = qpow(-1)
    z = -t
    # the double-sum route needs only rank-1 and rank-2 principal values here
    p1 = hl_principal([1], z, t)
    p2 = hl_principal([2], z, t)
    inner = (p1 + p2) / (-2 * q * (q + 1))
    plus, minus = q ** 4 - q ** 3 + q ** 2, q ** 2 - q
    closed = chars.u_eps_sums_closed(3, None, "even")
    series = chars.u_eps_sums_gf(3, None, "even")
    alt = chars.u_eps_sums_alt_even(3)
    checks = [
        ("intermediate", inner, -(q ** 2) / ((q + 1) ** 2 * (q ** 2 - 1))),
        ("recombined", -1 * chars.u_prefactor_abs(3, None) * inner, plus),
        ("eps=+1", closed[0], plus),
        ("eps=-1", closed[1], minus),
        ("eps=+1 series", series[0], plus),
        ("eps=-1 series", series[1], minus),
        ("alt route +", alt[0], plus),
        ("alt route -", alt[1], minus),
        ("involutions", chars.involution_count("u", 3, None, "even"), q ** 4 - q ** 3 + q),
    ]
    return _first_witness(checks)


def _run_example_u2_odd():
    q = _Q
    t = qpow(-1)
    z = -t
    # term values in the two-part expansion at n=2 (second expression)
    term_2 = (rs_multi([2], t, t) * hl_principal([2], z, t)
              * qpow(-1))
    term_11 = (pochhammer_cd(t, t * t, 1) * hl_principal([1, 1], z, t)
               * qpow(-2) * (-1))
    term_nu11 = 2 * hl_principal([1, 1], z, Fraction(-1)) * qpow(-2)
    e1, e2 = chars.u_unsumodd_exprs(2)
    checks = [
        ("(q^-1;q^-2)_1", pochhammer_cd(t, t * t, 1), (q - 1) / q),
        ("term lam=(2)", term_2, (q ** 2 + 1) / (q * (q ** 2 - 1))),
        ("term lam=(1,1)", term_11, 1 / (q * (q + 1) ** 2)),
        ("term nu=(1,1)", term_nu11, -2 / ((q + 1) * (q ** 2 - 1))),
        ("expressions", e1, e2),
        ("degree sum", chars.u_real_sum_closed(2, None, "odd"), q ** 2 + q),
        ("degree sum series", chars.real_degree_sum_gf("u", 2, None, "odd"),
         q ** 2 + q),
        ("involutions", chars.involution_count("u", 2, None, "odd"), q ** 2 - q + 2),
        ("eps=-1", chars.u_eps_sums_closed(2, None, "odd")[1], q - 1),
        ("eps=-1 series", chars.u_eps_sums_gf(2, None, "odd")[1], q - 1),
    ]
    return _first_witness(checks)


def _run_warnaar(with_b):
    def runner(order: int):
        # compare (z;z)_n LHS_n with (z;z)_n RHS_n, z = 1/q
        lhs = _warnaar_lhs(order, with_b)
        rhs = _warnaar_rhs(order, with_b)
        z = qpow(-1)
        scale = _ONE
        for n in range(order + 1):
            if n:
                scale = scale * (1 - z ** n)
            scaled = rhs.coefficient(n) * scale
            if lhs[n] != scaled:
                return f"u^{n}: lhs={lhs[n]}, rhs={scaled}"
        return None
    return runner


def _run_brute_involutions(cases):
    def checks():
        for flavor, n, q0 in cases:
            order = chars.gl_group_order if flavor == "gl" else chars.u_group_order
            yield (f"{flavor}({n},{q0}) order", groups.group_order(flavor, n, q0),
                   order(n, q0))
            yield (f"{flavor}({n},{q0}) involutions",
                   groups.count_square_roots_of_identity(flavor, n, q0),
                   chars.involution_count(flavor, n, q0))
    return _first_witness(checks())


def _run_real_sum_oracle(gl_nmax: int, u_nmax: int, qs):
    return _first_witness((f"{flavor} n={n} q={q0}",
                           chars.real_degree_sum_oracle(flavor, n, q0),
                           chars.real_degree_sum_gf(flavor, n, q0))
                          for q0 in qs
                          for flavor, nmax in (("gl", gl_nmax), ("u", u_nmax))
                          for n in range(1, nmax + 1))


def _run_poly_census(dmax: int, qs, msum: int):
    def checks():
        for flavor in ("gl", "u"):
            for q0 in qs:
                for d in range(1, dmax + 1):
                    f = count_selfdual_and_pairs(d, q0, flavor)
                    b = brute_poly_census(d, q0, flavor)
                    for field in ("n_plain", "n_selfdual", "m_pairs"):
                        yield (f"{flavor} d={d} q={q0} {field}",
                               getattr(f, field), getattr(b, field))
        # plain-count divisor identities, exact in q
        for m in range(1, msum + 1):
            lhs = RatFunc.const(0)
            lhs_u = RatFunc.const(0)
            for d in divisors(m):
                lhs = lhs + d * count_irreducible(d, None)
                lhs_u = lhs_u + d * count_u_irreducible(d, None)
            yield f"gl divisor sum m={m}", lhs, _Q ** m
            yield f"u divisor sum m={m}", lhs_u, _Q ** m - RatFunc.const((-1) ** m)
    return _first_witness(checks())


def _run_hl_finite(sizemax: int):
    z_points = (qpow(-1), -qpow(-1))
    t_points = (qpow(-1), Fraction(-1))
    for n in range(0, sizemax + 1):
        for lam in enumerate_partitions(n):
            m = max(1, min(6, lam.ell + 1))
            for z in z_points:
                xs = tuple(z ** i for i in range(m))
                for t in t_points:
                    diff = (hl_finite_oracle(lam, xs, t)
                            - hl_principal(lam, z, t))
                    if n == 0:
                        if not diff.is_zero:
                            return f"lam={lam}: empty partition mismatch {diff}"
                        continue
                    v = diff.valuation_at_infinity()
                    if v is not None and v < m:
                        return (f"lam={lam} m={m} t={t}: valuation {v} < {m}; "
                                f"difference {diff}")
    # the documented instance: lam=(2,1), m=4,5,6, bound m*(min part)=m
    for m in (4, 5, 6):
        xs = tuple(qpow(-1) ** i for i in range(m))
        diff = (hl_finite_oracle([2, 1], xs, qpow(-1))
                - hl_principal([2, 1], qpow(-1), qpow(-1)))
        v = diff.valuation_at_infinity()
        if v is not None and v < m:
            return f"lam=(2,1) m={m}: valuation {v} < {m}"
    # t = z closed form: P_lam(1,t,t^2,...;t) = t^n(lam) / prod (t;t)_mult
    t = qpow(-1)
    for n in range(1, sizemax + 1):
        for lam in enumerate_partitions(n):
            got = hl_principal(lam, t, t)
            expected = _Q ** 0 * t ** lam.n_stat()
            for mult in lam.mults().values():
                expected = expected / pochhammer_cd(t, t, mult)
            w = _value_witness(f"t=z lam={lam}", got, expected)
            if w:
                return w
    return None


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_QS_DEFAULT = [2, 3, 4, 5]

REGISTRY = {}


def _register(id_, tags, description, params, quick, fn):
    REGISTRY[id_] = CheckSpec(id=id_, tags=tuple(tags), description=description,
                              params=params, quick=quick, fn=fn)


_register("weyl-A", ("weyl",),
          "symmetric group: degree sum equals involution count (EGF route)",
          {"nmax": 12}, {"nmax": 8}, _run_weyl("A"))
_register("weyl-B", ("weyl",),
          "hyperoctahedral group: degree sum equals involution count",
          {"nmax": 12}, {"nmax": 8}, _run_weyl("B"))
_register("weyl-D", ("weyl",),
          "even-signs subgroup: degree sum equals involution count",
          {"nmax": 12}, {"nmax": 8}, _run_weyl("D"))
_register("lemma-prodlem-1", ("gl", "qseries"),
          "class-count product reduces to (1-w)^e/(1-qw)",
          {"order": 8, "qs": _QS_DEFAULT, "symbolic": True},
          {"order": 6, "qs": [2, 3], "symbolic": True}, _run_prodlem(1))
_register("lemma-prodlem-2", ("gl", "qseries"),
          "signed class-count product reduces to 1-w",
          {"order": 8, "qs": _QS_DEFAULT, "symbolic": True},
          {"order": 6, "qs": [2, 3], "symbolic": True}, _run_prodlem(2))
_register("thm-genfnGL", ("gl", "symbolic"),
          "linear-flavor degree-sum series equals the closed product form",
          {"order": 8}, {"order": 6}, _run_genfn_gl)
_register("thm-even", ("gl", "closed-form"),
          "even characteristic: closed involution sum equals prefactor times "
          "series coefficient", {"nmax": 8}, {"nmax": 6},
          _run_closed_vs_gf("gl", "even"))
_register("thm-odd", ("gl", "closed-form"),
          "odd characteristic: closed involution sum equals prefactor times "
          "series coefficient", {"nmax": 10}, {"nmax": 6},
          _run_closed_vs_gf("gl", "odd"))
_register("cor-iden", ("gl", "qseries"),
          "formal identity: single product expansion vs gamma-weighted sums",
          {"order": 10}, {"order": 6}, _run_iden(False))
_register("cor-cort", ("gl", "qseries"),
          "formal identity: squared product expansion vs gamma-weighted sums",
          {"order": 10}, {"order": 6}, _run_iden(True))
_register("remark-igl-table", ("gl", "closed-form"),
          "tabulated involution-count polynomials (ranks 1..7), plus "
          "coefficient observation",
          {"nmax": 7, "observe_nmax": 10}, {"nmax": 7, "observe_nmax": 8},
          _run_igl_table)
_register("u-prodlems", ("u", "qseries"),
          "unitary class-count products reduce to their closed forms",
          {"order": 8, "qs": _QS_DEFAULT, "symbolic": True},
          {"order": 6, "qs": [2, 3], "symbolic": True}, _run_u_prodlems)
_register("thm-degreesU", ("u", "symbolic"),
          "unitary degree-sum series equals the closed product form at -u",
          {"order": 8}, {"order": 6}, _run_degrees_u)
_register("thm-warid", ("hl", "warnaar"),
          "two-parameter Hall-Littlewood summation under geometric "
          "substitution, symbolic a, b, t",
          {"order": 8}, {"order": 5}, _run_warnaar(True))
_register("cor-warcor", ("hl", "warnaar"),
          "one-parameter specialization of the summation (b=0)",
          {"order": 8}, {"order": 5}, _run_warnaar(False))
_register("prop-involU-even", ("u", "closed-form"),
          "even characteristic: unitary involution sum equals signed series "
          "coefficient", {"nmax": 8}, {"nmax": 6},
          _run_closed_vs_gf("u", "even"))
_register("prop-involU-odd", ("u", "closed-form"),
          "odd characteristic: unitary involution sum equals signed series "
          "coefficient", {"nmax": 8}, {"nmax": 6},
          _run_closed_vs_gf("u", "odd"))
_register("cor-epsplit-even", ("u", "closed-form"),
          "even characteristic: eps-split sums recombine to total and "
          "involution count", {"nmax": 6}, {"nmax": 4}, _run_epsplit("even"))
_register("cor-epsplit-odd", ("u", "closed-form"),
          "odd characteristic: eps-split sums recombine to total and "
          "involution count", {"nmax": 6}, {"nmax": 4}, _run_epsplit("odd"))
_register("thm-unsumeven", ("u", "closed-form"),
          "even characteristic: partition-sum form of the unitary degree sum",
          {"nmax": 6}, {"nmax": 4}, _run_unsumeven)
_register("cor-unsumeven-pm", ("u", "closed-form"),
          "even characteristic: closed eps-split values match the series "
          "route", {"nmax": 6}, {"nmax": 4}, _run_unsumeven_pm)
_register("cor-genfn-even-alt", ("u", "closed-form"),
          "even characteristic: alternative double-sum form of the eps-split",
          {"nmax": 6}, {"nmax": 4}, _run_genfn_even_alt)
_register("thm-unsumodd", ("u", "closed-form"),
          "odd characteristic: both partition-pair expressions agree and "
          "match the series route", {"nmax": 6}, {"nmax": 4}, _run_unsumodd)
_register("example-u2-even", ("u", "example"),
          "rank-2 even-characteristic worked example", {}, {},
          _run_example_u2_even)
_register("example-u3-even", ("u", "example"),
          "rank-3 even-characteristic worked example", {}, {},
          _run_example_u3_even)
_register("example-u2-odd", ("u", "example"),
          "rank-2 odd-characteristic worked example", {}, {},
          _run_example_u2_odd)
_register("oracle-brute-involutions", ("oracle", "groups"),
          "enumerated group orders and involution counts match closed forms",
          {"cases": [["gl", 2, 2], ["gl", 2, 3], ["gl", 2, 4], ["gl", 2, 5],
                     ["gl", 3, 2], ["gl", 3, 3], ["gl", 4, 2],
                     ["u", 2, 2], ["u", 2, 3], ["u", 3, 2]]},
          {"cases": [["gl", 2, 2], ["gl", 2, 3], ["gl", 3, 2], ["u", 2, 2]]},
          _run_brute_involutions)
_register("oracle-real-sums", ("oracle", "chars"),
          "real degree sums enumerated character by character with the "
          "degree formula over census classes match series coefficients",
          {"gl_nmax": 4, "u_nmax": 3, "qs": [2, 3]},
          {"gl_nmax": 3, "u_nmax": 2, "qs": [2, 3]}, _run_real_sum_oracle)
_register("oracle-poly-census", ("oracle", "polycount"),
          "orbit-enumeration census matches count formulas and divisor sums",
          {"dmax": 4, "qs": _QS_DEFAULT, "msum": 8},
          {"dmax": 3, "qs": [2, 3], "msum": 6}, _run_poly_census)
_register("oracle-hl-finite", ("oracle", "hl"),
          "finite-variable Hall-Littlewood oracle agrees with principal "
          "values within the valuation bound",
          {"sizemax": 5}, {"sizemax": 4}, _run_hl_finite)


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
    except SkipCheck as exc:
        status, witness = "skipped", str(exc) or "skipped"
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
    reports = []
    for check_id in selected:
        spec = REGISTRY[check_id]
        usable = {k: v for k, v in overrides.items() if k in spec.params}
        reports.append(run_check(check_id, budget=budget, **usable))
    return reports


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
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
        extra = f"  {r.witness}" if r.witness and r.status != "pass" else ""
        yield f"[{mark}] {r.id} ({r.millis} ms){extra}"
