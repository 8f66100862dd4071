"""Tests for character degrees, degree sums, and involution counts."""

import itertools
import math
from fractions import Fraction

import pytest

import qcharsum.chars as chars
from qcharsum.chars import (
    CharParam,
    _class_factor,
    _order_ic,
    _qval,
    char_degree,
    gl_group_order,
    gl_prefactor,
    involution_count,
    involution_count_gf,
    real_degree_sum_gf,
    real_degree_sum_oracle,
    real_sum_gf_from_classes,
    u_eps_sums_alt_even,
    u_eps_sums_closed,
    u_eps_sums_gf,
    u_group_order,
    u_prefactor_abs,
    u_real_sum_closed,
    u_real_sum_even_closed,
    u_real_sum_odd_closed,
    weyl_degree_sum,
    weyl_involutions,
)
from qcharsum import hl
from qcharsum.exact import QPoly, RatFunc, Series, qpow
from qcharsum.hl import hl_principal, pochhammer_cd, rs_multi
from qcharsum.partitions import enumerate_partitions, partitions_up_to
from qcharsum.polycount import (brute_poly_census, count_irreducible, count_selfdual_and_pairs,
                                count_u_irreducible, to_int)
from _involution_ref import involution_sum_ic
from _series_ref import exp, log


Q = RatFunc.x()


def test_group_orders():
    assert gl_group_order(2, 2) == 6
    assert gl_group_order(2, 3) == 48
    assert gl_group_order(3, 2) == 168
    assert u_group_order(2, 2) == 18
    assert u_group_order(2, 3) == 96
    assert u_group_order(3, 2) == 648
    assert gl_group_order(2, None) == Q**4 - Q**3 - Q**2 + Q
    for n in (1, 2, 3, 4):
        for q in (2, 3, 4):
            assert gl_group_order(n, None).eval(q) == gl_group_order(n, q)
            assert u_group_order(n, None).eval(q) == u_group_order(n, q)


def _order_by_factors(eps, n, shift, q):
    """q^shift * prod (q^i - eps^i) as a product of RatFunc or Fraction factors."""
    qq = _qval(q)
    out = qq ** shift
    for i in range(1, n + 1):
        out = out * (qq ** i - eps ** i)
    return out


ORDER_FUNCTIONS = [
    (gl_group_order, 1, True), (u_group_order, -1, True),
    (gl_prefactor, 1, False), (u_prefactor_abs, -1, False),
]


@pytest.mark.parametrize("fn, eps, shifted", ORDER_FUNCTIONS)
def test_group_orders_match_the_factor_product(fn, eps, shifted):
    # The memoized integer product against the product of its factors:
    # every canonical field symbolically, the same int at numeric q.
    for n in range(13):
        shift = n * (n - 1) // 2 if shifted else 0
        got, want = fn(n, None), _order_by_factors(eps, n, shift, None)
        assert ((got.num.ic, got.num.content, got.den.ic, got.den.content)
                == (want.num.ic, want.num.content, want.den.ic, want.den.content))
        for q in (2, 3, 5):
            value = fn(n, q)
            assert type(value) is int
            assert value == _order_by_factors(eps, n, shift, q)


@pytest.mark.parametrize("fn, eps, shifted", ORDER_FUNCTIONS)
@pytest.mark.parametrize("q", [1, 0, 2.5, Fraction(3)])
def test_group_orders_reject_bad_q(fn, eps, shifted, q):
    with pytest.raises(ValueError):
        fn(3, q)


def test_order_ic_is_memoized():
    for eps in (1, -1):
        assert _order_ic(eps, 7) is _order_ic(eps, 7)
    assert _order_ic(1, 2) == (1, -1, -1, 1)   # (q - 1)(q^2 - 1)
    assert _order_ic(-1, 2) == (-1, -1, 1, 1)  # (q + 1)(q^2 - 1)


def test_char_degree_rank_two():
    triv = CharParam("gl", (("selfdual", 1, (1, 1)),))
    steinberg = CharParam("gl", (("selfdual", 1, (2,)),))
    split_pair = CharParam("gl", (("pair", 1, (1,)),))
    assert char_degree(triv, None) == 1 + Q * 0
    assert char_degree(steinberg, None) == Q
    assert char_degree(split_pair, None) == Q + 1
    assert char_degree(steinberg, 5) == 5
    assert char_degree(split_pair, 7) == 8


def test_char_degree_rank_three():
    # Classes of degrees 1 and 2 with single-box partitions label a
    # character attached to a torus of order (q-1)(q^2-1), so the degree
    # is the group order prime-to-q part divided by that: q^3 - 1.
    mixed = CharParam("gl", (("selfdual", 1, (1,)), ("selfdual", 2, (1,))))
    assert mixed.weight == 3
    assert char_degree(mixed, None) == Q**3 - 1
    u_two_one = CharParam("u", (("selfdual", 1, (2, 1)),))
    assert char_degree(u_two_one, None) == Q**2 - Q
    assert char_degree(u_two_one, 2) == 2


def test_char_param_validation():
    with pytest.raises(ValueError):
        CharParam("sp", (("selfdual", 1, (1,)),))
    with pytest.raises(ValueError):
        CharParam("gl", (("plain", 1, (1,)),))
    with pytest.raises(ValueError):
        CharParam("gl", (("selfdual", 0, (1,)),))
    with pytest.raises(ValueError):
        CharParam("gl", (("selfdual", 1, (1, 2)),))
    assert CharParam("u", (("pair", 2, (2, 1)),)).weight == 12


def test_degree_sum_equals_involutions_numeric():
    # In the general linear family the real degree sum counts solutions of
    # g^2 = 1 directly.  In the unitary family the count appears as the
    # difference of the two epsilon-labelled sums, while their total is the
    # real degree sum.
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            assert real_degree_sum_gf("gl", n, q) == involution_count("gl", n, q)
        for n in (1, 2, 3):
            plus, minus = u_eps_sums_gf(n, q)
            assert plus - minus == involution_count("u", n, q)
            assert plus + minus == real_degree_sum_gf("u", n, q)


def test_degree_sum_oracle_matches_gf():
    # GL(2, 2) = S_3: three real characters, of degrees 1, 1 and 2.
    assert real_degree_sum_oracle("gl", 2, 2) == 4
    for q in (2, 3, 4, 5):
        for flavor, nmax in (("gl", 4), ("u", 3)):
            for n in range(nmax + 1):
                assert real_degree_sum_oracle(flavor, n, q) == real_degree_sum_gf(flavor, n, q)


def test_degree_sum_oracle_walks_the_real_characters(monkeypatch):
    # GL(2, 3): the census gives the self-conjugate classes t - 1, t + 1 and
    # t^2 + 1 and no pair.  The real characters put (2) or (1,1) on one
    # linear class, (1) on both, or (1) on t^2 + 1: six characters, of
    # degrees q, q, 1, 1, q + 1 and q - 1.
    degrees = []
    real = chars.char_degree

    def record(param, q=None):
        degrees.append(real(param, q))
        return degrees[-1]

    monkeypatch.setattr(chars, "char_degree", record)
    assert real_degree_sum_oracle("gl", 2, 3) == 14
    assert sorted(degrees) == [1, 1, 2, 3, 3, 4]


@pytest.mark.parametrize("q", [1, 0, -3, True])
def test_gf_readers_reject_bad_q(q):
    for call in (lambda: real_degree_sum_gf("gl", 2, q),
                 lambda: involution_count_gf("u", 2, q),
                 lambda: u_eps_sums_gf(2, q)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("fn, args", [
    pytest.param(gl_group_order, (-1, 3), id="gl_group_order"),
    pytest.param(u_prefactor_abs, (-1, None), id="u_prefactor_abs"),
    pytest.param(involution_count, ("gl", -1, 3), id="involution_count-gl"),
    pytest.param(involution_count, ("u", -1, None, "odd"), id="involution_count-u"),
    pytest.param(real_degree_sum_gf, ("u", -2, None, "even"), id="real_degree_sum_gf"),
    pytest.param(u_eps_sums_gf, (-1, 3), id="u_eps_sums_gf"),
    pytest.param(u_real_sum_closed, (-1, None, "odd"), id="u_real_sum_closed-odd"),
    pytest.param(u_real_sum_closed, (-2, None, "even"), id="u_real_sum_closed-even"),
    pytest.param(u_eps_sums_closed, (-1, None, "odd"), id="u_eps_sums_closed"),
    pytest.param(u_eps_sums_alt_even, (-1,), id="u_eps_sums_alt_even"),
    pytest.param(real_degree_sum_oracle, ("gl", -1, 3), id="real_degree_sum_oracle"),
    pytest.param(u_real_sum_odd_closed, (-1,), id="u_real_sum_odd_closed"),
    pytest.param(weyl_degree_sum, ("A", -1), id="weyl_degree_sum-A"),
    pytest.param(weyl_degree_sum, ("B", -1), id="weyl_degree_sum-B"),
    pytest.param(weyl_degree_sum, ("D", -1), id="weyl_degree_sum-D"),
    pytest.param(weyl_involutions, ("A", -1), id="weyl_involutions-A"),
    pytest.param(weyl_involutions, ("B", -1), id="weyl_involutions-B"),
    pytest.param(weyl_involutions, ("D", -1), id="weyl_involutions-D"),
])
def test_negative_rank_is_rejected(fn, args):
    with pytest.raises(ValueError, match="rank must be >= 0"):
        fn(*args)


def test_symbolic_matches_numeric_by_parity():
    for flavor, nmax in (("gl", 4), ("u", 3)):
        for n in range(1, nmax + 1):
            even = real_degree_sum_gf(flavor, n, None, "even")
            odd = real_degree_sum_gf(flavor, n, None, "odd")
            # the reference enumerates the real characters at q
            for q in (2, 4):
                assert even.eval(q) == real_degree_sum_oracle(flavor, n, q)
            for q in (3, 5):
                assert odd.eval(q) == real_degree_sum_oracle(flavor, n, q)


def _involution_quotient_at(flavor, n, q):
    """The closed involution sum at integer q as exact quotients of the
    integer group orders, with the parity of q."""
    order = gl_group_order if flavor == "gl" else u_group_order
    g = [Fraction(order(j, q)) for j in range(n + 1)]
    if q % 2 == 0:
        terms = (g[n] / (q ** (r * (2 * n - 3 * r)) * g[r] * g[n - 2 * r])
                 for r in range(n // 2 + 1))
    else:
        terms = (g[n] / (g[r] * g[n - r]) for r in range(n + 1))
    return to_int(sum(terms))


def test_involution_count_symbolic():
    assert involution_count("gl", 2, None, "odd") == Q**2 + Q + 2
    assert involution_count("gl", 2, None, "even") == Q**2
    for n in (1, 2, 3, 4):
        for parity, qs in (("even", (2, 4)), ("odd", (3, 5))):
            sym = involution_count("u", n, None, parity)
            for q in qs:
                want = _involution_quotient_at("u", n, q)
                assert sym.eval(q) == involution_count("u", n, q) == want
            assert involution_count_gf("u", n, None, parity) == sym


def _involution_quotient(flavor, n, parity):
    """The closed involution sum as a sum of RatFunc group-order quotients."""
    order = gl_group_order if flavor == "gl" else u_group_order
    g = [order(j) for j in range(n + 1)]
    if parity == "even":
        terms = (g[n] / (Q ** (r * (2 * n - 3 * r)) * g[r] * g[n - 2 * r])
                 for r in range(n // 2 + 1))
    else:
        terms = (g[n] / (g[r] * g[n - r]) for r in range(n + 1))
    return sum(terms, RatFunc.const(0))


@pytest.mark.parametrize("flavor", ["gl", "u"])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_symbolic_involution_count_is_the_group_order_quotient(flavor, parity):
    # The division-free q-binomial sum against the quotients it replaces:
    # every canonical field, a polynomial, and, at each q, the quotient of
    # the integer group orders.
    qs = (2, 4) if parity == "even" else (3, 5)
    for n in range(13):
        got = involution_count(flavor, n, None, parity)
        assert _fields(got) == _fields(_involution_quotient(flavor, n, parity)), n
        assert (got.den.ic, got.den.content) == ((1,), 1)
    for n in range(25):
        got = involution_count(flavor, n, None, parity)
        for q in qs:
            want = _involution_quotient_at(flavor, n, q)
            assert got.eval(q) == involution_count(flavor, n, q) == want, (n, q)


@pytest.mark.parametrize("flavor", ["gl", "u"])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_involution_terms_match_the_gaussian_row_reference(flavor, parity):
    # The term-ratio recurrence against the route it replaced (whole
    # Gaussian rows, products multiplied out one binomial at a time), list
    # for list, at every rank the benchmark's deep ranks reach and beyond.
    eps, e = (1 if flavor == "gl" else -1), (1 if parity == "even" else 2)
    for n in range(33):
        assert chars._involution_sum_ic(eps, n, e) == involution_sum_ic(eps, n, e), n


def test_parity_argument_guards():
    with pytest.raises(ValueError):
        involution_count("u", 2, None, None)
    with pytest.raises(ValueError):
        involution_count("u", 2, 4, "odd")
    with pytest.raises(ValueError):
        involution_count("u", 2, 3, "even")


def test_generating_function_readers_reject_unknown_flavors():
    # Only "gl" and "u" have named series; any other flavor must raise
    # rather than fall through to the unitary value.
    for fn in (real_degree_sum_gf, involution_count_gf):
        for flavor in ("sp", "GL", "U"):
            with pytest.raises(ValueError, match="flavor must be 'gl' or 'u'"):
                fn(flavor, 2, 3)


def test_u_worked_examples_closed():
    assert u_real_sum_closed(2, None, "even") == Q**2
    assert u_real_sum_closed(2, None, "odd") == Q**2 + Q
    assert u_real_sum_closed(3, None, "even") == Q**4 - Q**3 + 2 * Q**2 - Q
    assert u_eps_sums_closed(3, None, "even") == (Q**4 - Q**3 + Q**2, Q**2 - Q)
    assert u_eps_sums_closed(2, None, "odd")[1] == Q - 1
    assert u_real_sum_closed(2, 4) == 16
    assert u_real_sum_closed(2, 3) == 12


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_every_q_function_is_its_symbolic_value_evaluated(q):
    # At integer q each public function returns its symbolic value, with
    # the parity of q, evaluated at q: an int (a tuple of ints for a pair),
    # or the evaluated coefficients for a series.
    parity = "even" if q % 2 == 0 else "odd"

    def same(got, sym):
        if isinstance(got, tuple):
            assert len(got) == len(sym)
            for a, b in zip(got, sym):
                same(a, b)
        else:
            assert type(got) is int and got == sym.eval(q), (got, sym)

    for d in range(1, 6):
        same(count_irreducible(d, q), count_irreducible(d, None))
        same(count_u_irreducible(d, q), count_u_irreducible(d, None))
        for flavor in ("gl", "u"):
            got = count_selfdual_and_pairs(d, q, flavor)
            sym = count_selfdual_and_pairs(d, None, flavor, parity)
            for field in ("n_plain", "n_selfdual", "m_pairs"):
                same(getattr(got, field), getattr(sym, field))
    closed = u_real_sum_even_closed if parity == "even" else u_real_sum_odd_closed
    for n in range(6):
        for fn in (gl_group_order, u_group_order, gl_prefactor, u_prefactor_abs, closed):
            same(fn(n, q), fn(n, None))
        if parity == "even":
            same(u_eps_sums_alt_even(n, q), u_eps_sums_alt_even(n, None))
        for fn in (u_real_sum_closed, u_eps_sums_closed, u_eps_sums_gf):
            same(fn(n, q), fn(n, None, parity))
        for flavor in ("gl", "u"):
            for fn in (involution_count, real_degree_sum_gf, involution_count_gf):
                same(fn(flavor, n, q), fn(flavor, n, None, parity))
    for param in (CharParam("gl", (("selfdual", 1, (2,)), ("pair", 1, (1,)))),
                  CharParam("u", (("selfdual", 1, (2, 1)), ("selfdual", 2, (1,))))):
        same(char_degree(param, q), char_degree(param, None))
    for flavor in ("gl", "u"):
        got = real_sum_gf_from_classes(flavor, 4, q)
        sym = real_sum_gf_from_classes(flavor, 4, None, parity)
        assert [got.coefficient(n) for n in range(5)] == \
            [sym.coefficient(n).eval(q) for n in range(5)]


def test_u_closed_matches_gf_route():
    for n in range(1, 5):
        for parity in ("even", "odd"):
            assert u_real_sum_closed(n, None, parity) == real_degree_sum_gf(
                "u", n, None, parity
            )
            assert u_eps_sums_closed(n, None, parity) == u_eps_sums_gf(n, None, parity)


def _unsumodd_expr(n, form):
    """One of the two partition-pair expressions (form 1 or 2) for the
    odd-characteristic real degree sum, without the prefactor:
    q^N E(1/q) / prefactor, N = binom(n+1, 2)."""
    return chars._from_w(chars._unsumodd_sum(n, form), math.comb(n + 1, 2)) / u_prefactor_abs(n)


def test_unsummed_odd_expressions_agree():
    for n in range(1, 5):
        e1, e2 = _unsumodd_expr(n, 1), _unsumodd_expr(n, 2)
        assert e1 == e2, n
        for q in (3, 5):
            want = u_real_sum_odd_closed(n, q)
            assert (-1) ** n * u_prefactor_abs(n, q) * e1.eval(q) == want, (n, q)
    with pytest.raises(ValueError, match="form must be 1 or 2"):
        chars._unsumodd_sum(2, 3)


# The unitary partition sums term by term in RatFunc, from hl_principal values:
# the reference for their Z[w] route.


def _ref_even(n):
    total = RatFunc.const(0)
    for lam in enumerate_partitions(n):
        total = total + qpow(-((lam.ell_odd + n) // 2)) * hl_principal(lam, -qpow(-1), qpow(-1))
    return total * u_prefactor_abs(n, None)


def _ref_odd_exprs(n):
    t, z = qpow(-1), -qpow(-1)
    expr1 = expr2 = RatFunc.const(0)
    for k in range(n + 1):
        for lam in enumerate_partitions(k):
            lam_o, lam_e = lam.odd_part(), lam.even_part()
            for nu in enumerate_partitions(n - k):
                base = (qpow(-nu.size - (lam.ell_odd + k) // 2) * rs_multi(lam_e, t, t)
                        * hl_principal(lam, z, t) * hl_principal(nu, z, Fraction(-1)))
                if all(m % 2 == 0 for m in nu.mults().values()):
                    sgn = (-1) ** (nu.size // 2 + lam.ell_odd)
                    expr1 = expr1 + sgn * 2 ** (nu.ell // 2) * base \
                        * rs_multi(lam_o, RatFunc.const(1), t)
                if all(m % 2 == 0 for m in lam_o.mults().values()) and \
                   all(m % 2 == 0 for m in nu.even_part().mults().values()):
                    sgn = (-1) ** ((lam.ell_odd + nu.ell_odd + nu.size) // 2)
                    two_pow = 1
                    for m in nu.mults().values():
                        two_pow *= 2 ** ((m + 1) // 2)
                    poch = RatFunc.const(1)
                    for m in lam_o.mults().values():
                        poch = poch * pochhammer_cd(t, t * t, m // 2)
                    expr2 = expr2 + sgn * two_pow * base * poch
    return expr1, expr2


def _ref_invol_inner(m):
    w = [u_group_order(j, None) for j in range(m + 1)]
    total = RatFunc.const(0)
    for s in range(m // 2 + 1):
        total = total + Fraction(1) / (Q ** (s * (2 * m - 3 * s)) * w[s] * w[m - 2 * s])
    return total * Q ** math.comb(m, 2) * (-1) ** (m + math.comb(m, 2))


def _ref_alt_even(n, sign):
    half = Fraction(1, 2)
    eps0 = (-1) ** math.comb(n, 2)
    total = _ref_invol_inner(n) * ((1 + sign * eps0) * half)
    for k in range(1, n // 2 + 1):
        t_k = RatFunc.const(0)
        for lam in partitions_up_to(2 * k):
            if lam.ell_odd + lam.size == 2 * k:
                t_k = t_k + qpow(-k) * hl_principal(lam, -qpow(-1), qpow(-1))
        total = total + t_k * _ref_invol_inner(n - 2 * k) * half
    return total * u_prefactor_abs(n, None) * (-1) ** n


def _fields(r):
    return (r.num.ic, r.num.content, r.den.ic, r.den.content)


def test_unitary_sums_match_the_hl_principal_reference():
    for n in range(1, 7):
        got = [u_real_sum_even_closed(n), _unsumodd_expr(n, 1), _unsumodd_expr(n, 2),
               *u_eps_sums_alt_even(n)]
        want = [_ref_even(n), *_ref_odd_exprs(n), _ref_alt_even(n, 1), _ref_alt_even(n, -1)]
        assert [_fields(r) for r in got] == [_fields(r) for r in want], n
        for q in (3, 4, 8):
            assert u_real_sum_even_closed(n, q) == to_int(want[0].eval(q))
            assert got[1].eval(q) == want[1].eval(q)
            assert got[2].eval(q) == want[2].eval(q)
            assert u_eps_sums_alt_even(n, q) == (to_int(want[3].eval(q)),
                                                 to_int(want[4].eval(q))), (n, q)


def test_unitary_sums_take_a_fixed_number_of_ratfunc_operations(monkeypatch):
    # The sums run in integer polynomials in w = 1/q; only the conversion to
    # Q(q) (and, for the odd expressions, the division by the prefactor)
    # touches RatFunc, so the count does not grow with n.
    calls = [0]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        def counting(*args, _real=getattr(RatFunc, name)):
            calls[0] += 1
            return _real(*args)
        monkeypatch.setattr(RatFunc, name, counting)
    sums = {"even": u_real_sum_even_closed,
            "odd form 1": lambda n: _unsumodd_expr(n, 1),
            "odd form 2": lambda n: _unsumodd_expr(n, 2)}
    seen = {}
    for n in range(1, 7):
        for name, fn in sums.items():
            calls[0] = 0
            fn(n)
            seen[name, n] = calls[0]
    monkeypatch.undo()
    assert max(seen.values()) <= 4, seen
    for name in sums:
        assert len({seen[name, n] for n in range(1, 7)}) == 1, seen


def test_rogers_szego_at_a_power_of_w_matches_hl():
    # H_m(w^s; w) summed from the Gaussian rows, against hl's Horner route.
    w = QPoly.x()
    for s in (0, 1):
        for m in range(9):
            want = hl.rogers_szego(m, w ** s, w).coefficients
            assert chars._rs_at_wpow(m, s) == list(want), (m, s)


def _perm_compose(p, r):
    return tuple(p[r[i]] for i in range(len(p)))


def _brute_symmetric_involutions(n):
    idp = tuple(range(n))
    return sum(
        1 for p in itertools.permutations(range(n)) if _perm_compose(p, p) == idp
    )


def _brute_signed_involutions(n, even_signs_only):
    # Elements (p, s) act by e_i -> s_i e_{p(i)}; the square sends
    # e_i -> s_i s_{p(i)} e_{p(p(i))}.
    idp = tuple(range(n))
    count = 0
    for p in itertools.permutations(range(n)):
        for s in itertools.product((1, -1), repeat=n):
            if even_signs_only and s.count(-1) % 2:
                continue
            if _perm_compose(p, p) != idp:
                continue
            if all(s[i] * s[p[i]] == 1 for i in range(n)):
                count += 1
    return count


def test_weyl_sums_match_brute_force():
    for n in range(1, 7):
        brute = _brute_symmetric_involutions(n)
        assert weyl_degree_sum("A", n) == weyl_involutions("A", n) == brute
    for n in range(1, 5):
        brute = _brute_signed_involutions(n, False)
        assert weyl_degree_sum("B", n) == weyl_involutions("B", n) == brute
        brute = _brute_signed_involutions(n, True)
        assert weyl_degree_sum("D", n) == weyl_involutions("D", n) == brute


def _hooks(lam):
    out = 1
    for h in lam.hooks():
        out *= h
    return out


def _bipartition_degree_sums(n):
    """The B and D degree sums as n!/(H(lam) H(tau)) over every bipartition
    (lam, tau) of n, and the diagonal pairs (lam, lam) for D."""
    fact = math.factorial(n)
    b_sum = 0
    for k in range(n + 1):
        for lam in enumerate_partitions(k):
            for tau in enumerate_partitions(n - k):
                b_sum += fact // (_hooks(lam) * _hooks(tau))
    diag = 0
    if n % 2 == 0:
        for lam in enumerate_partitions(n // 2):
            diag += fact // (_hooks(lam) ** 2)
    return b_sum, (b_sum + diag) // 2


def test_weyl_degree_sums_match_bipartition_hook_products():
    for n in range(11):
        b_sum, d_sum = _bipartition_degree_sums(n)
        assert weyl_degree_sum("B", n) == b_sum, n
        assert weyl_degree_sum("D", n) == d_sum, n


def test_weyl_known_values():
    assert [weyl_involutions("A", n) for n in range(1, 9)] == [
        1, 2, 4, 10, 26, 76, 232, 764,
    ]
    assert weyl_involutions("B", 3) == 20
    assert weyl_involutions("D", 4) == 44
    for fn in (weyl_degree_sum, weyl_involutions):
        with pytest.raises(ValueError, match="family must be"):
            fn("C", 2)


def _egf_coefficient_times_factorial(low, n):
    """n! [u^n] exp(low[0] + low[1] u + low[2] u^2), by the series exp."""
    s = Series([Fraction(c) for c in low] + [Fraction(0)] * n, n)
    return to_int(exp(s).coefficient(n) * math.factorial(n))


def test_weyl_involutions_match_the_exponential_generating_functions():
    # exp(u + u^2/2) for A, exp(2u + u^2) for B, and
    # (exp(2u + u^2) + exp(u^2)) / 2 for D
    for n in range(13):
        a = _egf_coefficient_times_factorial([0, 1, Fraction(1, 2)], n)
        b = _egf_coefficient_times_factorial([0, 2, 1], n)
        d = (b + _egf_coefficient_times_factorial([0, 0, 1], n)) // 2
        assert [weyl_involutions(f, n) for f in "ABD"] == [a, b, d], n


def test_gl_degree_sum_closed_forms():
    # Rank 1: q odd has two linear characters, q even one.
    assert real_degree_sum_gf("gl", 1, None, "odd") == 2 + Q * 0
    assert real_degree_sum_gf("gl", 1, None, "even") == 1 + Q * 0
    assert involution_count("gl", 1, 2) == 1
    assert involution_count("gl", 1, 3) == 2


def test_qpow_helper():
    assert qpow(3) == Q**3
    assert qpow(0) == 1 + Q * 0
    assert qpow(-2) == 1 / Q**2


def _blocks_from_class_factors(flavor, d, order, q):
    """(T_d, G_d) summed term by term from the hook-product class factor."""
    qq = _qval(q)
    t_co = [qq ** 0] + [qq * 0] * order
    g_co = list(t_co)
    for m in range(1, order // d + 1):
        for lam in enumerate_partitions(m):
            f = _class_factor(flavor, d, lam, qq)
            t_co[d * m] = t_co[d * m] + f
            if 2 * d * m <= order:
                g_co[2 * d * m] = g_co[2 * d * m] + f * f
    return Series(t_co, order), Series(g_co, order)


def _scaled_block(flavor, scaled, q):
    """The series with scaled coefficients (x;x)_n c_n, integer lists in
    x = q (gl) or -q (u), read at q; None is symbolic q."""
    x = _qval(q) * (1 if flavor == "gl" else -1)
    co, pochhammer = [], x ** 0
    for n, p in enumerate(scaled):
        if n:
            pochhammer = pochhammer * (1 - x ** n)
        co.append(sum((c * x ** i for i, c in enumerate(p)), x * 0) / pochhammer)
    return Series(co, len(scaled) - 1)


@pytest.mark.parametrize("q", [None, 2, 3, 4, 5])
@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_assignment_blocks_match_class_factor_sums(flavor, q):
    # The fake-degree route against the hook-product definition, coefficient
    # for coefficient: power 1 of each memoized block is the block minus 1.
    for d in range(1, 9):
        blocks = chars._assignment_blocks(flavor, d, 8)
        for powers, want in zip(blocks, _blocks_from_class_factors(flavor, d, 8, q)):
            scaled = powers[1] if len(powers) > 1 else [[]] * 9
            got = _scaled_block(flavor, scaled, q) + 1
            assert got.order == want.order == 8
            assert got.co == want.co, (flavor, d, q)


def _gf_block_by_block(flavor, order, q, parity, counts):
    """The class product with each block, summed from the hook-product class
    factors, raised to its own class count, by exp(count*log(block)) where
    the count is not an integer."""
    qq = _qval(q)
    out = Series.constant(qq ** 0, order)
    for d in range(1, order + 1):
        cc = (brute_poly_census(d, q, flavor) if counts == "census"
              else count_selfdual_and_pairs(d, q, flavor, parity=parity))
        for block, count in zip(_blocks_from_class_factors(flavor, d, order, q),
                                (cc.n_selfdual, cc.m_pairs)):
            if isinstance(count, int):
                out = out * block ** count
            else:
                out = out * exp(log(block) * count)
    return out


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_class_product_takes_one_exp_of_the_summed_logs(flavor, parity):
    # The integer binomial series against the per-block exp(count*log(block))
    # of the generic series calculus, coefficient for coefficient at symbolic q.
    got = real_sum_gf_from_classes(flavor, 8, None, parity)
    assert got == _gf_block_by_block(flavor, 8, None, parity, "formula")


def test_block_powers_are_built_once_per_block():
    # Both parities at symbolic q read the same memoized block powers: one
    # entry per d = 1..6 on the first parity, and none more on the second.
    chars._assignment_blocks.cache_clear()
    even = real_sum_gf_from_classes("u", 6, None, "even")
    assert chars._assignment_blocks.cache_info().currsize == 6
    odd = real_sum_gf_from_classes("u", 6, None, "odd")
    info = chars._assignment_blocks.cache_info()
    assert (info.currsize, info.misses) == (6, 6)
    assert even == _gf_block_by_block("u", 6, None, "even", "formula")
    assert odd == _gf_block_by_block("u", 6, None, "odd", "formula")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_class_product_on_the_census_path(flavor, q):
    # At numeric q the formula counts are integers, so the library raises
    # each block to its count; the product with the census counts in their
    # place must be the same series.
    got = real_sum_gf_from_classes(flavor, 4, q)
    assert got == _gf_block_by_block(flavor, 4, q, None, "census")
