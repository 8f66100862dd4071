"""Infinite-product expansions: closed-form coefficients checked against
functional equations, elementary symmetric functions, and the q-binomial
theorem — all independent of the expansion code paths — and the integer
series products and named series against RatFunc references."""

from fractions import Fraction
from functools import lru_cache

import pytest

import qcharsum.qseries as qseries
from qcharsum.exact import QPoly, RatFunc, Series, qpow
from qcharsum.partitions import _gauss_row
from qcharsum.qseries import GF_NAMES, euler_expand, named_gf, pair_expand, product_of
from _series_ref import exp

ONE = RatFunc.const(1)
Q = RatFunc.x()
X = qpow(-1)  # 1/q, the usual geometric ratio


def _first_difference(a, b):
    """Smallest n (up to the common order) where the coefficients of the
    series a and b differ, else None."""
    for i in range(min(a.order, b.order) + 1):
        if a.coefficient(i) != b.coefficient(i):
            return i
    return None


def _binom_series(sign, coeff, a, exponent, order):
    """(1 + sign*coeff*u^a)^exponent for exponent in {1, -1}."""
    co = [ONE * 0] * (order + 1)
    co[0] = ONE
    if a <= order:
        co[a] = coeff * sign
    s = Series(co, order)
    return s if exponent == 1 else s.inv()


# RatFunc references: the closed Euler coefficients and the pair-product
# log -> exp, term by term over Q(q), and the named series built from them.

def _euler_ref(sign, a, coeff, ratio, expo, order):
    """prod_{i>=0} (1 + sign*coeff*ratio^i*u^a)^expo over Q(q)."""
    w = coeff * (sign if expo == 1 else -sign)
    co = [ONE * 0] * (order + 1)
    co[0] = ONE
    wl = rtri = dprod = rl = ONE
    for l in range(1, order // a + 1):
        wl, rl = wl * w, rl * ratio
        dprod = dprod * (1 - rl)
        co[a * l] = wl * (rtri if expo == 1 else ONE) / dprod
        rtri = rtri * rl
    return Series(co, order)


def _pair_ref(sign, v, a, x, expo, order):
    """prod_{1<=i<j} (1 + sign*v*x^(i+j)*u^a)^expo over Q(q)."""
    log_co = [ONE * 0] * (order + 1)
    vm = xm = ONE
    for m in range(1, order // a + 1):
        vm, xm = vm * v * sign, xm * x
        tail = xm ** 3 / ((1 - xm) * (1 - xm * xm))
        log_co[a * m] = vm * tail * Fraction(expo * (-1) ** (m + 1), m)
    return exp(Series(log_co, order))


@lru_cache(maxsize=None)
def _invol_ref(x_sign, e, order):
    x = X * x_sign
    return _euler_ref(1, 1, x, x, 1, order) ** e * _euler_ref(-1, 2, x, x, -1, order)


@lru_cache(maxsize=None)
def _u_real_ref(e, order):
    x = -X
    s = _euler_ref(1, 1, x, x, 1, order) ** e * _euler_ref(1, 2, x, x * x, -1, order)
    for spec in ((1, ONE, 2, x, 1 - e), (-1, ONE, 2, x, e), (1, x.reciprocal(), 2, x, -1)):
        s = s * _pair_ref(*spec, order)
    return s


def _named_ref(name, parity, order):
    e = 1 if parity == "even" else 2
    if name in ("gl_real_gf", "gl_invol_gf"):
        return _invol_ref(1, e, order)
    if name == "u_invol_gf":
        return _invol_ref(-1, e, order)
    total = _u_real_ref(e, order)
    if name == "u_real_gf":
        return total
    invol = _invol_ref(-1, e, order)
    sign = 1 if name == "u_eps_plus_gf" else -1
    return Series([(total.co[k] + invol.co[k] * sign * (-1) ** (k * (k - 1) // 2)) / 2
                   for k in range(order + 1)], order)


class TestEulerExpand:
    @pytest.mark.parametrize("sign,expo", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_functional_equation(self, sign, expo):
        # F_c(u) = (1 + sign*c*u^a)^expo * F_{c*r}(u) determines the
        # expansion uniquely; the closed-form coefficients must satisfy it,
        # read at x = 1/q and at x = -1/q
        for a in (1, 2):
            for x_sign in (1, -1):
                c = X * x_sign  # c = r = x
                lhs = euler_expand(sign, a, 1, 1, expo).as_series(9, x_sign)
                rhs = (_binom_series(sign, c, a, expo, 9)
                       * euler_expand(sign, a, 2, 1, expo).as_series(9, x_sign))
                assert _first_difference(lhs, rhs) is None

    def test_low_coefficients_plus(self):
        # prod_{i>=1} (1 + u/q^i): [u^k] = e_k(1/q, 1/q^2, ...)
        s = euler_expand(1, 1, 1, 1, 1).as_series(3, 1)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 1 / (Q - 1)
        assert s.coefficient(2) == 1 / ((Q - 1) * (Q ** 2 - 1))

    def test_low_coefficients_inverse(self):
        # prod_{i>=1} (1 - u^2/q^i)^(-1): [u^2] = 1/(q-1)
        s = euler_expand(-1, 2, 1, 1, -1).as_series(4, 1)
        assert s.coefficient(2) == 1 / (Q - 1)
        assert s.coefficient(4) == Q / ((Q - 1) * (Q ** 2 - 1))
        assert s.coefficient(1) == 0 and s.coefficient(3) == 0

    def test_growing_ratio_rejected(self):
        # a ratio x^-1 = q grows; x^2 over u^1 leaves (x;x)_n/(x^2;x^2)_n fractional
        for ratio in (-1, 0, 2):
            with pytest.raises(ValueError):
                euler_expand(1, 1, 0, ratio, 1)

    def test_q_binomial_theorem(self):
        # finite product: prod_{i=0}^{n-1} (1 + q^i u) = sum_k q^(k(k-1)/2) [n,k]_q u^k
        for n in range(1, 9):
            prod = Series.constant(ONE, n)
            for i in range(n):
                prod = prod * Series([ONE, Q ** i], n)
            for k in range(n + 1):
                value = sum(c * Q ** i for i, c in enumerate(_gauss_row(n)[k]))
                assert prod.coefficient(k) == value * Q ** (k * (k - 1) // 2)


class TestPairExpand:
    def test_power_sum_of_pair_indices(self):
        # sum over 1 <= i < j of x^(i+j) is x^3/((1-x)(1-x^2)); the u^2
        # coefficient of prod(1 - x^(i+j) u^2) is minus that sum
        s = pair_expand(-1, 0, 2, 1).as_series(4, 1)
        e1 = X ** 3 / ((1 - X) * (1 - X ** 2))
        assert s.coefficient(2) == -e1

    def test_second_elementary_symmetric(self):
        # u^4 coefficient is e_2 = (p_1^2 - p_2)/2 of the multiset {x^(i+j)}
        s = pair_expand(-1, 0, 2, 1).as_series(4, 1)
        p1 = X ** 3 / ((1 - X) * (1 - X ** 2))
        p2 = X ** 6 / ((1 - X ** 2) * (1 - X ** 4))
        assert s.coefficient(4) == (p1 ** 2 - p2) / 2

    @pytest.mark.parametrize("expo", [1, -1])
    def test_functional_equation_triangular(self, expo):
        # split off i=1: pair_v = euler(v*x^3) * pair_(v*x^2), here v = x^-1
        lhs = pair_expand(-1, -1, 2, expo).as_series(8, 1)
        rhs = (euler_expand(-1, 2, 2, 1, expo).as_series(8, 1)
               * pair_expand(-1, 1, 2, expo).as_series(8, 1))
        assert _first_difference(lhs, rhs) is None

    def test_shifted_quotient_collapses_to_single_product(self):
        # prod_{i<j} (1-u^2 x^(i+j)) / (1-u^2 x^(i+j-1)) = prod_k (1-u^2 x^(2k))^(-1)
        order = 10
        lhs = product_of([
            pair_expand(-1, 0, 2, 1),
            pair_expand(-1, -1, 2, -1),
        ]).as_series(order, 1)
        rhs = euler_expand(-1, 2, 2, 2, -1).as_series(order, 1)
        assert _first_difference(lhs, rhs) is None

    def test_exponent_zero_is_one(self):
        s = pair_expand(-1, 0, 2, 0).as_series(5, 1)
        assert all(s.coefficient(i) == (1 if i == 0 else 0) for i in range(6))


# Euler and pair factors as integer series, and as the RatFunc series that
# the q-binomial theorem and log -> exp give at x = 1/q.
_FACTORS = [
    (lambda: euler_expand(1, 1, 1, 1, 1),
     lambda x, n: _euler_ref(1, 1, x, x, 1, n)),
    (lambda: euler_expand(-1, 2, 1, 1, -1),
     lambda x, n: _euler_ref(-1, 2, x, x, -1, n)),
    (lambda: euler_expand(1, 2, 1, 2, -1),
     lambda x, n: _euler_ref(1, 2, x, x * x, -1, n)),
    (lambda: pair_expand(-1, 0, 2, 2),
     lambda x, n: _pair_ref(-1, ONE, 2, x, 2, n)),
    (lambda: pair_expand(1, -1, 2, -1),
     lambda x, n: _pair_ref(1, x.reciprocal(), 2, x, -1, n)),
]


class TestIntegerProduct:
    @pytest.mark.parametrize("x_sign", [1, -1])
    def test_factors_match_their_ratfunc_expansions(self, x_sign):
        for integer, ref in _FACTORS:
            assert integer().as_series(8, x_sign) == ref(X * x_sign, 8)

    @pytest.mark.parametrize("x_sign", [1, -1])
    def test_convolution_matches_the_ratfunc_series_product(self, x_sign):
        # (x;x)_n (AB)_n = sum_k [n choose k]_x A_k B_(n-k) against Series.__mul__
        for i, (f, _) in enumerate(_FACTORS):
            for g, _ in _FACTORS[i:]:
                a, b = f(), g()
                want = a.as_series(8, x_sign) * b.as_series(8, x_sign)
                assert (a * b).as_series(8, x_sign) == want

    def test_a_longer_read_extends_the_known_coefficients(self):
        s = product_of([f() for f, _ in _FACTORS])
        short = s.as_series(4, -1)
        assert len(s.co) == 5
        long = s.as_series(7, -1)
        assert len(s.co) == 8 and long.co[:5] == short.co


class TestNamedGF:
    def test_names_are_closed(self):
        assert len(GF_NAMES) == 6
        for name in GF_NAMES:
            for parity in ("even", "odd"):
                s = named_gf(name, parity, 4)
                # the eps=-1 refinement has no rank-0 contribution
                expected = 0 if name == "u_eps_minus_gf" else 1
                assert s.coefficient(0) == expected

    def test_every_named_series_matches_its_ratfunc_reference(self):
        for name in GF_NAMES:
            for parity in ("even", "odd"):
                assert named_gf(name, parity, 10) == _named_ref(name, parity, 10), (name, parity)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_gf("nope", "even", 3)

    def test_linear_and_involution_series_coincide(self):
        for parity in ("even", "odd"):
            a = named_gf("gl_real_gf", parity, 8)
            b = named_gf("gl_invol_gf", parity, 8)
            assert _first_difference(a, b) is None

    def test_unitary_involution_series_is_q_to_minus_q(self):
        # replacing q by -q in every coefficient of the linear-flavor series
        # gives the unitary involution series
        def flip(p: QPoly) -> QPoly:
            return QPoly([c * (-1) ** i for i, c in enumerate(p.coefficients)])

        for parity in ("even", "odd"):
            gl = named_gf("gl_real_gf", parity, 8)
            u = named_gf("u_invol_gf", parity, 8)
            for n in range(9):
                c = gl.coefficient(n)
                assert u.coefficient(n) == RatFunc(flip(c.num), flip(c.den))

    def test_eps_series_recombine(self):
        for parity in ("even", "odd"):
            plus = named_gf("u_eps_plus_gf", parity, 8)
            minus = named_gf("u_eps_minus_gf", parity, 8)
            real = named_gf("u_real_gf", parity, 8)
            invol = named_gf("u_invol_gf", parity, 8)
            assert _first_difference(plus + minus, real) is None
            for n in range(9):
                expected = invol.coefficient(n) * (-1) ** (n * (n - 1) // 2)
                assert (plus - minus).coefficient(n) == expected


# the memoized series builders, one lru_cache keyed by e each
_BUILDERS = (qseries._invol_gf, qseries._u_real_gf)


def _clear_gf_memo():
    for build in _BUILDERS:
        build.cache_clear()


class TestNamedGFMemo:
    def test_lower_orders_are_truncations_of_the_memo(self):
        _clear_gf_memo()
        for name in GF_NAMES:
            for parity in ("even", "odd"):
                named_gf(name, parity, 9)
        truncated = {(name, parity, n): named_gf(name, parity, n)
                     for name in GF_NAMES for parity in ("even", "odd") for n in range(9)}
        for parity in ("even", "odd"):
            for n in range(9):
                _clear_gf_memo()
                for name in GF_NAMES:
                    s = truncated[name, parity, n]
                    assert s.order == n
                    assert s == named_gf(name, parity, n)

    def test_repeated_order_returns_the_memoized_series(self):
        for name in ("gl_real_gf", "gl_invol_gf", "u_real_gf", "u_invol_gf"):
            for parity in ("even", "odd"):
                assert named_gf(name, parity, 9) is named_gf(name, parity, 9)

    def test_a_higher_order_extends_the_memoized_series(self, monkeypatch):
        # each (builder, e) series is built once; a longer request computes
        # only the coefficients past the ones already known
        _clear_gf_memo()
        for parity in ("even", "odd"):
            named_gf("u_invol_gf", parity, 2)
            named_gf("u_real_gf", parity, 2)
        assert [build.cache_info().currsize for build in _BUILDERS] == [2, 2]
        memo = {(build, e): build(e) for build in _BUILDERS for e in (1, 2)}  # cache hits
        misses = [build.cache_info().misses for build in _BUILDERS]
        known = {key: list(series.co) for key, series in memo.items()}

        def forbidden(*args):
            raise AssertionError("a warm memo must not build again")

        monkeypatch.setattr(qseries, "euler_expand", forbidden)
        monkeypatch.setattr(qseries, "pair_expand", forbidden)
        for order in range(3, 9):
            for name in GF_NAMES:
                for parity in ("even", "odd"):
                    named_gf(name, parity, order)
        assert [build.cache_info().misses for build in _BUILDERS] == misses
        assert [build.cache_info().currsize for build in _BUILDERS] == [2, 2]
        assert all(build(e) is series for (build, e), series in memo.items())
        for key, series in memo.items():
            assert len(series.co) == 9
            assert all(a is b for a, b in zip(series.co, known[key]))

    def test_unitary_names_share_one_expansion_per_parity(self, monkeypatch):
        for parity in ("even", "odd"):
            named_gf("u_real_gf", parity, 6)
            named_gf("u_invol_gf", parity, 6)

        def forbidden(*args):
            raise AssertionError("a warm memo must not expand again")

        monkeypatch.setattr(qseries, "euler_expand", forbidden)
        monkeypatch.setattr(qseries, "pair_expand", forbidden)
        for parity in ("even", "odd"):
            for n in range(7):
                plus = named_gf("u_eps_plus_gf", parity, n)
                minus = named_gf("u_eps_minus_gf", parity, n)
                assert plus.order == minus.order == n
