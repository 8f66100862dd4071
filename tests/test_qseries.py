"""Infinite-product expansions: closed-form coefficients checked against
functional equations, elementary symmetric functions, and the q-binomial
theorem — all independent of the expansion code paths."""

import pytest

import qcharsum.qseries as qseries
from qcharsum.exact import QPoly, RatFunc, Series, qpow
from qcharsum.partitions import gaussian_binomial
from qcharsum.qseries import (_GF_MEMO, GF_NAMES, GeometricFactorSpec, PairProductSpec,
                              euler_expand, named_gf, pair_expand, product_of)

ONE = RatFunc.const(1)
Q = RatFunc.x()
X = qpow(-1)  # 1/q, the usual geometric ratio


def _binom_series(sign, coeff, a, exponent, order):
    """(1 + sign*coeff*u^a)^exponent for exponent in {1, -1}."""
    co = [ONE * 0] * (order + 1)
    co[0] = ONE
    if a <= order:
        co[a] = coeff * sign
    s = Series(co, order)
    return s if exponent == 1 else s.inv()


class TestEulerExpand:
    @pytest.mark.parametrize("sign,expo", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_functional_equation(self, sign, expo):
        # F_c(u) = (1 + sign*c*u^a)^expo * F_{c*r}(u) determines the
        # expansion uniquely; the closed-form coefficients must satisfy it
        for a in (1, 2):
            c, r = qpow(-1), qpow(-1)
            lhs = euler_expand(GeometricFactorSpec(sign, a, c, r, expo), 9)
            rhs = (_binom_series(sign, c, a, expo, 9)
                   * euler_expand(GeometricFactorSpec(sign, a, c * r, r, expo), 9))
            assert lhs.first_difference(rhs) is None

    def test_low_coefficients_plus(self):
        # prod_{i>=1} (1 + u/q^i): [u^k] = e_k(1/q, 1/q^2, ...)
        s = euler_expand(GeometricFactorSpec(1, 1, X, X, 1), 3)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 1 / (Q - 1)
        assert s.coefficient(2) == 1 / ((Q - 1) * (Q ** 2 - 1))

    def test_low_coefficients_inverse(self):
        # prod_{i>=1} (1 - u^2/q^i)^(-1): [u^2] = 1/(q-1)
        s = euler_expand(GeometricFactorSpec(-1, 2, X, X, -1), 4)
        assert s.coefficient(2) == 1 / (Q - 1)
        assert s.coefficient(4) == Q / ((Q - 1) * (Q ** 2 - 1))
        assert s.coefficient(1) == 0 and s.coefficient(3) == 0

    def test_growing_ratio_rejected(self):
        with pytest.raises(ValueError):
            GeometricFactorSpec(1, 1, ONE, Q, 1)

    def test_q_binomial_theorem(self):
        # finite product: prod_{i=0}^{n-1} (1 + q^i u) = sum_k q^(k(k-1)/2) [n,k]_q u^k
        for n in range(1, 9):
            prod = Series.constant(ONE, n)
            for i in range(n):
                prod = prod * Series([ONE, Q ** i], n)
            for k in range(n + 1):
                gauss = gaussian_binomial(n, k)
                value = sum(c * Q ** i for i, c in enumerate(gauss.coefficients))
                assert prod.coefficient(k) == value * Q ** (k * (k - 1) // 2)


class TestPairExpand:
    def test_power_sum_of_pair_indices(self):
        # sum over 1 <= i < j of x^(i+j) is x^3/((1-x)(1-x^2)); the u^2
        # coefficient of prod(1 - x^(i+j) u^2) is minus that sum
        s = pair_expand(PairProductSpec(-1, ONE, 2, X, 1), 4)
        e1 = X ** 3 / ((1 - X) * (1 - X ** 2))
        assert s.coefficient(2) == -e1

    def test_second_elementary_symmetric(self):
        # u^4 coefficient is e_2 = (p_1^2 - p_2)/2 of the multiset {x^(i+j)}
        s = pair_expand(PairProductSpec(-1, ONE, 2, X, 1), 4)
        p1 = X ** 3 / ((1 - X) * (1 - X ** 2))
        p2 = X ** 6 / ((1 - X ** 2) * (1 - X ** 4))
        assert s.coefficient(4) == (p1 ** 2 - p2) / 2

    @pytest.mark.parametrize("expo", [1, -1])
    def test_functional_equation_triangular(self, expo):
        # split off i=1: pair_v = euler(v*x^3) * pair_(v*x^2)
        v = ONE + ONE  # any scalar
        lhs = pair_expand(PairProductSpec(-1, v, 2, X, expo), 8)
        rhs = (euler_expand(GeometricFactorSpec(-1, 2, v * X ** 3, X, expo), 8)
               * pair_expand(PairProductSpec(-1, v * X ** 2, 2, X, expo), 8))
        assert lhs.first_difference(rhs) is None

    def test_shifted_quotient_collapses_to_single_product(self):
        # prod_{i<j} (1-u^2 x^(i+j)) / (1-u^2 x^(i+j-1)) = prod_k (1-u^2 x^(2k))^(-1)
        order = 10
        lhs = product_of([
            pair_expand(PairProductSpec(-1, ONE, 2, X, 1), order),
            pair_expand(PairProductSpec(-1, X ** -1, 2, X, -1), order),
        ])
        rhs = euler_expand(GeometricFactorSpec(-1, 2, X ** 2, X ** 2, -1), order)
        assert lhs.first_difference(rhs) is None

    def test_exponent_zero_is_one(self):
        s = pair_expand(PairProductSpec(-1, ONE, 2, X, 0), 5)
        assert all(s.coefficient(i) == (1 if i == 0 else 0) for i in range(6))


class TestNamedGF:
    def test_names_are_closed(self):
        assert len(GF_NAMES) == 6
        for name in GF_NAMES:
            for parity in ("even", "odd"):
                s = named_gf(name, parity, 4)
                # the eps=-1 refinement has no rank-0 contribution
                expected = 0 if name == "u_eps_minus_gf" else 1
                assert s.coefficient(0) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_gf("nope", "even", 3)

    def test_linear_and_involution_series_coincide(self):
        for parity in ("even", "odd"):
            a = named_gf("gl_real_gf", parity, 8)
            b = named_gf("gl_invol_gf", parity, 8)
            assert a.first_difference(b) is None

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
            assert (plus + minus).first_difference(real) is None
            for n in range(9):
                expected = invol.coefficient(n) * (-1) ** (n * (n - 1) // 2)
                assert (plus - minus).coefficient(n) == expected


class TestNamedGFMemo:
    def test_lower_orders_are_truncations_of_the_memo(self):
        _GF_MEMO.clear()
        for name in GF_NAMES:
            for parity in ("even", "odd"):
                named_gf(name, parity, 9)
        truncated = {(name, parity, n): named_gf(name, parity, n)
                     for name in GF_NAMES for parity in ("even", "odd") for n in range(9)}
        for parity in ("even", "odd"):
            for n in range(9):
                _GF_MEMO.clear()
                for name in GF_NAMES:
                    s = truncated[name, parity, n]
                    assert s.order == n
                    assert s == named_gf(name, parity, n)

    def test_repeated_order_returns_the_memoized_series(self):
        for name in ("gl_real_gf", "gl_invol_gf", "u_real_gf", "u_invol_gf"):
            for parity in ("even", "odd"):
                assert named_gf(name, parity, 9) is named_gf(name, parity, 9)

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
