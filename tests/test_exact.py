"""Exact arithmetic layers: integer polynomials, rational functions in q,
truncated series, and small multivariate polynomials."""

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qcharsum import _kernel_py, exact
from qcharsum._kernel import zz_gcd
from qcharsum.chars import gl_group_order, u_group_order
from qcharsum.exact import QPoly, Rat, RatFunc, Series, SymPoly, qpow
from _series_ref import exp, log


def _first_difference(a, b):
    """Smallest n (up to the common order) where the coefficients of the
    series a and b differ, else None."""
    for i in range(min(a.order, b.order) + 1):
        if a.coefficient(i) != b.coefficient(i):
            return i
    return None


def test_rat_is_fraction():
    assert Rat is Fraction


def _fields(p: QPoly):
    return p.ic, p.content


def _conv(a, b) -> list:
    """The product of two coefficient sequences, by the schoolbook rule."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestQPoly:
    def test_basic_arithmetic(self):
        # the view keeps a product and a gcd; the content multiplies apart
        p = QPoly([1, 1]) * QPoly([2, 2])
        assert _fields(p) == ((1, 2, 1), 2)
        assert _fields(p * Fraction(-1, 4)) == ((1, 2, 1), Fraction(-1, 2))
        assert _fields(p * 0) == _fields(QPoly()) == ((), 0)
        assert str(QPoly([Fraction(1, 2), 0, -3])) == "-3*q^2 + 1/2"

    def test_content_is_factored_out(self):
        p = QPoly([2, 4, 6])
        assert p.content == 2
        assert tuple(p.ic) == (1, 2, 3)

    def test_fraction_content(self):
        p = QPoly([Fraction(1, 2), Fraction(3, 2)])
        assert p.content == Fraction(1, 2)
        assert tuple(p.ic) == (1, 3)

    def test_int_coefficients_make_only_the_content_fraction(self, monkeypatch):
        # An int list is taken as it is: the one Fraction built is the content.
        made = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        p = QPoly([6, -4, 0, 10] * 10)
        monkeypatch.undo()
        assert made == [(2, 1)]
        assert p.content == 2 and p.ic[:5] == (3, -2, 0, 5, 3)

    @given(st.lists(st.integers(-10**6, 10**6), max_size=8))
    def test_int_and_fraction_lists_give_the_same_canonical_form(self, co):
        a, b = QPoly(co), QPoly([Fraction(c) for c in co])
        assert (a.ic, a.content) == (b.ic, b.content)
        assert type(a.content) is Fraction and all(type(c) is int for c in a.ic)

    def test_evaluation_via_coefficients(self):
        p = QPoly([1, 0, 3])  # 1 + 3 q^2
        value = sum(p.content * c * Fraction(2) ** i for i, c in enumerate(p.ic))
        assert value == 13


class TestRatFunc:
    def test_reduction_to_lowest_terms(self):
        q = RatFunc.x()
        assert (q ** 2 - 1) / (q - 1) == q + 1

    def test_partial_fractions_recombine(self):
        q = RatFunc.x()
        assert 1 / (q - 1) + 1 / (q + 1) == 2 * q / (q ** 2 - 1)

    def test_negative_powers(self):
        q = RatFunc.x()
        assert qpow(-3) == 1 / q ** 3
        assert qpow(-3) * qpow(5) == q ** 2

    def test_valuation_at_infinity(self):
        q = RatFunc.x()
        assert (1 / (q ** 2 - q)).valuation_at_infinity() == 2
        assert ((q ** 3 + 1) / (q - 1)).valuation_at_infinity() == -2
        assert RatFunc.const(0).valuation_at_infinity() is None

    def test_reciprocal(self):
        q = RatFunc.x()
        f = (q + 2) / (q ** 2 + 1)
        assert f * f.reciprocal() == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.const(1) / RatFunc.const(0)

    def test_eval_raises_at_a_pole(self):
        q = RatFunc.x()
        for r, q0 in ((1 / q, 0), (q / (q - 2), 2), ((q + 1) / (4 * q ** 2 - 1), Fraction(-1, 2)),
                      (1 / (q + 3), -3)):
            with pytest.raises(ZeroDivisionError, match="pole at q = "):
                r.eval(q0)
        assert ((q + 1) / (4 * q ** 2 - 1)).eval(Fraction(-1, 3)) == Fraction(-6, 5)

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        # the operands are built first: two with non-monomial denominators,
        # two over q^k, with integer contents on both sides
        q = RatFunc.x()
        ops = [(2 * q + 4) / (3 * q ** 2 - 3), (q ** 2 + 1) / (6 * q + 2),
               Fraction(5, 2) * qpow(-3), (4 * q - 6) * qpow(-2) / 9]
        made = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for a in ops:
            for b in ops:
                a + b, a - b, a * b, a / b
            a ** 3, a ** -2, a.reciprocal(), -a
            2 + a, a + 2, 3 - a, a - 3, 4 * a, a * 4, 5 / a, a / 5
        qpow(4), qpow(-4), qpow(0)
        monkeypatch.undo()
        assert made == []

    def test_str_of_each_shape(self):
        # num/den over the monic den, a side of several terms in parentheses,
        # over a constant den the numerator alone: the text every witness
        # and CLI value prints
        q = RatFunc.x()
        table = [
            (RatFunc.const(0), "0"),
            (RatFunc.const(7), "7"),
            (RatFunc.const(-7), "-7"),
            (RatFunc.const(Fraction(3, 4)), "3/4"),
            (RatFunc.const(Fraction(-3, 4)), "-3/4"),
            (q, "q"),
            (qpow(3), "q^3"),
            (-qpow(3), "-q^3"),
            (Fraction(-5, 2) * qpow(4), "-5/2*q^4"),
            (qpow(-1), "1/q"),
            (qpow(-2), "1/q^2"),
            (Fraction(-5, 2) * qpow(-3), "-5/2/q^3"),
            (q ** 4 - 3 * q ** 2 + q - 1, "q^4 - 3*q^2 + q - 1"),
            ((q ** 2 + 3) / 2, "1/2*q^2 + 3/2"),
            (q + Fraction(1, 2), "q + 1/2"),
            (1 / (q ** 2 - 1), "1/(q^2 - 1)"),
            (1 / (3 * q ** 2 + 2), "1/3/(q^2 + 2/3)"),
            ((2 * q + 4) / (3 * q ** 2 - 3), "(2/3*q + 4/3)/(q^2 - 1)"),
            (2 * q / (q - 1), "2*q/(q - 1)"),
            (-q ** 2 / (q ** 3 - 2 * q + 1), "-q^2/(q^3 - 2*q + 1)"),
            ((q ** 2 + 1) / q ** 3, "(q^2 + 1)/q^3"),
            (-(q ** 4 + 3) / (5 * q ** 2), "(-1/5*q^4 - 3/5)/q^2"),
            ((q ** 3 + q - 1) / (q ** 2 + q + 1), "(q^3 + q - 1)/(q^2 + q + 1)"),
        ]
        assert [str(r) for r, _ in table] == [text for _, text in table]
        assert repr(qpow(-2)) == "RatFunc(1/q^2)"


class TestLaurentFastPath:
    """Against a monomial q^k, gcds and exact divisions skip the kernel."""

    @pytest.fixture(autouse=True)
    def kernel_gcd_and_divexact_raise(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the kernel was asked for a Laurent gcd or quotient")

        monkeypatch.setattr(exact._k, "zz_gcd", forbidden)
        monkeypatch.setattr(exact._k, "zz_divexact", forbidden)

    @staticmethod
    def parts(r: RatFunc):
        # the coefficients of num and den over the monic den
        return tuple(Fraction(c, r.d[-1]) for c in r.n), tuple(Fraction(c, r.d[-1]) for c in r.d)

    def test_laurent_monomial_arithmetic(self):
        a = 3 * qpow(-2)
        b = Fraction(-1, 2) * qpow(3)
        assert self.parts(a + b) == ((3, 0, 0, 0, 0, Fraction(-1, 2)),
                                     (0, 0, 1))
        assert self.parts(a - b) == ((3, 0, 0, 0, 0, Fraction(1, 2)),
                                     (0, 0, 1))
        assert self.parts(a * b) == ((0, Fraction(-3, 2)), (1,))
        assert self.parts(a / b) == ((-6,), (0, 0, 0, 0, 0, 1))
        assert self.parts(b / a) == ((0, 0, 0, 0, 0, Fraction(-1, 6)), (1,))
        assert self.parts(a ** 3) == ((27,), (0,) * 6 + (1,))
        assert self.parts(a ** -2) == ((0, 0, 0, 0, Fraction(1, 9)), (1,))
        assert self.parts(qpow(-2) + qpow(-3)) == ((1, 1), (0, 0, 0, 1))
        assert self.parts((qpow(-2) + qpow(-3)) * qpow(2)) == ((1, 1), (0, 1))
        assert self.parts(qpow(-2) - qpow(-2)) == ((), (1,))

    def test_normalization_over_a_monomial(self):
        r = RatFunc.from_ic((0, 0, 2, 4), (0, 0, 0, 5))
        assert self.parts(r) == ((Fraction(2, 5), Fraction(4, 5)), (0, 1))
        r = RatFunc.from_ic((1, 1), (0, 0, -1))
        assert self.parts(r) == ((-1, -1), (0, 0, 1))

    def test_gcd_and_division_against_a_monomial(self):
        assert _fields(QPoly([0, 0, 3, 6]).gcd(QPoly([0] * 5 + [1]))) == ((0, 0, 1), 1)
        assert _fields(QPoly([0, 7]).gcd(QPoly([0, 0, 3, 6]))) == ((0, 1), 1)
        assert _fields(QPoly([1, 2]).gcd(QPoly([0, 0, 0, 1]))) == ((1,), 1)
        assert exact._divexact_ic((0, 0, 1, 2), (0, 0, 1)) == (1, 2)
        with pytest.raises(ValueError):
            exact._divexact_ic((1, 1), (0, 1))


class TestEqualDenominators:
    """a/d + b/d takes no gcd to bring d and d together, only the final one."""

    @staticmethod
    def fields(r: RatFunc):
        return r.num.ic, r.num.content, r.den.ic, r.den.content

    @pytest.mark.parametrize("a, b", [
        ((1,), (0, 1)),        # (1 + q)/d cancels the factor q + 1
        ((2, 0, 1), (0, 3)),   # q^2 + 3q + 2 = (q + 1)(q + 2)
        ((1, 0, 1), (5,)),     # q^2 + 6 is coprime to d
    ])
    def test_one_kernel_gcd_and_the_general_canonical_form(self, monkeypatch, a, b):
        d = _conv((-1, 0, 1), (2, 1))  # (q^2 - 1)(q + 2), not a monomial
        x, y = RatFunc.from_ic(a, d), RatFunc.from_ic(b, d)
        assert x.den.ic == y.den.ic
        calls = []

        def counting(u, v):
            calls.append((tuple(u), tuple(v)))
            return _kernel_py.zz_gcd(u, v)

        monkeypatch.setattr(exact._k, "zz_gcd", counting)
        got = x + y
        assert len(calls) == 1
        monkeypatch.undo()
        # the same value normalized from scratch: num/den = (a d + b d)/d^2
        want = RatFunc.from_ic([u + v for u, v in zip_longest(_conv(a, d), _conv(b, d),
                                                              fillvalue=0)], _conv(d, d))
        assert self.fields(got) == self.fields(want)


class TestSeries:
    def test_geometric_inverse(self):
        one = Fraction(1)
        s = Series([one, -one], 8)
        inv = s.inv()
        assert all(inv.coefficient(i) == 1 for i in range(9))

    def test_exp_log_roundtrip(self):
        s = Series([Fraction(0), Fraction(1), Fraction(1, 3)], 10)
        assert _first_difference(log(exp(s)), s) is None

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            log(Series([Fraction(0), Fraction(1)], 4))

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            exp(Series([Fraction(1)], 4))

    def test_compose_scale(self):
        q = RatFunc.x()
        s = Series([RatFunc.const(1), q, q ** 2], 2)
        t = s.compose_scale(-1)
        assert t.coefficient(0) == 1
        assert t.coefficient(1) == -q
        assert t.coefficient(2) == q ** 2

    def test_compose_scale_with_power(self):
        s = Series([Fraction(1), Fraction(2), Fraction(3)], 2)
        t = s.compose_scale(Fraction(1), 2)  # u -> u^2
        assert t.order == 2
        assert [t.coefficient(i) for i in range(3)] == [1, 0, 2]

    def test_coefficient_beyond_order_raises(self):
        s = Series([Fraction(1)], 3)
        with pytest.raises(IndexError):
            s.coefficient(4)

    def test_mixed_order_operations_truncate(self):
        a = Series([Fraction(1)] * 6, 5)
        b = Series([Fraction(1)] * 3, 2)
        assert (a * b).order == 2

    def test_scalar_operations(self):
        s = Series([Fraction(1), Fraction(2)], 1)
        assert (s * 3).co == (3, 6)
        assert (s + 1).coefficient(0) == 2

    def test_pow_negative(self):
        # a series has no division; a negative power is refused, not looped on
        with pytest.raises(ValueError):
            Series([Fraction(1), Fraction(1)], 6) ** -2

    def test_ratfunc_coefficients(self):
        q = RatFunc.x()
        s = Series([RatFunc.const(1), 1 / (q - 1)], 4)
        t = s.inv() * s
        assert t.coefficient(0) == 1
        assert all(t.coefficient(i) == 0 for i in range(1, 5))


class TestSymPoly:
    def test_generators_commute_and_collect(self):
        a, b = SymPoly.gen("a"), SymPoly.gen("b")
        assert a * b == b * a
        assert (a + b) * (a - b) == a * a - b * b

    def test_scalar_comparison(self):
        a = SymPoly.gen("a")
        assert (a - a) == 0
        assert SymPoly.const(Fraction(3, 2)) == Fraction(3, 2)

    def test_ratfunc_coefficients(self):
        q = RatFunc.x()
        t = SymPoly.gen("t")
        p = t * (1 / (q - 1)) + t * (1 / (q + 1))
        assert p == t * (2 * q / (q ** 2 - 1))

    def test_scalar_value(self):
        assert SymPoly.const(5).scalar_value() == 5
        t = SymPoly.gen("t")
        with pytest.raises(ValueError):
            t.scalar_value()

    def test_powers(self):
        t = SymPoly.gen("t")
        assert t ** 3 == t * t * t

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SymPoly.gen("a"))


# ---------------------------------------------------------------------------
# Property tests: field axioms and canonical forms.
# ---------------------------------------------------------------------------

props = settings(deadline=None, max_examples=40)


def _quotient(num, den) -> RatFunc:
    """num/den for lists of Fraction coefficients, each side cleared of its
    denominators and the pair brought to canonical form by from_ic."""
    a = lcm(*(c.denominator for c in num))
    b = lcm(*(c.denominator for c in den))
    return RatFunc.from_ic([int(c * a) * b for c in num], [int(c * b) * a for c in den])


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.lists(small_fracs, max_size=4)
nonzero_polys = polys.filter(any)
# a share of the denominators carries a factor q^k, so that the Laurent fast
# path of the exact layer runs under every property below
laurent_dens = st.builds(lambda p, k: [Fraction(0)] * k + p,
                         nonzero_polys, st.integers(0, 3))
ratfuncs = st.builds(_quotient, polys, st.one_of(nonzero_polys, laurent_dens))
nonzero_ratfuncs = ratfuncs.filter(bool)


def assert_canonical(r: RatFunc):
    # the stored pair: equality compares it, so it must be unique per value
    n, d = r.n, r.d
    assert type(n) is tuple and type(d) is tuple
    assert (not n or n[-1]) and d[-1] > 0  # so no trailing zero either
    assert gcd(*n, *d) == 1
    assert len(zz_gcd(list(n), list(d))) == 1
    if not n:
        assert d == (1,)
    # and the QPoly fields read back from it
    for p in (r.num, r.den):
        assert isinstance(p.content, Fraction)
        if p.ic:
            assert p.ic[-1] > 0
            assert reduce(gcd, p.ic) == 1
        else:
            assert p.content == 0
    assert r.den.content * r.den.ic[-1] == 1
    assert len(zz_gcd(list(r.num.ic), list(r.den.ic))) == 1
    if r.num.is_zero:
        assert _fields(r.den) == ((1,), 1)


class TestRatFuncProperties:
    @props
    @given(ratfuncs, ratfuncs, ratfuncs)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        assert a - a == 0

    @props
    @given(nonzero_ratfuncs, ratfuncs)
    def test_division_inverts_multiplication(self, a, b):
        assert a * a.reciprocal() == 1
        assert (b / a) * a == b
        assert a ** -2 * a ** 2 == 1

    @props
    @given(ratfuncs, nonzero_ratfuncs, st.integers(0, 3))
    def test_every_operation_returns_canonical_form(self, a, b, n):
        for r in (a, b, a + b, a - b, a * b, a / b, b.reciprocal(), -a,
                  a ** n, b ** -n):
            assert_canonical(r)

    @props
    @given(polys, nonzero_polys, nonzero_polys)
    def test_equal_values_hash_equal(self, num, den, k):
        a = _quotient(num, den)
        b = _quotient(_conv(num, k), _conv(den, k))
        assert a == b
        assert hash(a) == hash(b)
        c = _quotient(num, [1]) / _quotient(den, [1]) + _quotient(k, [1]) - _quotient(k, [1])
        assert a == c
        assert hash(a) == hash(c)

    @props
    @given(st.one_of(small_fracs, polys, ratfuncs),
           st.one_of(small_fracs, polys, ratfuncs))
    def test_equal_values_hash_equal_across_types(self, u, v):
        # ints, Fractions and RatFuncs compare equal across types, so equal
        # values must hash equal too, or sets and dicts split them
        def forms(x):
            if isinstance(x, list):
                x = _quotient(x, [1])
            if isinstance(x, RatFunc) and len(x.n) <= 1 and len(x.d) == 1:
                x = Fraction(x.n[0] if x.n else 0, x.d[0])
            if isinstance(x, Fraction):
                out = [x, RatFunc.const(x), RatFunc(x)]
                return out + [x.numerator] if x.denominator == 1 else out
            return [x]

        same = forms(u)
        assert all(a == b for a in same for b in same)
        assert len({hash(a) for a in same}) == 1
        for a in same:
            for b in forms(v):
                if a == b:
                    assert hash(a) == hash(b), (a, b)

    @props
    @given(ratfuncs, st.one_of(st.integers(-6, 6), small_fracs))
    def test_eval_is_the_quotient_of_the_views(self, r, q0):
        # eval reads the stored integer pair by Horner's rule; the power
        # sums of the two sides give the reference value, or the pole
        def value(ic):
            return sum(c * Fraction(q0) ** i for i, c in enumerate(ic))

        den = value(r.d)
        if not den:
            with pytest.raises(ZeroDivisionError):
                r.eval(q0)
            return
        got = r.eval(q0)
        assert type(got) is Fraction
        assert got == value(r.n) / den

    def test_equal_values_share_a_set_entry(self):
        assert len({2, Fraction(2), RatFunc.const(2), RatFunc(2)}) == 1
        assert len({Fraction(-1, 2), RatFunc.const(Fraction(-1, 2))}) == 1
        assert len({RatFunc.x(), RatFunc.from_ic((0, 2), (2,)), qpow(1)}) == 1
        assert len({0, Fraction(0), RatFunc.const(0), RatFunc()}) == 1

    @props
    @given(st.lists(st.integers(-6, 6), max_size=5),
           st.lists(st.integers(-6, 6), min_size=1, max_size=5)
           .filter(any),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    def test_reduction_matches_sympy_cancel(self, num, den, common):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        # multiply in a common factor so that reduction has work to do
        pn = sympy.Poly(list(reversed(num)) or [0], x) * sympy.Poly(
            list(reversed(common)), x)
        pd = sympy.Poly(list(reversed(den)), x) * sympy.Poly(
            list(reversed(common)), x)
        n, d = sympy.fraction(sympy.cancel(pn.as_expr() / pd.as_expr()))
        lead = Fraction(str(sympy.Poly(d, x).LC()))

        def monic_scaled(e):
            co = [Fraction(str(c)) / lead for c in reversed(sympy.Poly(e, x).all_coeffs())]
            return tuple(co) if any(co) else ()

        r = RatFunc.from_ic([int(c) for c in reversed(pn.all_coeffs())],
                            [int(c) for c in reversed(pd.all_coeffs())])
        assert tuple(Fraction(c, r.d[-1]) for c in r.n) == monic_scaled(n)
        assert tuple(Fraction(c, r.d[-1]) for c in r.d) == monic_scaled(d)


# Primitive integer coefficient tuples with a q^j factor, and monomials q^k.
prim_tuples = st.builds(
    lambda j, co: (0,) * j + QPoly(co).ic, st.integers(0, 3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any))
monomials = st.integers(0, 4).map(lambda k: (0,) * k + (1,))


def quotient_or_error(fn, a, b):
    try:
        return tuple(fn(a, b))
    except ValueError:
        return ValueError


class TestLaurentFastPathMatchesKernel:
    @props
    @given(prim_tuples, monomials)
    def test_gcd(self, a, m):
        assert exact._gcd_ic(a, m) == tuple(_kernel_py.zz_gcd(list(a), list(m)))
        assert exact._gcd_ic(m, a) == tuple(_kernel_py.zz_gcd(list(m), list(a)))

    @props
    @given(prim_tuples, monomials)
    def test_divexact(self, a, m):
        for x, y in ((a, m), (m, a), (m, m)):
            assert (quotient_or_error(exact._divexact_ic, x, y)
                    == quotient_or_error(_kernel_py.zz_divexact, list(x), list(y)))

    def test_inexact_division_raises_on_both_routes(self):
        with pytest.raises(ValueError):
            exact._divexact_ic((1, 1), (0, 1))
        with pytest.raises(ValueError):
            _kernel_py.zz_divexact([1, 1], [0, 1])


# Integer polynomials with a nonzero top entry, and powers q^v to put on them.
int_tuples = st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(
    lambda co: co[-1]).map(tuple)
valuations = st.integers(0, 4)


class TestValuationSplit:
    """_divexact_ic splits the divisor's q^v off before the kernel divides."""

    @props
    @given(valuations, int_tuples, valuations, int_tuples, st.booleans())
    def test_matches_kernel(self, vb, bb, va, aa, exact_case):
        # a = q^va * b * aa when exact_case, else q^va * aa (mostly inexact)
        b = (0,) * vb + bb
        a = (0,) * va + (tuple(_kernel_py.zz_mul(list(b), list(aa)))
                         if exact_case else aa)
        assert (quotient_or_error(exact._divexact_ic, a, b)
                == quotient_or_error(_kernel_py.zz_divexact, list(a), list(b)))

    @pytest.mark.parametrize("a, b", [
        ((0, 0, 1, 1), (0, 0, 0, 2, 1)),  # q^2 (q + 1) / q^3 (q + 2): low entry
        ((0, 0, 0, 1, 1), (0, 0, 0, 2, 1)),  # q^3 (q + 1) / q^3 (q + 2)
        ((0, 0, 3), (0, 0, 2)),  # 3 q^2 / 2 q^2
    ])
    def test_inexact_division_raises_on_both_routes(self, a, b):
        with pytest.raises(ValueError):
            exact._divexact_ic(a, b)
        with pytest.raises(ValueError):
            _kernel_py.zz_divexact(list(a), list(b))

    def test_kernel_divisors_have_a_nonzero_constant_term(self, monkeypatch):
        divisors = []

        def recording(a, b):
            divisors.append(tuple(b))
            return _kernel_py.zz_divexact(a, b)

        monkeypatch.setattr(exact._k, "zz_divexact", recording)
        # group-order quotients: q^v times a non-monomial on both sides
        for order in (gl_group_order, u_group_order):
            for r in range(7):
                order(6) / (order(r) * order(6 - r))
        assert divisors
        assert all(b[0] for b in divisors)


series_orders = st.integers(0, 6)


def frac_series(first):
    return st.builds(
        lambda order, co: Series([first(co[0])] + co[1:order + 1], order),
        series_orders, st.lists(small_fracs, min_size=7, max_size=7))


class TestSeriesProperties:
    @props
    @given(frac_series(lambda c: c or Fraction(1)))
    def test_inv_roundtrip(self, s):
        one = Series.constant(Fraction(1), s.order)
        assert _first_difference(s * s.inv(), one) is None
        assert s.inv().inv() == s

    @props
    @given(frac_series(lambda c: Fraction(0)))
    def test_log_exp_roundtrip(self, s):
        assert log(exp(s)) == s

    @props
    @given(frac_series(lambda c: Fraction(1)))
    def test_exp_log_roundtrip(self, s):
        assert exp(log(s)) == s

    @props
    @given(ratfuncs, ratfuncs)
    def test_ratfunc_coefficients_invert(self, a, b):
        s = Series([RatFunc.const(1), a, b], 2)
        assert s * s.inv() == Series.constant(RatFunc.const(1), 2)
