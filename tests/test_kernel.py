"""The integer-polynomial kernel against independent references.

Sums and products are checked against dictionary arithmetic, the
pseudo-remainder and the gcd against sympy, content against ``math.gcd``,
and exact division against the product it undoes, all on seeded random
inputs.
"""

import random
from functools import reduce
from math import gcd

import pytest

import qcharsum
from qcharsum import _kernel, _kernel_py

KERNEL_NAMES = sorted(name for name in vars(_kernel_py) if name.startswith("zz_"))


def _rand_poly(rng, max_deg=40, bound=10 ** 6, allow_zero=True):
    degree = rng.randrange(-1 if allow_zero else 0, max_deg + 1)
    if degree < 0:
        return []
    co = [rng.randrange(-bound, bound + 1) for _ in range(degree)]
    co.append(rng.choice([i for i in range(-bound, bound + 1) if i]))
    return co


def _from_terms(terms):
    """The normalized coefficient list of an {exponent: coefficient} dict."""
    terms = {e: c for e, c in terms.items() if c}
    return [terms.get(e, 0) for e in range(max(terms) + 1)] if terms else []


def _ref_add(a, b, sign=1):
    terms = dict(enumerate(a))
    for e, c in enumerate(b):
        terms[e] = terms.get(e, 0) + sign * c
    return _from_terms(terms)


def _ref_mul(a, b):
    terms = {}
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            terms[i + j] = terms.get(i + j, 0) + ai * bj
    return _from_terms(terms)


def _random_pairs(seed, deg_a=18, deg_b=18, allow_zero=True):
    rng = random.Random(seed)
    for _ in range(60):
        yield (_rand_poly(rng, deg_a, 10 ** 4, allow_zero),
               _rand_poly(rng, deg_b, 10 ** 4, allow_zero))


def test_strip_and_negation_against_list_comprehensions():
    for a, b in _random_pairs(7):
        padded = a + [0] * len(b)
        length = max((i + 1 for i, c in enumerate(padded) if c), default=0)
        assert _kernel_py.zz_strip(list(padded)) == padded[:length] == a
        assert _kernel_py.zz_neg(a) == [-c for c in a]


def test_sum_difference_and_product_against_dict_arithmetic():
    for a, b in _random_pairs(7):
        a_in, b_in = list(a), list(b)
        assert _kernel_py.zz_add(a, b) == _ref_add(a, b)
        assert _kernel_py.zz_sub(a, b) == _ref_add(a, b, -1)
        assert _kernel_py.zz_mul(a, b) == _ref_mul(a, b)
        # a sum and a difference whose leading terms cancel
        top = _ref_add(b[:len(a) - 1], [0] * (len(a) - 1) + [-a[-1]]) if a else []
        assert _kernel_py.zz_add(a, top) == _ref_add(a, top)
        assert _kernel_py.zz_sub(a, _kernel_py.zz_neg(top)) == _ref_add(a, top)
        s = len(b) - 3
        assert _kernel_py.zz_mul_scalar(a, s) == _ref_mul(a, [s] if s else [])
        assert (a, b) == (a_in, b_in), "inputs must not be mutated"


def test_content_and_primitive_part():
    for a, b in _random_pairs(7):
        # a common factor, so that not every content is 1
        a = [c * (len(b) + 1) for c in a]
        content = _kernel_py.zz_content(a)
        assert content == reduce(gcd, a, 0)
        g, prim = _kernel_py.zz_primitive(a)
        assert g == content
        if a:
            assert g > 0
            assert [g * c for c in prim] == a
            assert reduce(gcd, prim, 0) == 1
        else:
            assert prim == []


def test_exact_division_undoes_the_product():
    for a, b in _random_pairs(11, 14, 7, allow_zero=False):
        assert _kernel_py.zz_divexact(_kernel_py.zz_mul(a, b), b) == a
        if len(b) > 1:
            with pytest.raises(ValueError):
                _kernel_py.zz_divexact(_kernel_py.zz_add(_kernel_py.zz_mul(a, b), [1]), b)


def test_pseudo_remainder_against_sympy():
    # zz_prem returns r = lc(b)^k * a - Q*b with deg r < deg b for some
    # 0 <= k <= n = deg a - deg b + 1; sympy.prem is the k = n remainder,
    # and remainders over Q are unique, so it equals lc(b)^(n - k) * r.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for a, b in _random_pairs(11, 14, 7, allow_zero=False):
        if len(a) < len(b):
            assert _kernel_py.zz_prem(a, b) == a
            continue
        r = _kernel_py.zz_prem(a, b)
        assert len(r) < len(b)
        expected = sympy.prem(sympy.Poly(a[::-1], x), sympy.Poly(b[::-1], x))
        expected = _from_terms(
            {e: int(c) for e, c in enumerate(reversed(expected.all_coeffs()))})
        n = len(a) - len(b) + 1
        assert any(_ref_mul(r, [b[-1] ** (n - k)]) == expected for k in range(n + 1))


def test_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(13)
    for _ in range(25):
        f = _rand_poly(rng, max_deg=8, bound=30, allow_zero=False)
        g = _rand_poly(rng, max_deg=8, bound=30, allow_zero=False)
        h = _rand_poly(rng, max_deg=5, bound=30, allow_zero=False)
        a = _kernel_py.zz_mul(f, h)
        b = _kernel_py.zz_mul(g, h)
        got = _kernel_py.zz_gcd(a, b)
        pa = sympy.Poly(list(reversed(a)), x)
        pb = sympy.Poly(list(reversed(b)), x)
        _, expected = sympy.gcd(pa, pb).primitive()
        expected_co = tuple(int(c) for c in reversed(expected.all_coeffs()))
        # both are primitive; fix the sign convention before comparing
        if expected_co[-1] < 0:
            expected_co = tuple(-c for c in expected_co)
        normalized = tuple(got) if got[-1] > 0 else tuple(-c for c in got)
        assert normalized == expected_co


def test_gcd_divides_both_inputs():
    rng = random.Random(17)
    for _ in range(40):
        a = _rand_poly(rng, max_deg=10, bound=100, allow_zero=False)
        b = _rand_poly(rng, max_deg=10, bound=100, allow_zero=False)
        g = _kernel_py.zz_gcd(a, b)
        for poly in (a, b):
            _, prim = _kernel_py.zz_primitive(poly)
            quotient = _kernel_py.zz_divexact(prim, g)
            assert tuple(_kernel_py.zz_mul(quotient, g)) == tuple(prim)


def test_dispatcher_exports_all_kernel_functions():
    # _kernel re-exports the pure functions themselves, so patching a
    # _kernel binding (as the benchmark's tracer does) reaches every caller
    assert len(KERNEL_NAMES) == 11
    for name in KERNEL_NAMES:
        assert getattr(_kernel, name) is getattr(_kernel_py, name), name
    assert qcharsum.IMPL_NAME == _kernel.IMPL_NAME == "pure"
