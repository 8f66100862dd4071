"""Tests for irreducible-polynomial counting and the self-dual/pair census."""

import pytest

from qcharsum.exact import qpow
from qcharsum.polycount import (
    brute_poly_census,
    count_irreducible,
    count_selfdual_and_pairs,
    count_u_irreducible,
    divisors,
    mobius,
)


def test_divisors_and_mobius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_count_irreducible_known_values():
    for q in (2, 3, 4, 5, 7, 9):
        assert count_irreducible(1, q) == q
        assert count_irreducible(2, q) == (q * q - q) // 2
        assert count_irreducible(3, q) == (q**3 - q) // 3
    assert count_irreducible(4, 2) == 3
    assert count_irreducible(6, 2) == 9


def test_count_u_irreducible_known_values():
    for q in (2, 3, 4, 5):
        assert count_u_irreducible(1, q) == q + 1
        assert count_u_irreducible(2, q) == (q * q - q - 2) // 2


def _mobius_count(d, q, twist):
    """(1/d) sum_{r | d} mu(r) (q^(d/r) - twist^(d/r)) in integers: the
    plain count for twist = 0, its unitary analogue for twist = -1."""
    total = sum(mobius(r) * (q ** (d // r) - twist ** (d // r)) for r in divisors(d))
    assert total % d == 0
    return total // d


def test_symbolic_matches_numeric():
    for d in range(1, 7):
        sym = count_irreducible(d, None)
        sym_u = count_u_irreducible(d, None)
        for q in (2, 3, 5):
            assert sym.eval(q) == count_irreducible(d, q) == _mobius_count(d, q, 0)
            assert sym_u.eval(q) == count_u_irreducible(d, q) == _mobius_count(d, q, -1)


def test_necklace_divisor_sum():
    # Every monic polynomial factors uniquely: sum of d*N(d) over d | m is q^m.
    for m in range(1, 11):
        total = sum(count_irreducible(d, None) * d for d in divisors(m))
        assert total == qpow(m)


def test_dual_divisor_sum():
    # Conjugate-side analogue: sum of d*Nbar(d) over d | m is q^m - (-1)^m.
    for m in range(1, 11):
        total = sum(count_u_irreducible(d, None) * d for d in divisors(m))
        assert total == qpow(m) + (-1) ** (m + 1)


@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_census_matches_formula(flavor):
    for d in range(1, 6):
        for q in (2, 3):
            brute = brute_poly_census(d, q, flavor)
            formula = count_selfdual_and_pairs(d, q, flavor)
            assert brute == formula, (flavor, d, q)


@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_census_partition_relation(flavor):
    # Non-fixed polynomials come in dual pairs; for gl the degree-1 count also
    # includes the linear factor with zero constant term, which has no dual.
    for d in range(1, 6):
        for q in (2, 3):
            c = brute_poly_census(d, q, flavor)
            offset = 1 if flavor == "gl" and d == 1 else 0
            assert c.n_plain == c.n_selfdual + 2 * c.m_pairs + offset


def test_selfdual_symbolic_matches_numeric():
    # Starred counts depend on the parity of q, so the symbolic form is
    # parity-specific; evaluate the even form at powers of 2 and the odd
    # form at odd prime powers, against the orbit census.
    for flavor in ("gl", "u"):
        for d in range(1, 5):
            for parity, qs in (("even", (2, 4)), ("odd", (3, 5))):
                sym = count_selfdual_and_pairs(d, None, flavor, parity=parity)
                for q in qs:
                    num = count_selfdual_and_pairs(d, q, flavor)
                    census = brute_poly_census(d, q, flavor)
                    assert sym.n_selfdual.eval(q) == num.n_selfdual == census.n_selfdual, \
                        (flavor, d, q)
                    assert sym.m_pairs.eval(q) == num.m_pairs == census.m_pairs, (flavor, d, q)


def test_counts_are_memoized():
    # A repeat call returns the same object; for the starred counts the
    # parity may come by keyword or by position.
    for q in (None, 3):
        assert count_irreducible(4, q) is count_irreducible(4, q)
        assert count_u_irreducible(4, q) is count_u_irreducible(4, q)
    for flavor in ("gl", "u"):
        for d in range(1, 5):
            by_keyword = count_selfdual_and_pairs(d, None, flavor, parity="odd")
            assert count_selfdual_and_pairs(d, None, flavor, "odd") is by_keyword
            assert count_selfdual_and_pairs(d, None, flavor, parity="odd") is by_keyword
            numeric = count_selfdual_and_pairs(d, 4, flavor)
            assert count_selfdual_and_pairs(d, 4, flavor, "even") is numeric
            assert count_selfdual_and_pairs(d, 4, flavor, parity="even") is numeric
