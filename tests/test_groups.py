"""Tests for finite-field tables and brute-force matrix-group enumeration."""

import itertools

import pytest

from qcharsum.chars import gl_group_order, u_group_order
from qcharsum.groups import (
    FiniteField,
    count_square_roots_of_identity,
    gl_matrices,
    group_order,
    u_matrices,
    _identity,
    _mat_mul,
    _squares_to_identity,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms(q):
    F = FiniteField(q)
    els = range(q)
    for a in els:
        assert F.add[0][a] == a
        assert F.mul[1][a] == a
        assert F.mul[0][a] == 0
        assert F.add[a][F.neg[a]] == 0
        if a:
            assert F.mul[a][F.inv[a]] == 1
        for b in els:
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
        assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
        assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_frobenius_is_additive(q):
    F = FiniteField(q)
    p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else 5)
    for a in range(q):
        for b in range(q):
            lhs = F.pow(F.add[a][b], p)
            rhs = F.add[F.pow(a, p)][F.pow(b, p)]
            assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_is_integers_mod_p(p):
    F = FiniteField(p)
    for a in range(p):
        for b in range(p):
            assert F.add[a][b] == (a + b) % p
            assert F.mul[a][b] == (a * b) % p


def test_field_rejects_bad_sizes():
    for q in (6, 10, 12, 26):
        with pytest.raises(ValueError):
            FiniteField(q)
    with pytest.raises(ValueError):
        FiniteField(27)
    with pytest.raises(ValueError):
        FiniteField(1)


def test_field_power_basics():
    F = FiniteField(4)
    for a in range(1, 4):
        # multiplicative group has order q - 1
        assert F.pow(a, 3) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(2, 0) == 1


def test_group_orders_match_closed_forms():
    for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        assert group_order("gl", n, q) == gl_group_order(n, q)
    for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        assert group_order("u", n, q) == u_group_order(n, q)


def test_known_small_orders_and_involutions():
    assert group_order("gl", 2, 2) == 6
    assert group_order("gl", 2, 3) == 48
    assert group_order("u", 2, 2) == 18
    assert group_order("u", 2, 3) == 96
    assert group_order("u", 3, 2) == 648
    assert count_square_roots_of_identity("gl", 2, 2) == 4
    assert count_square_roots_of_identity("gl", 2, 3) == 14
    assert count_square_roots_of_identity("u", 2, 2) == 4
    assert count_square_roots_of_identity("u", 2, 3) == 8


def test_gl_enumeration_counts_invertible_matrices():
    F = FiniteField(3)
    mats = set(gl_matrices(2, 3))
    assert len(mats) == 48
    ident = ((1, 0), (0, 1))
    assert ident in mats
    for A in itertools.islice(mats, 10):
        assert _mat_mul(F, A, ident) == A


def test_unitary_matrices_form_a_group():
    F = FiniteField(4)  # entries live in the quadratic extension
    mats = set(u_matrices(2, 2))
    assert len(mats) == 18
    ident = ((1, 0), (0, 1))
    assert ident in mats
    for A in mats:
        for B in mats:
            assert _mat_mul(F, A, B) in mats
    # every element has its inverse in the set
    for A in mats:
        assert any(_mat_mul(F, A, B) == ident for B in mats)


def test_square_root_count_is_conjugation_stable():
    # spot check: counting over an explicitly enumerated group agrees
    F = FiniteField(2)
    mats = list(gl_matrices(2, 2))
    ident = ((1, 0), (0, 1))
    brute = sum(1 for A in mats if _mat_mul(F, A, A) == ident)
    assert brute == count_square_roots_of_identity("gl", 2, 2)


@pytest.mark.parametrize("flavor,n,q", [("gl", 2, 3), ("gl", 3, 2), ("u", 2, 3)])
def test_early_exit_square_test_matches_full_product(flavor, n, q):
    # the enumeration's g^2 = I test stops at the first wrong entry; it must
    # agree with the full product on every element
    F = FiniteField(q if flavor == "gl" else q * q)
    mats = gl_matrices(n, q) if flavor == "gl" else u_matrices(n, q)
    ident = _identity(n)
    hits = 0
    for g in mats:
        full = _mat_mul(F, g, g) == ident
        assert _squares_to_identity(F, g) == full
        hits += full
    assert hits == count_square_roots_of_identity(flavor, n, q)


def test_enumeration_budget_guards():
    with pytest.raises(ValueError):
        group_order("sp", 2, 2)
    with pytest.raises(ValueError):
        group_order("gl", 6, 5)
    with pytest.raises(ValueError):
        group_order("u", 4, 5)
