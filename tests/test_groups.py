"""Tests for finite-field tables and brute-force matrix-group enumeration."""

import itertools

import pytest

import qcharsum.groups as groups
from qcharsum.chars import gl_group_order, u_group_order
from qcharsum.groups import FiniteField, count_square_roots_of_identity, group_order
from qcharsum.verify import REGISTRY


# The enumeration read back as matrices, tuples of row tuples decoded from
# or encoded to the row codes; only these tests look at single elements.


def _matrices(flavor, n, q):
    """Yield every element as a tuple of row tuples, decoded from the frames."""
    T, frames = groups._group_frames(flavor, n, q)
    if n == 0:
        yield ()  # the empty matrix
        return
    for rows, last in frames:
        head = tuple(T.digits[r] for r in rows)
        for v in last:
            yield head + (T.digits[v],)


def _squares_to_identity(F, g):
    """g*g == I for g a tuple of row tuples over F, by the row-code test."""
    T = groups._vector_tables(F.q, len(g))
    codes = tuple(sum(d * unit for d, unit in zip(row, T.units)) for row in g)
    return groups._rows_square_to_identity(T, codes)


def gl_matrices(n, q):
    """Yield every invertible n x n matrix over F_q (the vector tables are
    budget-guarded)."""
    return _matrices("gl", n, q)


def u_matrices(n, q):
    """Yield every matrix g over F_{q^2} with conj(g)^T g = I, where
    conj is a -> a^q; equivalently the rows are orthonormal under
    herm(x, y) = sum_i x_i * conj(y_i)."""
    return _matrices("u", n, q)


def _mat_mul(F, A, B):
    """The full matrix product A*B over the field tables of F."""
    n = len(A)
    add, mul = F.add, F.mul
    out = []
    for i in range(n):
        row_a = A[i]
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[row_a[k]][B[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


# The enumeration before the row codes: rows as tuples, spans as sets of
# tuples rebuilt level by level, g*g = I entry by entry.  Kept as the
# reference the row-code route must reproduce.


def _reference_gl_matrices(n, q):
    F = FiniteField(q)
    vectors = list(itertools.product(range(q), repeat=n))
    add, mul = F.add, F.mul
    rows = []

    def rec(span):
        level = len(rows)
        for v in vectors:
            if v in span:
                continue
            rows.append(v)
            if level + 1 == n:
                yield tuple(rows)
            else:
                bigger = set()
                for s in span:
                    for c in range(q):
                        bigger.add(tuple(add[s[i]][mul[c][v[i]]] for i in range(n)))
                yield from rec(bigger)
            rows.pop()

    yield from rec({tuple([0] * n)})


def _reference_u_matrices(n, q):
    F = FiniteField(q * q)
    conj = tuple(F.pow(a, q) for a in range(F.q))
    add, mul = F.add, F.mul
    vectors = list(itertools.product(range(F.q), repeat=n))

    def herm(x, y):
        acc = 0
        for i in range(n):
            acc = add[acc][mul[x[i]][conj[y[i]]]]
        return acc

    unit = [v for v in vectors if herm(v, v) == 1]
    rows = []

    def rec():
        for v in unit:
            if all(herm(v, r) == 0 for r in rows):
                rows.append(v)
                if len(rows) == n:
                    yield tuple(rows)
                else:
                    yield from rec()
                rows.pop()

    yield from rec()


def _reference_stats(flavor, n, q):
    F = FiniteField(q if flavor == "gl" else q * q)
    mats = _reference_gl_matrices(n, q) if flavor == "gl" else _reference_u_matrices(n, q)
    ident = _identity(n)
    order = sqrts = 0
    for g in mats:
        order += 1
        sqrts += _mat_mul(F, g, g) == ident
    return order, sqrts


@pytest.mark.parametrize("flavor,n,q", [("gl", 2, 3), ("gl", 3, 2), ("u", 2, 2), ("u", 2, 3)])
def test_row_codes_list_the_reference_matrices(flavor, n, q):
    route = gl_matrices(n, q) if flavor == "gl" else u_matrices(n, q)
    reference = (_reference_gl_matrices(n, q) if flavor == "gl"
                 else _reference_u_matrices(n, q))
    assert set(route) == set(reference)


def test_row_codes_count_as_the_reference_on_the_oracle_cases():
    cases = REGISTRY["oracle-brute-involutions"].params["cases"]
    assert len(cases) == 10
    for flavor, n, q in cases:
        assert groups._enumerate_stats(flavor, n, q) == _reference_stats(flavor, n, q), (
            flavor, n, q)


def test_budgets_refuse_before_any_vector_table_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a vector table was built")

    monkeypatch.setattr(groups, "_VectorTables", forbidden)
    groups._vector_tables.cache_clear()
    with pytest.raises(ValueError, match="order"):
        group_order("gl", 6, 5)
    with pytest.raises(ValueError, match="order"):
        group_order("u", 4, 5)
    monkeypatch.undo()
    # U(3,5) meets the order and scan budgets; its addition table would
    # have 15625^2 entries, and is refused before even the field is built
    with pytest.raises(ValueError, match="vector addition table"):
        group_order("u", 3, 5)
    monkeypatch.setattr(groups, "FiniteField", forbidden)
    with pytest.raises(ValueError, match="vector addition table"):
        groups._VectorTables(25, 3)


def test_budget_check_validates_q_without_building_a_field(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(groups, "FiniteField", forbidden)
    groups._enumerate_stats.cache_clear()
    assert group_order("gl", 0, 4) == 1
    with pytest.raises(ValueError, match="not a prime power"):
        group_order("gl", 0, 6)
    with pytest.raises(ValueError, match="q <= 25"):
        group_order("gl", 1, 27)


@pytest.mark.parametrize("flavor", ["gl", "u"])
def test_rank_zero_is_the_trivial_group(flavor):
    mats = gl_matrices(0, 2) if flavor == "gl" else u_matrices(0, 2)
    assert list(mats) == [()]
    assert group_order(flavor, 0, 3) == 1
    assert count_square_roots_of_identity(flavor, 0, 3) == 1
