"""Tests for Hall-Littlewood data: Kostka tables, principal values, q-helpers."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qcharsum import _kernel, exact, hl
from qcharsum.exact import Rat, RatFunc, SymPoly, qpow
from qcharsum.hl import (
    hl_finite_oracle,
    hl_principal,
    hl_principal_poly,
    kostka_foulkes,
    pochhammer_cd,
    rogers_szego,
    rs_multi,
)
from qcharsum.partitions import Partition, _gauss_row, enumerate_partitions
from test_partitions import dominates


def _count_ssyt(lam, mu):
    """Number of semistandard tableaux of shape lam and content mu.

    Counts chains of shapes built one letter at a time, where each letter
    occupies a horizontal strip: consecutive shapes must interlace.
    """
    lam = tuple(lam)
    mu = tuple(mu)

    def shrink(shape, size):
        # All shapes obtained from `shape` by removing a horizontal strip
        # of `size` cells (at most one cell per column).
        out = []
        k = len(shape)

        def rec(i, remaining, acc):
            if i == k:
                if remaining == 0:
                    out.append(tuple(x for x in acc if x > 0))
                return
            below = shape[i + 1] if i + 1 < k else 0
            lo = max(below, shape[i] - remaining)
            for r in range(lo, shape[i] + 1):
                rec(i + 1, remaining - (shape[i] - r), acc + [r])

        rec(0, size, [])
        return out

    @lru_cache(maxsize=None)
    def f(shape, j):
        if j == 0:
            return 1 if shape == () else 0
        return sum(f(s, j - 1) for s in shrink(shape, mu[j - 1]))

    return f(lam, len(mu))


def test_schur_principal_hook_form():
    # s_lam(1, z, z^2, ...) = P_lam(1, z, z^2, ...; 0)
    z = RatFunc.x()
    # shape (2,1): weight 1, hooks {3, 1, 1}
    expect = z / ((1 - z) ** 2 * (1 - z**3))
    assert hl_principal([2, 1], z, 0) == expect
    # single row (n): weight 0, hooks 1..n
    got = hl_principal([3], z, 0)
    assert got == 1 / ((1 - z) * (1 - z**2) * (1 - z**3))


def test_kostka_small_values():
    # Entries are integer coefficient tuples, index = power of t.
    kt = kostka_foulkes(3)
    assert kt.K[((2, 1), (1, 1, 1))] == (0, 1, 1)  # t + t^2
    assert kt.K[((3,), (3,))] == (1,)
    assert kt.K[((3,), (2, 1))] == (0, 1)  # t


def test_kostka_triangular_and_diagonal():
    for n in range(1, 8):
        kt = kostka_foulkes(n)
        for lam in kt.order:
            for mu in kt.order:
                key = (lam.parts, mu.parts)
                if key in kt.K:
                    assert dominates(lam, mu), key
                    if lam.parts == mu.parts:
                        assert kt.K[key] == (1,)
                else:
                    assert not dominates(lam, mu), key


def test_kostka_at_one_counts_tableaux():
    for n in range(1, 7):
        kt = kostka_foulkes(n)
        for lam in kt.order:
            for mu in kt.order:
                got = sum(kt.K.get((lam.parts, mu.parts), ()))
                assert got == _count_ssyt(lam.parts, mu.parts), (lam, mu)


def _poly_sum_of_products(pairs):
    """sum of a(t) b(t) over the pairs of coefficient tuples, as a trimmed tuple."""
    total = {}
    for a, b in pairs:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                total[i + j] = total.get(i + j, 0) + x * y
    co = [total.get(k, 0) for k in range(max(total, default=-1) + 1)]
    while co and not co[-1]:
        co.pop()
    return tuple(co)


def test_kostka_entries_are_trimmed_int_tuples():
    for n in range(9):
        kt = kostka_foulkes(n)
        for table in (kt.K, kt.K_inv):
            for key, co in table.items():
                assert type(co) is tuple and co and co[-1] != 0, (n, key)
                assert all(type(c) is int for c in co), (n, key)


def test_kostka_inverse_is_inverse():
    for n in range(1, 9):
        kt = kostka_foulkes(n)
        order = [p.parts for p in kt.order]
        for a in order:
            for c in order:
                total = _poly_sum_of_products(
                    (kt.K.get((a, b), ()), kt.K_inv.get((b, c), ())) for b in order
                )
                expect = (1,) if a == c else ()
                assert total == expect, (a, c)


def test_kostka_standard_column_is_the_hook_formula():
    # K_{lam,(1^n)}(t) = t^n(lam') (t;t)_n / prod_x (1 - t^h(x)) (Macdonald
    # III.6, Ex. 2), in RatFunc arithmetic.
    t = RatFunc.x()
    for n in range(1, 9):
        kt = kostka_foulkes(n)
        col = (1,) * n
        poch = pochhammer_cd(t, t, n)
        for lam in kt.order:
            want = t ** lam.conjugate().n_stat() * poch
            for h in lam.hooks():
                want = want / (1 - t**h)
            got = RatFunc.from_ic(kt.K[lam.parts, col], (1,))
            assert got == want, lam


def test_kostka_top_row_is_t_to_the_n():
    # K_{(n),mu}(t) = t^n(mu).
    for n in range(1, 9):
        kt = kostka_foulkes(n)
        for mu in kt.order:
            assert kt.K[(n,), mu.parts] == (0,) * mu.n_stat() + (1,), mu


def _charge_reference(word):
    """Charge by repeated extraction of standard subwords, rescanning the
    remaining letters cyclically leftward for each value."""
    remaining = list(word)
    total = 0
    while remaining:
        n = len(remaining)
        pos = max(i for i, a in enumerate(remaining) if a == 1)
        chosen = {1: pos}
        need = 2
        cur = pos
        present = set(remaining)
        while need in present:
            found = None
            for step in range(1, n):
                j = (cur - step) % n
                if remaining[j] == need and j not in chosen.values():
                    found = j
                    break
            if found is None:
                break
            chosen[need] = found
            cur = found
            need += 1
        idx = 0
        for v in range(2, need):
            if chosen[v] > chosen[v - 1]:
                idx += 1
            total += idx
        for j in sorted(chosen.values(), reverse=True):
            del remaining[j]
    return total


def _ssyt_fillings(lam, mu):
    """All semistandard tableaux of shape lam and content mu, as lists of
    rows, filled cell by cell in row-major order."""
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    left = {v + 1: m for v, m in enumerate(mu)}
    grid = [[0] * length for length in lam]
    out = []

    def rec(k):
        if k == len(cells):
            out.append([list(row) for row in grid])
            return
        r, c = cells[k]
        for v in left:
            if not left[v]:
                continue
            if c and v < grid[r][c - 1]:
                continue
            if r and v <= grid[r - 1][c]:
                continue
            left[v] -= 1
            grid[r][c] = v
            rec(k + 1)
            left[v] += 1
        grid[r][c] = 0

    rec(0)
    return out


def test_kostka_matches_brute_force_charge_table():
    # Every filling of every shape, read bottom row first, each row left to
    # right, with the charge of the reference extraction.
    for n in range(8):
        kt = kostka_foulkes(n)
        want = {}
        for lam in kt.order:
            for mu in kt.order:
                counts = {}
                for rows in _ssyt_fillings(lam.parts, mu.parts):
                    c = _charge_reference([a for row in reversed(rows) for a in row])
                    counts[c] = counts.get(c, 0) + 1
                if counts:
                    want[lam.parts, mu.parts] = tuple(
                        counts.get(i, 0) for i in range(max(counts) + 1))
        assert kt.K == want, n


def test_charge_matches_the_reference_on_shuffled_words():
    # Words that are no tableau's reading word, with partition content.
    rng = random.Random(11)
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            word = [v + 1 for v, m in enumerate(mu.parts) for _ in range(m)]
            for _ in range(5):
                rng.shuffle(word)
                assert hl.charge(word) == _charge_reference(word), word


def test_hl_column_is_elementary():
    # One-column shapes give elementary symmetric functions: the principal
    # value is z^(m(m-1)/2) / prod_{j<=m} (1 - z^j), independent of t.
    z = RatFunc.x()
    for m in range(1, 6):
        expect = z ** (m * (m - 1) // 2)
        for j in range(1, m + 1):
            expect = expect / (1 - z**j)
        for t in (RatFunc.const(Rat(1, 3)), 1 / z, RatFunc.const(Rat(-2))):
            assert hl_principal([1] * m, z, t) == expect, (m, t)


def test_rogers_szego_small():
    z = SymPoly.gen("a")
    t = SymPoly.gen("t")
    one = SymPoly.const(1)
    assert rogers_szego(0, z, t) == one
    assert rogers_szego(1, z, t) == 1 + z
    assert rogers_szego(2, z, t) == 1 + z + t * z + z**2


def test_rogers_szego_at_unit_arguments():
    one = Fraction(1)
    for m in range(9):
        # z = 1, t = -1 halves the ladder: value is 2^ceil(m/2)
        assert rogers_szego(m, one, Fraction(-1)) == 2 ** ((m + 1) // 2)
    t = RatFunc.x()
    for m in range(1, 9, 2):
        assert rogers_szego(m, RatFunc.const(-1), t) == 0
    for m in range(0, 9, 2):
        expect = RatFunc.const(1)
        for i in range(1, m // 2 + 1):
            expect = expect * (1 - t ** (2 * i - 1))
        assert rogers_szego(m, RatFunc.const(-1), t) == expect


def test_rogers_szego_recurrence():
    z = SymPoly.gen("a")
    t = SymPoly.gen("t")
    for m in range(2, 9):
        lhs = rogers_szego(m, z, t)
        rhs = (1 + z) * rogers_szego(m - 1, z, t) - (
            1 - t ** (m - 1)
        ) * z * rogers_szego(m - 2, z, t)
        assert lhs == rhs, m


@pytest.mark.parametrize("sign, k", [(1, 1), (-1, 1), (1, 2), (-1, 3)])
def test_rogers_szego_at_a_signed_power_is_a_reindexing(sign, k):
    # At t = sign * w^k, Horner's rule in z gives the same canonical
    # polynomial as the sum of the evaluated binomials times z^j.
    w = RatFunc.x()
    t = sign * w ** k
    for m in range(7):
        for z in (1, w, -w):
            got = rogers_szego(m, z, t)
            want = sum((sum((c * t ** i for i, c in enumerate(row)), RatFunc.const(0)) * z ** j
                        for j, row in enumerate(_gauss_row(m))), RatFunc.const(0))
            assert (got.n, got.d) == (want.n, want.d), (m, z)


def test_rs_homog_and_multi():
    a = SymPoly.gen("a")
    t = SymPoly.gen("t")
    assert rs_multi([2, 1], a, t) == (1 + a) * (1 + a)
    assert rs_multi([2, 2], a, t) == rogers_szego(2, a, t)


def test_pochhammer():
    c = SymPoly.gen("a")
    d = SymPoly.gen("t")
    assert pochhammer_cd(c, d, 0) == SymPoly.const(1)
    assert pochhammer_cd(c, d, 2) == (1 - c) * (1 - c * d)


def test_finite_oracle_small_shapes():
    q = RatFunc.x()
    x1, x2 = q, q + 1
    t = 1 / (q * q)
    assert hl_finite_oracle([1], (x1, x2), t) == x1 + x2
    assert hl_finite_oracle([1, 1], (x1, x2), t) == x1 * x2
    assert hl_finite_oracle([2], (x1, x2), t) == x1**2 + x2**2 + (1 - t) * x1 * x2


def test_finite_oracle_rectangles_two_vars():
    # In two variables the only tableau of shape (m, m) is constant columns,
    # so the value collapses to (x1 x2)^m.
    q = RatFunc.x()
    x1, x2 = q, 1 + q**2
    for t in (RatFunc.const(Rat(2, 7)), 1 / q):
        for m in range(1, 4):
            got = hl_finite_oracle([m, m], (x1, x2), t)
            assert got == (x1 * x2) ** m, (m, t)


def test_finite_oracle_two_two_three_vars():
    # Degree-4 component of prod_{i<j} (1 - t x_i x_j)/(1 - x_i x_j) in three
    # variables: shape (2,2) carries y_a^2 terms plus (1-t) cross terms,
    # where y ranges over the pairwise products.
    q = RatFunc.x()
    xs = (q, q + 1, 1 - q)
    for t in (RatFunc.const(Rat(1, 5)), q / (q + 2)):
        ys = [xs[0] * xs[1], xs[0] * xs[2], xs[1] * xs[2]]
        expect = sum(y**2 for y in ys) + (1 - t) * (
            ys[0] * ys[1] + ys[0] * ys[2] + ys[1] * ys[2]
        )
        assert hl_finite_oracle([2, 2], xs, t) == expect


def test_finite_oracle_symmetry():
    q = RatFunc.x()
    t = RatFunc.const(Rat(1, 3))
    a = hl_finite_oracle([2, 1], (q, q + 1, q + 2), t)
    b = hl_finite_oracle([2, 1], (q + 2, q, q + 1), t)
    assert a == b


def test_finite_oracle_columns_where_v_lam_vanishes(monkeypatch):
    # P_(1^k) = e_k for every t, including t = -1 where v_(1^k)(t) = 0.
    # The oracle must get there from its own definition: the tableau route
    # is made to raise.
    def forbidden(*args, **kwargs):
        raise AssertionError("finite oracle must not use the tableau route")

    for name in ("hl_principal", "kostka_foulkes", "_hl_principal_poly",
                 "_hl_rows", "_strips_below", "_strip_weight", "_hl_value"):
        monkeypatch.setattr(hl, name, forbidden)
    q = RatFunc.x()
    xs = (q, q + 1, 1 - q, q + 2)
    for k in (2, 3):
        expect = sum(prod(c) for c in combinations(xs, k))
        for t in (Fraction(-1), Fraction(0), 1 / q):
            assert hl_finite_oracle([1] * k, xs, t) == expect, (k, t)


def test_rearrangements_are_the_distinct_permutations():
    for parts in ((), (0,), (1, 0), (2, 2, 0, 0), (1, 1, 1, 1, 0), (3, 2, 2, 1, 0, 0)):
        got = list(hl._rearrangements(parts))
        assert len(got) == len(set(got)) and set(got) == set(permutations(parts)), parts


def test_finite_oracle_rejects_bad_input():
    q = RatFunc.x()
    t = qpow(-1)
    with pytest.raises(ValueError, match="at most 6 variables"):
        hl_finite_oracle([1], tuple(q + k for k in range(7)), t)
    with pytest.raises(ValueError, match="at least ell"):
        hl_finite_oracle([1, 1, 1], (q, q + 1), t)
    with pytest.raises(ValueError, match="distinct"):
        hl_finite_oracle([1], (q, q + 1, q), t)
    # equal values of different types are one variable
    with pytest.raises(ValueError, match="distinct"):
        hl_finite_oracle([1], (1, RatFunc.const(1)), t)
    with pytest.raises(TypeError):
        hl_finite_oracle([1], (1.5, 2), t)
    with pytest.raises(TypeError):
        hl_finite_oracle([1], (q, q + 1), 0.5)


def test_finite_oracle_returns_a_ratfunc_for_scalar_input():
    got = hl_finite_oracle([1], (1, Fraction(5, 2)), Fraction(1, 2))
    assert isinstance(got, RatFunc)
    assert got == Fraction(7, 2)
    assert hl_finite_oracle([], (), Fraction(1, 2)) == 1


def _random_ic(rng, size, length):
    co = [rng.randint(-size, size) for _ in range(length)]
    return _kernel.zz_strip(co)


def test_pack_and_unpack_round_trip():
    rng = random.Random(21)
    assert hl._pack([], 5) == 0 and hl._unpack(0, 5) == []
    for _ in range(300):
        s = rng.randint(2, 40)
        co = _random_ic(rng, (1 << (s - 1)) - 1, rng.randint(0, 12))
        assert hl._unpack(hl._pack(co, s), s) == co, (co, s)


@pytest.mark.parametrize("s", [2, 3, 8, 17, 64])
def test_unpack_reads_a_digit_below_half_the_base_and_no_further(s):
    edge = (1 << (s - 1)) - 1
    for co in ([edge], [-edge], [edge, -edge, 0, edge], [0, -edge, edge, -edge]):
        assert hl._unpack(hl._pack(co, s), s) == co, (co, s)
    for co in ([1 << (s - 1)], [1, 1 << (s - 1)], [1 << (s - 1), -1]):
        assert hl._unpack(hl._pack(co, s), s) != co, (co, s)


def test_a_packed_product_is_the_kernel_product():
    # s from the L1 bound |fg|_1 <= |f|_1 |g|_1, as both routes choose it
    rng = random.Random(22)
    for _ in range(200):
        f = _random_ic(rng, rng.choice([1, 9, 1000]), rng.randint(0, 10))
        g = _random_ic(rng, rng.choice([1, 9, 1000]), rng.randint(0, 10))
        bound = sum(map(abs, f)) * sum(map(abs, g))
        s = bound.bit_length() + 1
        got = hl._unpack(hl._pack(f, s) * hl._pack(g, s), s)
        assert got == _kernel.zz_mul(f, g), (f, g)


def _oracle_reference(lam, xs, t):
    """The symmetrization of hl_finite_oracle, term by term in RatFunc
    arithmetic: each of the m(m-1) quotients and every partial product is
    normalized on its own."""
    lam = Partition(lam)
    m = len(xs)
    ratio = {(i, j): (xs[i] - t * xs[j]) / (xs[i] - xs[j])
             for i in range(m) for j in range(m) if i != j}
    acc = t * 0
    for e in set(permutations(lam.parts + (0,) * (m - lam.ell))):
        term = t * 0 + 1
        for i in range(m):
            term = term * xs[i] ** e[i]
            for j in range(m):
                if e[i] > e[j]:
                    term = term * ratio[i, j]
        acc = acc + term
    return acc


@pytest.mark.parametrize("t", [qpow(-1), RatFunc.const(-1), RatFunc.const(0),
                               RatFunc.x() / (RatFunc.x() + 2),
                               RatFunc.const(Rat(1, 3))], ids=str)
def test_finite_oracle_matches_the_ratfunc_symmetrization(t):
    # One denominator and one normalization give the same canonical form as
    # normalizing every quotient and partial product.
    q = RatFunc.x()
    spread = (q, q + 1, 1 - q, q + 2)
    for n in range(6):
        for lam in enumerate_partitions(n):
            for m in range(max(1, lam.ell), 7):
                grids = [tuple(z ** i for i in range(m)) for z in (1 / q, -1 / q)]
                if m <= len(spread):
                    grids.append(spread[:m])
                for xs in grids:
                    got = hl_finite_oracle(lam, xs, t)
                    assert _fields(got) == _fields(_oracle_reference(lam, xs, t)), \
                        (lam, xs, t)


def test_hl_principal_accepts_partition_objects():
    z = RatFunc.x()
    t = RatFunc.const(Rat(1, 2))
    lam = Partition([2, 1])
    assert hl_principal(lam, z, t) == hl_principal([2, 1], z, t)


# ---------------------------------------------------------------------------
# P_lam(z; t) against the Schur expansion, and the memo behind hl_principal.
# ---------------------------------------------------------------------------


def _hook_product(lam, z):
    """z^n(lam) / prod_b (1 - z^h(b)) in plain RatFunc arithmetic."""
    return _hook_product_memo(Partition(lam).parts, z)


@lru_cache(maxsize=None)
def _hook_product_memo(parts, z):
    lam = Partition(parts)
    den = RatFunc.const(1)
    for h in lam.hooks():
        den = den * (1 - z**h)
    return z ** lam.n_stat() / den


def _hl_expansion(lam, z, t):
    """sum_mu K_inv(lam, mu)(t) s_mu(z), with the s_mu from _hook_product."""
    lam = Partition(lam)
    table = kostka_foulkes(lam.size)
    return sum(
        _horner(c, t) * _hook_product(mu, z)
        for mu in table.order
        if (c := table.K_inv.get((lam.parts, mu.parts))) is not None
    )


def _all_partitions(nmax):
    return [lam for n in range(nmax + 1) for lam in enumerate_partitions(n)]


def _fields(r):
    return (r.num.ic, r.num.content, r.den.ic, r.den.content)


def test_hl_at_t_zero_is_schur():
    q = RatFunc.x()
    zs = (q, 1 / q, -1 / q, q / (q + 2), q**2 - 1, RatFunc.const(Rat(1, 3)))
    for z in zs:
        for lam in _all_partitions(8):
            got = hl_principal(lam, z, RatFunc.const(0))
            assert isinstance(got, RatFunc)
            assert _fields(got) == _fields(_hook_product(lam, z)), (lam, z)


def test_hl_principal_is_normalized_once(monkeypatch):
    # F_lam / (z;z)_n is built in integer polynomials and normalized by one
    # RatFunc construction: no field operation runs on the way.
    zs = (qpow(-1), -qpow(-1))
    ts = (qpow(-1), Fraction(-1))
    lams = _all_partitions(6)

    def forbidden(*args):
        raise AssertionError("P_lam must be normalized once, not built by field operations")

    hl._hl_value.cache_clear()
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(exact.RatFunc, name, forbidden)
    got = {(lam.parts, z, t): hl_principal(lam, z, t)
           for lam in lams for z in zs for t in ts}
    monkeypatch.undo()
    for (parts, z, t), value in got.items():
        assert value == _hl_expansion(parts, z, t), (parts, z, t)


_nonzero_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_all_partitions(4)), _nonzero_fracs, st.integers(-3, 3),
       st.sampled_from([-3, -2, -1, 1, 2, 3]), _nonzero_fracs)
def test_hl_principal_matches_the_schur_expansion(lam, r, s, m, r_t):
    # z = r q^s / (q + m) and t = r_t carry negative and fractional
    # contents, which the integer route folds into its numerators.
    q = RatFunc.x()
    z = r * q**s / (q + m)
    t = RatFunc.const(r_t)
    got = hl_principal(lam, z, t)
    assert _fields(got) == _fields(_hl_expansion(lam, z, t))


def test_hl_memo_returns_the_callers_t():
    z = -qpow(-1)
    ts = (1, Fraction(1), RatFunc.const(1))
    for lam in ([2, 1], [1, 1], [3]):
        values = [hl_principal(lam, z, t) for t in ts]
        assert values[0] == values[1] == values[2] == _hl_expansion(lam, z, RatFunc.const(1))


def test_hl_memo_keeps_z_and_minus_z_apart():
    plus, minus = qpow(-1), -qpow(-1)
    for t in (qpow(-1), Fraction(-1)):
        for lam in _all_partitions(4):
            for z in (plus, minus, plus, minus):
                assert hl_principal(lam, z, t) == _hl_expansion(lam, z, t), (lam, z, t)


# ---------------------------------------------------------------------------
# The integer polynomials F_lam(z, t) = (z;z)_n P_lam(1, z, z^2, ...; t).
# ---------------------------------------------------------------------------


def _horner(co, x):
    """sum_e co[e] x^e for a dense list of ring elements or ints."""
    acc = RatFunc.const(0)
    for c in reversed(co):
        acc = acc * x + c
    return acc


def _eval_principal_poly(f, z, t):
    """F(z, t) from {(k, e): c}, with the t-polynomial of each z^e summed first."""
    top = max(e for _, e in f)
    by_e = [RatFunc.const(0)] * (top + 1)
    for (k, e), c in f.items():
        by_e[e] = by_e[e] + c * t**k
    return _horner(by_e, z)


_POLY_ZS = (qpow(-1), -qpow(-1), RatFunc.x() / (RatFunc.x() + 2))
_POLY_TS = (qpow(-1), RatFunc.const(-1), RatFunc.const(0), RatFunc.const(Rat(1, 3)))


def test_hl_principal_poly_has_int_coefficients_and_is_memoized():
    for lam in _all_partitions(8):
        f = hl_principal_poly(lam)
        assert f, lam
        for (k, e), c in f.items():
            assert type(k) is int and type(e) is int and k >= 0 and e >= 0
            assert type(c) is int and c != 0, (lam, k, e)
        assert hl_principal_poly(lam) is f
        assert hl_principal_poly(Partition(lam)) is f
        with pytest.raises(TypeError):
            f[0, 0] = 1


def test_hl_principal_poly_over_z_pochhammer_is_hl_principal():
    for z in _POLY_ZS:
        for lam in _all_partitions(7):
            poch = pochhammer_cd(z, z, lam.size)
            for t in _POLY_TS:
                want = _hl_expansion(lam, z, t)
                got = _eval_principal_poly(hl_principal_poly(lam), z, t) / poch
                assert got == want, (lam, z, t)
                assert hl_principal(lam, z, t) == want, (lam, z, t)


def test_branching_rule_f_lam_is_the_kostka_route():
    # The second route to F_lam: sum_mu K_inv(lam, mu)(t) f_mu(z), with K_inv
    # from the charge walk and f_mu the cleared hook product.
    for n in range(9):
        table = kostka_foulkes(n)
        for lam in table.order:
            want = {}
            for mu in table.order:
                for k, ck in enumerate(table.K_inv.get((lam.parts, mu.parts), ())):
                    for e, fe in enumerate(hl._fake_degree(mu.parts)):
                        want[k, e] = want.get((k, e), 0) + ck * fe
            assert hl_principal_poly(lam) == {key: c for key, c in want.items() if c}, lam


def test_branching_rule_rows_read_back_exactly_up_to_the_budget():
    # ||F_lam||_1 <= sum_mu ||psi_(lam/mu)||_1 ||F_mu||_1 2^(n-1-|mu|), from
    # the branching rule and ||1 - z^i||_1 = 2.  Below 2^(S-1) every
    # coefficient reads back from its base-2^S digit.
    bound = {(): 1}
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            bound[lam.parts] = sum(
                sum(map(abs, hl._strip_weight(lam.parts, mu))) * bound[mu] * 2 ** (n - 1 - sum(mu))
                for mu in hl._strips_below(lam.parts))
            assert bound[lam.parts] < 2 ** (hl._ROW_BITS - 1), lam
    with pytest.raises(ValueError):
        hl_principal_poly([13])
    with pytest.raises(ValueError):
        hl_principal_poly([7, 6])


def test_fake_degree_is_the_cleared_hook_product():
    for z in _POLY_ZS:
        for mu in _all_partitions(7):
            want = pochhammer_cd(z, z, mu.size) * _hook_product(mu, z)
            assert _horner(hl._fake_degree(mu.parts), z) == want, (mu, z)


def test_fake_degree_division_is_checked():
    with pytest.raises(ValueError):
        hl._over_one_minus_zpow([1, 1], 2)
    with pytest.raises(ValueError):
        hl._over_one_minus_zpow([1, 0, 0, 1], 2)
    assert hl._over_one_minus_zpow([1, 0, 0, -1], 3) == [1]
    assert hl._over_one_minus_zpow([1, 1, -1, -1], 2) == [1, 1]
