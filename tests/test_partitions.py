"""Partition enumeration, statistics, and Gaussian binomial rows."""

import pytest

from qcharsum.partitions import Partition, _gauss_row, enumerate_partitions, partitions_up_to


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size: prefix sums of lam >= mu.
    The reference for the enumeration order here and the Kostka-Foulkes
    triangularity in test_hl.py."""
    assert lam.size == mu.size
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam.parts[i] if i < len(lam) else 0
        b += mu.parts[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _partition_count_oracle(n: int) -> int:
    """Classic dynamic program, independent of the enumeration order."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_counts_match_dp_oracle():
    for n in range(13):
        assert len(enumerate_partitions(n)) == _partition_count_oracle(n)


def test_known_counts():
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(10)) == 42


def test_reverse_lexicographic_order():
    for n in (5, 7):
        parts = [lam.parts for lam in enumerate_partitions(n)]
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert parts == sorted(parts, reverse=True)


def test_partitions_up_to():
    every = partitions_up_to(6)
    assert len(every) == sum(_partition_count_oracle(k) for k in range(7))
    assert all(lam.size <= 6 for lam in every)


def test_conjugate_is_an_involution():
    for lam in partitions_up_to(8):
        assert lam.conjugate().conjugate() == lam


def test_conjugate_example():
    assert Partition([4, 2, 1]).conjugate() == Partition([3, 2, 1, 1])


def test_hooks_example():
    assert sorted(Partition([2, 1]).hooks()) == [1, 1, 3]
    assert sorted(Partition([3, 2]).hooks()) == [1, 1, 2, 3, 4]


def test_hook_sum_identity():
    # sum of hooks = n(lam) + n(lam') + |lam|
    for lam in partitions_up_to(8):
        lhs = sum(lam.hooks())
        assert lhs == lam.n_stat() + lam.conjugate().n_stat() + lam.size


def test_parity_split():
    lam = Partition([5, 4, 3, 3, 2])
    assert lam.odd_part() == Partition([5, 3, 3])
    assert lam.even_part() == Partition([4, 2])
    assert lam.ell_odd == 3
    assert lam.mults() == {5: 1, 4: 1, 3: 2, 2: 1}


def test_invalid_parts_rejected():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_dominance():
    a, b = Partition([3, 1]), Partition([2, 2])
    assert dominates(a, b)
    assert not dominates(b, a)
    assert dominates(a, a)
    # incomparable pair
    c, d = Partition([4, 1, 1]), Partition([3, 3])
    assert not dominates(c, d) or not dominates(d, c)


def test_enumeration_refines_dominance():
    # the listing must put lam before mu whenever lam strictly dominates mu
    for n in (6, 7):
        order = enumerate_partitions(n)
        pos = {lam.parts: i for i, lam in enumerate(order)}
        for lam in order:
            for mu in order:
                if lam != mu and dominates(lam, mu):
                    assert pos[lam.parts] < pos[mu.parts]


def test_gaussian_binomial_values():
    # _gauss_row(n)[k] is the coefficient tuple of [n choose k]_t
    assert _gauss_row(4)[2] == (1, 1, 2, 1, 1)
    assert _gauss_row(5)[0] == (1,)
    assert _gauss_row(3)[1] == (1, 1, 1)


def test_gaussian_binomial_symmetry_and_pascal():
    for n in range(1, 8):
        row, prev = _gauss_row(n), _gauss_row(n - 1)
        for k in range(n + 1):
            assert row[k] == row[n - k]
            if 0 < k:
                # q-Pascal rule: [n,k] = [n-1,k] + t^(n-k) [n-1,k-1]
                rhs = [0] * len(row[k])
                for i, c in enumerate(prev[k] if k <= n - 1 else ()):
                    rhs[i] += c
                for i, c in enumerate(prev[k - 1]):
                    rhs[n - k + i] += c
                assert row[k] == tuple(rhs)
