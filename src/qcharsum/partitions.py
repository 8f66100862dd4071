"""Partition combinatorics: enumeration, hooks, statistics, Gaussian binomial rows.

Partitions are immutable weakly-decreasing tuples of positive integers; the
empty partition is the unique partition of 0.  Enumeration order is reverse
lexicographic — (n) first, (1^n) last — which is a linear extension of
dominance order (needed for unitriangular transition matrices downstream).
"""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """A partition stored as its weakly decreasing tuple of parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        pts = tuple(int(p) for p in parts)
        for i, p in enumerate(pts):
            if p < 1:
                raise ValueError(f"parts must be positive integers: {pts}")
            if i and pts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {pts}")
        self.parts = pts

    # -- basic queries ------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def ell(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        out = []
        for j in range(self.parts[0]):
            out.append(sum(1 for p in self.parts if p > j))
        return Partition(out)

    def hooks(self) -> tuple:
        """All hook lengths h(b), one per cell, as a tuple (row-major order)."""
        conj = self.conjugate().parts
        out = []
        for i, p in enumerate(self.parts):
            for j in range(p):
                out.append(p - j + conj[j] - i - 1)
        return tuple(out)

    def n_stat(self) -> int:
        """n(lambda) = sum over i of (i-1)*lambda_i."""
        return sum(i * p for i, p in enumerate(self.parts))

    @property
    def ell_odd(self) -> int:
        return sum(1 for p in self.parts if p % 2 == 1)

    def odd_part(self) -> "Partition":
        return Partition([p for p in self.parts if p % 2 == 1])

    def even_part(self) -> "Partition":
        return Partition([p for p in self.parts if p % 2 == 0])

    def mults(self) -> dict:
        out: dict = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out


def enumerate_partitions(n: int) -> list:
    """All partitions of n, reverse-lexicographically: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return [Partition(p) for p in _parts_lists(n, n)]


def _parts_lists(n: int, maxpart: int):
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _parts_lists(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_up_to(n: int) -> list:
    """All partitions of size 0..n, grouped by size in reverse-lex order."""
    out = []
    for k in range(n + 1):
        out.extend(enumerate_partitions(k))
    return out


@lru_cache(maxsize=None)
def _gauss_row(n: int) -> tuple:
    """Row n of the t-Pascal triangle: integer coefficient tuples for [n, k]_t."""
    if n == 0:
        return ((1,),)
    prev = _gauss_row(n - 1)
    row = [(1,)]
    for k in range(1, n):
        # [n, k] = [n-1, k-1] + t^k * [n-1, k]
        a = prev[k - 1]
        b = prev[k]
        width = max(len(a), k + len(b))
        co = [0] * width
        for i, c in enumerate(a):
            co[i] += c
        for i, c in enumerate(b):
            co[k + i] += c
        row.append(tuple(co))
    row.append((1,))
    return tuple(row)
