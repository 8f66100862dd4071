"""Counting polynomial classes underlying conjugacy data of the two groups.

For the general linear flavor the objects are monic irreducible polynomials
over F_q; the involution phi -> phi* (reverse the coefficients, normalize,
i.e. act by x -> 1/x on the roots) is defined off t and splits degree-d
irreducibles into self-conjugate ones, N*(d, q), and conjugate pairs,
M*(d, q).  The unitary flavor replaces the Frobenius orbit x -> x^q with
the twisted map x -> x^(-q); the analogous counts are written with the
same accessors under flavor="u".

Each count has one route: closed formulas symbolic in q (Moebius for the
plain counts; a divisor recursion for the starred counts derived from two
infinite-product identities whose truncations are themselves re-verified
elsewhere), where the starred counts need the parity of q as an extra
argument e in {1, 2} (e = gcd(2, q-1)).  The plain counts are symbolic
only.  count_selfdual_and_pairs is the one count that also accepts an
integer q: its memoized symbolic counts, for q's parity, evaluated at q
(_finish, the evaluation helper chars shares).  The brute-force orbit
enumeration over the actual root groups is the independent oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import RatFunc


def divisors(n: int):
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _as_scalar(q) -> None:
    """The one check of a q argument in the library: an integer >= 2, or
    None for symbolic.  Every entry point that accepts an integer q calls it."""
    if q is not None and (not isinstance(q, int) or q < 2):
        raise ValueError("q must be an integer >= 2 or None for symbolic")


def to_int(x) -> int:
    """An int or Fraction x as an int; ArithmeticError if it is not an integer."""
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


def _finish(x, q):
    """Symbolic results stay as they are; at integer q a RatFunc is evaluated
    and every result becomes an int."""
    if q is None:
        return x
    if isinstance(x, RatFunc):
        x = x.eval(q)
    return to_int(x)


@lru_cache(maxsize=None)
def count_irreducible(d: int) -> RatFunc:
    """Number of monic irreducible polynomials of degree d over F_q, a
    RatFunc in q.  Memoized: the values are immutable, so a repeat call
    returns the same object.
    """
    total = RatFunc.const(0)
    for r in divisors(d):
        mu = mobius(r)
        if mu:
            total = total + mu * RatFunc.x() ** (d // r)
    return total / d


@lru_cache(maxsize=None)
def count_u_irreducible(d: int) -> RatFunc:
    """Number of twisted-orbit classes of degree d (unitary flavor), a
    RatFunc in q; memoized."""
    total = RatFunc.const(0)
    for r in divisors(d):
        mu = mobius(r)
        if mu:
            k = d // r
            total = total + mu * (RatFunc.x() ** k - (-1) ** k)
    return total / d


@dataclass(frozen=True)
class ClassCounts:
    """Counts at a fixed degree: all classes, self-conjugate, and pairs."""

    flavor: str
    d: int
    q: object  # int, or None for symbolic
    n_plain: object  # N(d, q) or its unitary analogue
    n_selfdual: object  # N*(d, q)
    m_pairs: object  # M*(d, q)


def parity_e(q, parity) -> int:
    """e = 1 for even q, 2 for odd q; symbolic q (None) takes it from parity."""
    if q is not None:
        e = 1 if q % 2 == 0 else 2
        if parity is not None and {1: "even", 2: "odd"}[e] != parity:
            raise ValueError(f"parity {parity!r} contradicts q={q}")
        return e
    if parity == "even":
        return 1
    if parity == "odd":
        return 2
    raise ValueError(
        f"symbolic evaluation needs parity='even' or 'odd', got {parity!r}")


def _check_flavor(flavor: str) -> None:
    if flavor not in ("gl", "u"):
        raise ValueError(f"flavor must be 'gl' or 'u', got {flavor!r}")


@lru_cache(maxsize=None)
def _nstar_even(flavor: str, m: int, e: int) -> RatFunc:
    """N*(2m, q): self-conjugate count in even degree 2m, symbolic in q.

    Solves m*N*(2m) = target(m) - sum over proper divisors d of m with m/d
    odd of d*N*(2d), where the divisor-sum value comes from subtracting the
    logarithms of the two product identities:
        gl: sum_{d | m, m/d odd} d N*(2d) = (q^m - e + 1)/2
        u:  sum_{d | m, m/d odd} d N*(2d) = (q^m - e + (-1)^m)/2
    """
    half = Fraction(1, 2)
    if flavor == "gl":
        target = (RatFunc.x() ** m - e + 1) * half
    else:
        target = (RatFunc.x() ** m - e + (-1) ** m) * half
    acc = target
    for d in divisors(m):
        if d < m and (m // d) % 2 == 1:
            acc = acc - d * _nstar_even(flavor, d, e)
    return acc / m


def count_selfdual_and_pairs(d: int, q=None, flavor: str = "gl", parity=None) -> ClassCounts:
    """ClassCounts at degree d; symbolic when q is None (parity required).

    Memoized by (d, q, flavor, e) with e from parity_e, so a repeat call,
    with parity given by keyword or by position, returns the same object.
    """
    _check_flavor(flavor)
    return _class_counts(d, q, flavor, parity_e(q, parity))


@lru_cache(maxsize=None)
def _class_counts(d: int, q, flavor: str, e: int) -> ClassCounts:
    """The counts at degree d for the parity e, symbolic in q; at integer q
    the three symbolic counts evaluated."""
    _as_scalar(q)
    if q is not None:
        sym = _class_counts(d, None, flavor, e)
        return ClassCounts(flavor=flavor, d=d, q=q, n_plain=_finish(sym.n_plain, q),
                           n_selfdual=_finish(sym.n_selfdual, q),
                           m_pairs=_finish(sym.m_pairs, q))
    plain = count_irreducible(d) if flavor == "gl" else count_u_irreducible(d)
    if d % 2 == 1:
        nstar = RatFunc.const(e if d == 1 else 0)
    else:
        nstar = _nstar_even(flavor, d // 2, e)
    # level sum: sum_{d' | m} d' * (N*(2d') + M*(d')) = q^m - e, at m = d,
    # gives M*(d) = A_d - N*(2d) with A_1 = q - e and A_d = N(d, q) for d > 1.
    if d == 1:
        a_d = RatFunc.x() - e
    else:
        a_d = count_irreducible(d)
    pairs = a_d - _nstar_even(flavor, d, e)
    return ClassCounts(flavor=flavor, d=d, q=q, n_plain=plain, n_selfdual=nstar, m_pairs=pairs)


# ---------------------------------------------------------------------------
# Brute-force oracle.
#
# Degree-d classes correspond to orbits of size d of the relevant power map
# acting on a cyclic group:
#   gl: i -> q*i on Z/(q^d - 1)         (roots in F_{q^d}^x; degree t itself
#       is the one extra monic linear with zero constant term),
#   u:  i -> -q*i on Z/(q^d - (-1)^d)   (the fixed points of the d-th twisted
#       Frobenius power form exactly this cyclic subgroup of the root field).
# A class is self-conjugate iff the orbit is closed under i -> -i.
# ---------------------------------------------------------------------------

_BRUTE_MODULUS_BUDGET = 2 * 10 ** 6


def brute_poly_census(d: int, q: int, flavor: str = "gl") -> ClassCounts:
    """Count degree-d classes by explicit orbit enumeration."""
    _check_flavor(flavor)
    if not isinstance(q, int) or q < 2:
        raise ValueError("q must be an integer >= 2")
    if d < 1 or d > 6 or q > 9:
        raise ValueError("brute census supports 1 <= d <= 6 and q <= 9")
    if flavor == "gl":
        modulus = q ** d - 1
        mult = q
    else:
        modulus = q ** d - (-1) ** d
        mult = -q
    if modulus > _BRUTE_MODULUS_BUDGET:
        raise ValueError(f"orbit modulus {modulus} exceeds census budget")
    seen = bytearray(modulus)
    n_plain = 0
    n_selfdual = 0
    n_paired = 0
    for start in range(modulus):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = 1
        i = start * mult % modulus
        while i != start:
            orbit.append(i)
            seen[i] = 1
            i = i * mult % modulus
        if len(orbit) != d:
            continue
        n_plain += 1
        if (-start) % modulus in orbit:
            n_selfdual += 1
        else:
            n_paired += 1
    if flavor == "gl" and d == 1:
        n_plain += 1  # the single monic linear with zero constant term
    if n_paired % 2:
        raise AssertionError("non-self-conjugate orbits failed to pair up")
    return ClassCounts(flavor=flavor, d=d, q=q, n_plain=n_plain,
                       n_selfdual=n_selfdual, m_pairs=n_paired // 2)
