"""Infinite products as integer Eulerian series.

Every product here is a series sum_n c_n u^n whose coefficients are
rational in a base x.  It is stored by its scaled coefficients
P_n = (x;x)_n c_n, with (x;x)_n = (1 - x)(1 - x^2)...(1 - x^n), which are
integer polynomials in x, each a dict {exponent: int} without zero entries.
Two such series multiply by the q-binomial convolution

    (x;x)_n (A B)_n = sum_k [n choose k]_x A_k B_(n-k),

over the Gaussian rows of partitions._gauss_row, in integers only.  Two
factor shapes cover everything needed here; each is expanded by a function
that takes the factor's fields as its arguments:

* Euler products  prod_{i>=0} (1 + sign*x^c*x^(r*i)*u^a)^(+-1), expanded by
  euler_expand(sign, a, c, r, +-1) through the q-binomial theorem: at
  n = a*l, P_n is (+-sign)^l x^(c*l) times x^(r*binom(l,2)) (exponent +1
  only) times (x;x)_n/(x^r;x^r)_l, which is the product of 1 - x^j over the
  j <= n left after removing r, 2r, ..., lr (so 1 <= r <= a keeps it a
  polynomial);
* pair products  prod_{1<=i<j} (1 + sign*x^c*x^(i+j)*u^a)^E, expanded by
  pair_expand(sign, c, a, E) through log -> exp, which is exact at every
  truncation order (truncating the index range instead would give wrong
  coefficients at every order).
  The log has the u^(am) coefficient E (-1)^(m+1) (sign x^c)^m x^(3m) /
  (m (1-x^m)(1-x^2m)), and n c_n = sum_k k L_k c_(n-k) becomes
  n P_n = sum_m a E (-1)^(m+1) (sign x^c)^m x^(3m) W P_(n-am) with
  W = (1-x^(n-am+1))...(1-x^n) / ((1-x^m)(1-x^2m)), a polynomial for a >= 2
  (the am factors hold two multiples of m, one of them a multiple of 2m).

A series is lazy: coefficient n is computed on its first request, from
inputs <= n, so asking for a higher order extends it where it stopped.
Exponents only ever add, so a caller may ride symbols that each factor
carries homogeneously (its power tied to the power of u) in high bits of
the exponent: the Warnaar check of verify packs a^i b^j t^k x^e that way.

The named generating functions are read at x = 1/q (gl) or x = -1/q (u).
The gl series at x = -1/q is the unitary involution series, so one integer
series per e serves both.  The two builders, _invol_gf and _u_real_gf, are
lru_caches keyed by e, so at most four series are held (cache_clear() on
each empties them); each is built once per process and extended on demand.
The eps halves are formed on each call from the memoized real and
involution series, halved exactly in integers.  named_gf reads a series
over Q(q), c_n = P_n/(x;x)_n, converting each coefficient of a memoized
series once.  named_gf_value reads the u^n coefficient times
q^binom(n+1,2) (x;x)_n, which is the gl prefactor or the unsigned u
prefactor: q^binom(n+1,2) P_n(x), one re-indexing.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .exact import RatFunc, Series
from .partitions import _gauss_row
from .polycount import parity_e


# The polynomial helpers below share no code with hl's, whose F_lam the
# Warnaar check holds these products against, nor with the terms of the
# closed-form involution counts (chars._involution_terms).

def _add_product(acc: dict, a: dict, b: dict) -> None:
    """acc += a*b for polynomials {exponent: int}."""
    get = acc.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb


def _one_minus_powers(exponents) -> list:
    """prod (1 - x^j) over the exponents j, as a coefficient list."""
    co = [1]
    for j in exponents:
        co += [0] * j
        for i in range(len(co) - 1, j - 1, -1):
            co[i] -= co[i - j]
    return co


def _over_one_minus(co: list, m: int) -> list:
    """co / (1 - x^m) for a coefficient list that 1 - x^m divides."""
    out = co[:]
    for i in range(m, len(out)):
        out[i] += out[i - m]
    if any(out[len(out) - m:]):
        raise ArithmeticError(f"1 - x^{m} does not divide the polynomial")
    return out[:len(out) - m]


def _shifted(co: list, shift: int, scalar: int) -> dict:
    """scalar * x^shift * co as a polynomial dict."""
    return {shift + i: scalar * c for i, c in enumerate(co) if c}


class EulerSeries:
    """A series in u stored by its scaled coefficients P_n = (x;x)_n c_n,
    computed on demand by next_coefficient(n) once P_0..P_(n-1) are known."""

    __slots__ = ("co", "_next", "_read")

    def __init__(self, next_coefficient):
        self.co = []
        self._next = next_coefficient
        self._read = {}  # sign -> the longest Series read at x = sign/q

    def coefficient(self, n: int) -> dict:
        co = self.co
        while len(co) <= n:
            co.append(self._next(len(co)))
        return co[n]

    def __mul__(self, other: "EulerSeries") -> "EulerSeries":
        def product(n):
            row = _gauss_row(n)
            acc: dict = {}
            for k in range(n + 1):
                a, b = self.coefficient(k), other.coefficient(n - k)
                if a and b:
                    ab: dict = {}
                    _add_product(ab, a, b)
                    _add_product(acc, ab, dict(enumerate(row[k])))
            return {e: c for e, c in acc.items() if c}
        return EulerSeries(product)

    def as_series(self, order: int, sign: int) -> Series:
        """The series over Q(q) at x = sign/q, to `order`.  Each coefficient
        is converted once: the longest series read so far is kept."""
        done = self._read.get(sign)
        if done is None or done.order < order:
            co = list(done.co) if done else []
            for n in range(len(co), order + 1):
                p = self.coefficient(n)
                top = max([n * (n + 1) // 2, *p])
                den = enumerate(_one_minus_powers(range(1, n + 1)))
                co.append(RatFunc.from_ic(_in_q(p.items(), sign, top), _in_q(den, sign, top)))
            done = self._read[sign] = Series(co, order)
        return done if done.order == order else Series(done.co[:order + 1], order)


def _in_q(terms, sign: int, shift: int) -> list:
    """q^shift p(sign/q), as an integer coefficient list, for the polynomial
    p in x with the (exponent, coefficient) terms, of degree <= shift."""
    co = [0] * (shift + 1)
    for e, c in terms:
        co[shift - e] += -c if sign < 0 and e % 2 else c
    return co


def euler_expand(sign: int, u_power: int, coeff: int, ratio: int,
                 exponent_sign: int) -> EulerSeries:
    """prod_{i>=0} (1 + sign*x^coeff*x^(ratio*i)*u^u_power)^exponent_sign,
    expanded by the q-binomial theorem."""
    if sign not in (1, -1) or exponent_sign not in (1, -1):
        raise ValueError("sign and exponent_sign must be +1 or -1")
    if u_power < 1:
        raise ValueError("u_power must be a positive integer")
    if not 1 <= ratio <= u_power:
        raise ValueError(f"ratio must be x^r with 1 <= r <= u_power, got r={ratio}")
    plus = exponent_sign == 1
    lead = sign if plus else -sign

    def coefficient(n):
        l, rest = divmod(n, u_power)
        if rest:
            return {}
        kept = (j for j in range(1, n + 1) if j % ratio or j > ratio * l)
        shift = coeff * l + (ratio * l * (l - 1) // 2 if plus else 0)
        return _shifted(_one_minus_powers(kept), shift, lead ** l)
    return EulerSeries(coefficient)


def pair_expand(sign: int, coeff: int, u_power: int, exponent: int) -> EulerSeries:
    """prod over 1 <= i < j of (1 + sign*x^coeff*x^(i+j)*u^u_power)^exponent,
    expanded by log -> exp in the scaled coefficients."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if u_power < 2:
        raise ValueError("u_power must be at least 2")
    a = u_power

    def coefficient(n):
        if n == 0:
            return {0: 1}
        acc: dict = {}
        for m in range(1, n // a + 1):
            prev = series.co[n - a * m]
            if not prev:
                continue
            window = _one_minus_powers(range(n - a * m + 1, n + 1))
            w = _over_one_minus(_over_one_minus(window, m), 2 * m)
            scalar = a * exponent * (-1) ** (m + 1) * sign ** m
            _add_product(acc, prev, _shifted(w, (coeff + 3) * m, scalar))
        out = {}
        for e, c in acc.items():
            if c:
                quo, rem = divmod(c, n)
                if rem:
                    raise ArithmeticError(f"pair product: u^{n} coefficient not integral")
                out[e] = quo
        return out
    series = EulerSeries(coefficient)  # the recurrence reads its own coefficients
    return series


def product_of(factors) -> EulerSeries:
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    return reduce(EulerSeries.__mul__, factors)


# ---------------------------------------------------------------------------
# Named generating functions.
# ---------------------------------------------------------------------------

GF_NAMES = (
    "gl_real_gf",
    "gl_invol_gf",
    "u_real_gf",
    "u_invol_gf",
    "u_eps_plus_gf",
    "u_eps_minus_gf",
)


@lru_cache(maxsize=None)
def _invol_gf(e: int) -> EulerSeries:
    """prod_{i>=1} (1 + x^i u)^e / (1 - x^i u^2): the gl series at x = 1/q,
    the unitary involution series at x = -1/q."""
    up = euler_expand(1, 1, 1, 1, 1)
    return product_of([up] * e + [euler_expand(-1, 2, 1, 1, -1)])


@lru_cache(maxsize=None)
def _u_real_gf(e: int) -> EulerSeries:
    """The unitary real-sum series, read at x = -1/q."""
    up = euler_expand(1, 1, 1, 1, 1)
    return product_of([up] * e + [
        euler_expand(1, 2, 1, 2, -1),
        pair_expand(1, 0, 2, 1 - e),
        pair_expand(-1, 0, 2, e),
        pair_expand(1, -1, 2, -1),
    ])


def _half_comb(total: EulerSeries, invol: EulerSeries, plus: bool) -> EulerSeries:
    """(total +- (-1)^binom(n,2) invol)/2 at u^n, halved exactly."""
    def half(n):
        sign = (-1) ** (n * (n - 1) // 2) * (1 if plus else -1)
        acc = dict(total.coefficient(n))
        for e, c in invol.coefficient(n).items():
            acc[e] = acc.get(e, 0) + sign * c
        if any(c % 2 for c in acc.values()):
            raise ArithmeticError(f"eps half: odd coefficient at u^{n}")
        return {e: c // 2 for e, c in acc.items() if c}
    return EulerSeries(half)


def _named(name: str, parity: str) -> tuple:
    """(scaled series, sign) of a named generating function, read at x = sign/q."""
    e = parity_e(None, parity)
    if name == "gl_real_gf" or name == "gl_invol_gf":
        return _invol_gf(e), 1
    if name == "u_invol_gf":
        return _invol_gf(e), -1
    if name == "u_real_gf":
        return _u_real_gf(e), -1
    if name == "u_eps_plus_gf" or name == "u_eps_minus_gf":
        return _half_comb(_u_real_gf(e), _invol_gf(e), name == "u_eps_plus_gf"), -1
    raise ValueError(f"unknown generating function {name!r}; known: {GF_NAMES}")


def named_gf(name: str, parity: str, order: int) -> Series:
    """One of the standing generating functions, expanded to `order`.

    All are series in u whose u^n coefficient, multiplied by the appropriate
    group-order prefactor, yields a real-character degree sum or involution
    count; parity selects e=1 (even characteristic) or e=2 (odd).
    """
    series, sign = _named(name, parity)
    return series.as_series(order, sign)


def named_gf_value(name: str, parity: str, n: int) -> RatFunc:
    """The u^n coefficient of named_gf(name, parity, n) times
    q^binom(n+1,2) (x;x)_n, the gl prefactor (x = 1/q) or the unsigned u
    prefactor (x = -1/q): q^binom(n+1,2) P_n(x), by one re-indexing."""
    series, sign = _named(name, parity)
    p, shift = series.coefficient(n), n * (n + 1) // 2
    top = max([shift, *p])
    return RatFunc.from_ic(_in_q(p.items(), sign, top), (0,) * (top - shift) + (1,))
