"""Expansion of infinite products into truncated series.

Two product shapes cover everything needed here:

* single-index geometric products  prod_{i>=0} (1 + sign*c*r^i*u^a)^(+-1),
  expanded by Euler's two q-exponential identities, giving one closed
  rational-function coefficient per power of u;
* products over index pairs  prod_{1<=i<j} (1 + sign*v*x^(i+j))^E,
  expanded through log -> geometric power sums -> exp, which is exact at
  every truncation order (truncating the index range instead would give
  wrong coefficients at every order).

The ratio r (resp. base x) must vanish as q grows so the coefficient sums
are honest rational functions.  Coefficient scalars may come from Q(q) or
from the SymPoly ring when the expansion carries the auxiliary symbols.

The named generating functions are expanded once per process and parity.
Coefficient k of each expansion depends only on input coefficients <= k
(Euler's closed forms, log -> exp, and series products all truncate that
way), so a memo keyed by builder and e keeps only the highest-order series
built so far and answers a lower order by truncating it; a higher order
expands afresh and replaces the entry.  The four unitary names share one
`_u_real_gf` and one `_u_invol_gf` expansion per parity.  The memo holds
at most six series; `_GF_MEMO.clear()` empties it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from .exact import RatFunc, Series, qpow
from .polycount import parity_e


def _check_small(r: RatFunc, what: str) -> None:
    if not isinstance(r, RatFunc):
        raise TypeError(f"{what} must be a RatFunc, got {type(r).__name__}")
    val = r.valuation_at_infinity()
    if val is None or val < 1:
        raise ValueError(f"{what} must vanish at large q (valuation >= 1), got {r}")


def _one_series(order: int) -> Series:
    return Series.constant(RatFunc.const(1), order)


@dataclass(frozen=True)
class GeometricFactorSpec:
    """prod_{i>=0} (1 + sign*coeff_base*ratio^i*u^u_power)^exponent_sign."""

    sign: int
    u_power: int
    coeff_base: object  # RatFunc or SymPoly scalar
    ratio: RatFunc
    exponent_sign: int

    def __post_init__(self):
        if self.sign not in (1, -1) or self.exponent_sign not in (1, -1):
            raise ValueError("sign and exponent_sign must be +1 or -1")
        if self.u_power < 1:
            raise ValueError("u_power must be a positive integer")
        _check_small(self.ratio, "ratio")


@dataclass(frozen=True)
class PairProductSpec:
    """prod over 1 <= i < j of (1 + sign*v_coeff*base^(i+j)*u^u_power)^exponent."""

    sign: int
    v_coeff: object  # RatFunc or SymPoly scalar; may have negative valuation
    u_power: int
    base: RatFunc
    exponent: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.u_power < 1:
            raise ValueError("u_power must be a positive integer")
        _check_small(self.base, "base")


def euler_expand(spec: GeometricFactorSpec, order: int) -> Series:
    """Expand a GeometricFactorSpec as a series in u up to `order`."""
    one = RatFunc.const(1)
    a = spec.u_power
    w = spec.coeff_base * spec.sign if spec.exponent_sign == 1 else spec.coeff_base * (-spec.sign)
    zero = one * 0
    co = [zero] * (order + 1)
    co[0] = one
    wl = one + zero  # w^l, promoted lazily on first multiply
    rtri = one  # ratio^(l(l-1)/2)
    dprod = one  # (1-r)(1-r^2)...(1-r^l)
    rl = one  # ratio^l
    for l in range(1, order // a + 1):
        wl = wl * w
        rl = rl * spec.ratio
        dprod = dprod * (one - rl)
        if spec.exponent_sign == 1:
            co[a * l] = wl * rtri / dprod
            rtri = rtri * rl
        else:
            co[a * l] = wl / dprod
    return Series(co, order)


def pair_expand(spec: PairProductSpec, order: int) -> Series:
    """Expand a PairProductSpec as a series in u up to `order`."""
    one = RatFunc.const(1)
    if spec.exponent == 0:
        return _one_series(order)
    a = spec.u_power
    zero = RatFunc.const(0)
    log_co = [zero] * (order + 1)
    v = spec.v_coeff * spec.sign
    vm = one + zero * 0
    xm = one
    for m in range(1, order // a + 1):
        vm = vm * v
        xm = xm * spec.base
        # sum over 1 <= i < j of x^(m(i+j)) = x^3m / ((1-x^m)(1-x^2m))
        tail = (xm ** 3) / ((one - xm) * (one - xm * xm))
        log_co[a * m] = vm * tail * Fraction(spec.exponent * (-1) ** (m + 1), m)
    return Series(log_co, order).exp()


def product_of(factors) -> Series:
    out = None
    for f in factors:
        out = f if out is None else out * f
    if out is None:
        raise ValueError("empty product")
    return out


# ---------------------------------------------------------------------------
# Named generating functions.
#
# x below always denotes -1/q, so that x^i = 1/(-q)^i exactly.
# ---------------------------------------------------------------------------

GF_NAMES = (
    "gl_real_gf",
    "gl_invol_gf",
    "u_real_gf",
    "u_invol_gf",
    "u_eps_plus_gf",
    "u_eps_minus_gf",
)


_GF_MEMO: dict = {}


def _truncating_memo(build):
    """Memoize build(e, order) by (build, e), keeping the highest order."""

    @wraps(build)
    def memoized(e: int, order: int) -> Series:
        key = (build, e)
        cached = _GF_MEMO.get(key)
        if cached is None or cached.order < order:
            cached = _GF_MEMO[key] = build(e, order)
        if cached.order == order:
            return cached
        return Series(cached.co[:order + 1], order)

    return memoized


@_truncating_memo
def _gl_gf(e: int, order: int) -> Series:
    invq = qpow(-1)
    up = euler_expand(GeometricFactorSpec(1, 1, invq, invq, 1), order) ** e
    down = euler_expand(GeometricFactorSpec(-1, 2, invq, invq, -1), order)
    return up * down


@_truncating_memo
def _u_invol_gf(e: int, order: int) -> Series:
    x = -qpow(-1)
    up = euler_expand(GeometricFactorSpec(1, 1, x, x, 1), order) ** e
    down = euler_expand(GeometricFactorSpec(-1, 2, x, x, -1), order)
    return up * down


@_truncating_memo
def _u_real_gf(e: int, order: int) -> Series:
    x = -qpow(-1)
    xinv = x.reciprocal()
    return product_of([
        euler_expand(GeometricFactorSpec(1, 1, x, x, 1), order) ** e,
        euler_expand(GeometricFactorSpec(1, 2, x, x * x, -1), order),
        pair_expand(PairProductSpec(1, RatFunc.const(1), 2, x, -e + 1), order),
        pair_expand(PairProductSpec(-1, RatFunc.const(1), 2, x, e), order),
        pair_expand(PairProductSpec(1, xinv, 2, x, -1), order),
    ])


def _half_comb(total: Series, invol: Series, plus: bool) -> Series:
    n = total.order
    half = Fraction(1, 2)
    co = []
    for k in range(n + 1):
        sgn = -1 if (k * (k - 1) // 2) % 2 else 1
        if not plus:
            sgn = -sgn
        co.append((total.co[k] + invol.co[k] * sgn) * half)
    return Series(co, n)


def named_gf(name: str, parity: str, order: int) -> Series:
    """One of the standing generating functions, expanded to `order`.

    All are series in u whose u^n coefficient, multiplied by the appropriate
    group-order prefactor, yields a real-character degree sum or involution
    count; parity selects e=1 (even characteristic) or e=2 (odd).
    """
    e = parity_e(None, parity)
    if name == "gl_real_gf" or name == "gl_invol_gf":
        return _gl_gf(e, order)
    if name == "u_invol_gf":
        return _u_invol_gf(e, order)
    if name == "u_real_gf":
        return _u_real_gf(e, order)
    if name == "u_eps_plus_gf":
        return _half_comb(_u_real_gf(e, order), _u_invol_gf(e, order), True)
    if name == "u_eps_minus_gf":
        return _half_comb(_u_real_gf(e, order), _u_invol_gf(e, order), False)
    raise ValueError(f"unknown generating function {name!r}; known: {GF_NAMES}")
