"""Exact arithmetic: q-polynomials, rational functions, truncated series.

Everything in this package reduces to arithmetic in the field Q(q) of
rational functions over the rationals, plus truncated power series in a
formal variable u over such coefficients.  No floats, ever; equality is
structural equality of canonical forms.  q is the only indeterminate of
Q(q); a polynomial carries no symbol of its own, so a Kostka-Foulkes or
Gaussian-binomial polynomial in t is a QPoly too, printed in q.

Canonical forms
---------------
QPoly      coefficients are exact rationals, stored as a primitive integer
           coefficient tuple `ic` (little-endian, positive leading entry,
           trailing entry nonzero) times a single Fraction `content`.  The
           zero polynomial is `ic=(), content=0`.
RatFunc    a pair of integer coefficient tuples n/d (little-endian, no
           trailing zero), coprime in Z[q], with gcd of all their entries 1
           and d[-1] > 0; zero is n=(), d=(1,).  This is FLINT's fmpz_poly_q
           form.  `num`/`den` give the value as QPolys over a monic den.
Series     explicit truncation order; length of the coefficient tuple is
           order + 1; arithmetic truncates to the minimum operand order.
SymPoly    polynomials in the auxiliary symbols (a, b, t) whose
           coefficients live in Q(q).  Only numerators ever need the extra
           symbols here, so division is restricted to Q(q)-scalars.

Fractions of integers are `fractions.Fraction` (exposed as `Rat`); the
integer polynomial inner loops live in `qcharsum._kernel`, except that gcds
and exact divisions against a monomial q^k are taken here without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from . import _kernel as _k

Rat = Fraction


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive g with a/g, b/g coprime integers (a, b not both zero)."""
    num = _igcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // _igcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, starting from `one`."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


class QPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("ic", "content")

    def __init__(self, coeffs=()):
        fracs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        while fracs and not fracs[-1]:
            fracs.pop()
        if not fracs:
            self.ic = ()
            self.content = Fraction(0)
        else:
            den = 1
            for c in fracs:
                den = den * c.denominator // _igcd(den, c.denominator)
            ints = [c.numerator * (den // c.denominator) for c in fracs]
            g = 0
            for c in ints:
                g = _igcd(g, c)
            if ints[-1] < 0:
                g = -g
            self.ic = tuple(c // g for c in ints)
            self.content = Fraction(g, den)

    @classmethod
    def _mk(cls, ic: tuple, content: Fraction) -> "QPoly":
        p = cls.__new__(cls)
        p.ic = ic
        p.content = content
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls._mk((), Fraction(0))

    @classmethod
    def one(cls) -> "QPoly":
        return cls._mk((1,), Fraction(1))

    @classmethod
    def x(cls) -> "QPoly":
        return cls._mk((0, 1), Fraction(1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "QPoly":
        c = Fraction(c)
        if not c:
            return cls.zero()
        return cls._mk((0,) * k + (1,), c)

    # -- queries ----------------------------------------------------------

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ic) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ic

    def __bool__(self) -> bool:
        return bool(self.ic)

    @property
    def is_one(self) -> bool:
        return self.ic == (1,) and self.content == 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.ic):
            return self.content * self.ic[i]
        return Fraction(0)

    @property
    def coefficients(self) -> tuple:
        return tuple(self.content * c for c in self.ic)

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QPoly):
            return x
        if isinstance(x, (int, Fraction)):
            c = Fraction(x)
            return QPoly._mk((1,), c) if c else QPoly.zero()
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = _frac_gcd(self.content, other.content)
        m1 = int(self.content / g)
        m2 = int(other.content / g)
        ints = _k.zz_add(_k.zz_mul_scalar(list(self.ic), m1),
                         _k.zz_mul_scalar(list(other.ic), m2))
        if not ints:
            return QPoly.zero()
        c, prim = _k.zz_primitive(ints)
        if prim[-1] < 0:
            c, prim = -c, [-v for v in prim]
        return QPoly._mk(tuple(prim), g * c)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return QPoly._mk(self.ic, -self.content)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        ic = tuple(_k.zz_mul(list(self.ic), list(other.ic)))
        return QPoly._mk(ic, self.content * other.content)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        return _power(self, n, QPoly.one())

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd over Q (1 for coprime inputs, 0 only for gcd(0, 0))."""
        other = self._coerce(other)
        g = _gcd_ic(self.ic, other.ic)
        if not g:
            return QPoly.zero()
        return QPoly._mk(g, Fraction(1, g[-1]))

    # -- maps ---------------------------------------------------------------

    def eval(self, x):
        """Horner evaluation; x may be any ring element (Fraction, RatFunc, SymPoly)."""
        acc = x * 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    # -- comparisons / output ------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ic == other.ic and self.content == other.content

    def __hash__(self):
        # a constant equals its Fraction (and int), so it hashes as one; any
        # other polynomial equals a RatFunc, so it hashes as that one's pair
        if len(self.ic) <= 1:
            return hash(self.coefficient(0))
        c = self.content
        return hash((tuple(c.numerator * v for v in self.ic), (c.denominator,)))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.ic) - 1, -1, -1):
            c = self.content * self.ic[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                v = "q" if i == 1 else f"q^{i}"
                term = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" + {term}" if c > 0 else f" - {term}")
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({self!s})"


class RatFunc:
    """Element of Q(q), stored as a coprime pair of integer polynomials n/d.

    `num` and `den` read the value back as two QPolys, `den` monic.
    """

    __slots__ = ("n", "d")

    def __init__(self, num=0, den=None):
        if isinstance(num, RatFunc):
            if den is not None:
                raise ValueError("cannot combine a RatFunc numerator with a denominator")
            self.n, self.d = num.n, num.d
            return
        a, b = _pair(num), _pair(1 if den is None else den)
        if a is None or b is None:
            raise TypeError(f"cannot build RatFunc from {type(den if a else num).__name__}")
        r = RatFunc.from_ic(_k.zz_mul(a[0], b[1]), _k.zz_mul(a[1], b[0]))
        self.n, self.d = r.n, r.d

    @classmethod
    def _mk(cls, n: tuple, d: tuple) -> "RatFunc":
        r = cls.__new__(cls)
        r.n = n
        r.d = d
        return r

    @classmethod
    def from_ic(cls, n, d) -> "RatFunc":
        """n/d for integer coefficient sequences n and d (little-endian,
        d nonzero), brought to the canonical form."""
        n, d = tuple(_k.zz_strip(list(n))), tuple(_k.zz_strip(list(d)))
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            return cls._mk((), (1,))
        return _reduced(*_cancel(n, d))

    @classmethod
    def x(cls) -> "RatFunc":
        return cls._mk((0, 1), (1,))

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls._mk(*_pair(c if isinstance(c, (int, Fraction)) else Fraction(c)))

    # -- queries ---------------------------------------------------------

    @property
    def num(self) -> QPoly:
        """The numerator over the monic denominator `den`."""
        return _qpoly_over(self.n, self.d[-1])

    @property
    def den(self) -> QPoly:
        return _qpoly_over(self.d, self.d[-1])

    @property
    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    def valuation_at_infinity(self):
        """deg(den) - deg(num); None for zero.  Positive means vanishing as q grows."""
        if self.is_zero:
            return None
        return len(self.d) - len(self.n)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        p = _pair(x)
        return None if p is None else RatFunc._mk(*p)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.n:
            return other
        if not other.n:
            return self
        n1, d1, n2, d2 = self.n, self.d, other.n, other.d
        if d1 == d2:
            g = d = d1
            n = _k.zz_add(n1, n2)
            if not n:
                return RatFunc._mk((), (1,))
        else:
            # x + y is zero only for equal denominators, so n is nonzero
            g = _gcd_ic(d1, d2)
            if len(g) == 1:
                return _reduced(_k.zz_add(_k.zz_mul(n1, d2), _k.zz_mul(n2, d1)),
                                _k.zz_mul(d1, d2))
            d1r = _divexact_ic(d1, g)
            d2r = _divexact_ic(d2, g)
            n = _k.zz_add(_k.zz_mul(n1, d2r), _k.zz_mul(n2, d1r))
            d = _k.zz_mul(d1, d2r)
        # a common factor of n and d divides g
        h = _gcd_ic(n, g)
        if len(h) > 1:
            n, d = _divexact_ic(n, h), _divexact_ic(d, h)
        return _reduced(n, d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._mk(tuple(-c for c in self.n), self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.n or not other.n:
            return RatFunc._mk((), (1,))
        # cross-cancellation keeps the product reduced over Q
        n1, d2 = _cancel(self.n, other.d)
        n2, d1 = _cancel(other.n, self.d)
        return _reduced(_k.zz_mul(n1, n2), _k.zz_mul(d1, d2))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self.n:
            raise ZeroDivisionError("inverting zero rational function")
        if self.n[-1] < 0:
            return RatFunc._mk(tuple(-c for c in self.d), tuple(-c for c in self.n))
        return RatFunc._mk(self.d, self.n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return _power(self, n, RatFunc.const(1))

    # -- maps -----------------------------------------------------------------

    def eval(self, q0) -> Fraction:
        """The value at q0 = a/b, from b^k p(a/b) = sum_i p_i a^i b^(k-i),
        k = deg p, for p = n and d (_horner)."""
        x = Fraction(q0)
        a, b = x.numerator, x.denominator
        d = _horner(self.d, a, b)
        if not d:
            raise ZeroDivisionError(f"pole at q = {q0}")
        return Fraction(_horner(self.n, a, b) * b ** len(self.d), d * b ** len(self.n))

    # -- comparisons / output ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as one; QPoly
        # hashes every other polynomial as this same pair
        if len(self.n) <= 1 and len(self.d) == 1:
            c = self.n[0] if self.n else 0
            return hash(c if self.d == (1,) else Fraction(c, self.d[0]))
        return hash((self.n, self.d))

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        n = str(self.num)
        d = str(self.den)
        if self.num.degree() > 0 and len(self.num.ic) - self.num.ic.count(0) > 1:
            n = f"({n})"
        if self.den.degree() > 0 and len(self.den.ic) - self.den.ic.count(0) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self!s})"


def _pair(x):
    """(n, d) of an int, Fraction or QPoly in the RatFunc form; else None."""
    if isinstance(x, QPoly):
        c = x.content
        return tuple(c.numerator * v for v in x.ic), (c.denominator,)
    if isinstance(x, (int, Fraction)):
        return ((x.numerator,) if x else ()), (x.denominator,)
    return None


def _horner(ic: tuple, a: int, b: int) -> int:
    """b^k p(a/b) for the integer coefficients ic of p, k = len(ic) - 1."""
    acc, bk = 0, 1
    for c in reversed(ic):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _qpoly_over(ic: tuple, s: int) -> QPoly:
    """The QPoly ic/s, for integer coefficients ic and an int s > 0."""
    p = QPoly(ic)
    return QPoly._mk(p.ic, p.content / s)


def _cancel(a, b) -> tuple:
    """a/g and b/g for the primitive gcd g of a and b."""
    g = _gcd_ic(a, b)
    if len(g) <= 1:
        return a, b
    return _divexact_ic(a, g), _divexact_ic(b, g)


def _reduced(n, d) -> RatFunc:
    """n/d as a RatFunc, for n nonzero and coprime to d over Q: the gcd of
    all their coefficients, with the sign of d[-1], is divided out."""
    c = _igcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c == 1:
        return RatFunc._mk(tuple(n), tuple(d))
    return RatFunc._mk(tuple(v // c for v in n), tuple(v // c for v in d))


# Every integer-polynomial gcd and exact division of this module goes through
# the two helpers below.  Most denominators here are a monomial q^k (group
# orders, Hall-Littlewood values at z = -1/q), and against a monomial the
# answer needs no remainder sequence, so both take it without the kernel.


def _gcd_ic(a, b) -> tuple:
    """Primitive gcd of two integer coefficient sequences, as `zz_gcd` gives it.

    With a monomial c*q^k on either side the gcd is q^min(val a, val b).
    """
    if a and b:
        if b.count(0) == len(b) - 1:
            a, b = b, a
        if a.count(0) == len(a) - 1:
            k = len(a) - 1
            v = 0
            while v < k and not b[v]:
                v += 1
            return (0,) * v + (1,)
    return tuple(_k.zz_gcd(list(a), list(b)))


# Divisors here often carry a large factor q^v (a quotient of group orders
# divides by q^(binom(r,2) + binom(n-r,2))), and the kernel's long division
# would spend its passes on those zeros.  So the division splits q^v off
# first: the v low entries of a must be zero, and a/b = (a/q^v)/(b/q^v).


def _divexact_ic(a, b) -> tuple:
    """Exact quotient a/b of integer coefficient sequences, as `zz_divexact` gives it.

    Dividing by q^k drops k leading entries, which must all be zero.
    """
    v = 0
    while v < len(b) - 1 and not b[v]:
        v += 1
    if any(a[:v]):
        raise ValueError("inexact polynomial division")
    if len(b) == v + 1 and b[v] == 1:
        return tuple(a[v:])
    return tuple(_k.zz_divexact(list(a[v:]), list(b[v:])))


def qpow(k: int) -> RatFunc:
    """q^k as a RatFunc, any integer k."""
    if k >= 0:
        return RatFunc._mk((0,) * k + (1,), (1,))
    return RatFunc._mk((1,), (0,) * -k + (1,))


def _elem_inv(c):
    return Fraction(1, c) if isinstance(c, int) else 1 / c


class Series:
    """Truncated power series in u: known coefficients 0..order inclusive.

    Coefficients may be ints, Fractions, RatFuncs, or SymPolys, as long as
    they interoperate; arithmetic truncates to the minimum operand order.
    """

    __slots__ = ("order", "co")

    def __init__(self, coeffs, order: int | None = None):
        co = list(coeffs)
        if not co:
            raise ValueError("a series needs at least one known coefficient")
        if order is None:
            order = len(co) - 1
        if len(co) < order + 1:
            zero = co[0] * 0
            co.extend([zero] * (order + 1 - len(co)))
        self.order = order
        self.co = tuple(co[: order + 1])

    @classmethod
    def constant(cls, value, order: int) -> "Series":
        zero = value * 0
        return cls([value] + [zero] * order, order)

    def coefficient(self, n: int):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.co[n]

    @property
    def zero_elem(self):
        return self.co[0] * 0

    @property
    def one_elem(self):
        return self.co[0] * 0 + 1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([self.co[i] + other.co[i] for i in range(n + 1)], n)
        out = list(self.co)
        out[0] = out[0] + other
        return Series(out, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.co], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([c * other for c in self.co], self.order)
        n = min(self.order, other.order)
        a, b = self.co, other.co
        out = []
        for k in range(n + 1):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                if a[i]:
                    acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Series(out, n)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a series")
        return _power(self, n, Series.constant(self.one_elem, self.order))

    def inv(self) -> "Series":
        a = self.co
        if not a[0]:
            raise ZeroDivisionError("series inverse needs an invertible constant term")
        b0 = _elem_inv(a[0])
        out = [b0]
        for n in range(1, self.order + 1):
            acc = self.zero_elem
            for k in range(1, n + 1):
                if a[k]:
                    acc = acc + a[k] * out[n - k]
            out.append(-acc * b0 if acc else acc)
        return Series(out, self.order)

    def compose_scale(self, c, k: int = 1) -> "Series":
        """Substitute u <- c*u^k (k >= 1), truncated at the same order."""
        if k < 1:
            raise ValueError("compose_scale needs k >= 1")
        zero = self.zero_elem
        out = [zero] * (self.order + 1)
        cp = self.one_elem
        for n in range(self.order + 1):
            if n * k > self.order:
                break
            out[n * k] = self.co[n] * cp if n else self.co[0] + zero
            cp = cp * c
        return Series(out, self.order)

    # -- comparisons / output -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            self.co[i] == other.co[i] for i in range(self.order + 1)
        )

    def __hash__(self):
        return hash((self.order, self.co))

    def __str__(self):
        shown = []
        for i, c in enumerate(self.co[:5]):
            if c or i == 0:
                shown.append(f"({c})*u^{i}" if i else f"({c})")
        tail = " + ..." if self.order >= 5 else ""
        return " + ".join(shown) + tail + f"  [order {self.order}]"

    def __repr__(self):
        return f"Series({self!s})"


class SymPoly:
    """Polynomial in the auxiliary symbols a, b, t over Q(q).

    Stored as a dict mapping exponent triples (i, j, k) for a^i b^j t^k to
    nonzero RatFunc coefficients.  This is deliberately *not* a field:
    division is only defined by Q(q)-scalars, which is all the identity
    checks need (every denominator they produce is free of a, b, t).
    """

    SYMS = ("a", "b", "t")
    __slots__ = ("d",)

    def __init__(self, d: dict | None = None):
        self.d = d if d is not None else {}

    @classmethod
    def gen(cls, name: str, power: int = 1) -> "SymPoly":
        i = cls.SYMS.index(name)
        key = tuple(power if j == i else 0 for j in range(len(cls.SYMS)))
        return cls({key: RatFunc.const(1)})

    @classmethod
    def const(cls, value) -> "SymPoly":
        r = value if isinstance(value, RatFunc) else RatFunc.const(value)
        return cls({(0, 0, 0): r} if r else {})

    @staticmethod
    def _coerce(x):
        if isinstance(x, SymPoly):
            return x
        if isinstance(x, (int, Fraction, RatFunc)):
            return SymPoly.const(x)
        return None

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.d

    def __bool__(self) -> bool:
        return bool(self.d)

    def scalar_value(self) -> RatFunc:
        """The Q(q) value of a constant SymPoly; ValueError if symbols remain."""
        if not self.d:
            return RatFunc.const(0)
        if set(self.d) == {(0, 0, 0)}:
            return self.d[(0, 0, 0)]
        raise ValueError(f"not a scalar: {self}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.d)
        for key, val in other.d.items():
            cur = out.get(key)
            if cur is None:
                out[key] = val
            else:
                s = cur + val
                if s:
                    out[key] = s
                else:
                    del out[key]
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({k: -v for k, v in self.d.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            if not other:
                return SymPoly({})
            return SymPoly({k: v * other for k, v in self.d.items()})
        if not isinstance(other, SymPoly):
            return NotImplemented
        out: dict = {}
        for k1, v1 in self.d.items():
            for k2, v2 in other.d.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                p = v1 * v2
                cur = out.get(key)
                if cur is None:
                    out[key] = p
                else:
                    s = cur + p
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return SymPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a SymPoly")
        return _power(self, n, SymPoly.const(1))

    def __truediv__(self, other):
        if isinstance(other, SymPoly):
            other = other.scalar_value()
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, (Fraction, RatFunc)):
            return self * _elem_inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        inv = _elem_inv(self.scalar_value())
        return SymPoly._coerce(other) * inv

    # -- comparisons / output ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.d == other.d

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        if not self.d:
            return "0"
        parts = []
        for key in sorted(self.d):
            mono = "".join(
                f"*{s}^{e}" if e > 1 else (f"*{s}" if e == 1 else "")
                for s, e in zip(self.SYMS, key)
            )
            parts.append(f"({self.d[key]}){mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymPoly({self!s})"
