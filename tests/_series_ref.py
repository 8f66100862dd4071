"""Reference series exp and log over any coefficient ring with division by
integers, for tests that hold the integer routes against the generic series
calculus.  Coefficients that are ints are divided into Fractions."""

from fractions import Fraction

from qcharsum.exact import Series


def _elem_div_int(c, n: int):
    if isinstance(c, int):
        return Fraction(c, n)
    return c / n


def exp(s: Series) -> Series:
    a = s.co
    if a[0] != a[0] * 0:
        raise ValueError("series exp needs constant term 0")
    out = [s.one_elem]
    for n in range(1, s.order + 1):
        acc = s.zero_elem
        for k in range(1, n + 1):
            if a[k]:
                acc = acc + (a[k] * k) * out[n - k]
        out.append(_elem_div_int(acc, n))
    return Series(out, s.order)


def log(s: Series) -> Series:
    a = s.co
    if a[0] != a[0] * 0 + 1:
        raise ValueError("series log needs constant term 1")
    out = [s.zero_elem]
    for n in range(1, s.order + 1):
        acc = s.zero_elem
        for k in range(1, n):
            if out[k] and a[n - k]:
                acc = acc + (out[k] * k) * a[n - k]
        out.append(a[n] - _elem_div_int(acc, n))
    return Series(out, s.order)
