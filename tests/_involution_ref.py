"""Reference involution-count polynomials, for tests that hold
chars._involution_sum_ic against an independent route: the whole Gaussian
row at x = eps*q, then each even-characteristic term multiplied out one
binomial q^i - eps^i at a time.  Integer coefficient lists in q."""


def gauss_row_at(eps: int, n: int) -> list:
    """The Gaussian binomials [n choose r]_x, r = 0..n, at x = eps*q, as
    integer coefficient lists in q, by the ratio recurrence
    [n, r] = [n, r-1] (1 - x^(n-r+1)) / (1 - x^r)."""
    rows = [[1]]
    for r in range(1, n + 1):
        m, prev = n - r + 1, rows[-1]
        co = prev + [0] * m
        for i, c in enumerate(prev):  # times 1 - x^m: shift and subtract
            co[i + m] -= eps ** m * c
        step = eps ** r
        for i in range(r, len(co) - r):  # over 1 - x^r: strided running sum
            co[i] += step * co[i - r]
        rows.append(co[:len(co) - r])
    return rows


def involution_sum_ic(eps: int, n: int, e: int) -> list:
    """Even characteristic (e = 1):
    sum_{r <= n/2} q^binom(r,2) [n choose 2r]_x prod_{i=r+1..2r} (q^i - eps^i);
    odd characteristic (e = 2): sum_{r <= n} x^(r(n-r)) [n choose r]_x."""
    rows = gauss_row_at(eps, n)
    total = []

    def add(co, shift):  # total += q^shift * co
        total.extend([0] * (shift + len(co) - len(total)))
        for i, c in enumerate(co):
            total[shift + i] += c

    if e == 1:
        for r in range(n // 2 + 1):
            co = rows[2 * r]
            for i in range(r + 1, 2 * r + 1):  # times q^i - eps^i
                co = [a - eps ** i * b for a, b in zip([0] * i + co, co + [0] * i)]
            add(co, r * (r - 1) // 2)
    else:
        for r in range(n + 1):
            sign = eps ** (r * (n - r))
            add([sign * c for c in rows[r]], r * (n - r))
    return total
