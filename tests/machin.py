"""pi on integers, by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239)."""


def pi_bracket(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo < pi * 2^bits < hi.

    Every term of each arctangent series is floored once, so a sum of t terms
    is below the true partial sum by less than t, and the alternating tail
    after the first term that floors to 0 is below 1.
    """
    one = 1 << bits

    def atan_inverse(x):
        # (the floored sum for atan(1/x) * 2^bits, a bound on its error)
        total = term = one // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n, sign = n + 2, -sign
            total += sign * (term // n)
        return total, n + 1

    (a, a_err), (b, b_err) = atan_inverse(5), atan_inverse(239)
    centre, err = 16 * a - 4 * b, 16 * a_err + 4 * b_err
    return centre - err, centre + err
