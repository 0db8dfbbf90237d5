"""Reference rounding of the critical gains, kept in the tests as an oracle.

``wynerdof.tridiag._root_magnitude`` encloses the closed form
1/(4 cos^2(k pi/(p+1))) between two integer bounds from a fixed-point Taylor
series and keeps the float both bounds round to.  This module rounds the
same root by its defining polynomial instead: starting from a float guess,
it steps one ulp at a time with ``math.nextafter`` and keeps the float whose
two rounding midpoints, built as ``Fraction`` objects, give u_p exact values
of opposite sign.  It shares no code or formula with the package beyond the
guess, and costs O(p^2) big-integer work per root.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _root_magnitude(p: int, k: int) -> float:
    """alpha_{p,k} as sqrt of the correctly rounded beta-root of u_p.

    The guess 1/(4 s^2), with s = cos(k pi/(p+1)) written as a sine of a
    small argument for relative accuracy, is within a few ulps; the float b
    that rounds the root is the one whose two rounding midpoints give u_p
    exact rational values of opposite sign.
    """
    s = math.sin((p + 1 - 2 * k) * math.pi / (2 * (p + 1)))
    guess = 1 / (4 * s * s)
    up, down = guess, math.nextafter(guess, 0)
    for _ in range(64):
        for b in (up, down):
            lo = (Fraction(math.nextafter(b, 0)) + Fraction(b)) / 2
            hi = (Fraction(b) + Fraction(math.nextafter(b, math.inf))) / 2
            if _u_positive(p, lo) != _u_positive(p, hi):
                return math.sqrt(b)
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0)
    raise ArithmeticError(f"no float within 64 ulps rounds root {k} of u_{p}")


def _u_positive(p: int, beta: Fraction) -> bool:
    """Whether u_p(beta) > 0 at a dyadic beta = m/2^e, in integers only.

    W_j = 2^(e*(j//2)) u_j has the sign of u_j and obeys
    W_{j+2} = (W_{j+1} << s_j) - m W_j with s_j = e for even j, 0 for odd j,
    so no rational gcds are taken.
    """
    m, e = beta.numerator, beta.denominator.bit_length() - 1
    prev, cur = 1, 1  # W_0, W_1
    for j in range(p - 1):
        prev, cur = cur, (cur << (0 if j % 2 else e)) - m * prev
    return cur > 0
