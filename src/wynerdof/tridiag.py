"""Determinant machinery for the tridiagonal matrix family H_p(alpha).

H_p(alpha) is the p-by-p matrix with unit diagonal and alpha on the first
sub- and super-diagonal.  Its determinant u_p(alpha) obeys the second-order
recursion

    u_{p+2} = u_{p+1} - alpha^2 * u_p,     u_0 = u_1 = 1,

so u_p is a polynomial with integer coefficients in beta = alpha^2, and it
has the Chebyshev closed form

    u_p(alpha) = prod_{j=1..p} (1 + 2 alpha cos(j pi/(p+1))).

The positive roots are therefore alpha_{p,k} = 1/(2 cos(k pi/(p+1))) for
1 <= k <= p//2, ascending in k, and each is simple because the cosines are
distinct.  u_q vanishes at alpha_{p,k} iff cos^2(k pi/(p+1)) is one of the
cos^2(j pi/(q+1)), that is iff (q+1) k = 0 (mod p+1): the exact zero test at
a critical gain is an integer test.  That matters because the
multiplexing-gain case split is discontinuous in alpha.

The float value of a critical gain is sqrt of the correctly rounded beta-root,
not the correctly rounded alpha; it is rounded from the closed form, enclosed
in fixed-point integer arithmetic on about 64 + log2 p bits per root.  A
float gain a is critical for u_p iff it snaps to a root: with
k = round((p+1) acos(1/(2|a|)) / pi) in 1..p//2, |a| lies within 4 float
steps of that rounded root.  The test is O(1) in p and never runs the
recursion.  An independent Sturm/gcd isolation of the same roots lives in
the test suite (tests/exact_roots.py) as the oracle for both.

Also provided: the normalized sequence v_p = u_p / (-alpha)^p with its own
recursion, and the explicit inverse of the upper-banded M_p(alpha), whose
rows supply noise-combination coefficients for the converse constructions.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np

AlphaLike = Union[int, float, Fraction, "RootAlpha"]

__all__ = [
    "det_h",
    "h_matrix",
    "u_is_zero",
    "alpha_float",
    "alpha_token",
    "rank_h",
    "neighbor_nonzero_check",
    "critical_roots",
    "RootAlpha",
    "RootSet",
    "VSequence",
    "v_sequence",
    "m_inverse",
]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_h(p: int, alpha: AlphaLike):
    """Determinant u_p(alpha) of H_p(alpha) via the second-order recursion.

    u_0 = u_1 = 1 by convention.  Exact when alpha is an int, a Fraction, or
    a RootAlpha (for which u_p at a known critical value is exactly 0);
    float arithmetic otherwise.
    """
    if p < 0:
        raise ValueError("order p must be nonnegative")
    if isinstance(alpha, RootAlpha):
        if p >= 2 and alpha.is_root_of(p):
            return 0.0
        alpha = float(alpha)
    elif isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        alpha = Fraction(alpha)
    else:
        alpha = float(alpha)
    return _u_recursion(p, alpha * alpha)


def _u_recursion(p, beta):
    """u_p as a function of beta = alpha^2, in beta's arithmetic type."""
    one = beta * 0 + 1  # coerce to the input's arithmetic type
    prev, cur = one, one  # u_0, u_1
    for _ in range(p - 1):
        prev, cur = cur, cur - beta * prev
    return one if p == 0 else cur


def h_matrix(p: int, alpha: AlphaLike) -> np.ndarray:
    """Dense H_p(alpha) as float64 (unit diagonal, alpha off-diagonals)."""
    import numpy as np
    if p < 0:
        raise ValueError("order p must be nonnegative")
    a = alpha_float(alpha)
    h = np.eye(p)
    idx = np.arange(p - 1)
    h[idx, idx + 1] = a
    h[idx + 1, idx] = a
    return h


def alpha_float(alpha: AlphaLike) -> float:
    """Plain float value of any accepted cross-gain representation."""
    if isinstance(alpha, RootAlpha):
        return alpha.value
    return float(alpha)


def alpha_token(alpha: Optional[AlphaLike]) -> Optional[str]:
    """Serialized cross-gain: 'root:p:k' for a RootAlpha, else repr of the float."""
    if alpha is None:
        return None
    if isinstance(alpha, RootAlpha):
        return alpha.token()
    return repr(float(alpha))


def u_is_zero(p: int, alpha: AlphaLike) -> bool:
    """Whether u_p(alpha) = 0.

    Exact for a RootAlpha (an integer test) and for an int or Fraction (the
    recursion in rationals).  A float is critical iff it snaps to a root:
    with k = round((p+1) acos(1/(2|a|)) / pi) in 1..p//2, |a| lies within
    4 float steps of the correctly rounded alpha_{p,k}.  nan, +-inf and
    |a| < 1/2 never are.  O(1) in p: a relative pre-filter against the
    float closed form rules out almost every gain before any exact rounding.
    """
    if p <= 1:
        return False
    if type(alpha) is float:
        return _snaps_to_root(p, alpha)
    if isinstance(alpha, RootAlpha):
        return alpha.is_root_of(p)
    if isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        a = Fraction(alpha)
        return _u_recursion(p, a * a) == 0
    return _snaps_to_root(p, float(alpha))


# a float gain is critical within this many float steps of a rounded root
_SNAP_STEPS = 4
_DOUBLE = struct.Struct("<d")


def _snaps_to_root(p: int, a: float) -> bool:
    """Whether |a| lies within _SNAP_STEPS float steps of a root of u_p."""
    a = abs(a)
    if not 0.5 <= a < math.inf:  # nan compares false
        return False
    k = round((p + 1) * math.acos(0.5 / a) / math.pi)
    if not 1 <= k <= p // 2:
        return False
    closed = 0.5 / math.sin((p + 1 - 2 * k) * math.pi / (2 * (p + 1)))
    if abs(a - closed) > 1e-12 * a:
        return False
    return abs(_float_rank(a) - _float_rank(_root_magnitude(p, k))) <= _SNAP_STEPS


def _float_rank(x: float) -> int:
    """Position of a nonnegative float in the ordered float line."""
    return int.from_bytes(_DOUBLE.pack(x), "little")


def rank_h(p: int, alpha: AlphaLike) -> int:
    """rank H_p(alpha): p when u_p(alpha) != 0, else p-1 (the only two cases).
    schemes.certify_plan takes each principal window's rank at equal gains
    from here, so it and the closed form share one zero test."""
    if p < 1:
        raise ValueError("order p must be positive")
    return p - 1 if u_is_zero(p, alpha) else p


def neighbor_nonzero_check(p: int, alpha: AlphaLike) -> dict:
    """Given u_p(alpha) = 0, return the neighboring determinants.

    Returns {order: value} for orders p-2 (when p > 2), p-1, p+1, p+2, all of
    which are necessarily nonzero at a root of u_p.  Calling this when
    u_p(alpha) != 0 is a misuse and raises ValueError.
    """
    if not u_is_zero(p, alpha):
        raise ValueError(f"u_{p}(alpha) != 0; neighbor check applies at roots only")
    orders = ([p - 2] if p > 2 else []) + [p - 1, p + 1, p + 2]
    return {q: det_h(q, alpha) for q in orders}


# ---------------------------------------------------------------------------
# critical gains (roots of u_p) in closed form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _root_magnitude(p: int, k: int) -> float:
    """alpha_{p,k} as sqrt of the correctly rounded beta-root of u_p.

    The root is beta* = 1/(4 s^2), s = cos(k pi/(p+1)), where s is the sine
    of t = (p+1-2k) pi/(2(p+1)) or, when that exceeds pi/4, the cosine of
    t = k pi/(p+1), so t <= pi/4.  Its Taylor series in B-bit fixed point
    gives integers lo <= 2^B s <= hi: each term is under 2 units low, so is
    the tail past the last nonzero one, and s moves no further than t, whose
    fixed-point value from the 256-bit _PI is under 1.25 + 2^(B-258) units
    low.  int/int true division rounds correctly, so when 2^(2B-2)/hi^2 and
    2^(2B-2)/lo^2 are one float, that float is beta* rounded; otherwise B
    doubles.  By Niven's theorem beta* is 1, 1/2, 1/3 or irrational, never a
    rounding midpoint, so some B settles it unless beta* lies nearer a
    midpoint than the 256-bit pi can tell (about 2^-256, relative): then
    ArithmeticError.  B starts at _START_BITS + log2 p, so a root's cost
    grows with log p, not with p.  The root depends on k/(p+1) only, so it
    is rounded at the lowest order that has it.
    """
    g = math.gcd(k, p + 1)
    if g > 1:
        return _root_magnitude((p + 1) // g - 1, k // g)
    cos = 4 * k < p + 1
    n = 2 * k if cos else p + 1 - 2 * k  # t = n pi / (2(p+1))
    bits = _START_BITS + p.bit_length()
    while bits <= 512:  # past that, the 256-bit pi narrows nothing more
        x = (_PI << bits >> 256) * n // (2 * p + 2)
        x2 = x * x >> bits
        term, j = (1 << bits, 0) if cos else (x, 1)
        total = 0
        while term:  # two terms of opposite sign per round
            nxt = (term * x2 >> bits) // ((j + 1) * (j + 2))
            total += term - nxt
            term = (nxt * x2 >> bits) // ((j + 3) * (j + 4))
            j += 4
        slack = j + 5 + (1 << bits >> 258)  # series under j + 2, x under 2.25 + that
        lo, hi = total - slack, total + slack
        if lo > 0:
            one = 1 << (2 * bits - 2)
            beta = one / (lo * lo)
            if beta == one / (hi * hi):
                return math.sqrt(beta)
        bits *= 2
    raise ArithmeticError(f"a 256-bit pi cannot round root {k} of u_{p}")


_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89  # floor(pi 2^256)
_START_BITS = 64  # fixed-point bits beyond log2 p: one pass settles almost every root


class _RootFields(NamedTuple):
    p: int
    k: int
    sign: int


class RootAlpha(_RootFields):
    """Exact algebraic cross-gain: the k-th positive root of u_p (times sign).

    alpha_{p,k} = sign / (2 cos(k pi/(p+1))), 1 <= k <= p//2.  Zero tests of
    any u_q at this value are exact integer tests even though the value
    itself is irrational.  A tuple, so arithmetic goes through float().
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    def __new__(cls, p, k, sign=1):
        if p < 2:
            raise ValueError("u_p has roots only for p >= 2")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if not 1 <= k <= p // 2:
            raise ValueError(f"u_{p} has {p // 2} positive roots; got k={k}")
        return tuple.__new__(cls, (p, k, sign))

    @property
    def multiplicity(self) -> int:
        """Always 1: the cosines cos(j pi/(p+1)) are distinct."""
        return 1

    @property
    def value(self) -> float:
        return self.sign * _root_magnitude(self.p, self.k)

    def __float__(self) -> float:
        return self.value

    def is_root_of(self, q: int) -> bool:
        """Exactly decide u_q(self) = 0."""
        return q >= 2 and (q + 1) * self.k % (self.p + 1) == 0

    def token(self) -> str:
        return f"root:{self.p}:{self.k}" if self.sign > 0 else f"-root:{self.p}:{self.k}"

    def __repr__(self):
        return f"RootAlpha({self.token()}={self.value:.12g})"


class RootSet(NamedTuple):
    """All real roots of u_p, with multiplicities, sorted ascending."""

    p: int
    roots: tuple  # of (alpha: float, multiplicity: int)
    root_alphas: tuple = ()

    def alphas(self):
        return [a for a, _ in self.roots]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "roots": [{"alpha": a, "multiplicity": m} for a, m in self.roots],
        }


def critical_roots(p: int) -> RootSet:
    """Every real alpha with u_p(alpha) = 0, from the closed form.

    Roots come in +/- pairs since u_p depends on alpha only through alpha^2,
    and alpha = 0 is never a root (u_p(0) = 1).  Requires p >= 2.
    """
    if p < 2:
        raise ValueError("u_p has no real roots for p < 2")
    positives = [RootAlpha(p, k) for k in range(1, p // 2 + 1)]
    root_alphas = [RootAlpha(p, ra.k, -1) for ra in reversed(positives)] + positives
    return RootSet(
        p=p,
        roots=tuple((ra.value, ra.multiplicity) for ra in root_alphas),
        root_alphas=tuple(root_alphas),
    )


# ---------------------------------------------------------------------------
# normalized sequence v_p
# ---------------------------------------------------------------------------

class VSequence(NamedTuple):
    """v_p(alpha) = u_p(alpha) / (-alpha)^p for p = -1 .. pmax.

    Satisfies v_{p+2} = -(1/alpha) v_{p+1} - v_p with v_{-1} = 0, v_0 = 1.
    `seq[p]` is v_p, not the tuple's p-th field.
    """

    alpha: float
    pmax: int
    values: tuple  # index i holds v_{i-1}

    def __getitem__(self, p: int) -> float:
        if not -1 <= p <= self.pmax:
            raise IndexError(f"v_{p} outside computed range [-1, {self.pmax}]")
        return self.values[p + 1]


def v_sequence(pmax: int, alpha: AlphaLike) -> VSequence:
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("v_p requires a nonzero cross-gain")
    if pmax < 0:
        raise ValueError("pmax must be >= 0")
    vals = [0.0, 1.0]
    for _ in range(pmax):
        vals.append(-vals[-1] / a - vals[-2])
    return VSequence(alpha=a, pmax=pmax, values=tuple(vals))


# ---------------------------------------------------------------------------
# inverse of the upper-banded M_p(alpha)
# ---------------------------------------------------------------------------

def m_inverse(p: int, alpha: AlphaLike) -> np.ndarray:
    """The explicit inverse of M_p(alpha): alpha on the diagonal, 1 and alpha
    on the first and second super-diagonals, so det M_p = alpha^p.

    The inverse of the upper-banded Toeplitz M_p is upper-triangular
    Toeplitz: its k-th super-diagonal is c_k, from back substitution's
    recurrence c_0 = 1/alpha, c_k = (-c_{k-1} - alpha c_{k-2}) / alpha.
    Orders p >= 1 are accepted; p = 1 degenerates to the scalar [1/alpha].
    """
    import numpy as np
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("inverse requires a nonzero cross-gain")
    if p < 1:
        raise ValueError("order p must be positive")
    c = [0.0, 1.0 / a]  # c_{-1}, c_0
    for _ in range(p - 1):
        c.append(((0.0 - c[-1]) - a * c[-2]) / a)
    d = np.arange(p)[None, :] - np.arange(p)[:, None]  # column minus row
    return np.where(d >= 0, np.array(c[1:])[np.abs(d)], 0.0)
