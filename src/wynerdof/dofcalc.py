"""Closed-form multiplexing-gain values and bounds, merged into intervals.

All quantities are exact integers or rationals.  Zero tests of the
tridiagonal determinants u_p(alpha) dispatch through tridiag.u_is_zero: exact
for a RootAlpha, an int or a Fraction; a float gain is critical iff it lies
within 4 float steps of the correctly rounded root its value snaps to.

Conventions baked in here (see the module tests for the worked numbers):

* ceil(x) is clamped to 0 for x <= 0 in the asymmetric formula, so a fully
  cooperating short network keeps all K degrees of freedom.
* The symmetric network's bounds are the rows of one table, _ROWS.  An
  interval is the largest lower and the smallest upper value of the rows
  that apply; equal values go to the larger and to the smaller label.
* Each zero test of u_q(alpha) runs at most once per interval, shared by
  the singular bounds and the case split.
* ub-generic's theta_4 has a prose variant, one smaller, from its
  construction; `bounds --verbose` lists both rather than reconcile them.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Union

from .netmodel import CrossGainAssignment, NetworkParams
from .tridiag import AlphaLike, alpha_float, u_is_zero

__all__ = [
    "DofInterval",
    "PerUserAsymptote",
    "BoundValue",
    "asym_mg",
    "asym_mg_per_user",
    "sym_mg_symmetric_si",
    "sym_mg_per_user",
    "sym_lower_bounds",
    "sym_upper_bounds",
    "sym_dof_interval",
]


def _ceil_pos(num: int, den: int) -> int:
    """ceil(num/den) clamped below at 0."""
    if num <= 0:
        return 0
    return -((-num) // den)


class _IntervalFields(NamedTuple):
    lower: int
    upper: int
    lower_by: str
    upper_by: str
    note: Optional[str]


class DofInterval(_IntervalFields):
    """Integer multiplexing-gain bracket with provenance per endpoint."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    def __new__(cls, lower, upper, lower_by, upper_by, note=None):
        if not 0 <= lower <= upper:
            raise ValueError(f"invalid interval [{lower}, {upper}]")
        return tuple.__new__(cls, (lower, upper, lower_by, upper_by, note))

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "lower_by": self.lower_by,
            "upper_by": self.upper_by,
        }
        if self.note:
            out["note"] = self.note
        return out


class _AsymptoteFields(NamedTuple):
    value_lower: Fraction
    value_upper: Fraction


class PerUserAsymptote(_AsymptoteFields):
    """Large-network multiplexing gain per user, as exact rationals."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    def __new__(cls, value_lower, value_upper):
        if not Fraction(1, 2) <= value_lower <= value_upper <= 1:
            raise ValueError("per-user asymptote must sit inside [1/2, 1]")
        return tuple.__new__(cls, (value_lower, value_upper))

    @property
    def exact(self) -> bool:
        return self.value_lower == self.value_upper

    def to_json(self) -> dict:
        return {
            "lower": str(self.value_lower),
            "upper": str(self.value_upper),
            "exact": self.exact,
        }


class BoundValue(NamedTuple):
    """One evaluated bound: label, value (clipped to [0, K]), applicability."""

    label: str
    value: Optional[int]
    applicable: bool
    kind: str  # "lower" | "upper"
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {"label": self.label, "value": self.value, "applicable": self.applicable,
               "kind": self.kind}
        if self.reason:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# asymmetric network
# ---------------------------------------------------------------------------

def asym_mg(params: NetworkParams) -> int:
    """Exact multiplexing gain of the asymmetric network."""
    K = params.K
    num = K - params.t_left - params.r_left - 1
    den = params.side_sum + 2
    return K - _ceil_pos(num, den)


def asym_mg_per_user(params: NetworkParams) -> Fraction:
    """Large-K multiplexing gain per user of the asymmetric network."""
    s = params.side_sum
    return Fraction(s + 1, s + 2)


# ---------------------------------------------------------------------------
# symmetric network: the bound table
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    """One symmetric bound: K - c floor(K/beta) - theta, clipped below at 0.

    The rules read l = t_l+r_l, r = t_r+r_r, m = r_l+r_r and zero(q) =
    [u_q(alpha) = 0] at equal gains (zero is None otherwise).
    beta(l, r, m) and theta(K mod beta, l, r) give the value; theta is a
    (lower, upper) pair on a "both" row.  A special row (c and beta None) is
    K - theta(K, zero).  applies(K, l, r, zero) says where the row holds
    (None: everywhere) and reason(l, r, zero) why not, for listed rows.

    scope: "instance" rows read no gain; "equal" rows need equal gains;
    "split" rows are the case split (equal gains, L = l = r, K != L+2) and
    "random" rows its probability-1 values at random gains.
    """

    label: str
    side: str  # "lower", "upper" or "both"
    scope: str
    applies: Optional[Callable]
    reason: Optional[Callable]
    c: Optional[int]
    beta: Optional[Callable]
    theta: Callable

    def per_user(self, l: int, r: int, m: int) -> Optional[Fraction]:
        """The large-K value per user, 1 - c/beta, clipped below at 0 like the
        value (None for a special row)."""
        if self.c is None:
            return None
        beta = self.beta(l, r, m)
        return Fraction(max(beta - self.c, 0), beta)


def _singular(left: bool):
    """applies() and reason() of a bound at equal gains with u_q(alpha) = 0,
    q = l+1 (left) or r+1."""
    return (lambda K, l, r, zero: zero is not None and zero((l if left else r) + 1),
            lambda l, r, zero: "needs equal cross-gains" if zero is None
            else f"needs det H_{(l if left else r) + 1}(alpha) = 0")


def _beyond(critical: bool, singular_L: Optional[bool] = None):
    """applies() of a case-split row past K = L+1: [u_{L+1}(alpha) = 0] is
    critical and, unless singular_L is None, [u_L(alpha) = 0] is singular_L."""
    return lambda K, L, r, zero: K > L + 1 and zero(L + 1) == critical and (
        singular_L is None or zero(L) == singular_L)


_CAP2 = lambda kappa, l, r: kappa if kappa < 2 else 2  # noqa: E731
_EXACT = lambda kappa, l, r: (0, 0)  # noqa: E731
_FULL = lambda K, L, r, zero: K <= L + 1  # noqa: E731

_ROWS = (
    _Row("trivial", "both", "instance", None, None, None, None, lambda K, zero: (K, 0)),
    _Row("lb-combined", "lower", "instance", lambda K, l, r, zero: l + r > 0,
         lambda l, r, zero: "all side-information parameters are 0",
         2, lambda l, r, m: l + r, _CAP2),
    _Row("lb-left-chain", "lower", "instance", None, None, 2, lambda l, r, m: l + 1, _CAP2),
    _Row("lb-right-chain", "lower", "instance", None, None, 2, lambda l, r, m: r + 1, _CAP2),
    _Row("lb-central-mimo", "lower", "instance", None, None, 2, lambda l, r, m: m + 3, _CAP2),
    _Row("ub-generic", "upper", "instance", None, None, 2, lambda l, r, m: l + r + 4,
         lambda kappa, l, r: kappa >= min(l, r) + 2),
    _Row("ub-singular-left", "upper", "equal", *_singular(True),
         2, lambda l, r, m: l + r + 3, lambda kappa, l, r: kappa > r),
    _Row("ub-singular-right", "upper", "equal", *_singular(False),
         2, lambda l, r, m: l + r + 3, lambda kappa, l, r: kappa > l),
    _Row("si-exact-full", "both", "split", _FULL, None, None, None,
         lambda K, zero: (zero(K),) * 2),
    _Row("si-periodic-exact", "both", "split", _beyond(False, False), None,
         1, lambda L, r, m: L + 2, _EXACT),
    _Row("si-periodic", "both", "split", _beyond(False, True), None,
         1, lambda L, r, m: L + 2, lambda kappa, L, r: (1, 0)),
    _Row("si-critical-lower", "lower", "split", _beyond(True), None,
         1, lambda L, r, m: L + 1, lambda kappa, L, r: 0),
    _Row("si-critical-upper", "upper", "split", _beyond(True), None,
         2, lambda L, r, m: 2 * L + 3, lambda kappa, L, r: kappa > L + 1),
    _Row("si-exact-full-p1", "both", "random", _FULL, None, None, None, lambda K, zero: (0, 0)),
    _Row("si-periodic-exact-p1", "both", "random", lambda K, L, r, zero: K > L + 1, None,
         1, lambda L, r, m: L + 2, _EXACT),
)
_INSTANCE, _EQUAL, _SPLIT, _RANDOM = (tuple(row for row in _ROWS if row.scope == scope)
                                      for scope in ("instance", "equal", "split", "random"))
_EQUAL_SPLIT = _EQUAL + _SPLIT


def _zero_tests(alpha: AlphaLike):
    """zero(q) = [u_q(alpha) = 0], each test run at most once."""
    tested = {}
    return lambda q: tested[q] if q in tested else tested.setdefault(q, u_is_zero(q, alpha))


def _sums(p: NetworkParams) -> tuple:
    """(K, l, r, m), the instance as the rows read it."""
    return p.K, p.t_left + p.r_left, p.t_right + p.r_right, p.r_left + p.r_right


def _evaluate(rows, K: int, l: int, r: int, m: int, zero) -> tuple:
    """(lows, ups): the (value, label) pairs of the rows that apply."""
    lows, ups = [], []
    for label, side, _, applies, _, c, beta, theta in rows:
        if applies is not None and not applies(K, l, r, zero):
            continue
        if c is None:
            base, th = K, theta(K, zero)
        else:
            b = beta(l, r, m)
            base, th = K - c * (K // b), theta(K % b, l, r)
        if side == "both":
            v = base - th[0]
            lows.append((v if v > 0 else 0, label))
            v = base - th[1]
            ups.append((v if v > 0 else 0, label))
        else:
            v = base - th
            (lows if side == "lower" else ups).append((v if v > 0 else 0, label))
    return lows, ups


def _interval(lows, ups, note: Optional[str] = None) -> DofInterval:
    """The largest lower and smallest upper (value, label) pair: ties go to
    the larger and to the smaller label."""
    (lower, lower_by), (upper, upper_by) = max(lows), min(ups)
    return DofInterval(lower, upper, lower_by, upper_by, note=note)


@lru_cache(maxsize=256)
def _instance_bracket(K: int, l: int, r: int, m: int) -> tuple:
    """The best lower and upper pair of the rows that read no gain."""
    lows, ups = _evaluate(_INSTANCE, K, l, r, m, None)
    return max(lows), min(ups)


def _bound_values(rows, p: NetworkParams, zero) -> List[BoundValue]:
    """One-sided rows as BoundValues, in table order."""
    K, l, r, m = _sums(p)
    lows, ups = _evaluate(rows, K, l, r, m, zero)
    value = {label: v for v, label in lows + ups}
    return [BoundValue(row.label, value[row.label], True, row.side) if row.label in value else
            BoundValue(row.label, None, False, row.side, row.reason(l, r, zero))
            for row in rows]


def _require_symmetric_si(params: NetworkParams) -> int:
    L = params.t_left + params.r_left
    if L != params.t_right + params.r_right:
        raise ValueError("requires symmetric side-information (t_left+r_left == t_right+r_right)")
    return L


def sym_mg_symmetric_si(params: NetworkParams, alpha: AlphaLike) -> DofInterval:
    """Multiplexing-gain interval under equal gains and symmetric side-information.

    Four regimes, discontinuous in alpha through the zero pattern of the
    determinants u_{L+1} and u_L where L = t_left + r_left:

    1. K <= L+1: exact K - [u_K(alpha) = 0].
    2. K >  L+2, u_{L+1} != 0: within 1 of K - floor(K/(L+2)).
    3. additionally u_L != 0: exactly K - floor(K/(L+2)).
    4. K >  L+2, u_{L+1} == 0: between K - floor(K/(L+1)) and
       K - 2*floor(K/(2L+3)) - [K mod (2L+3) > L+1].

    The leftover K == L+2 is not covered by the case split; the merged
    general-bound interval is returned there, flagged in `note`.
    """
    if alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    L = _require_symmetric_si(params)
    if params.K == L + 2:
        return sym_dof_interval(params, alpha)._replace(
            note="K == t_left+r_left+2 is outside the case split; general bounds returned")
    return _interval(*_evaluate(_SPLIT, *_sums(params), _zero_tests(alpha)))


def sym_mg_per_user(params: NetworkParams, alpha: AlphaLike) -> PerUserAsymptote:
    """Per-user asymptote under symmetric side-information (exact away from
    the critical gains, a rational bracket at them)."""
    if alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    L = _require_symmetric_si(params)
    return _split_limits(L, u_is_zero(L + 1, alpha))


# the case split's rows that hold past K = L+2 where [u_{L+1}(alpha) = 0] is
# `critical`; which rows hold does not depend on L (found here at L = 1), and
# u_L moves no limit, so it is taken nonzero
_PAST_L2 = {critical: [row for row in _SPLIT if row.applies(4, 1, 1, {1: False, 2: critical}.get)]
            for critical in (False, True)}


@lru_cache(maxsize=256)
def _split_limits(L: int, critical: bool) -> PerUserAsymptote:
    """The largest lower and smallest upper per-user limit of those rows (a
    split row's beta reads L alone, so m = 0 stands in for r_l+r_r)."""
    lows, ups = [], []
    for row in _PAST_L2[critical]:
        limit = row.per_user(L, L, 0)
        if row.side != "upper":
            lows.append(limit)
        if row.side != "lower":
            ups.append(limit)
    return PerUserAsymptote(max(lows), min(ups))


def sym_lower_bounds(params: NetworkParams) -> List[BoundValue]:
    """The four achievable lower bounds, for any nonzero cross-gains except
    where lb-central-mimo's central block is singular, u_{r_l+r_r+1}(alpha)
    = 0: no plan certifies its value there (ROADMAP item 4)."""
    return _bound_values([row for row in _INSTANCE if row.side == "lower"], params, None)


def sym_upper_bounds(params: NetworkParams, alpha: Optional[AlphaLike],
                     theta4_variant: str = "statement") -> List[BoundValue]:
    """The three genie upper bounds; alpha is the equal cross-gain, or None
    for unequal gains.

    The first is determinant-free and holds for any gains.  The second and
    third require equal gains with u_{t_l+r_l+1}(alpha) = 0 (respectively
    the mirrored determinant) and are reported inapplicable otherwise.
    theta4_variant selects the tail-correction threshold for the first
    bound: "statement" uses kappa_4 >= min(t_l+r_l+2, t_r+r_r+2), "prose"
    the thresholds one smaller.
    """
    if alpha is not None and alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    if theta4_variant not in ("statement", "prose"):
        raise ValueError("theta4_variant must be 'statement' or 'prose'")
    rows = [row for row in _INSTANCE + _EQUAL if row.side == "upper"]
    if theta4_variant == "prose":  # ub-generic leads the upper rows
        rows[0] = rows[0]._replace(theta=lambda kappa, l, r: kappa >= min(l, r) + 1)
    return _bound_values(rows, params, None if alpha is None else _zero_tests(alpha))


def sym_dof_interval(params: NetworkParams,
                     alpha_or_gains: Union[AlphaLike, CrossGainAssignment]) -> DofInterval:
    """Best merged bracket for a symmetric instance.

    Equal gains: all four lower bounds, the three upper bounds, and (when
    the side-information is symmetric) the case-split interval, merged.
    Random continuous gains: only the determinant-free bounds are used; with
    symmetric side-information the probability-1 value K - floor(K/(L+2)) is
    exact.  Explicit unequal gains: determinant-free bounds only.
    """
    if alpha_or_gains is None:
        raise ValueError("sym_dof_interval needs the cross-gain: an alpha or a CrossGainAssignment")
    gains = alpha_or_gains if isinstance(alpha_or_gains, CrossGainAssignment) else None
    alpha = alpha_or_gains if gains is None else gains.alpha  # None for unequal gains
    K, l, r, m = _sums(params)
    symmetric_si = l == r
    rows, zero, note = (), None, None
    if alpha is None:
        if gains.kind == "random" and symmetric_si:
            rows, note = _RANDOM, "probability-1 value for continuous random gains"
    else:
        if alpha_float(alpha) == 0:
            raise ValueError("nonzero cross-gain required")
        rows, zero = _EQUAL, _zero_tests(alpha)
        if symmetric_si and K != l + 2:
            rows = _EQUAL_SPLIT
        elif symmetric_si:
            note = "K == t_left+r_left+2 sits outside the case split; general bounds only"
    lows, ups = _evaluate(rows, K, l, r, m, zero)
    lower, upper = _instance_bracket(K, l, r, m)
    lows.append(lower)
    ups.append(upper)
    return _interval(lows, ups, note)
