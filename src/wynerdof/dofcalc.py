"""Closed-form multiplexing-gain values and bounds, merged into intervals.

All quantities are exact integers or rationals.  Zero tests of the
tridiagonal determinants u_p(alpha) dispatch through tridiag.u_is_zero: exact
for a RootAlpha, an int or a Fraction; a float gain is critical iff it lies
within 4 float steps of the correctly rounded root its value snaps to.

Conventions baked in here (see the module tests for the worked numbers):

* ceil(x) is clamped to 0 for x <= 0 in the asymmetric formula, so a fully
  cooperating short network keeps all K degrees of freedom.
* The symmetric network's four lower and three upper bounds form one table.
  Each is K - 2 floor(K/beta) - theta clipped below at 0, with the
  constructive moduli kappa = K mod beta:
  - lb-combined, lb-left-chain (and its mirror), lb-central-mimo: beta =
    t_l+t_r+r_l+r_r (no bound when 0), t_l+r_l+1, r_l+r_r+3, theta =
    min(kappa, 2);
  - ub-generic: beta_4 = side_sum+4, theta_4 = 1 iff kappa_4 >=
    min(t_l+r_l+2, t_r+r_r+2);
  - ub-singular-left: beta_5 = side_sum+3, theta_5 = 1 iff kappa_5 >=
    t_r+r_r+1, only where u_{t_l+r_l+1}(alpha) = 0; its mirror exchanges
    the sides.
  The tail corrections follow the stated case tables.  A variant flag
  evaluates the alternative theta_4 threshold (one smaller) that appears in
  the prose of the corresponding construction; both are reported in verbose
  listings rather than silently reconciled.
* The table is evaluated as plain (value, label) pairs.  sym_dof_interval
  merges them with the case split's values and runs each zero test at most
  once per interval, shared by the singular bounds and the case split;
  sym_lower_bounds and sym_upper_bounds wrap the same pairs in BoundValues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import List, Optional, Union

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
    "power_offset_prediction",
]


def _ceil_pos(num: int, den: int) -> int:
    """ceil(num/den) clamped below at 0."""
    if num <= 0:
        return 0
    return -((-num) // den)


@dataclass(frozen=True)
class DofInterval:
    """Integer multiplexing-gain bracket with provenance per endpoint."""

    lower: int
    upper: int
    lower_by: str
    upper_by: str
    note: Optional[str] = None

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")

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


@dataclass(frozen=True)
class PerUserAsymptote:
    """Large-network multiplexing gain per user, as exact rationals."""

    value_lower: Fraction
    value_upper: Fraction

    def __post_init__(self):
        if not Fraction(1, 2) <= self.value_lower <= self.value_upper <= 1:
            raise ValueError("per-user asymptote must sit inside [1/2, 1]")

    @property
    def exact(self) -> bool:
        return self.value_lower == self.value_upper

    def to_json(self) -> dict:
        return {
            "lower": str(self.value_lower),
            "upper": str(self.value_upper),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class BoundValue:
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
# symmetric network, symmetric side-information (t_l + r_l = t_r + r_r)
# ---------------------------------------------------------------------------

def _require_symmetric_si(params: NetworkParams) -> int:
    L = params.t_left + params.r_left
    if L != params.t_right + params.r_right:
        raise ValueError("requires symmetric side-information (t_left+r_left == t_right+r_right)")
    return L


def _periodic(K: int, beta: int, theta: int) -> int:
    """K - 2 floor(K/beta) - theta, clipped below at 0 (it never exceeds K)."""
    v = K - 2 * (K // beta) - theta
    return v if v > 0 else 0


def _si_case(K: int, L: int, zero) -> tuple:
    """(lower, upper, lower_by, upper_by) of the case split for K != L+2;
    zero(q) is the zero test of u_q at the equal gain."""
    if K <= L + 1:
        v = K - zero(K)
        return v, v, "si-exact-full", "si-exact-full"
    if not zero(L + 1):
        g = K - K // (L + 2)
        if not zero(L):
            return g, g, "si-periodic-exact", "si-periodic-exact"
        return g - 1, g, "si-periodic", "si-periodic"
    upper = _periodic(K, 2 * L + 3, K % (2 * L + 3) > L + 1)
    return K - K // (L + 1), upper, "si-critical-lower", "si-critical-upper"


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
        merged = sym_dof_interval(params, alpha)
        return DofInterval(merged.lower, merged.upper, merged.lower_by, merged.upper_by,
                           note="K == t_left+r_left+2 is outside the case split; "
                                "general bounds returned")
    return DofInterval(*_si_case(params.K, L, lambda q: u_is_zero(q, alpha)))


def sym_mg_per_user(params: NetworkParams, alpha: AlphaLike) -> PerUserAsymptote:
    """Per-user asymptote under symmetric side-information (exact away from
    the critical gains, a rational bracket at them)."""
    if alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    L = _require_symmetric_si(params)
    return _per_user(L, u_is_zero(L + 1, alpha))


@lru_cache(maxsize=256)
def _per_user(L: int, critical: bool) -> PerUserAsymptote:
    if not critical:
        v = Fraction(L + 1, L + 2)
        return PerUserAsymptote(v, v)
    return PerUserAsymptote(Fraction(L, L + 1), Fraction(2 * L + 1, 2 * L + 3))


# ---------------------------------------------------------------------------
# symmetric network, general parameters
# ---------------------------------------------------------------------------

_LOWER_LABELS = ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo")
_UPPER_LABELS = ("ub-generic", "ub-singular-left", "ub-singular-right")


def _lower_pairs(params: NetworkParams) -> list:
    """The lower bounds that apply as (value, label) pairs, led by (0, "trivial")."""
    K = params.K
    left, right = params.t_left + params.r_left, params.t_right + params.r_right
    lows = [(0, "trivial")]
    for label, beta in zip(_LOWER_LABELS, (left + right, left + 1, right + 1,
                                           params.r_left + params.r_right + 3)):
        if beta:
            lows.append((_periodic(K, beta, min(K % beta, 2)), label))
    return lows


def _upper_pairs(params: NetworkParams, zero, shift: int = 2) -> list:
    """The upper bounds that apply as (value, label) pairs, led by (K,
    "trivial").  zero(q) is the zero test of u_q at the equal gain, None for
    unequal gains; shift is theta_4's threshold over min(t_l+r_l, t_r+r_r)."""
    K = params.K
    left, right = params.t_left + params.r_left, params.t_right + params.r_right
    b4 = left + right + 4
    ups = [(K, "trivial"), (_periodic(K, b4, K % b4 >= min(left, right) + shift), "ub-generic")]
    if zero is not None:
        b5 = b4 - 1
        for label, near, far in (("ub-singular-left", left, right),
                                 ("ub-singular-right", right, left)):
            if zero(near + 1):
                ups.append((_periodic(K, b5, K % b5 > far), label))
    return ups


def _listing(pairs, labels, kind, reason) -> List[BoundValue]:
    """The bounds `labels` as BoundValues, from the table's pairs; a label
    the pairs leave out is inapplicable for reason(label)."""
    value = {label: v for v, label in pairs}
    return [BoundValue(label, value[label], True, kind) if label in value else
            BoundValue(label, None, False, kind, reason(label)) for label in labels]


def sym_lower_bounds(params: NetworkParams) -> List[BoundValue]:
    """The four achievable lower bounds (valid for any nonzero cross-gains)."""
    return _listing(_lower_pairs(params), _LOWER_LABELS, "lower",
                    lambda label: "all side-information parameters are 0")


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
    zero = None if alpha is None else (lambda q: u_is_zero(q, alpha))
    ups = _upper_pairs(params, zero, 2 if theta4_variant == "statement" else 1)
    near = {"ub-singular-left": params.t_left + params.r_left,
            "ub-singular-right": params.t_right + params.r_right}
    return _listing(ups, _UPPER_LABELS, "upper",
                    lambda label: "needs equal cross-gains" if alpha is None
                    else f"needs det H_{near[label] + 1}(alpha) = 0")


def sym_dof_interval(params: NetworkParams,
                     alpha_or_gains: Union[AlphaLike, CrossGainAssignment]) -> DofInterval:
    """Best merged bracket for a symmetric instance.

    Equal gains: all four lower bounds, the three upper bounds, and (when
    the side-information is symmetric) the case-split interval, merged.
    Random continuous gains: only the determinant-free bounds are used; with
    symmetric side-information the probability-1 value K - floor(K/(L+2)) is
    exact.  Explicit unequal gains: determinant-free bounds only.
    """
    K = params.K
    gains = alpha_or_gains if isinstance(alpha_or_gains, CrossGainAssignment) else None
    alpha = alpha_or_gains if gains is None else gains.alpha  # None for unequal gains
    zero = None
    if alpha is not None:
        if alpha_float(alpha) == 0:
            raise ValueError("nonzero cross-gain required")
        tested = {}

        def zero(q):
            z = tested.get(q)
            if z is None:
                z = tested[q] = u_is_zero(q, alpha)
            return z

    lows, ups = _lower_pairs(params), _upper_pairs(params, zero)
    L = params.t_left + params.r_left
    symmetric_si = L == params.t_right + params.r_right
    note = None
    if alpha is None:
        if gains.kind == "random" and symmetric_si:
            label = "si-exact-full-p1" if K <= L + 1 else "si-periodic-exact-p1"
            v = K if K <= L + 1 else K - K // (L + 2)
            lows.append((v, label))
            ups.append((v, label))
            note = "probability-1 value for continuous random gains"
    elif symmetric_si:
        if K != L + 2:
            lo, hi, lo_by, hi_by = _si_case(K, L, zero)
            lows.append((lo, lo_by))
            ups.append((hi, hi_by))
        else:
            note = "K == t_left+r_left+2 sits outside the case split; general bounds only"
    lower, lower_by = max(lows)
    upper, upper_by = min(ups)
    return DofInterval(lower, upper, lower_by, upper_by, note=note)


# ---------------------------------------------------------------------------
# power offset near a critical gain
# ---------------------------------------------------------------------------

def power_offset_prediction(L: int, alpha: AlphaLike, alpha_star: AlphaLike, nu: int) -> float:
    """Divergent part -nu * ln|alpha - alpha*| of the high-SNR power offset.

    The bounded remainder is not computable in closed form and is excluded;
    only the growth term is predicted.  alpha == alpha* is rejected (the
    offset diverges there).
    """
    if nu < 1:
        raise ValueError("multiplicity nu must be >= 1")
    gap = abs(alpha_float(alpha) - alpha_float(alpha_star))
    if gap == 0:
        raise ValueError("alpha must differ from the critical gain")
    return -nu * math.log(gap)
