"""Closed-form multiplexing-gain values and bounds, merged into intervals.

All quantities are exact integers or rationals.  Zero tests of the
tridiagonal determinants u_p(alpha) dispatch through tridiag.u_is_zero: exact
for a RootAlpha, an int or a Fraction; a float gain is critical iff it lies
within 4 float steps of the correctly rounded root its value snaps to.

Conventions baked in here (see the module tests for the worked numbers):

* ceil(x) is clamped to 0 for x <= 0 in the asymmetric formula, so a fully
  cooperating short network keeps all K degrees of freedom.
* The auxiliary moduli use the constructive definitions: kappa_i = K mod
  beta_i with beta_1 = t_l+t_r+r_l+r_r, beta_2 = t_l+r_l+1 (and its mirror),
  beta_3 = r_l+r_r+3.
* The tail corrections theta_4/theta_5 of the two genie upper bounds follow
  the stated case tables (theta_4 = 1 iff kappa_4 >= min(t_l+r_l+2,
  t_r+r_r+2); theta_5 = 1 iff kappa_5 >= t_r+r_r+1).  A variant flag
  evaluates the alternative theta_4 threshold (one smaller) that appears in
  the prose of the corresponding construction; both are reported in verbose
  listings rather than silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    K = params.K
    if K <= L + 1:
        d1 = 1 if u_is_zero(K, alpha) else 0
        return DofInterval(K - d1, K - d1, "si-exact-full", "si-exact-full")
    if K == L + 2:
        merged = sym_dof_interval(params, alpha)
        return DofInterval(merged.lower, merged.upper, merged.lower_by, merged.upper_by,
                           note="K == t_left+r_left+2 is outside the case split; "
                                "general bounds returned")
    if not u_is_zero(L + 1, alpha):
        g = K // (L + 2)
        if not u_is_zero(L, alpha):
            return DofInterval(K - g, K - g, "si-periodic-exact", "si-periodic-exact")
        return DofInterval(K - g - 1, K - g, "si-periodic", "si-periodic")
    G = K // (L + 1)
    beta = 2 * L + 3
    d2 = 1 if (K % beta) > L + 1 else 0
    upper = K - 2 * (K // beta) - d2
    return DofInterval(K - G, upper, "si-critical-lower", "si-critical-upper")


def sym_mg_per_user(params: NetworkParams, alpha: AlphaLike) -> PerUserAsymptote:
    """Per-user asymptote under symmetric side-information (exact away from
    the critical gains, a rational bracket at them)."""
    if alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    L = _require_symmetric_si(params)
    if not u_is_zero(L + 1, alpha):
        v = Fraction(L + 1, L + 2)
        return PerUserAsymptote(v, v)
    return PerUserAsymptote(Fraction(L, L + 1), Fraction(2 * L + 1, 2 * L + 3))


# ---------------------------------------------------------------------------
# symmetric network, general parameters
# ---------------------------------------------------------------------------

def _theta_012(kappa: int) -> int:
    return 0 if kappa == 0 else (1 if kappa == 1 else 2)


def _clip(v: int, K: int) -> int:
    return max(0, min(K, v))


def sym_lower_bounds(params: NetworkParams) -> List[BoundValue]:
    """The four achievable lower bounds (valid for any nonzero cross-gains)."""
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    out = []
    for label, beta in (("lb-combined", params.side_sum), ("lb-left-chain", tl + rl + 1),
                        ("lb-right-chain", tr + rr + 1), ("lb-central-mimo", rl + rr + 3)):
        if beta == 0:
            out.append(BoundValue(label, None, False, "lower",
                                  "all side-information parameters are 0"))
        else:
            out.append(BoundValue(label, _clip(K - 2 * (K // beta) - _theta_012(K % beta), K),
                                  True, "lower"))
    return out


def _ub_generic(params: NetworkParams, shift: int) -> BoundValue:
    """The determinant-free genie bound; theta_4 = 1 iff
    kappa_4 >= min(t_l+r_l, t_r+r_r) + shift."""
    K = params.K
    b4 = params.side_sum + 4
    reach = min(params.t_left + params.r_left, params.t_right + params.r_right)
    theta4 = 1 if K % b4 >= reach + shift else 0
    return BoundValue("ub-generic", _clip(K - 2 * (K // b4) - theta4, K), True, "upper")


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
    K, b5 = params.K, params.side_sum + 3
    left, right = params.t_left + params.r_left, params.t_right + params.r_right
    return [_ub_generic(params, 2 if theta4_variant == "statement" else 1),
            _ub_singular("ub-singular-left", K, b5, left, right, alpha),
            _ub_singular("ub-singular-right", K, b5, right, left, alpha)]


def _ub_singular(label: str, K: int, b5: int, near: int, far: int,
                 alpha: Optional[AlphaLike]) -> BoundValue:
    """The singular-gain genie bound seen from the side whose reach t+r is
    `near`: applicable iff the gains are equal and u_{near+1}(alpha) = 0,
    theta_5 = 1 iff kappa_5 >= far+1.  ub-singular-right is ub-singular-left
    with the sides exchanged (kappa_5 = K mod b5 does not change)."""
    if alpha is None:
        return BoundValue(label, None, False, "upper", "needs equal cross-gains")
    if not u_is_zero(near + 1, alpha):
        return BoundValue(label, None, False, "upper", f"needs det H_{near + 1}(alpha) = 0")
    theta5 = 1 if K % b5 >= far + 1 else 0
    return BoundValue(label, _clip(K - 2 * (K // b5) - theta5, K), True, "upper")


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
    lows: List[tuple] = [(0, "trivial")]
    ups: List[tuple] = [(K, "trivial")]
    for b in sym_lower_bounds(params) + sym_upper_bounds(params, alpha):
        if b.applicable:
            (lows if b.kind == "lower" else ups).append((b.value, b.label))

    if alpha is None:
        note = None
        if gains.kind == "random":
            L = params.t_left + params.r_left
            if L == params.t_right + params.r_right:
                if K <= L + 1:
                    lows.append((K, "si-exact-full-p1"))
                    ups.append((K, "si-exact-full-p1"))
                else:
                    v = K - K // (L + 2)
                    lows.append((v, "si-periodic-exact-p1"))
                    ups.append((v, "si-periodic-exact-p1"))
                note = "probability-1 value for continuous random gains"
        lower, lower_by = max(lows)
        upper, upper_by = min(ups)
        return DofInterval(lower, upper, lower_by, upper_by, note=note)

    note = None
    if params.t_left + params.r_left == params.t_right + params.r_right:
        L = params.t_left + params.r_left
        if K != L + 2:
            si = sym_mg_symmetric_si(params, alpha)
            lows.append((si.lower, si.lower_by))
            ups.append((si.upper, si.upper_by))
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
