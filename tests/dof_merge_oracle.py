"""The symmetric bounds and their merge as they were before the bound table,
kept in the tests as an oracle.

``wynerdof.dofcalc`` evaluates the four lower and three upper bounds once,
from one table of plain (value, label) pairs, runs each zero test of
u_q(alpha) at most once per interval and returns the per-user bracket from a
cache.  This module keeps the version that replaced, verbatim: one frozen
``BoundValue`` per bound, an intermediate ``DofInterval`` from the case split,
and a fresh zero test wherever a bound or a case reads one.  It shares no code
with the table but the result types and ``tridiag``'s zero test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Union

from wynerdof.dofcalc import BoundValue, DofInterval, PerUserAsymptote
from wynerdof.netmodel import CrossGainAssignment, NetworkParams
from wynerdof.tridiag import AlphaLike, alpha_float, u_is_zero


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
