"""Finite-power rate accounting for certified plans.

Rates are in nats.  Scalar steps contribute 0.5*log(1 + pivot^2 * P), where
the pivot is the channel entry the decoder divides by (1 for a direct link,
the cross-gain for a neighbor link).  Joint MIMO blocks contribute
0.5*logdet(I + P * H^T H) over their submatrix; for broadcast-style blocks
this is the dual with a uniform power split, which is loose in the constant
but exact in the slope, and only the slope is under test here.  A block that
also carries chain messages caps the subnet at its own logdet (the joint
decoder must carry everything), which is what makes the slope track the
rank rather than the message count at a singular gain.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from .netmodel import SYMMETRIC, TOPOLOGIES, ChannelModel, CrossGainAssignment, \
    _generic_draws, submatrix
from .tridiag import AlphaLike, alpha_float, alpha_token, continuant_is_zero, u_is_zero, \
    v_sequence

if TYPE_CHECKING:  # numpy and schemes are imported where they are called
    import numpy as np

    from .schemes import TransmissionPlan

__all__ = [
    "RateCurve",
    "OffsetCurve",
    "plan_sum_rate",
    "slope_estimate",
    "offset_experiment",
    "random_gain_rank_trials",
    "RankTrialReport",
]

_P_TOP = 1e14  # the default grid's top power, which np.geomspace returns exactly


class RateCurve(NamedTuple):
    points: Tuple[Tuple[float, float], ...]  # (P, sum rate in nats)
    slope_estimate: float
    claimed_dof: int

    def to_csv(self, plan_id: str = "plan") -> str:
        lines = ["P,sum_rate_nats,plan_id"]
        for p, r in self.points:
            lines.append(f"{p!r},{r!r},{plan_id}")
        return "\n".join(lines) + "\n"


class OffsetCurve(NamedTuple):
    alpha_star: float
    samples: Tuple[Tuple[float, float], ...]  # (alpha, offset proxy in nats)
    fitted_nu: float

    def to_csv(self) -> str:
        lines = ["alpha,offset_proxy"]
        for a, v in self.samples:
            lines.append(f"{a!r},{v!r}")
        return "\n".join(lines) + "\n"


def _subnet_rate(plan: TransmissionPlan, model: ChannelModel, P: float) -> float:
    import numpy as np
    total = 0.0
    for sn in plan.subnets:
        coupled = set()
        for blk in sn.mimo_blocks:
            coupled.update(blk.coupled)
        plain = 0.0
        coupled_individual = 0.0
        for st in sn.scalar_steps:
            pivot = model.entry(st.antenna, st.tx)
            r = 0.5 * math.log1p(pivot * pivot * P)
            if st.message in coupled:
                coupled_individual += r
            else:
                plain += r
        sub_total = plain
        for blk in sn.mimo_blocks:
            hsub = submatrix(model, blk.antennas, blk.tx)
            sign, logdet = np.linalg.slogdet(
                np.eye(hsub.shape[1]) + P * (hsub.T @ hsub))
            cap = 0.5 * float(logdet)
            if blk.coupled:
                own = sum(0.5 * math.log1p(P) for m, w in blk.prelog for _ in range(w))
                sub_total += min(coupled_individual + own, cap)
            else:
                sub_total += cap
        total += sub_total
    return total


def plan_sum_rate(plan: TransmissionPlan, model: ChannelModel, P: float) -> float:
    """Achievable sum rate (nats) of a certified plan at power P."""
    from .schemes import certify_plan
    if P <= 0:
        raise ValueError("power must be positive")
    cert = certify_plan(plan, model)
    if not cert.ok:
        raise ValueError(f"plan does not certify: {cert.failure}")
    return _subnet_rate(plan, model, P)


def default_power_grid(lo: float = 1e3, hi: float = _P_TOP, points: int = 12):
    import numpy as np
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError(f"powers must be positive and finite, got {lo:g} and {hi:g}")
    return tuple(float(p) for p in np.geomspace(lo, hi, points))


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The least-squares slope of ys against xs, cov/var in Python floats."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def slope_estimate(plan: TransmissionPlan, model: ChannelModel,
                   p_grid: Optional[Sequence[float]] = None) -> RateCurve:
    """Least-squares slope of the sum rate against 0.5*ln(P).

    Fits the top half of the grid only, which suppresses the O(1/log P)
    constant bias.  The grid must be increasing, span at least six decades,
    and hold at least twelve points.
    """
    from .schemes import certify_plan
    grid = tuple(p_grid) if p_grid is not None else default_power_grid()
    if len(grid) < 12:
        raise ValueError("power grid needs at least 12 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("power grid must be strictly increasing")
    if math.log10(grid[-1] / grid[0]) < 6:
        raise ValueError("power grid must span at least 6 decades")
    cert = certify_plan(plan, model)
    if not cert.ok:
        raise ValueError(f"plan does not certify: {cert.failure}")
    points = tuple((float(p), float(_subnet_rate(plan, model, p))) for p in grid)
    top = points[len(points) // 2:]
    xs = [0.5 * math.log(p) for p, _ in top]
    ys = [r for _, r in top]
    slope = 0.0 if all(abs(y) <= 1e-8 for y in ys) else _ls_slope(xs, ys)
    return RateCurve(points=points, slope_estimate=slope, claimed_dof=plan.claimed_dof)


def offset_experiment(L: int, alpha_star: AlphaLike, K: int,
                      alpha_gaps: Optional[Sequence[float]] = None) -> OffsetCurve:
    """Growth of the converse-side power-offset proxy toward a critical gain.

    For each alpha on a geometric approach to alpha*, the proxy is

        0.5*eta*ln(P) - [ (K-q)*0.5*ln(P) + 0.5*ln(1 + P a^2 v_top^2 / |v|^2) ]

    at the top power _P_TOP, where eta = K - floor(K/(L+2)) is the exact
    multiplexing gain near (but not at) the critical value and v_top is the
    normalized determinant that vanishes there.  The bounded remainder of
    the true offset is unknown and excluded: only the slope against
    -ln|alpha - alpha*| is meaningful, and it estimates the root's
    multiplicity.  alpha* must be a root of u_{L+1}, and the fit needs at
    least two gaps, each of which moves alpha* up in floats.  Runs without numpy.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if (K + 1) % (L + 2) != 0:
        raise ValueError("K must equal q(L+2)-1 for an integer q")
    if not u_is_zero(L + 1, alpha_star):
        raise ValueError(f"alpha* must be a root of u_{L + 1}, got {alpha_token(alpha_star)}")
    q = (K + 1) // (L + 2)
    astar = alpha_float(alpha_star)
    gaps = tuple(alpha_gaps) if alpha_gaps is not None else tuple(
        2.0 ** (-e) for e in range(3, 13))
    if len(gaps) < 2:
        raise ValueError(f"the alpha grid needs at least two gaps, got {len(gaps)}")
    bad = next((g for g in gaps if not astar + g > astar), None)  # nan included
    if bad is not None:
        raise ValueError(f"the alpha grid must not touch the critical value: the gap {bad!r} "
                         f"does not move alpha*={astar!r} up in floats")
    eta = K - K // (L + 2)
    samples = []
    for gap in gaps:
        a = astar + gap
        vs = v_sequence(L + 1, a)
        v_top = vs[L + 1]
        v_norm_sq = sum(vs[j] ** 2 for j in range(0, L + 1))
        rate_ub = (K - q) * 0.5 * math.log(_P_TOP) + \
            0.5 * math.log1p(_P_TOP * a * a * v_top * v_top / v_norm_sq)
        proxy = 0.5 * eta * math.log(_P_TOP) - rate_ub
        if not math.isfinite(proxy):
            raise ValueError(f"arithmetic overflows at alpha={a!r}: "
                             f"the offset proxy is not finite")
        samples.append((a, proxy))
    xs = [-math.log(abs(a - astar)) for a, _ in samples]
    if len(set(xs)) < 2:
        raise ValueError("the alpha grid needs two gaps that give distinct gains")
    nu = _ls_slope(xs, [v for _, v in samples])
    return OffsetCurve(alpha_star=astar, samples=tuple(samples), fitted_nu=nu)


_MAX_WINDOW = 12    # largest window size the rank trials check
_WINDOW_CAP = 4096  # most window starts of one size in one float pass


class RankTrialReport(NamedTuple):
    trials: int
    failures: int
    max_window: int
    failed_cases: Tuple[Tuple[int, int, int], ...]  # (trial, start, size)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {"trials": self.trials, "failures": self.failures,
                "max_window": self.max_window,
                "failed_cases": [list(c) for c in self.failed_cases[:20]]}


def _proven_nonzero(sub: np.ndarray, sup: np.ndarray, wmax: int) -> np.ndarray:
    """Which windows a float pass proves nonsingular: entry [t, s-1, j] is
    for the s x s principal window at 0-based start j of channel t, whose
    sub- and super-diagonal gains are sub[t] and sup[t] (unit diagonal;
    entries with j > K - s are meaningless).

    det W is the continuant theta_s = theta_{s-1} - l u theta_{s-2}, run for
    every start and all sizes at once.  Its rounding error is at most
    (4s+2) eps tbar_s, where tbar is the same recursion on absolute values,
    so |theta_s| above that proves det W != 0.  nan and inf never prove.
    """
    import numpy as np
    n, K = sub.shape[0], sub.shape[1] + 1
    links = np.zeros((n, K + wmax))
    links[:, :K - 1] = sub * sup
    link = np.stack((links, -np.abs(links)))  # theta's links, then tbar's
    theta = theta0 = np.ones((2, n, K))  # [theta, tbar] at sizes s-1 and s-2
    eps = np.finfo(float).eps
    proven = np.ones((n, wmax, K), dtype=bool)
    with np.errstate(all="ignore"):
        for s in range(2, wmax + 1):
            theta, theta0 = theta - link[:, :, s - 2:s - 2 + K] * theta0, theta
            np.greater(np.abs(theta[0]), (4 * s + 2) * eps * theta[1], out=proven[:, s - 1])
    return proven


def random_gain_rank_trials(K: int, topology: str, trials: int, seed: int,
                            gains: Optional[CrossGainAssignment] = None
                            ) -> RankTrialReport:
    """Check every contiguous principal submatrix of size up to 12 for full
    rank, exactly.

    With continuous random gains no window ever loses rank (probability-1
    statement, finite sampling); an equal critical gain is the negative
    control that must fail.  Fixed gains must be of kind "equal" and take
    one trial and no band: a symmetric window of size s is H_s(alpha),
    singular iff u_is_zero(s, alpha), the zero test of mg and certify.
    Asymmetric windows are unit lower-triangular, so of full rank at any
    gains, and their random trials draw nothing.  A symmetric random
    window fails iff its continuant is exactly 0: a float pass
    (_proven_nonzero) over a chunk of max(1, _WINDOW_CAP // K) trials'
    draws proves most nonzero, and tridiag.continuant_is_zero decides the
    rest.  Memory is O(12 * max(K, _WINDOW_CAP)) plus a tuple per failure.
    Failures are (trial, start, size), ordered by trial, size and start.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    wmax = min(K, _MAX_WINDOW)
    if gains is not None:
        if gains.kind != "equal":
            raise ValueError(f"fixed gains must be of kind 'equal', got {gains.kind!r}")
        alpha = gains.alpha if topology == SYMMETRIC else 0.0
        bad = [s for s in range(1, wmax + 1) if u_is_zero(s, alpha)]
        cases = islice(((0, j, s) for s in bad for j in range(1, K - s + 2)), 50)
        return RankTrialReport(1, sum(K - s + 1 for s in bad), wmax, tuple(cases))
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    failures = []
    if topology == SYMMETRIC:
        import numpy as np
        per_chunk = max(1, _WINDOW_CAP // K)
        starts = np.arange(K)
        for t0 in range(0, trials, per_chunk):
            n = min(trials - t0, per_chunk)
            sub, sup = np.empty((n, K - 1)), np.empty((n, K - 1))
            for t in range(n):
                sub[t], sup[t] = _generic_draws(K, topology, seed + t0 + t)
            unproven = ~_proven_nonzero(sub, sup, wmax) & \
                (starts <= K - np.arange(1, wmax + 1)[:, None])  # windows that exist
            for t, s, j in zip(*np.nonzero(unproven)):  # in (trial, size, start) order
                if continuant_is_zero(sub[t, j:j + s].tolist(), sup[t, j:j + s].tolist()):
                    failures.append((t0 + int(t), int(j) + 1, int(s) + 1))
    return RankTrialReport(trials=trials, failures=len(failures),
                           max_window=wmax, failed_cases=tuple(failures[:50]))
