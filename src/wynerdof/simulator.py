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
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .netmodel import ChannelModel, CrossGainAssignment, \
    NetworkParams, build_channel, sample_generic_gains, submatrix
from .schemes import TransmissionPlan, certify_plan
from .tridiag import AlphaLike, alpha_float, v_sequence

__all__ = [
    "RateCurve",
    "OffsetCurve",
    "plan_sum_rate",
    "slope_estimate",
    "offset_experiment",
    "random_gain_rank_trials",
    "RankTrialReport",
]


@dataclass(frozen=True)
class RateCurve:
    plan_family: str
    points: Tuple[Tuple[float, float], ...]  # (P, sum rate in nats)
    slope_estimate: float
    slope_stderr: float
    claimed_dof: int

    def to_csv(self, plan_id: str = "plan") -> str:
        lines = ["P,sum_rate_nats,plan_id"]
        for p, r in self.points:
            lines.append(f"{p!r},{r!r},{plan_id}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OffsetCurve:
    alpha_star: float
    samples: Tuple[Tuple[float, float], ...]  # (alpha, offset proxy in nats)
    fitted_nu: float

    def to_csv(self) -> str:
        lines = ["alpha,offset_proxy"]
        for a, v in self.samples:
            lines.append(f"{a!r},{v!r}")
        return "\n".join(lines) + "\n"


def _subnet_rate(plan: TransmissionPlan, model: ChannelModel, P: float) -> float:
    H = model.matrix
    prelog = plan.prelog_map()
    total = 0.0
    for sn in plan.subnets:
        coupled = set()
        for blk in sn.mimo_blocks:
            coupled.update(blk.coupled)
        plain = 0.0
        coupled_individual = 0.0
        for st in sn.scalar_steps:
            pivot = H[st.antenna - 1, st.tx - 1]
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
    if P <= 0:
        raise ValueError("power must be positive")
    cert = certify_plan(plan, model)
    if not cert.ok:
        raise ValueError(f"plan does not certify: {cert.failure}")
    return _subnet_rate(plan, model, P)


def default_power_grid(lo: float = 1e3, hi: float = 1e14, points: int = 12):
    return tuple(float(p) for p in np.geomspace(lo, hi, points))


def slope_estimate(plan: TransmissionPlan, model: ChannelModel,
                   p_grid: Optional[Sequence[float]] = None) -> RateCurve:
    """Least-squares slope of the sum rate against 0.5*ln(P).

    Fits the top half of the grid only, which suppresses the O(1/log P)
    constant bias.  The grid must be increasing, span at least six decades,
    and hold at least twelve points.
    """
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
    xs = np.array([0.5 * math.log(p) for p, _ in top])
    ys = np.array([r for _, r in top])
    if np.allclose(ys, 0.0):
        slope, stderr = 0.0, 0.0
    else:
        (slope, intercept), cov = np.polyfit(xs, ys, 1, cov=True)
        stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
        slope = float(slope)
    return RateCurve(plan_family=plan.family, points=points,
                     slope_estimate=slope, slope_stderr=stderr,
                     claimed_dof=plan.claimed_dof)


def offset_experiment(L: int, alpha_star: AlphaLike, K: int,
                      alpha_gaps: Optional[Sequence[float]] = None,
                      p_grid: Optional[Sequence[float]] = None) -> OffsetCurve:
    """Growth of the converse-side power-offset proxy toward a critical gain.

    For each alpha on a geometric approach to alpha*, the proxy is

        0.5*eta*ln(P) - [ (K-q)*0.5*ln(P) + 0.5*ln(1 + P a^2 v_top^2 / |v|^2) ]

    at the largest grid power, where eta = K - floor(K/(L+2)) is the exact
    multiplexing gain near (but not at) the critical value and v_top is the
    normalized determinant that vanishes there.  The bounded remainder of
    the true offset is unknown and excluded: only the slope against
    -ln|alpha - alpha*| is meaningful, and it estimates the root's
    multiplicity.
    """
    if (K + 1) % (L + 2) != 0:
        raise ValueError("K must equal q(L+2)-1 for an integer q")
    q = (K + 1) // (L + 2)
    astar = alpha_float(alpha_star)
    gaps = tuple(alpha_gaps) if alpha_gaps is not None else tuple(
        2.0 ** (-e) for e in range(3, 13))
    if any(g <= 0 for g in gaps):
        raise ValueError("the alpha grid must not touch the critical value")
    grid = tuple(p_grid) if p_grid is not None else default_power_grid()
    p_top = max(grid)
    eta = K - K // (L + 2)
    samples = []
    for gap in gaps:
        a = astar + gap
        vs = v_sequence(L + 1, a)
        v_top = vs[L + 1]
        v_norm_sq = sum(vs[j] ** 2 for j in range(0, L + 1))
        rate_ub = (K - q) * 0.5 * math.log(p_top) + \
            0.5 * math.log1p(p_top * a * a * v_top * v_top / v_norm_sq)
        proxy = 0.5 * eta * math.log(p_top) - rate_ub
        samples.append((a, proxy))
    if len(samples) >= 2:
        xs = np.array([-math.log(abs(a - astar)) for a, _ in samples])
        ys = np.array([v for _, v in samples])
        nu = float(np.polyfit(xs, ys, 1)[0])
    else:
        nu = math.nan
    return OffsetCurve(alpha_star=astar, samples=tuple(samples), fitted_nu=nu)


@dataclass(frozen=True)
class RankTrialReport:
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


def random_gain_rank_trials(K: int, topology: str, trials: int, seed: int,
                            gains: Optional[CrossGainAssignment] = None,
                            max_window: int = 12,
                            rel_tol: float = 1e-8) -> RankTrialReport:
    """Check every contiguous principal submatrix for full numeric rank.

    With continuous random gains no window ever loses rank (probability-1
    statement, finite sampling); passing an equal critical gain instead is
    the negative control that must fail.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = NetworkParams(K=K)
    wmax = min(K, max_window)
    failures = []
    for t in range(trials):
        g = gains if gains is not None else sample_generic_gains(K, topology, seed + t)
        model = build_channel(params, topology, g)
        H = model.matrix
        for size in range(1, wmax + 1):
            for start in range(0, K - size + 1):
                block = H[start:start + size, start:start + size]
                s = np.linalg.svd(block, compute_uv=False)
                if s[-1] <= rel_tol * s[0]:
                    failures.append((t, start + 1, size))
        if gains is not None and t == 0:
            break  # fixed gains: one pass suffices
    n_done = trials if gains is None else 1
    return RankTrialReport(trials=n_done, failures=len(failures),
                           max_window=wmax, failed_cases=tuple(failures[:50]))
