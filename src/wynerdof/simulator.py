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

from .netmodel import RANK_REL_TOL, SYMMETRIC, TOPOLOGIES, ChannelModel, \
    CrossGainAssignment, _generic_draws, submatrix
from .tridiag import AlphaLike, alpha_float, alpha_token, rank_h, u_is_zero, \
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
    p_top = max(p_grid) if p_grid is not None else _P_TOP
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
_WINDOW_CAP = 4096  # most windows in one batched SVD call
_CERTIFIED = 100 * RANK_REL_TOL  # proven sigma_min / sigma_max that spares the SVD


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


def _window_stack(bands: np.ndarray, s: int, rows: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """The s x s principal windows at 0-based `starts` of the channels whose
    diagonal, sub- and super-diagonal are `bands[rows]`."""
    import numpy as np
    r = np.arange(s)
    cols = starts[:, None] + r
    stack = np.zeros((rows.size, s, s))
    stack[:, r, r] = bands[rows[:, None], 0, cols]
    stack[:, r[1:], r[:-1]] = bands[rows[:, None], 1, cols[:, :-1]]
    stack[:, r[:-1], r[1:]] = bands[rows[:, None], 2, cols[:, :-1]]
    return stack


def _ratio_lower_bounds(bands: np.ndarray, wmax: int) -> np.ndarray:
    """Proven lower bounds on sigma_min / sigma_max of every window: entry
    [t, s-1, j] is for the s x s window at 0-based start j of channel t
    (entries with j > K - s are meaningless).

    |det W| = prod sigma_i is sigma_min times the top s-1 singular values.
    With N = |W|_1 |W|_inf and F = |W|_F, every sigma_i <= sigma_max <=
    min(sqrt(N), F), and AM-GM on sigma_i^2, whose sum is F^2, bounds the
    top s-1 of them: their product is at most min(N, F^2/(s-1))^((s-1)/2).
    So sigma_min / sigma_max >= |det W| /
    (min(N, F^2/(s-1))^((s-1)/2) min(sqrt(N), F)), never less than the
    bound |det W| / N^(s/2) that N alone gives.  det W is the continuant
    theta_s = d theta_{s-1} - l u theta_{s-2}, run for every start and all
    sizes at once; its rounding error is at most (4s+2) eps tbar_s, where
    tbar is the same recursion on absolute values, and that much is taken
    off |theta_s|.  The row and column sums are running maxima and F^2 a
    running sum of squared entries.  Each of those squares is rounded at
    most s+2 <= 2s times (its own rounding, two in its size step's sum, the
    rest in the running sum), each by a factor of at least 1 - eps/2, so the
    true F^2 is below the computed one times (1 - eps/2)^(-2s) < 1 + 2s eps:
    F^2 is inflated by that factor.  The few roundings of the quotient itself
    move it by a few eps relative, which the factor 100 of _CERTIFIED dwarfs.
    Overflow gives nan or 0, which never certifies.
    """
    import numpy as np
    n, _, K = bands.shape
    ext = np.zeros((3, n, K + wmax))
    ext[:, :, :K] = bands.transpose(1, 0, 2)
    dm, lm, um = np.abs(ext)
    sq = ext * ext
    lu = ext[1] * ext[2]

    def prev(a):  # entry x holds entry x-1 of a
        return np.concatenate((np.zeros(a.shape[:-1] + (1,)), a[..., :-1]), axis=-1)

    # [theta, tbar] as one recursion (tbar's link term is -|l u|), at sizes s-1 and s-2
    diag, link = np.stack((ext[0], dm)), np.stack((lu, -np.abs(lu)))
    theta, theta0 = diag[:, :, :K], np.ones((2, n, K))
    # what index x brings to a window it ends: its squared entries and its
    # [row, column] sums, and those sums once x + 1 joins too
    sq_new = (sq[0] + prev(sq[1])) + prev(sq[2])
    across = np.stack((um, lm))
    last = np.stack((prev(lm), prev(um))) + dm
    first, full = dm + across, last + across  # x starts the window, or not
    fsq = sq[0, :, :K]
    eps = np.finfo(float).eps
    out = np.empty((n, wmax, K))
    with np.errstate(all="ignore"):
        np.divide(np.abs(theta[0]) - 6 * eps * theta[1], theta[1], out=out[:, 0])
        for s in range(2, wmax + 1):
            i, k = slice(s - 1, s - 1 + K), slice(s - 2, s - 2 + K)  # new index, its link
            theta, theta0 = diag[:, :, i] * theta - link[:, :, k] * theta0, theta
            closed = first[:, :, k] if s == 2 else np.maximum(closed, full[:, :, k])
            row, col = np.maximum(closed, last[:, :, i])
            norms = row * col
            fsq = fsq + sq_new[:, i]
            f2 = fsq * (1 + 2 * s * eps)
            top = np.sqrt(np.minimum(norms, f2 / (s - 1))) ** (s - 1)
            np.divide(np.abs(theta[0]) - (4 * s + 2) * eps * theta[1],
                      top * np.sqrt(np.minimum(norms, f2)), out=out[:, s - 1])
    return out


def random_gain_rank_trials(K: int, topology: str, trials: int, seed: int,
                            gains: Optional[CrossGainAssignment] = None
                            ) -> RankTrialReport:
    """Check every contiguous principal submatrix of size up to 12 for full
    rank.

    With continuous random gains no window ever loses rank (probability-1
    statement, finite sampling); passing an equal critical gain instead is
    the negative control that must fail.  Fixed gains must be of kind
    "equal" and take one trial, no band and no SVD: a window of size s is
    H_s(alpha) on the symmetric topology, of rank tridiag.rank_h(s, alpha)
    (the zero test of mg and certify), and unit lower-triangular on the
    asymmetric one.  A random trial's window has full rank when its smallest
    singular value is above RANK_REL_TOL times its largest.  Each trial's
    channel is held as its three diagonals, a chunk of trials at a time,
    written straight from its seed's draws.  A determinant certificate
    (_ratio_lower_bounds) first proves a lower bound on sigma_min / sigma_max
    from |det W|, |W|_1 |W|_inf and |W|_F for every window in one vectorised
    pass.  A window whose proven bound is at least _CERTIFIED = 100 *
    RANK_REL_TOL is full rank: LAPACK's O(eps * sigma_max) error could not
    bring its ratio down to RANK_REL_TOL.  The SVD decides every other
    window: for each window size, those of a chunk go to LAPACK in one
    batched SVD call of at most _WINDOW_CAP matrices.  A chunk holds
    max(1, _WINDOW_CAP // K) trials and the certificate 12 floats per window
    start of each, so memory is O(12 * max(K, _WINDOW_CAP)) floats plus a
    tuple per failure; a fixed gain counts its failures in O(1).  Failures
    are (trial, start, size), ordered by trial, size and start.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    wmax = min(K, _MAX_WINDOW)
    if gains is not None:
        if gains.kind != "equal":
            raise ValueError(f"fixed gains must be of kind 'equal', got {gains.kind!r}")
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}")
        alpha = gains.alpha if topology == SYMMETRIC else 0.0
        bad = [s for s in range(1, wmax + 1) if rank_h(s, alpha) < s]
        cases = islice(((0, j, s) for s in bad for j in range(1, K - s + 2)), 50)
        return RankTrialReport(1, sum(K - s + 1 for s in bad), wmax, tuple(cases))
    import numpy as np
    per_chunk = max(1, _WINDOW_CAP // K)
    sizes = np.arange(1, wmax + 1)
    failures = []
    for t0 in range(0, trials, per_chunk):
        bands = np.zeros((min(trials - t0, per_chunk), 3, K))
        bands[:, 0] = 1.0
        for t, band in enumerate(bands, t0):
            sub, sup = _generic_draws(K, topology, seed + t)
            band[1, :K - 1] = sub
            if sup is not None:
                band[2, :K - 1] = sup
        unproven = ~(_ratio_lower_bounds(bands, wmax) >= _CERTIFIED) & \
            (np.arange(K) <= K - sizes[:, None])  # windows that exist
        for size in sizes[unproven.any(axis=(0, 2))].tolist():
            n_start = K - size + 1
            windows = np.flatnonzero(unproven[:, size - 1, :n_start])
            for lo in range(0, windows.size, _WINDOW_CAP):
                idx = windows[lo:lo + _WINDOW_CAP]
                rows, starts = np.divmod(idx, n_start)
                sv = np.linalg.svd(_window_stack(bands, size, rows, starts),
                                   compute_uv=False)
                bad = sv[:, -1] <= RANK_REL_TOL * sv[:, 0]
                failures += [(t0 + t, start + 1, size) for t, start in
                             zip(rows[bad].tolist(), starts[bad].tolist())]
    failures.sort(key=lambda c: (c[0], c[2], c[1]))
    return RankTrialReport(trials=trials, failures=len(failures),
                           max_window=wmax, failed_cases=tuple(failures[:50]))
