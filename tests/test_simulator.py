import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rank_window_loop as rw
from wynerdof import netmodel as nm
from wynerdof import schemes as sc
from wynerdof import simulator as sim
from wynerdof.tridiag import RootAlpha, alpha_float, h_matrix, u_is_zero

P = nm.NetworkParams
ROOT3 = RootAlpha(3, 1)


def model(params, topology, alpha):
    return nm.build_channel(params, topology, nm.CrossGainAssignment.equal(alpha))


def empty_plan(K):
    """Everything silenced: zero rate at every power."""
    params = P(K=K)
    return sc.TransmissionPlan(
        params=params, topology=nm.ASYMMETRIC, family="asym-silencing",
        silenced_tx=tuple(range(1, K + 1)), silenced_rx=(), subnets=(),
        signal_deps=(), message_prelog=(), claimed_dof=0)


class TestPlanSumRate:
    def test_single_pair_scalar_formula(self):
        p = P(K=1)
        plan = sc.asym_plan(p)
        m = model(p, nm.ASYMMETRIC, 0.5)
        assert sim.plan_sum_rate(plan, m, math.e ** 2 - 1) == pytest.approx(1.0)

    def test_generic_subnet_at_unit_gain(self):
        # one full period (transmitter 8 silenced): seven messages, all with
        # unit pivots at alpha = 1
        p = P(K=8, t_left=2, t_right=1, r_left=2, r_right=1)
        plan = sc.asym_plan(p)
        assert plan.silenced_tx == (8,)
        m = model(p, nm.ASYMMETRIC, 1.0)
        for Pw in (10.0, 1e4):
            assert sim.plan_sum_rate(plan, m, Pw) == \
                pytest.approx(7 * 0.5 * math.log1p(Pw), rel=1e-12)

    def test_mimo_subnet_matches_dense_logdet(self):
        p = P(K=3, t_left=1, t_right=2, r_left=1, r_right=0)
        plan = sc.sym_symmetric_si_plan(p, 0.5)
        m = model(p, nm.SYMMETRIC, 0.5)
        h = h_matrix(3, 0.5)
        want = 0.5 * math.log(np.linalg.det(np.eye(3) + 10.0 * h.T @ h))
        assert sim.plan_sum_rate(plan, m, 10.0) == pytest.approx(want, rel=1e-12)

    def test_uncertified_plan_rejected(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        with pytest.raises(ValueError, match="certify"):
            sim.plan_sum_rate(plan, model(p, nm.SYMMETRIC, ROOT3), 10.0)

    def test_monotone_in_power(self):
        cases = [
            (sc.asym_plan(P(K=9, t_left=1, r_right=1)),
             model(P(K=9, t_left=1, r_right=1), nm.ASYMMETRIC, 0.4)),
            (sc.sym_symmetric_si_plan(P(K=9, t_left=1, t_right=1,
                                        r_left=1, r_right=1), 0.7),
             model(P(K=9, t_left=1, t_right=1, r_left=1, r_right=1),
                   nm.SYMMETRIC, 0.7)),
            (sc.sym_general_plan(P(K=9, r_left=1, r_right=1), "lb-central-mimo"),
             model(P(K=9, r_left=1, r_right=1), nm.SYMMETRIC, 0.7)),
        ]
        for plan, m in cases:
            rates = [sim.plan_sum_rate(plan, m, pw)
                     for pw in np.geomspace(1e-2, 1e12, 15)]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_logdet_additivity_over_subnets(self):
        # non-interfering blocks: sum of block logdets equals the logdet of
        # the block-diagonal assembly
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        m = model(p, nm.SYMMETRIC, 0.3)
        Pw = 123.0
        total = sim.plan_sum_rate(plan, m, Pw)
        keep = [k - 1 for k in range(1, 8) if k not in plan.silenced_tx]
        hblk = m.matrix[np.ix_(keep, keep)]
        want = 0.5 * math.log(np.linalg.det(np.eye(len(keep)) + Pw * hblk.T @ hblk))
        assert total == pytest.approx(want, rel=1e-9)


class TestSlopeEstimate:
    def test_example_network_both_gains(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        for a, want in ((0.3, 6), (ROOT3, 5)):
            plan = sc.sym_symmetric_si_plan(p, a)
            curve = sim.slope_estimate(plan, model(p, nm.SYMMETRIC, a))
            assert abs(curve.slope_estimate - want) <= 0.05

    def test_slope_matches_certified_value_on_a_grid(self):
        from itertools import product
        grid = np.geomspace(1e3, 1e14, 12)
        for K in (4, 9, 14, 20):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                if (tl + tr + rl + rr) % 2:   # thin the grid, keep variety
                    continue
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                plan = sc.asym_plan(p)
                curve = sim.slope_estimate(plan, model(p, nm.ASYMMETRIC, 0.6), grid)
                assert abs(curve.slope_estimate - plan.claimed_dof) <= 0.05, p
                if tl + rl == tr + rr:
                    plan2 = sc.sym_symmetric_si_plan(p, 0.6)
                    curve2 = sim.slope_estimate(plan2, model(p, nm.SYMMETRIC, 0.6),
                                                grid)
                    assert abs(curve2.slope_estimate - plan2.claimed_dof) <= 0.05, p

    def test_empty_plan_has_zero_slope(self):
        plan = empty_plan(4)
        m = model(P(K=4), nm.ASYMMETRIC, 0.5)
        curve = sim.slope_estimate(plan, m)
        assert curve.slope_estimate == 0.0

    def test_the_slope_is_the_least_squares_line_of_the_top_half(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        for a in (0.3, ROOT3):
            curve = sim.slope_estimate(sc.sym_symmetric_si_plan(p, a), model(p, nm.SYMMETRIC, a))
            top = curve.points[len(curve.points) // 2:]
            want = np.polyfit([0.5 * math.log(pw) for pw, _ in top], [r for _, r in top], 1)[0]
            assert curve.slope_estimate == pytest.approx(want, rel=1e-12)

    def test_grid_validation(self):
        p = P(K=3)
        plan = sc.asym_plan(p)
        m = model(p, nm.ASYMMETRIC, 0.5)
        with pytest.raises(ValueError, match="12 points"):
            sim.slope_estimate(plan, m, p_grid=np.geomspace(1e3, 1e14, 8))
        with pytest.raises(ValueError, match="6 decades"):
            sim.slope_estimate(plan, m, p_grid=np.geomspace(1e3, 1e6, 12))

    def test_csv_round_trip_shape(self):
        p = P(K=3)
        plan = sc.asym_plan(p)
        curve = sim.slope_estimate(plan, model(p, nm.ASYMMETRIC, 0.5))
        lines = curve.to_csv("x").strip().splitlines()
        assert lines[0] == "P,sum_rate_nats,plan_id"
        assert len(lines) == 13


class TestOffsetExperiment:
    def test_slope_estimates_multiplicity(self):
        curve = sim.offset_experiment(2, ROOT3, 7)
        assert abs(curve.fitted_nu - ROOT3.multiplicity) <= 0.2 * ROOT3.multiplicity

    def test_growth_is_strictly_monotone(self):
        curve = sim.offset_experiment(2, ROOT3, 7)
        ordered = sorted(curve.samples, key=lambda s: abs(s[0] - curve.alpha_star),
                         reverse=True)
        vals = [v for _, v in ordered]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # Spearman correlation of proxy against -log gap is exactly 1
        gaps = [-math.log(abs(a - curve.alpha_star)) for a, _ in ordered]
        assert np.all(np.argsort(gaps) == np.argsort(vals))

    def test_halving_the_gap_adds_about_log_two(self):
        curve = sim.offset_experiment(2, ROOT3, 7)
        vals = [v for _, v in curve.samples]
        increments = [b - a for a, b in zip(vals, vals[1:])]
        for inc in increments[3:]:
            assert inc == pytest.approx(math.log(2), rel=0.05)

    def test_power_stability_once_saturated(self):
        big = sim.offset_experiment(2, ROOT3, 7, alpha_gaps=[0.05, 0.025],
                                    p_grid=np.geomspace(1e3, 1e14, 12))
        bigger = sim.offset_experiment(2, ROOT3, 7, alpha_gaps=[0.05, 0.025],
                                       p_grid=np.geomspace(1e3, 1e16, 12))
        assert big.samples[0][1] == pytest.approx(bigger.samples[0][1], abs=1e-6)

    def test_touching_the_critical_value_rejected(self):
        with pytest.raises(ValueError):
            sim.offset_experiment(2, ROOT3, 7, alpha_gaps=[0.1, 0.0])

    def test_a_gap_that_leaves_alpha_star_unchanged_is_rejected(self):
        with pytest.raises(ValueError, match=r"^the alpha grid must not touch the critical "
                                             r"value: the gap 8\.673617379884035e-19 does not "
                                             r"move alpha\*=0\.7071067811865476 up in floats$"):
            sim.offset_experiment(2, ROOT3, 7, alpha_gaps=[0.1, 2.0 ** -60])

    def test_gaps_that_round_to_one_gain_are_rejected(self):
        # 1 and 1.25 float steps of alpha* both round to alpha* + 1 step
        with pytest.raises(ValueError, match="^the alpha grid needs two gaps that give distinct"):
            sim.offset_experiment(2, ROOT3, 7, alpha_gaps=[2.0 ** -53, 1.25 * 2.0 ** -53])

    def test_the_fit_is_the_least_squares_line(self):
        for gaps in (None, [0.05, 0.03, 0.011, 0.004]):
            curve = sim.offset_experiment(2, ROOT3, 7, alpha_gaps=gaps)
            xs = [-math.log(a - curve.alpha_star) for a, _ in curve.samples]
            ys = [v for _, v in curve.samples]
            assert curve.fitted_nu == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-12)

    @pytest.mark.parametrize("alpha_star", [0.3, RootAlpha(2, 1), 0.7071])
    def test_alpha_star_must_be_a_root_of_the_next_order(self, alpha_star):
        with pytest.raises(ValueError, match="^alpha\\* must be a root of u_3, got "):
            sim.offset_experiment(2, alpha_star, 7)

    def test_the_float_value_of_a_root_is_accepted(self):
        curve = sim.offset_experiment(2, float(ROOT3), 7)
        assert curve.alpha_star == ROOT3.value

    def test_network_size_validated(self):
        with pytest.raises(ValueError):
            sim.offset_experiment(2, ROOT3, 8)


class TestRandomRank:
    def test_continuous_gains_never_lose_rank(self):
        for topo in (nm.ASYMMETRIC, nm.SYMMETRIC):
            rep = sim.random_gain_rank_trials(20, topo, 30, seed=5)
            assert rep.ok

    def test_negative_control_fails_at_window_three(self):
        rep = sim.random_gain_rank_trials(
            20, nm.SYMMETRIC, 1, seed=0,
            gains=nm.CrossGainAssignment.equal(ROOT3))
        assert not rep.ok
        assert any(size == 3 for _, _, size in rep.failed_cases)

    def test_single_pair_trivially_full_rank(self):
        rep = sim.random_gain_rank_trials(1, nm.SYMMETRIC, 5, seed=1)
        assert rep.ok

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sim.random_gain_rank_trials(5, nm.SYMMETRIC, 0, seed=1)


ROOTS = [RootAlpha(p, k, sign) for p in range(2, 9) for k in range(1, p // 2 + 1)
         for sign in (1, -1)]


def float_steps(a, steps=4):
    """a and its float neighbours up to `steps` steps either side."""
    out = [a]
    for direction in (math.inf, -math.inf):
        b = a
        for _ in range(steps):
            b = float(np.nextafter(b, direction))
            out.append(b)
    return out


def near_root_gains(p):
    """Every root:p:k, both signs, with 0 to 4 float steps either side."""
    return [g for k in range(1, p // 2 + 1) for sign in (1, -1)
            for g in float_steps(alpha_float(RootAlpha(p, k, sign)))]


def zero_test_report(K, topology, alpha):
    """The fixed-gain report of the zero test: every window of each size s
    with u_s(alpha) = 0 on the symmetric topology, none on the asymmetric
    one, whose windows are unit lower-triangular."""
    wmax = min(K, sim._MAX_WINDOW)
    failed = [(0, j, s) for s in range(1, wmax + 1)
              if topology == nm.SYMMETRIC and u_is_zero(s, alpha) for j in range(1, K - s + 2)]
    return sim.RankTrialReport(1, len(failed), wmax, tuple(failed[:50]))


# size-2 windows of the equal gain a have sigma_min / sigma_max = |1-a|/(1+a),
# which is RANK_REL_TOL at this a: the SVD decides them either way
AT_TOL = (1 - sc.RANK_REL_TOL) / (1 + sc.RANK_REL_TOL)
# odd windows of 1e5 and 1e6 have ratios between RANK_REL_TOL and 100 times it
EXTREME_GAINS = [g * sign for g in (1e-3, 1e3, 1e5, 1e6, 1e8) for sign in (1, -1)] + \
    float_steps(AT_TOL, 20)


class TestRankTrialsMatchTheWindowLoop:
    """The batched rank trials at random gains against the per-window loop
    they replaced (tests/rank_window_loop.py), and at fixed gains against the
    zero test: equal reports, field for field."""

    @pytest.mark.parametrize("K", list(range(1, 31)) + [60])
    def test_equal_reports(self, K):
        for topo in nm.TOPOLOGIES:
            want = rw.random_gain_rank_trials(K, topo, 3, K)
            assert sim.random_gain_rank_trials(K, topo, 3, K) == want, (K, topo)
        for topo, a in [(topo, a) for topo in nm.TOPOLOGIES for a in (1.0, -1.0, 0.3, 0.5)] + \
                [(nm.SYMMETRIC, a) for a in ROOTS]:
            got = sim.random_gain_rank_trials(K, topo, 3, 0, gains=nm.CrossGainAssignment.equal(a))
            assert got == zero_test_report(K, topo, a), (K, topo, a)

    def test_failures_in_several_trials_keep_the_loop_order(self, monkeypatch):
        # odd seeds draw alpha = 1 (26 failing windows at K = 12), so trials
        # 1 and 3 fail: 52 failures, cut to 50, ordered by trial first
        def gains(K, topology, seed):
            if seed % 2:
                return nm.CrossGainAssignment.equal(1.0)
            return nm.sample_generic_gains(K, topology, seed)

        def draws(K, topology, seed):
            if seed % 2:
                return np.ones(K - 1), np.ones(K - 1)
            return nm._generic_draws(K, topology, seed)

        monkeypatch.setattr(sim, "_generic_draws", draws)
        monkeypatch.setattr(rw, "sample_generic_gains", gains)
        got = sim.random_gain_rank_trials(12, nm.SYMMETRIC, 5, seed=0)
        assert got.failures == 52 and {c[0] for c in got.failed_cases} == {1, 3}
        assert got == rw.random_gain_rank_trials(12, nm.SYMMETRIC, 5, seed=0)

    @pytest.mark.parametrize("cap", [1, 7, 100])
    def test_small_window_cap_gives_the_same_report(self, monkeypatch, cap):
        monkeypatch.setattr(sim, "_WINDOW_CAP", cap)
        for K, topo, trials in ((9, nm.SYMMETRIC, 5), (13, nm.ASYMMETRIC, 4)):
            want = rw.random_gain_rank_trials(K, topo, trials, 2)
            assert sim.random_gain_rank_trials(K, topo, trials, 2) == want

    @pytest.mark.parametrize("p", range(2, 14))
    def test_near_root_gains(self, p):
        # within 4 float steps of a rounded root, u_is_zero calls the gain critical
        for a in near_root_gains(p):
            gains = nm.CrossGainAssignment.equal(a)
            for topo in nm.TOPOLOGIES:
                got = sim.random_gain_rank_trials(14, topo, 1, 0, gains=gains)
                assert got == zero_test_report(14, topo, a), (a, topo)

    @pytest.mark.parametrize("K, trials", [(20, 30), (60, 100), (5, 3)])
    def test_one_svd_call_per_window_size_per_chunk(self, monkeypatch, K, trials):
        svd, draws, bounds = np.linalg.svd, sim._generic_draws, sim._ratio_lower_bounds
        events = []  # "b" per trial drawn, "c" per chunk certified, else the windows in one SVD call

        def counting_svd(a, *args, **kwargs):
            events.append(a.shape[0])
            return svd(a, *args, **kwargs)

        def counting_draws(*args):
            events.append("b")
            return draws(*args)

        def counting_bounds(*args):
            events.append("c")
            return bounds(*args)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(sim, "_generic_draws", counting_draws)
        monkeypatch.setattr(sim, "_ratio_lower_bounds", counting_bounds)
        rep = sim.random_gain_rank_trials(K, nm.SYMMETRIC, trials, seed=4)
        per_chunk = max(1, sim._WINDOW_CAP // K)
        calls = [e for e in events if e not in ("b", "c")]
        chunks = "".join(e for e in events if e in ("b", "c")).split("c")[:-1]
        # every window may be certified, so a chunk may make no SVD call at all
        assert rep.ok and len(calls) <= rep.max_window * math.ceil(trials / per_chunk)
        assert max(calls, default=0) <= sim._WINDOW_CAP
        assert len(chunks) == math.ceil(trials / per_chunk)
        assert sum(map(len, chunks)) == trials and max(map(len, chunks)) <= per_chunk


class TestFixedGainsTakeTheZeroTest:
    """A fixed equal gain fails exactly the windows whose determinant
    u_s(alpha) vanishes, by the zero test mg and certify use: no band, no
    determinant certificate and no SVD."""

    def test_near_every_root_and_at_extreme_gains(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fixed gain reached the SVD or the certificate")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(sim, "_ratio_lower_bounds", refuse)
        roots = [alpha_float(r) for r in ROOTS if r.p <= 7]
        gains = [r + d * 10.0 ** -k for r in roots for k in range(3, 16) for d in (1, -1)]
        assert len(gains) == 624
        wrong = [(a, topo) for a in gains + EXTREME_GAINS for topo in nm.TOPOLOGIES
                 if sim.random_gain_rank_trials(14, topo, 1, 0, gains=nm.CrossGainAssignment.equal(a))
                 != zero_test_report(14, topo, a)]
        assert not wrong, f"{len(wrong)} of {2 * (len(gains) + len(EXTREME_GAINS))}: {wrong[:5]}"

    def test_a_large_network_is_counted_not_listed(self):
        gains = nm.CrossGainAssignment.equal(RootAlpha(3, 1))
        tracemalloc.start()
        try:
            rep = sim.random_gain_rank_trials(10 ** 6, nm.SYMMETRIC, 1, 0, gains=gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.failures == 2_999_982  # every window of size 3, 7 and 11
        assert rep.failed_cases == tuple((0, j, 3) for j in range(1, 51))
        assert peak < 2 ** 20, f"{peak} bytes traced"

    @pytest.mark.parametrize("topology", nm.TOPOLOGIES)
    def test_fixed_gains_must_be_equal(self, topology):
        explicit = nm.sample_generic_gains(6, topology, 0)
        with pytest.raises(ValueError, match="kind 'equal', got 'explicit'"):
            sim.random_gain_rank_trials(6, topology, 1, 0, gains=explicit)


def exact_ratio_at_least(W, b):
    """Whether sigma_min / sigma_max of the 2 x 2 float matrix W is at least
    b, decided in rational arithmetic: sigma^2 = (t -+ R) / 2 with t the
    squared Frobenius norm and R^2 = t^2 - 4 det^2, so the ratio is at least
    b iff R (1 + b^2) <= t (1 - b^2)."""
    if b <= 0:
        return True
    (w, x), (y, z) = [[Fraction(float(v)) for v in row] for row in W]
    t, det, B = w * w + x * x + y * y + z * z, w * z - x * y, Fraction(float(b)) ** 2
    return B <= 1 and (t * t - 4 * det * det) * (1 + B) ** 2 <= (t * (1 - B)) ** 2


def edge_gains(K, topology, seed):
    """Random-sign gains whose magnitudes lie within 1e-3 of an end of the
    support [0.1, 2], the end picked at random per link."""
    rng = np.random.default_rng(seed)

    def draw():
        near = rng.uniform(0, 1e-3, size=K - 1)
        mags = np.where(rng.integers(0, 2, size=K - 1) == 1, 0.1 + near, 2.0 - near)
        return mags * np.array((-1.0, 1.0))[rng.integers(0, 2, size=K - 1)]

    sub = draw()
    return nm.CrossGainAssignment.explicit(sub, draw() if topology == nm.SYMMETRIC else None)


class TestRankCertificate:
    """The determinant certificate that spares most windows their SVD, on
    random gains (drawn, and at the support's ends), near-root equal gains
    and extreme equal gains."""

    def cases(self, K):
        gains = [nm.CrossGainAssignment.equal(a) for p in range(2, 14)
                 for a in near_root_gains(p)] if K == 14 else []
        gains += [nm.CrossGainAssignment.equal(a) for a in EXTREME_GAINS]
        cases = [(topo, g) for topo in nm.TOPOLOGIES for g in gains]
        cases += [(topo, nm.sample_generic_gains(K, topo, seed))
                  for topo in nm.TOPOLOGIES for seed in range(50)]
        cases += [(topo, edge_gains(K, topo, seed))
                  for topo in nm.TOPOLOGIES for seed in range(30)]
        channels = np.array([nm.build_channel(P(K=K), topo, g).matrix for topo, g in cases])
        bands = np.array([nm.channel_band(K, topo, g) for topo, g in cases])
        return channels, sim._ratio_lower_bounds(bands, sim._MAX_WINDOW)

    @pytest.mark.parametrize("K", [14, 60])
    def test_certified_windows_keep_full_rank(self, K):
        channels, proven = self.cases(K)
        certified = 0
        for s in range(1, sim._MAX_WINDOW + 1):
            starts = range(K - s + 1)
            windows = np.stack([channels[:, j:j + s, j:j + s] for j in starts], axis=1)
            sv = np.linalg.svd(windows, compute_uv=False)
            ratio = sv[..., -1] / sv[..., 0]
            cert = proven[:, s - 1, :len(starts)] >= sim._CERTIFIED
            certified += cert.sum()
            # the SVD would have passed every certified window ...
            assert np.all(ratio[cert] > sc.RANK_REL_TOL), s
            # ... with a margin of 100 that LAPACK's rounding cannot eat
            assert np.all(ratio[cert] >= 100 * sc.RANK_REL_TOL * (1 - 1e-6)), s
        assert certified > 0

    @pytest.mark.parametrize("K", [14, 60])
    def test_size_two_bounds_hold_in_exact_arithmetic(self, K):
        channels, proven = self.cases(K)
        seen = set()
        for H, bounds in zip(channels, proven[:, 1]):
            for j in range(K - 1):
                W = H[j:j + 2, j:j + 2]
                key = (W.tobytes(), bounds[j])
                if key not in seen:
                    seen.add(key)
                    assert exact_ratio_at_least(W, bounds[j]), (W, bounds[j])

    def test_generic_gains_mostly_skip_the_svd(self, monkeypatch):
        svd = np.linalg.svd
        sent = []

        def counting_svd(a, *args, **kwargs):
            sent.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for topo in nm.TOPOLOGIES:
            sent.clear()
            assert sim.random_gain_rank_trials(20, topo, 200, seed=0).ok
            assert sum(sent) <= 0.01 * 200 * sum(20 - s + 1 for s in range(1, 13)), topo
