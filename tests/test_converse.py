import math
from itertools import product

import numpy as np
import pytest

from genie_groups_oracle import (asym_group_a, mirror_group_a, offset_group_a, ub1_group_a,
                                 ub2_group_a)
from wynerdof import converse as cv
from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof.tridiag import RootAlpha, critical_roots, h_matrix

P = nm.NetworkParams
ROOT3 = RootAlpha(3, 1)


def model(params, topology, alpha):
    return nm.build_channel(params, topology, nm.CrossGainAssignment.equal(alpha))


class TestAsymGenie:
    def test_single_period_example(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        g = cv.build_asym_genie(p, 0.7)
        assert g.group_a == (4, 5, 6, 7)
        assert g.r_a == tuple(range(2, 8))
        assert g.bound == 6

    def test_two_period_example(self):
        g = cv.build_asym_genie(P(K=4), 0.7)
        assert g.missing() == (1, 3)
        assert g.bound == 2

    def test_trivial_partition(self):
        g = cv.build_asym_genie(P(K=3, t_left=2, r_left=2), 0.7)
        assert g.bound == 3 and g.genies == ()

    def test_geometric_weights(self):
        p = P(K=7, t_left=1, t_right=0, r_left=1, r_right=0)
        a = 0.8
        g = cv.build_asym_genie(p, a)
        first = dict(g.genies[0].noise_coeff)
        assert first[1] == 1.0
        for v in range(1, p.t_left + p.r_left + 2):
            assert first[1 + v] == pytest.approx((-1 / a) ** v, rel=1e-12)

    def test_bound_matches_formula_on_grid(self):
        for K in range(1, 13):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                assert cv.build_asym_genie(p, 0.9).bound == dc.asym_mg(p)

    def test_reconstruction_exact(self):
        p = P(K=10, t_left=1, t_right=0, r_left=1, r_right=0)
        g = cv.build_asym_genie(p, 0.7)
        rep = cv.verify_reconstruction(g, model(p, nm.ASYMMETRIC, 0.7), trials=100)
        assert rep.ok and rep.max_abs_error <= 1e-9

    def test_corrupted_coefficient_detected(self):
        p = P(K=10, t_left=1, t_right=0, r_left=1, r_right=0)
        g = cv.build_asym_genie(p, 0.7)
        noise = dict(g.genies[0].noise_coeff)
        k = sorted(noise)[1]
        noise[k] += 1e-3
        bad0 = g.genies[0]._replace(noise_coeff=tuple(sorted(noise.items())))
        bad = g._replace(genies=(bad0,) + g.genies[1:])
        rep = cv.verify_reconstruction(bad, model(p, nm.ASYMMETRIC, 0.7), trials=100)
        assert not rep.ok and rep.max_abs_error >= 1e-4


class TestSymUb1:
    def test_worked_example(self):
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub1(p, 0.9)
        assert g.bound == 9
        assert g.missing() == (1, 8, 9)
        rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, 0.9), trials=100)
        assert rep.ok and rep.max_abs_error <= 1e-9
        # boundary-pair targets are reconstructed explicitly
        assert {8, 9} <= set(rep.targets)

    def test_coefficients_come_from_banded_inverses(self):
        from wynerdof.tridiag import m_inverse
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        a = 0.9
        g = cv.build_sym_genie_ub1(p, a)
        ainv = m_inverse(3, a)
        # the genie hiding antenna 1 carries (a_{1,j} + alpha*a_{2,j}) weights
        v0 = dict(g.genies[0].noise_coeff)
        for j in range(1, 4):
            assert v0[1 + j] == pytest.approx(ainv[0, j - 1] + a * ainv[1, j - 1],
                                              rel=1e-12)

    def test_mirrored_orientation_when_only_the_right_fits(self):
        # kappa in [t_r+r_r+2, t_l+r_l+2): the tail anchors on the right
        p = P(K=14, t_left=3, t_right=0, r_left=1, r_right=0)
        g = cv.build_sym_genie_ub1(p, 0.8)
        vals = {b.label: b.value for b in dc.sym_upper_bounds(p, 0.8)}
        assert g.bound == vals["ub-generic"]
        rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, 0.8), trials=50)
        assert rep.ok

    def test_grid(self):
        for K in range(1, 13):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                g = cv.build_sym_genie_ub1(p, 0.8)
                vals = {b.label: b.value for b in dc.sym_upper_bounds(p, 0.8)}
                assert g.bound == vals["ub-generic"], p
                rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, 0.8), trials=6)
                assert rep.ok, (p, rep.failure)


class TestSymUb2:
    def test_null_row_coefficients(self):
        d = cv._null_row_coeffs(3, ROOT3)
        h = h_matrix(3, ROOT3.value)
        resid = np.max(np.abs(h[0] - d @ h[1:]))
        assert resid <= 1e-10
        assert d == pytest.approx([math.sqrt(2), -1.0], rel=1e-9)

    def test_a_non_singular_gain_is_rejected_by_the_residual_guard(self):
        with pytest.raises(ValueError, match="alpha is not a singular gain"):
            cv._null_row_coeffs(3, 0.3)

    def test_requires_singular_determinant(self):
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        with pytest.raises(ValueError, match="singular"):
            cv.build_sym_genie_ub2(p, 0.9)

    def test_matches_the_critical_case_bound(self):
        # symmetric side-information at the critical gain: the multi-round
        # bound specializes to the case-4 upper endpoint
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub2(p, ROOT3)
        si = dc.sym_mg_symmetric_si(p, ROOT3)
        assert g.bound == si.upper == 5
        rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, ROOT3), trials=100)
        assert rep.ok and rep.max_abs_error <= 1e-9

    def test_multi_round_structure(self):
        p = P(K=17, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub2(p, ROOT3)
        rounds = sorted({s.round_no for s in g.steps})
        assert rounds == list(range(1, len(rounds) + 1))
        assert len(rounds) >= 4  # genuinely staged
        rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, ROOT3), trials=60)
        assert rep.ok

    def test_mirrored_variant(self):
        p = P(K=9, t_left=1, t_right=0, r_left=1, r_right=2)
        g = cv.mirror_partition(cv.build_sym_genie_ub2(p.mirrored(), ROOT3), p)
        rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, ROOT3), trials=60)
        assert rep.ok

    def test_construction_gap_is_surfaced(self):
        # no left cognition and K a multiple of the period: no valid
        # receiver group exists; the builder refuses rather than fudge
        p = P(K=4, t_left=0, t_right=0, r_left=1, r_right=0)
        with pytest.raises(ValueError, match="construction gap"):
            cv.build_sym_genie_ub2(p, RootAlpha(2, 1))

    def test_grid_at_roots(self):
        roots = [ra for q in range(2, 8) for ra in critical_roots(q).root_alphas]
        for K in range(1, 12):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                for ra in roots:
                    if not ra.is_root_of(tl + rl + 1):
                        continue
                    try:
                        g = cv.build_sym_genie_ub2(p, ra)
                    except ValueError:
                        continue  # documented corner
                    rep = cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, ra),
                                                   trials=5)
                    assert rep.ok, (p, ra.token(), rep.failure)


L2_K7 = P(K=7, t_left=2, t_right=2)


def v_top(g, a):
    """v_{L+1}, read off the first genie's signal part -alpha v_{L+1} X_{L+1} (L = 2)."""
    (idx, coeff), = g.genies[0].input_coeff
    assert idx == 3
    return -coeff / a


class TestOffsetGenie:
    def test_even_period_count(self):
        a = ROOT3.value + 0.05
        g = cv.build_offset_genie(L2_K7, a)
        assert g.missing() == (1, 7)
        assert g.bound == 5
        assert g.params.K - g.bound == 2  # q = (K+1)/(L+2) periods, one hidden antenna each

    def test_odd_period_count(self):
        g = cv.build_offset_genie(P(K=11, t_left=2, t_right=2), 0.9)
        assert g.params.K - g.bound == 3
        assert g.bound == 8

    def test_v_weighted_identity_reconstructs_the_first_antenna(self):
        a = ROOT3.value + 0.03
        g = cv.build_offset_genie(L2_K7, a)
        rep = cv.verify_reconstruction(g, model(g.params, nm.SYMMETRIC, a), trials=100)
        assert rep.ok and rep.max_abs_error <= 1e-9

    def test_signal_term_vanishes_at_the_critical_gain(self):
        g = cv.build_offset_genie(L2_K7, ROOT3)
        assert abs(v_top(g, ROOT3.value)) < 1e-12

    def test_signal_term_direction(self):
        for gap in (0.2, 0.1, 0.05):
            g = cv.build_offset_genie(L2_K7, ROOT3.value + gap)
            assert abs(v_top(g, ROOT3.value + gap)) > 0

    def test_bad_network_size_rejected(self):
        with pytest.raises(ValueError, match="q"):
            cv.build_offset_genie(P(K=9, t_left=2, t_right=2), 0.8)

    def test_unequal_side_sums_rejected_after_the_size(self):
        with pytest.raises(ValueError, match="^side-information must sum to L on both sides$"):
            cv.build_offset_genie(P(K=7, t_left=2, t_right=1), 0.8)
        with pytest.raises(ValueError, match="^K must equal"):
            cv.build_offset_genie(P(K=9, t_left=2, t_right=1), 0.8)

    def test_side_split_with_round_ordering(self):
        # the split puts one early message behind the first round
        g = cv.build_offset_genie(P(K=7, t_left=1, t_right=0, r_left=1, r_right=2), 0.8)
        assert g.groups_b[0] == (2,)  # r_left + 1
        rep = cv.verify_reconstruction(g, model(g.params, nm.SYMMETRIC, 0.8),
                                       trials=60)
        assert rep.ok


class TestStructuralChecks:
    def test_out_of_order_output_use_is_reported_before_numerics(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub2(p, ROOT3)
        # move every step into round 1: later-round dependencies break
        steps = tuple(s._replace(round_no=1) for s in g.steps)
        bad = g._replace(steps=steps)
        rep = cv.verify_reconstruction(bad, model(p, nm.SYMMETRIC, ROOT3), trials=5)
        assert not rep.ok
        assert rep.trials == 0  # failed before sampling
        assert "before" in rep.failure or "not yet decoded" in rep.failure

    def test_instance_mismatch_rejected(self):
        g = cv.build_asym_genie(P(K=4), 0.7)
        with pytest.raises(ValueError):
            cv.verify_reconstruction(g, model(P(K=5), nm.ASYMMETRIC, 0.7))

    def test_a_decode_only_round_credits_its_group(self):
        # round 2 rebuilds nothing, but its group still decodes before round 3
        p = P(K=9, t_left=0, t_right=1, r_left=2, r_right=1)
        g = cv.build_sym_genie_ub2(p, ROOT3)
        assert {s.round_no for s in g.steps} == {1, 2}
        moved = tuple(s._replace(round_no=3) if s.round_no == 2 else s for s in g.steps)
        staged = g._replace(groups_b=((),) + g.groups_b, steps=moved)
        rep = cv.verify_reconstruction(staged, model(p, nm.SYMMETRIC, ROOT3), trials=20)
        assert rep.failure is None and rep.ok

    def test_a_b_receiver_decodes_only_from_antennas_it_has(self):
        # ub1 rebuilds Y_1, Y_8, Y_9 and B is (1, 2, 7, 8, 9, 10); without the
        # step that rebuilds Y_1 the other recipes still replay exactly, but
        # receiver 1 cannot decode
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub1(p, 0.9)
        assert [s.target for s in g.steps] == [1, 8, 9]
        assert g.groups_b == ((1, 2, 7, 8, 9, 10),)
        rep = cv.verify_reconstruction(g._replace(steps=g.steps[1:]), model(p, nm.SYMMETRIC, 0.9))
        assert (rep.ok, rep.trials) == (False, 0)
        assert rep.failure == ("round 1: receiver 1 decodes before antennas [1] "
                               "are observed or reconstructed")


    def test_a_receiver_in_no_group_fails(self):
        # A is (3, 4, 5, 6, 11, 12); with no B group receivers 1, 2, 7, 8, 9
        # and 10 never decode, yet every recipe still replays exactly
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub1(p, 0.9)
        assert g.group_a == (3, 4, 5, 6, 11, 12)
        rep = cv.verify_reconstruction(g._replace(groups_b=()), model(p, nm.SYMMETRIC, 0.9))
        assert (rep.ok, rep.trials) == (False, 0)
        assert rep.failure == "receiver 1 is in neither A nor any B group"

    def test_a_step_naming_a_missing_genie_raises(self):
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub1(p, 0.9)
        assert 7 not in {gen.index for gen in g.genies}
        g = g._replace(steps=(g.steps[0]._replace(v_terms=((7, -1.0),)),) + g.steps[1:])
        with pytest.raises(ValueError, match=r"^the step for output 1 uses genie 7, "
                                             r"which the partition does not have$"):
            cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, 0.9))


def _with_index(g, kind, bad):
    """g with one index of the given kind set to `bad`."""
    step, genie = g.steps[0], g.genies[0]
    if kind == "target":
        return g._replace(steps=(step._replace(target=bad),) + g.steps[1:])
    if kind in ("y", "x"):
        field = kind + "_terms"
        step = step._replace(**{field: getattr(step, field) + ((bad, 0.5),)})
        return g._replace(steps=(step,) + g.steps[1:])
    field = kind + "_coeff"
    genie = genie._replace(**{field: getattr(genie, field) + ((bad, 0.5),)})
    return g._replace(genies=(genie,) + g.genies[1:])


class TestIndexOutsideTheNetwork:
    """An index outside 1..K is an error where it is read, never a wrapped
    numpy column or a verdict."""

    P12 = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)

    @pytest.mark.parametrize("bad", [0, 13])
    @pytest.mark.parametrize("kind", ["target", "y", "x", "noise", "input"])
    def test_the_replay_raises(self, kind, bad):
        g = _with_index(cv.build_sym_genie_ub1(self.P12, 0.9), kind, bad)
        with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.12$"):
            cv.verify_reconstruction(g, model(self.P12, nm.SYMMETRIC, 0.9))

    @pytest.mark.parametrize("bad", [0, 13])
    def test_the_entropy_check_raises_on_a_genie_noise_index(self, bad):
        # the entropy check reads no step and no genie input
        g = _with_index(cv.build_sym_genie_ub1(self.P12, 0.9), "noise", bad)
        with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.12$"):
            cv.genie_entropy_check(g, model(self.P12, nm.SYMMETRIC, 0.9))


class TestOverflowIsAnError:
    """A verdict computed from numbers that overflowed is an error, never a pass."""

    @pytest.mark.filterwarnings("error")
    def test_a_replay_that_overflows_raises(self):
        p = P(K=6, t_left=1, t_right=1, r_left=1, r_right=1)
        g = cv.build_sym_genie_ub1(p, 1e-160)
        with pytest.raises(ValueError, match="^arithmetic overflows at alpha=1e-160: "
                                             "the replay error is not finite$"):
            cv.verify_reconstruction(g, model(p, nm.SYMMETRIC, 1e-160))

    @pytest.mark.filterwarnings("error")
    def test_an_entropy_check_that_overflows_raises(self):
        p = P(K=3)
        g = cv.build_sym_genie_ub1(p, 1e-300)
        with pytest.raises(ValueError, match="^arithmetic overflows at alpha=1e-300: "
                                             "the genie noise covariance is not finite$"):
            cv.genie_entropy_check(g, model(p, nm.SYMMETRIC, 1e-300))

    def test_an_asym_noise_weight_that_overflows_raises(self):
        with pytest.raises(ValueError, match="^arithmetic overflows at alpha=1e-160: "
                                             "a geometric noise weight is not finite$"):
            cv.build_asym_genie(P(K=7, t_left=1, t_right=1, r_left=1, r_right=1), 1e-160)

    def test_a_partition_whose_coefficients_overflow_has_no_json(self):
        g = cv.build_sym_genie_ub1(P(K=6, t_left=1, t_right=1, r_left=1, r_right=1), 1e-160)
        with pytest.raises(ValueError, match="^arithmetic overflows at alpha=1e-160: "
                                             "a genie coefficient is not finite$"):
            g.to_json()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e-20, 1e300])
    def test_large_finite_numbers_still_give_a_verdict(self, alpha):
        p = P(K=6, t_left=1, t_right=1, r_left=1, r_right=1)
        m = model(p, nm.SYMMETRIC, alpha)
        g = cv.build_sym_genie_ub1(p, alpha)
        assert math.isfinite(cv.verify_reconstruction(g, m).max_abs_error)
        assert math.isfinite(cv.genie_entropy_check(g, m).min_eigenvalue)


class TestPartitionInvariants:
    """Every family, and its mirror where one applies, builds a partition
    whose groups split the receivers and whose R_A is A's clusters."""

    BUILDERS = [("asym", cv.build_asym_genie, False), ("ub1", cv.build_sym_genie_ub1, True),
                ("ub2", cv.build_sym_genie_ub2, True), ("offset", cv.build_offset_genie, True)]
    GAINS = [0.3, -1.4, RootAlpha(2, 1), ROOT3, RootAlpha(4, 1), RootAlpha(5, 2)]

    def test_groups_split_the_receivers_and_r_a_is_the_reach_of_a(self):
        built = dict.fromkeys([name for name, _, _ in self.BUILDERS], 0)
        for K in range(1, 13):
            for side in product(range(3), repeat=4):
                p = P(K, *side)
                for (name, build, can_mirror), a in product(self.BUILDERS, self.GAINS):
                    for mirror in (False, True) if can_mirror else (False,):
                        try:
                            g = (cv.mirror_partition(build(p.mirrored(), a), p) if mirror
                                 else build(p, a))
                        except ValueError:  # the family does not apply here
                            continue
                        groups = (g.group_a,) + g.groups_b
                        assert all(list(grp) == sorted(grp) for grp in groups), g
                        assert sorted(k for grp in groups for k in grp) == \
                            list(range(1, K + 1)), g
                        reach = {i for k in g.group_a for i in p.rx_window(k)}
                        assert g.r_a == tuple(sorted(reach)), g
                        assert g.bound == len(g.r_a)
                        built[name] += 1
        assert min(built.values()) > 100, built

    def test_a_partition_refuses_attribute_writes(self):
        # r_a = (1,) once turned this ub1 bound of 9 into 1
        g = cv.build_sym_genie_ub1(P(12, 1, 1, 1, 1), 0.9)
        assert g.bound == 9
        for write in (lambda: setattr(g, "r_a", (1,)), lambda: setattr(g, "extra", 1),
                      lambda: delattr(g, "r_a")):
            with pytest.raises(AttributeError, match="^GeniePartition is read-only"):
                write()
        assert g.r_a is g.r_a and g.bound == 9


class TestGenieNoiseIsTheRebuildResidue:
    """A symmetric recipe rebuilds Y_target from outputs y_i Y_i and known
    inputs; its genie is the noise those outputs leave over,
    sum_i y_i N_i - N_target, read from the step's own y_terms."""

    BUILDERS = [cv.build_sym_genie_ub1, cv.build_sym_genie_ub2, cv.build_offset_genie]
    GAINS = [0.3, -1.4, RootAlpha(2, 1), ROOT3, RootAlpha(4, 1), RootAlpha(5, 2)]

    def test_noise_is_the_output_terms_less_the_target(self):
        checked = dict.fromkeys([b.__name__ for b in self.BUILDERS], 0)
        for K in range(1, 13):
            for side in product(range(3), repeat=4):
                p = P(K, *side)
                for build, a, mirror in product(self.BUILDERS, self.GAINS, (False, True)):
                    try:
                        g = (cv.mirror_partition(build(p.mirrored(), a), p) if mirror
                             else build(p, a))
                    except ValueError:  # the family does not apply here
                        continue
                    # offset's first step carries a signal genie and is built by hand
                    steps = g.steps[1:] if build is cv.build_offset_genie else g.steps
                    for st in steps:
                        (idx, coef), = st.v_terms
                        want = dict(st.y_terms)
                        want[st.target] = want.get(st.target, 0.0) - 1.0
                        assert coef == -1.0 and g.genies[idx].input_coeff == ()
                        assert g.genies[idx].noise_coeff == \
                            tuple(sorted((k, v) for k, v in want.items() if v != 0)), (g, st)
                        checked[build.__name__] += 1
        assert min(checked.values()) > 100, checked


class TestGroupAOracle:
    """The derived A equals the hand-written formulas the builders used
    before, for every family and its mirror (tests/genie_groups_oracle.py)."""

    DECIMAL = [0.3, -1.4]
    ROOTS = [RootAlpha(p, k) for p in range(2, 6) for k in range(1, p // 2 + 1)]
    FAMILIES = [(cv.build_asym_genie, asym_group_a, DECIMAL),
                (cv.build_sym_genie_ub1, ub1_group_a, DECIMAL),
                (cv.build_sym_genie_ub2, ub2_group_a, ROOTS + [RootAlpha(3, 1, -1)]),
                (cv.build_offset_genie, offset_group_a, DECIMAL + ROOTS)]

    def test_derived_a_equals_the_hand_written_formulas(self):
        compared = {build.__name__: 0 for build, _, _ in self.FAMILIES}
        for K in range(1, 21):
            for side in product(range(3), repeat=4):
                p = P(K, *side)
                for build, oracle, gains in self.FAMILIES:
                    for a, mirror in product(gains, (False, True)):
                        try:
                            g = (cv.mirror_partition(build(p.mirrored(), a), p) if mirror
                                 else build(p, a))
                        except ValueError:  # the family does not apply here
                            continue
                        want = (mirror_group_a(oracle(p.mirrored()), p) if mirror
                                else oracle(p))
                        assert g.group_a == want, (build.__name__, p, a, mirror)
                        compared[build.__name__] += 1
        assert min(compared.values()) > 100, compared


class TestEntropyCondition:
    def test_asym_example(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        g = cv.build_asym_genie(p, 0.7)
        rep = cv.genie_entropy_check(g, model(p, nm.ASYMMETRIC, 0.7))
        assert rep.ok and rep.p_free

    @pytest.mark.parametrize("params, topology", [(P(K=5), nm.ASYMMETRIC), (P(K=4), nm.SYMMETRIC)],
                             ids=["size", "topology"])
    def test_instance_mismatch_rejected(self, params, topology):
        g = cv.build_asym_genie(P(K=4), 0.7)
        with pytest.raises(ValueError, match="^partition and model describe different instances$"):
            cv.genie_entropy_check(g, model(params, topology, 0.7))

    def test_duplicated_genie_is_harmless(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        g = cv.build_asym_genie(p, 0.7)
        dup = g._replace(genies=g.genies + g.genies)
        rep = cv.genie_entropy_check(dup, model(p, nm.ASYMMETRIC, 0.7))
        assert rep.ok

    def test_adversarial_genie_flagged(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        g = cv.build_asym_genie(p, 0.7)
        k = g.r_a[0]
        evil = cv.GenieSignal(index=99, noise_coeff=((k, 1.0),))
        bad = g._replace(genies=g.genies + (evil,))
        rep = cv.genie_entropy_check(bad, model(p, nm.ASYMMETRIC, 0.7))
        assert not rep.ok

    def test_all_families_pass(self):
        p = P(K=11, t_left=1, t_right=1, r_left=1, r_right=1)
        m = model(p, nm.SYMMETRIC, ROOT3)
        for g in (cv.build_sym_genie_ub1(p, ROOT3),
                  cv.build_sym_genie_ub2(p, ROOT3)):
            assert cv.genie_entropy_check(g, m).ok

    def test_sandwich_against_certified_plans(self):
        from wynerdof import schemes as sc
        rng = np.random.default_rng(11)
        alphas = [float(a) for a in rng.uniform(0.2, 1.8, 2)] + [ROOT3]
        for K in range(1, 13):
            for s in range(3):
                p = P(K=K, t_left=s, t_right=s, r_left=0, r_right=0)
                for a in alphas:
                    m = model(p, nm.SYMMETRIC, a)
                    plan = sc.sym_symmetric_si_plan(p, a)
                    cert = sc.certify_plan(plan, m)
                    bounds = [cv.build_sym_genie_ub1(p, a).bound]
                    try:
                        bounds.append(cv.build_sym_genie_ub2(p, a).bound)
                    except ValueError:
                        pass
                    assert cert.certified_dof <= min(bounds), (p, a)


class _Float64Rows(np.ndarray):
    """An array whose tolist() keeps it an array, so a builder handed one
    indexes np.float64 scalars and runs each term's arithmetic on them."""

    def tolist(self):
        return self.view(np.ndarray)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def _coefficients(part):
    return [c for g in part.genies for _, c in g.noise_coeff + g.input_coeff] + \
        [c for st in part.steps for _, c in st.y_terms + st.x_terms + st.v_terms]


class TestGenieTermsArePlainFloats:
    """The symmetric builders do their term arithmetic on Python floats read
    from m_inverse(...).tolist() and _null_row_coeffs(...).tolist(): the
    same numbers, reports and JSON as the same arithmetic on np.float64."""

    GAINS = (0.05, -0.3, 1.0, 40.0, 1e120)

    def cases(self):
        roots = [ra for q in range(2, 6) for ra in critical_roots(q).root_alphas]
        for K, (tl, tr, rl, rr) in product((3, 11, 40), product(range(3), repeat=4)):
            p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
            for a in self.GAINS:
                yield p, "ub1", a
            for ra in roots:
                if ra.is_root_of(tl + rl + 1):
                    yield p, "ub2", ra
        for L, q in product(range(4), (2, 3, 4)):
            for tl in range(L + 1):
                p = P(K=q * (L + 2) - 1, t_left=tl, r_left=L - tl, t_right=L - tl, r_right=tl)
                for a in self.GAINS + (RootAlpha(L + 2, 1),):
                    yield p, "offset", a

    def build(self, params, family, alpha, mirror):
        build = {"ub1": cv.build_sym_genie_ub1, "ub2": cv.build_sym_genie_ub2,
                 "offset": cv.build_offset_genie}[family]
        if not mirror:
            return _outcome(build, params, alpha)
        part = _outcome(build, params.mirrored(), alpha)
        return part if isinstance(part, str) else cv.mirror_partition(part, params)

    def test_same_partitions_and_reports_as_float64_terms(self, monkeypatch):
        cases = [(p, fam, a, mirror) for p, fam, a in self.cases() for mirror in (False, True)]
        live = [self.build(*case) for case in cases]
        built = [part for part in live if not isinstance(part, str)]
        assert len(built) > 1000
        assert all(type(c) is float for part in built for c in _coefficients(part))
        m_inverse, null_row = cv.m_inverse, cv._null_row_coeffs
        monkeypatch.setattr(cv, "m_inverse", lambda *a: m_inverse(*a).view(_Float64Rows))
        monkeypatch.setattr(cv, "_null_row_coeffs", lambda *a: null_row(*a).view(_Float64Rows))
        for case, part in zip(cases, live):
            want = self.build(*case)
            if isinstance(part, str) or isinstance(want, str):
                assert part == want, case
                continue
            assert [float(c).hex() for c in _coefficients(part)] == \
                [float(c).hex() for c in _coefficients(want)], case
            assert _outcome(part.to_json) == _outcome(want.to_json), case
            p, _, alpha, _ = case
            m = model(p, nm.SYMMETRIC, alpha)
            for check in (cv.genie_entropy_check, lambda g, m: cv.verify_reconstruction(g, m, 8)):
                got, exp = _outcome(check, part, m), _outcome(check, want, m)
                assert got == exp or repr(got) == repr(exp), case
