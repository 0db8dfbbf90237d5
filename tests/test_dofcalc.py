from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof.tridiag import RootAlpha, critical_roots

P = nm.NetworkParams
ROOT3 = RootAlpha(3, 1)


class TestAsym:
    def test_worked_values(self):
        assert dc.asym_mg(P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)) == 6
        assert dc.asym_mg(P(K=1)) == 1
        assert dc.asym_mg(P(K=4)) == 2  # 4 - ceil(3/2)

    def test_short_networks_keep_everything(self):
        # numerator <= 0: the clamped ceiling keeps the full gain
        assert dc.asym_mg(P(K=5, t_left=2, r_left=2)) == 5

    def test_per_user(self):
        assert dc.asym_mg_per_user(P(K=3, t_left=2, t_right=1,
                                     r_left=2, r_right=1)) == Fraction(7, 8)
        assert dc.asym_mg_per_user(P(K=3)) == Fraction(1, 2)

    def test_per_user_is_the_large_network_limit(self):
        for tl, tr, rl, rr in ((0, 0, 0, 0), (2, 1, 2, 1), (1, 0, 0, 3)):
            lim = dc.asym_mg_per_user(P(K=1, t_left=tl, t_right=tr,
                                        r_left=rl, r_right=rr))
            for K in (9999, 10000):
                v = Fraction(dc.asym_mg(P(K=K, t_left=tl, t_right=tr,
                                          r_left=rl, r_right=rr)), K)
                assert abs(v - lim) <= Fraction(tl + tr + rl + rr + 2, K)

    def test_monotone_and_sum_dependent(self):
        base = P(K=17, t_left=1, t_right=1, r_left=1, r_right=1)
        v = dc.asym_mg(base)
        for bump in ("t_left", "t_right", "r_left", "r_right"):
            kw = {"K": 17, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1}
            kw[bump] += 1
            assert dc.asym_mg(P(**kw)) >= v
        # depends only on (t_l + r_l, t_r + r_r)
        assert dc.asym_mg(P(K=17, t_left=2, r_left=0, t_right=0, r_right=2)) == \
            dc.asym_mg(P(K=17, t_left=0, r_left=2, t_right=1, r_right=1))


class TestSymmetricSI:
    def test_example_network(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        gen = dc.sym_mg_symmetric_si(p, 0.3)
        assert (gen.lower, gen.upper) == (6, 6) and gen.exact
        crit = dc.sym_mg_symmetric_si(p, ROOT3)
        assert (crit.lower, crit.upper) == (5, 5)
        crit_neg = dc.sym_mg_symmetric_si(p, RootAlpha(3, 1, -1))
        assert (crit_neg.lower, crit_neg.upper) == (5, 5)

    def test_full_cooperation_case(self):
        p = P(K=3, t_left=1, t_right=2, r_left=1, r_right=0)
        iv = dc.sym_mg_symmetric_si(p, 0.5)
        assert iv.exact and iv.lower == 3

    def test_full_cooperation_drop(self):
        p = P(K=3, t_left=1, t_right=2, r_left=1, r_right=0)
        iv = dc.sym_mg_symmetric_si(p, ROOT3)
        assert iv.exact and iv.lower == 2

    def test_gap_at_boundary_size_flagged(self):
        p = P(K=4, t_left=1, t_right=1, r_left=1, r_right=1)
        iv = dc.sym_mg_symmetric_si(p, 0.5)
        assert iv.note and "outside the case split" in iv.note

    def test_asymmetric_si_rejected(self):
        with pytest.raises(ValueError, match="symmetric side-information"):
            dc.sym_mg_symmetric_si(P(K=5, t_left=1), 0.5)

    def test_per_user(self):
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        assert dc.sym_mg_per_user(p, 0.3).value_lower == Fraction(3, 4)
        drop = dc.sym_mg_per_user(p, ROOT3)
        assert (drop.value_lower, drop.value_upper) == (Fraction(2, 3), Fraction(5, 7))
        # u_1 = 1 never vanishes: no drop without side-information
        v = dc.sym_mg_per_user(P(K=2), -1.4)
        assert v.exact and v.value_lower == Fraction(1, 2)


class TestGeneralBounds:
    def test_lower_worked_values(self):
        vals = {b.label: b.value for b in dc.sym_lower_bounds(
            P(K=12, t_left=1, t_right=1, r_left=1, r_right=1))}
        assert vals["lb-combined"] == 6
        vals = {b.label: b.value for b in dc.sym_lower_bounds(
            P(K=12, t_left=1, r_left=1))}
        assert vals["lb-left-chain"] == 4
        vals = {b.label: b.value for b in dc.sym_lower_bounds(
            P(K=10, r_left=1, r_right=1))}
        assert vals["lb-central-mimo"] == 6

    def test_degenerate_bound_omitted(self):
        out = {b.label: b for b in dc.sym_lower_bounds(P(K=6))}
        assert not out["lb-combined"].applicable

    def test_upper_worked_values(self):
        p = P(K=12, t_left=1, t_right=1, r_left=1, r_right=1)
        vals = {b.label: b.value for b in dc.sym_upper_bounds(p, 0.3)}
        assert vals["ub-generic"] == 9
        p8 = P(K=8, t_left=1, t_right=1, r_left=1, r_right=1)
        vals = {b.label: b.value for b in dc.sym_upper_bounds(p8, 0.3)}
        assert vals["ub-generic"] == 6
        p9 = P(K=9, t_right=1, r_left=2, r_right=1)
        vals = {b.label: b for b in dc.sym_upper_bounds(p9, ROOT3)}
        assert vals["ub-singular-left"].value == 7

    def test_singular_bounds_marked_inapplicable_at_generic_gain(self):
        p = P(K=9, t_right=1, r_left=2, r_right=1)
        vals = {b.label: b for b in dc.sym_upper_bounds(p, 0.437)}
        assert not vals["ub-singular-left"].applicable
        assert vals["ub-singular-left"].reason

    def test_unequal_gains_keep_only_the_determinant_free_bound(self):
        p = P(K=9, t_right=1, r_left=2, r_right=1)
        equal = {b.label: b for b in dc.sym_upper_bounds(p, ROOT3)}
        unequal = {b.label: b for b in dc.sym_upper_bounds(p, None)}
        assert unequal["ub-generic"] == equal["ub-generic"]
        for label in ("ub-singular-left", "ub-singular-right"):
            assert not unequal[label].applicable and unequal[label].value is None
            assert unequal[label].reason == "needs equal cross-gains"

    def test_prose_variant_flag(self):
        # kappa_4 exactly one short of the stated threshold flips only the variant
        p = P(K=11, t_left=1, t_right=1, r_left=1, r_right=1)  # kappa_4 = 3
        stated = {b.label: b.value for b in dc.sym_upper_bounds(p, 0.3)}
        prose = {b.label: b.value for b in dc.sym_upper_bounds(
            p, 0.3, theta4_variant="prose")}
        assert stated["ub-generic"] == 9 and prose["ub-generic"] == 8

    def test_interval_sanity_small_grid(self):
        rng = np.random.default_rng(5)
        alphas = [float(a) for a in rng.uniform(0.15, 2, 3)]
        alphas += [ra for p_ in range(2, 5) for ra in critical_roots(p_).root_alphas]
        for K in range(1, 15):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                for a in alphas:
                    iv = dc.sym_dof_interval(p, a)
                    assert 0 <= iv.lower <= iv.upper <= K

    def test_per_user_sandwich(self):
        # side sums (1,1)/(1,1): interval/K tends into [3/5, 3/4]
        p = lambda K: P(K=K, t_left=1, t_right=1, r_left=1, r_right=1)
        for K in (600, 6000):
            iv = dc.sym_dof_interval(p(K), 0.3)
            assert iv.lower / K >= 3 / 5 - 8 / K
            assert iv.upper / K <= 3 / 4 + 8 / K

    def test_exact_value_sits_inside_the_general_bracket(self):
        # where the case split is exact, the general bounds must bracket it
        rng = np.random.default_rng(8)
        for K in range(1, 31):
            for s in range(4):
                p = P(K=K, t_left=0, t_right=s, r_left=s, r_right=0)
                for a in rng.uniform(0.15, 2, 2):
                    iv = dc.sym_mg_symmetric_si(p, float(a))
                    if not iv.exact or K == s + 2:
                        continue
                    lows = [b.value for b in dc.sym_lower_bounds(p) if b.applicable]
                    ups = [b.value for b in dc.sym_upper_bounds(p, float(a))
                           if b.applicable]
                    assert max(lows, default=0) <= iv.lower <= min(ups + [K])

    def test_exact_per_user_convergence(self):
        for s in (0, 1, 2):
            p = lambda K: P(K=K, t_left=s, t_right=0, r_left=0, r_right=s)
            lim = Fraction(s + 1, s + 2)
            for K in (5000, 9999):
                iv = dc.sym_mg_symmetric_si(p(K), 0.73)
                assert iv.exact
                assert abs(Fraction(iv.lower, K) - lim) <= Fraction(s + 2, K)

    def test_random_gains_probability_one_value(self):
        p = P(K=10, t_left=1, t_right=0, r_left=0, r_right=1)
        iv = dc.sym_dof_interval(p, nm.CrossGainAssignment.random(3))
        assert iv.exact and iv.lower == 10 - 10 // 3
        # general parameters: determinant-free bounds only
        q = P(K=10, t_left=2, t_right=0, r_left=0, r_right=1)
        iv2 = dc.sym_dof_interval(q, nm.CrossGainAssignment.random(3))
        assert iv2.lower <= iv2.upper


    def test_a_missing_gain_is_a_value_error(self):
        with pytest.raises(ValueError, match="^sym_dof_interval needs the cross-gain: an alpha "
                                             "or a CrossGainAssignment$"):
            dc.sym_dof_interval(P(K=6, t_left=1, t_right=1, r_left=1, r_right=1), None)
