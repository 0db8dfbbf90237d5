import hashlib
import json
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

import dense_certify as dense
from wynerdof import converse as cv
from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof import schemes as sc
from wynerdof import simulator as sim
from wynerdof import tridiag as td
from wynerdof.tridiag import RootAlpha, critical_roots

P = nm.NetworkParams
ROOT3 = RootAlpha(3, 1)


def model(params, topology, alpha):
    return nm.build_channel(params, topology, nm.CrossGainAssignment.equal(alpha))


class TestAsymPlan:
    def test_long_leftover_silences_the_last_transmitter(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        plan = sc.asym_plan(p)
        assert plan.silenced_tx == (7,)
        assert plan.claimed_dof == 6

    def test_period_two(self):
        plan = sc.asym_plan(P(K=8))
        assert plan.silenced_tx == (2, 4, 6, 8)
        assert plan.claimed_dof == 4

    def test_short_network_keeps_everyone(self):
        plan = sc.asym_plan(P(K=5, t_left=2, r_left=2))
        assert plan.silenced_tx == ()
        assert plan.claimed_dof == 5

    def test_certifies_for_any_nonzero_gain(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        plan = sc.asym_plan(p)
        for a in (0.8, -1.3, 0.15):
            cert = sc.certify_plan(plan, model(p, nm.ASYMMETRIC, a))
            assert cert.ok and cert.certified_dof == 6
        # explicit per-link gains work too
        g = nm.sample_generic_gains(7, nm.ASYMMETRIC, 5)
        cert = sc.certify_plan(plan, nm.build_channel(p, nm.ASYMMETRIC, g))
        assert cert.ok

    def test_formula_agreement_grid(self):
        for K in range(1, 15):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                plan = sc.asym_plan(p)
                cert = sc.certify_plan(plan, model(p, nm.ASYMMETRIC, 0.7))
                assert cert.ok, (p, cert.failure)
                assert cert.certified_dof == dc.asym_mg(p), p

    def test_silencing_count(self):
        for K in range(1, 30):
            p = P(K=K, t_left=1, r_right=1)
            plan = sc.asym_plan(p)
            beta = p.side_sum + 2
            kappa = K % beta
            expect = K // beta + (1 if kappa > p.t_left + p.r_left + 1 else 0)
            assert len(plan.silenced_tx) == expect


class TestSymmetricSIPlan:
    def setup_method(self):
        self.p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)

    def test_generic_gain_pattern(self):
        plan = sc.sym_symmetric_si_plan(self.p, 0.3)
        assert plan.silenced_tx == (4,)
        assert plan.claimed_dof == 6
        assert [len(s.rx_antennas) for s in plan.subnets] == [3, 3]
        cert = sc.certify_plan(plan, model(self.p, nm.SYMMETRIC, 0.3))
        assert cert.ok and cert.certified_dof == 6

    def test_critical_gain_pattern(self):
        plan = sc.sym_symmetric_si_plan(self.p, ROOT3)
        assert plan.silenced_tx == (3, 6)
        assert plan.claimed_dof == 5
        cert = sc.certify_plan(plan, model(self.p, nm.SYMMETRIC, ROOT3))
        assert cert.ok and cert.certified_dof == 5

    def test_the_wrong_pattern_fails_on_rank(self):
        # the generic-gain pattern on a critical-gain channel
        plan = sc.sym_symmetric_si_plan(self.p, 0.3)
        cert = sc.certify_plan(plan, model(self.p, nm.SYMMETRIC, ROOT3))
        assert not cert.ok
        assert "rank" in cert.failure

    def test_single_subnet_case(self):
        p = P(K=3, t_left=1, t_right=2, r_left=1, r_right=0)
        plan = sc.sym_symmetric_si_plan(p, 0.41)
        assert plan.silenced_tx == () and plan.claimed_dof == 3
        assert sc.certify_plan(plan, model(p, nm.SYMMETRIC, 0.41)).ok

    def test_pair_silencing_removes_antennas(self):
        plan = sc.sym_symmetric_si_plan(self.p, 0.3)
        assert plan.silenced_rx == plan.silenced_tx
        for sn in plan.subnets:
            assert not set(sn.rx_antennas) & set(plan.silenced_rx)

    def test_grid_certifies_inside_the_interval(self):
        rng = np.random.default_rng(7)
        alphas = [float(a) for a in rng.uniform(0.15, 2, 3)]
        alphas += [ra for q in range(2, 6) for ra in critical_roots(q).root_alphas]
        for K in range(1, 21):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                if tl + rl != tr + rr:
                    continue
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                L = tl + rl
                for a in alphas:
                    plan = sc.sym_symmetric_si_plan(p, a)
                    cert = sc.certify_plan(plan, model(p, nm.SYMMETRIC, a))
                    assert cert.ok, (p, a, cert.failure)
                    iv = dc.sym_mg_symmetric_si(p, a)
                    assert iv.lower <= cert.certified_dof <= iv.upper
                    if K != L + 2:
                        if iv.exact:
                            assert cert.certified_dof == iv.lower
                        if plan.family == "sym-si-case4":
                            assert cert.certified_dof == iv.lower

    def test_requires_equal_side_sums(self):
        with pytest.raises(sc.NotApplicableError):
            sc.sym_symmetric_si_plan(P(K=5, t_left=1), 0.5)


class TestGeneralPlans:
    def test_left_chain_worked_example(self):
        p = P(K=12, t_left=1, r_left=1)
        plan = sc.sym_general_plan(p, "lb-left-chain")
        assert plan.silenced_tx == (1, 3, 4, 6, 7, 9, 10, 12)
        assert plan.claimed_dof == 4
        assert sc.certify_plan(plan, model(p, nm.SYMMETRIC, 0.8)).ok

    def test_central_mimo_worked_example(self):
        p = P(K=10, r_left=1, r_right=1)
        plan = sc.sym_general_plan(p, "lb-central-mimo")
        assert plan.silenced_tx == (1, 5, 6, 10)
        assert plan.claimed_dof == 6
        # the joint middle decode rides on a full-rank 3x3 block
        blocks = [b for s in plan.subnets for b in s.mimo_blocks]
        assert all(len(b.antennas) == 3 for b in blocks)
        assert sc.certify_plan(plan, model(p, nm.SYMMETRIC, 0.8)).ok

    def test_combined_worked_example(self):
        p = P(K=8, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_general_plan(p, "lb-combined")
        assert plan.silenced_tx == (1, 4, 5, 8)
        assert plan.claimed_dof == 4
        assert sc.certify_plan(plan, model(p, nm.SYMMETRIC, 0.8)).ok

    def test_not_applicable_reasons(self):
        with pytest.raises(sc.NotApplicableError, match="delegates to lb-central-mimo"):
            sc.sym_general_plan(P(K=9, r_left=2), "lb-left-chain")
        with pytest.raises(sc.NotApplicableError, match="nothing to prove"):
            sc.sym_general_plan(P(K=9, t_left=1), "lb-left-chain")
        with pytest.raises(sc.NotApplicableError, match="delegates to lb-left-chain"):
            sc.sym_general_plan(P(K=9, t_left=2, r_left=1), "lb-combined")
        with pytest.raises(sc.NotApplicableError, match="nothing to prove"):
            sc.sym_general_plan(P(K=9, t_left=1, t_right=1), "lb-combined")
        with pytest.raises(sc.NotApplicableError):
            sc.sym_general_plan(P(K=9), "no-such-label")

    def test_formula_agreement_grid(self):
        labels = ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo")
        for K in range(1, 15):
            for tl, tr, rl, rr in product(range(3), repeat=4):
                p = P(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)
                vals = {b.label: b.value for b in dc.sym_lower_bounds(p) if b.applicable}
                m = model(p, nm.SYMMETRIC, 0.57)
                for lab in labels:
                    try:
                        plan = sc.sym_general_plan(p, lab)
                    except sc.NotApplicableError:
                        continue
                    cert = sc.certify_plan(plan, m)
                    assert cert.ok, (p, lab, cert.failure)
                    assert cert.certified_dof == vals[lab], (p, lab)

    def test_central_mimo_rank_failure_at_critical_gain_is_reported(self):
        # the joint middle decode needs a full-rank block; at a critical gain
        # the certification honestly fails instead of inventing the bound
        p = P(K=4, r_left=1)
        plan = sc.sym_general_plan(p, "lb-central-mimo")
        cert = sc.certify_plan(plan, model(p, nm.SYMMETRIC, 1.0))
        assert not cert.ok and "rank" in cert.failure

    def test_pair_silencing_counts(self):
        for K in range(3, 25):
            p = P(K=K, t_left=1, r_left=1)
            plan = sc.sym_general_plan(p, "lb-left-chain")
            beta = 3
            gamma, kappa = K // beta, K % beta
            theta = 0 if kappa == 0 else (1 if kappa == 1 else 2)
            assert len(plan.silenced_tx) == 2 * gamma + theta


class TestFairTimeSharing:
    def test_two_phase_rotation(self):
        plans = sc.fair_time_sharing_plan(P(K=8))
        assert sorted(p.silenced_tx for p in plans) == [(1, 3, 5, 7), (2, 4, 6, 8)]
        served = {}
        for p in plans:
            for msg, w in p.message_prelog:
                served[msg] = served.get(msg, 0) + (w > 0)
        assert all(served.get(k, 0) >= 1 for k in range(1, 9))

    def test_each_message_served_in_most_plans(self):
        # without clustering the rotation covers every message beta-1 times;
        # configurations that force end-silencing can only reach beta-2
        # for a few messages (the unserved slots then outnumber K)
        p = P(K=11)
        plans = sc.fair_time_sharing_plan(p)
        beta = p.side_sum + 2
        assert len(plans) == beta
        count = {k: 0 for k in range(1, 12)}
        for plan in plans:
            got = dict(plan.message_prelog)
            for k in count:
                count[k] += 1 if got.get(k, 0) >= 1 else 0
        assert all(c >= beta - 1 for c in count.values())

        p2 = P(K=11, t_left=1, t_right=1)
        plans2 = sc.fair_time_sharing_plan(p2)
        beta2 = p2.side_sum + 2
        count2 = {k: 0 for k in range(1, 12)}
        for plan in plans2:
            got = dict(plan.message_prelog)
            for k in count2:
                count2[k] += 1 if got.get(k, 0) >= 1 else 0
        assert all(c >= beta2 - 2 for c in count2.values())

    def test_average_meets_the_rotation_bound(self):
        for kw in (dict(K=8), dict(K=5, t_left=2, r_left=2),
                   dict(K=13, t_left=1, t_right=2, r_left=0, r_right=1)):
            p = P(**kw)
            plans = sc.fair_time_sharing_plan(p)
            beta = p.side_sum + 2
            gamma = max(0, -(-(p.K - p.t_left - p.r_left - 1) // beta))
            avg = sum(pl.claimed_dof for pl in plans) / len(plans)
            assert avg >= p.K - gamma - 1

    def test_every_rotation_certifies(self):
        p = P(K=9, t_left=1, t_right=0, r_left=1, r_right=1)
        m = model(p, nm.ASYMMETRIC, 0.9)
        for plan in sc.fair_time_sharing_plan(p):
            cert = sc.certify_plan(plan, m)
            assert cert.ok, (plan.family, cert.failure)


class TestCertification:
    def test_instance_mismatch_rejected(self):
        plan = sc.asym_plan(P(K=4))
        with pytest.raises(ValueError):
            sc.certify_plan(plan, model(P(K=5), nm.ASYMMETRIC, 0.5))

    def test_a_plan_states_each_fact_once(self):
        # receiver m decodes message m, and a block's encoders are signal_deps
        assert sc.ScalarStep._fields == ("message", "tx", "antenna", "tag")
        assert "tx_of" not in sc.MimoBlock._fields

    def test_tampered_decoder_fails_feasibility(self):
        p = P(K=7, t_left=2, t_right=1, r_left=2, r_right=1)
        plan = sc.asym_plan(p)
        sn = plan.subnets[0]
        bad_step = sn.scalar_steps[0]._replace(
            antenna=sn.scalar_steps[0].message + p.r_right + 1)
        bad_sn = sn._replace(scalar_steps=(bad_step,) + sn.scalar_steps[1:])
        bad = plan._replace(subnets=(bad_sn,) + plan.subnets[1:])
        cert = sc.certify_plan(bad, model(p, nm.ASYMMETRIC, 0.5))
        assert not cert.ok
        assert "cluster" in cert.failure or "antenna" in cert.failure

    def test_a_step_is_decoded_in_its_message_cluster(self):
        # receiver 1 has no side information, so it sees antenna 1 alone; a
        # step for message 1 at antenna 2 once certified when it named
        # receiver 2 as its decoder
        p = P(K=3)
        plan = sc.asym_plan(p)
        steps = plan.subnets[0].scalar_steps
        assert steps[0][:3] == (1, 1, 1)
        bad = _with_subnet(plan, 0, scalar_steps=(steps[0]._replace(antenna=2),) + steps[1:])
        cert = sc.certify_plan(bad, model(p, nm.ASYMMETRIC, 0.3))
        assert not cert.ok
        assert cert.failure == "decoder 1 needs antennas [2] outside its cluster"

    @pytest.mark.parametrize("p, deps", [
        (P(K=3), ((1, ()), (3, (3,)))),
        (P(K=3, t_right=1), ((1, (2,)), (2, (3,)))),
    ], ids=["deps-empty", "deps-other-message"])
    def test_a_step_is_sent_by_an_encoder_of_its_message(self, p, deps):
        # the step for message 1 is sent by transmitter 1, whose deps no
        # longer name message 1; both edits once certified ok at 2
        plan = sc.asym_plan(p)
        assert plan.subnets[0].scalar_steps[0][:2] == (1, 1)
        bad = plan._replace(signal_deps=deps)
        m = model(p, nm.ASYMMETRIC, 0.3)
        for certify in (sc.certify_plan, dense.certify_plan):
            cert = certify(bad, m)
            assert not cert.ok
            assert cert.failure == "transmitter 1 does not encode message 1"

    @pytest.mark.parametrize("side, deps, decoders, failure", [
        ((0, 0, 0, 0), ((1, (1,)), (2, (2,))), ((1, (1,)), (2, (2,))),
         "block in subnet 0: receiver 1 does not see antennas [2], and transmitter 1 "
         "does not encode message 2"),
        ((1, 1, 0, 0), ((1, (1, 2)), (2, (1, 2))), ((1, (1,)), (2, (2,))), None),
        ((0, 0, 1, 1), ((1, (1,)), (2, (2,))), ((1, (1, 2)), (2, (1, 2))), None),
    ], ids=["neither", "joint-precoding", "joint-decoding"])
    def test_a_block_is_jointly_decoded_or_jointly_precoded(self, side, deps, decoders,
                                                            failure):
        # K = 2 with no side information at 0.3 is a two-user interference
        # channel of DoF 1; one MimoP2P block over both pairs claiming 2 once
        # certified ok here and in the oracles of the tests
        p = P(2, *side)
        block = sc.MimoBlock(sc.StrategyTag.MIMO_P2P, (1, 2), (1, 2), ((1, 1), (2, 1)), decoders)
        plan = sc.TransmissionPlan(p, nm.SYMMETRIC, "sym-si-case1", (), (),
                                   (sc.Subnet((1, 2), (1, 2), "generic", (), (block,)),),
                                   deps, ((1, 1), (2, 1)), 2)
        m = model(p, nm.SYMMETRIC, 0.3)
        for certify in (sc.certify_plan, dense.certify_plan):
            cert = certify(plan, m)
            assert (cert.ok, cert.failure) == (failure is None, failure), certify
            assert cert.certified_dof == (2 if failure is None else 0)

    @pytest.mark.parametrize("tx, antennas", [((1,), (3,)), ((), ())],
                             ids=["deaf", "empty"])
    def test_a_block_of_rank_zero_fails(self, tx, antennas):
        # antenna 3 hears transmitters 2..4 only; the empty block has no entries
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        bad = _with_block(plan, 0, tx=tx, antennas=antennas, prelog=((2, 1),))
        cert = sc.certify_plan(bad, model(p, nm.SYMMETRIC, 0.3))
        assert cert.failure == "rank 0 < required 1 in subnet 0"

    @pytest.mark.parametrize("edit, K, bad", [
        ("subnet tx", 3, 7), ("step message", 8, 12),
        ("block prelog", 9, 0), ("block decoder", 9, 10), ("block coupled", 9, 99),
    ])
    def test_an_index_outside_the_channel_raises(self, edit, K, bad):
        # each of these edits certified ok while the index went unchecked
        if edit == "subnet tx":
            p = P(K=K, t_left=1, t_right=1, r_left=1, r_right=1)
            plan = sc.sym_symmetric_si_plan(p, 0.3)
            assert len(plan.subnets) == 1
            plan = _with_subnet(plan, 0, active_tx=plan.subnets[0].active_tx + (bad,))
            topology = nm.SYMMETRIC
        elif edit == "step message":
            p = P(K=K, r_right=1)
            plan = sc.asym_plan(p)
            step = plan.subnets[0].scalar_steps[0]
            plan = _with_subnet(plan, 0, scalar_steps=(
                step._replace(message=bad),) + plan.subnets[0].scalar_steps[1:])
            topology = nm.ASYMMETRIC
        else:
            p = P(K=K, t_left=1, t_right=1, r_left=1, r_right=1)
            plan = sc.sym_symmetric_si_plan(p, 0.3)
            blk = plan.subnets[0].mimo_blocks[0]
            fields = {"block prelog": dict(prelog=((bad, blk.prelog[0][1]),) + blk.prelog[1:]),
                      "block decoder": dict(decoders=blk.decoders + ((bad, ()),)),
                      "block coupled": dict(coupled=(bad,))}[edit]
            plan = _with_block(plan, 0, **fields)
            topology = nm.SYMMETRIC
        with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.{K}$"):
            sc.certify_plan(plan, model(p, topology, 0.3))

    def test_overclaimed_total_fails(self):
        p = P(K=6, t_left=1, r_left=1)
        plan = sc.asym_plan(p)
        bad = plan._replace(claimed_dof=plan.claimed_dof + 1)
        cert = sc.certify_plan(bad, model(p, nm.ASYMMETRIC, 0.5))
        assert not cert.ok and "claimed" in cert.failure


def every_family():
    """(plan, channel) pairs from every plan family at a few sizes, plus
    negatives: each pair-silencing plan synthesized at 0.3 on the root:3:1
    channel, and a plan whose encoder uses a message outside its window."""
    out = []
    for K, side in product((3, 5, 9, 14), [(1, 1, 1, 1), (0, 1, 2, 0), (2, 0, 1, 1), (0, 0, 0, 0)]):
        p = P(K, *side)
        asym = model(p, nm.ASYMMETRIC, 0.6)
        out += [(plan, asym) for plan in [sc.asym_plan(p)] + sc.fair_time_sharing_plan(p)]
        for alpha in (0.3, ROOT3, RootAlpha(2, 1)):
            sym = model(p, nm.SYMMETRIC, alpha)
            for label in ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo"):
                try:
                    out.append((sc.sym_general_plan(p, label), sym))
                except sc.NotApplicableError:
                    pass
            if side[0] + side[2] == side[1] + side[3]:
                out.append((sc.sym_symmetric_si_plan(p, alpha), sym))
        if side[0] + side[2] == side[1] + side[3]:
            out.append((sc.sym_symmetric_si_plan(p, 0.3), model(p, nm.SYMMETRIC, ROOT3)))
    p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
    plan = sc.sym_symmetric_si_plan(p, 0.3)
    reach = plan._replace(signal_deps=((1, (1, 5)),) + plan.signal_deps[1:])
    out.append((reach, model(p, nm.SYMMETRIC, 0.3)))
    return out


class TestNonInterferenceOracle:
    """certify_plan's coupling scan of the band against the reference
    certifier's scan of the dense channel's nonzeros
    (tests/dense_certify.py)."""

    @staticmethod
    def both(plan, m):
        def run(certify):
            try:
                return certify(plan, m)
            except ValueError as exc:
                return repr(exc)
        return run(sc.certify_plan), run(dense.certify_plan)

    def test_every_family_matches_the_oracle(self):
        plans = every_family()
        families = {plan.family.rsplit("-", 1)[0] if "rotation" in plan.family else plan.family
                    for plan, _ in plans}
        assert {"asym-silencing", "asym-rotation", "sym-lb-combined", "sym-lb-left-chain",
                "sym-lb-right-chain", "sym-lb-central-mimo"} <= families
        assert {f"sym-si-case{c}" for c in (1, 2, 3, 4)} <= families
        outcomes = set()
        for plan, m in plans:
            fast, slow = self.both(plan, m)
            assert fast == slow, plan.family
            outcomes.add(fast.failure.split(" ")[0] if fast.failure else "ok")
        assert outcomes == {"ok", "rank", "transmitter"}

    def test_antenna_across_a_cut_couples(self):
        tampered = 0
        for plan, m in every_family():
            for i, sn in enumerate(plan.subnets[:-1]):
                nxt = plan.subnets[i + 1].rx_antennas[0]
                if nxt in sn.rx_antennas:
                    continue
                bad = plan._replace(subnets=plan.subnets[:i] + (
                    sn._replace(rx_antennas=sn.rx_antennas + (nxt,)),)
                    + plan.subnets[i + 1:])
                fast, slow = self.both(bad, m)
                assert fast == slow, plan.family
                tampered += "couple through the channel" in (fast.failure or "")
        assert tampered > 50

    def test_transmitter_in_two_subnets_couples(self):
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        a, b = plan.subnets[0], plan.subnets[1]
        bad = plan._replace(subnets=(
            a._replace(active_tx=a.active_tx + b.active_tx[:1]),) + plan.subnets[1:])
        fast, slow = self.both(bad, model(p, nm.SYMMETRIC, 0.3))
        assert fast == slow
        assert fast.failure == "subnets 1 and 0 couple through the channel"
        assert fast.checks == ()

    @pytest.mark.parametrize("where", ["rx", "tx"])
    def test_index_past_k_still_raises(self, where):
        p = P(K=8, t_left=1, r_left=1)
        plan = sc.asym_plan(p)
        last = plan.subnets[-1]
        field = "rx_antennas" if where == "rx" else "active_tx"
        bad_sn = last._replace(**{field: getattr(last, field) + (p.K + 1,)})
        bad = plan._replace(subnets=plan.subnets[:-1] + (bad_sn,))
        m = model(p, nm.ASYMMETRIC, 0.5)
        fast, slow = self.both(bad, m)
        assert fast == slow == repr(ValueError("index 9 outside 1..8"))

    @pytest.mark.parametrize("bad_subnet", [0, 1, 2])
    def test_a_bad_index_raises_wherever_it_sits(self, bad_subnet):
        p = P(K=12, t_left=1, r_left=1)
        plan = sc.asym_plan(p)
        subs = list(plan.subnets)
        assert len(subs) == 3
        # antenna 5 is subnet 1's first: subnets 0 and 1 couple
        subs[0] = subs[0]._replace(rx_antennas=subs[0].rx_antennas + (5,))
        subs[bad_subnet] = subs[bad_subnet]._replace(
            active_tx=subs[bad_subnet].active_tx + (0,))
        with pytest.raises(ValueError, match=r"^index 0 outside 1\.\.12$"):
            sc.certify_plan(plan._replace(subnets=tuple(subs)),
                            model(p, nm.ASYMMETRIC, 0.5))

    def test_certify_does_not_loop_over_subnet_pairs(self):
        p = P(K=240)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        blocks = sum(len(sn.mimo_blocks) for sn in plan.subnets)
        assert len(plan.subnets) == 120 and blocks == 120
        cert = sc.certify_plan(plan, model(p, nm.SYMMETRIC, 0.3))
        assert cert.ok and cert.certified_dof == 120

    def test_a_singular_window_is_decided_by_the_zero_test(self):
        # the certify-negative corpus command: a plan made at 0.3, certified
        # at a root of u_3, where its 3 x 3 windows H_3(alpha) drop to rank 2
        p = P(K=30, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        cert = sc.certify_plan(plan, model(p, nm.SYMMETRIC, ROOT3))
        assert not cert.ok and cert.failure == "rank 2 < required 3 in subnet 0"

    def test_a_block_that_is_no_window_takes_the_band_dp(self):
        # the same first block with its transmitters listed in reverse: the
        # columns of H_3 permuted, so no longer a principal window
        p = P(K=30, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        bad = _with_block(plan, 0, tx=plan.subnets[0].mimo_blocks[0].tx[::-1])
        cert = sc.certify_plan(bad, model(p, nm.SYMMETRIC, ROOT3))
        assert not cert.ok and cert.failure == "rank 2 < required 3 in subnet 0"


def _with_subnet(plan, i, **fields):
    """`plan` with subnet i's fields replaced."""
    subs = list(plan.subnets)
    subs[i] = subs[i]._replace(**fields)
    return plan._replace(subnets=tuple(subs))


def _with_block(plan, i, **fields):
    """`plan` with subnet i's first MIMO block's fields replaced."""
    blk = plan.subnets[i].mimo_blocks[0]._replace(**fields)
    return _with_subnet(plan, i, mimo_blocks=(blk,) + plan.subnets[i].mimo_blocks[1:])


def hand_edited_plans():
    """Hand edits of a pair-silencing plan (K = 9) and a chain plan (K = 8),
    by name, each with the channel it is certified on."""
    p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
    sym = sc.sym_symmetric_si_plan(p, 0.3)
    chain = sc.asym_plan(P(K=8, t_left=1, r_left=1))
    step = chain.subnets[0].scalar_steps[0]
    edits = {
        "shared tx": _with_subnet(sym, 0, active_tx=(1, 2, 3, 5)),
        "shared antenna": _with_subnet(sym, 1, rx_antennas=(3, 5, 6, 7)),
        "rx index 0": _with_subnet(sym, 1, rx_antennas=(0, 5, 6, 7)),
        "tx index K+1": _with_subnet(sym, 2, active_tx=(9, 10)),
        "block tx 0": _with_block(sym, 0, tx=(0, 2, 3)),
        "block tx K+1": _with_block(sym, 2, tx=(10,)),
        "silenced step antenna": _with_subnet(chain, 0, scalar_steps=(
            step._replace(antenna=4),) + chain.subnets[0].scalar_steps[1:]),
        "silenced block antenna": _with_block(sym, 1, decoders=((5, (4, 5, 6)),)),
        "non-adjacent step": _with_subnet(chain, 0, scalar_steps=(
            step._replace(antenna=3),) + chain.subnets[0].scalar_steps[1:]),
        "claimed total": sym._replace(claimed_dof=sym.claimed_dof - 1),
    }
    edits["silenced step antenna"] = edits["silenced step antenna"]._replace(silenced_rx=(4,))
    sym_m = model(p, nm.SYMMETRIC, 0.3)
    chain_m = model(chain.params, nm.ASYMMETRIC, 0.5)
    return {name: (plan, chain_m if plan.topology == nm.ASYMMETRIC else sym_m)
            for name, plan in edits.items()}


class TestDenseOracle:
    """certify_plan on the band against the reference certifier on the dense
    matrix (tests/dense_certify.py)."""

    SIDES = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (2, 1, 1, 2), (1, 2, 0, 1)]

    @staticmethod
    def same(plan, m):
        def run(certify):
            try:
                return certify(plan, m).to_json()
            except ValueError as exc:
                return repr(exc)
        banded = run(sc.certify_plan)
        assert banded == run(dense.certify_plan), (plan.family, m.gains)
        return banded

    @staticmethod
    def plans(p):
        out = [(plan, nm.ASYMMETRIC) for plan in [sc.asym_plan(p)] + sc.fair_time_sharing_plan(p)]
        for label in ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo"):
            try:
                out.append((sc.sym_general_plan(p, label), nm.SYMMETRIC))
            except sc.NotApplicableError:
                pass
        if p.t_left + p.r_left == p.t_right + p.r_right:
            out += [(sc.sym_symmetric_si_plan(p, alpha), nm.SYMMETRIC) for alpha in (0.3, ROOT3)]
        return out

    def test_every_family_with_equal_explicit_and_random_gains(self):
        outcomes = set()
        for plan, m in every_family():
            K = plan.params.K
            for g in (m.gains, nm.sample_generic_gains(K, m.topology, K),
                      nm.CrossGainAssignment.random(3)):
                cert = self.same(plan, nm.build_channel(plan.params, m.topology, g))
                outcomes.add(cert["failure"].split(" ")[0] if cert["failure"] else "ok")
        assert {"ok", "rank"} <= outcomes

    @pytest.mark.parametrize("K", list(range(1, 41)) + [97, 160, 239, 240])
    def test_every_size(self, K):
        for side in self.SIDES:
            p = P(K, *side)
            for plan, topo in self.plans(p):
                for g in (nm.CrossGainAssignment.equal(0.3), nm.CrossGainAssignment.equal(ROOT3),
                          nm.CrossGainAssignment.random(K)):
                    self.same(plan, nm.build_channel(p, topo, g))

    def test_hand_edited_plans(self):
        got = {name: self.same(plan, m) for name, (plan, m) in hand_edited_plans().items()}
        failure = lambda name: got[name]["failure"]
        assert failure("shared tx") == "subnets 1 and 0 couple through the channel"
        assert failure("shared antenna") == "subnets 1 and 0 couple through the channel"
        assert got["rx index 0"] == repr(ValueError("index 0 outside 1..9"))
        assert got["tx index K+1"] == repr(ValueError("index 10 outside 1..9"))
        assert got["block tx 0"] == repr(ValueError("index 0 outside 1..9"))
        assert got["block tx K+1"] == repr(ValueError("index 10 outside 1..9"))
        assert failure("silenced step antenna") == "step for message 1 uses a silenced antenna"
        assert failure("silenced block antenna") == "receiver 5 assigned a silenced antenna"
        assert failure("non-adjacent step") == "zero pivot: message 1 at antenna 3"
        assert failure("claimed total") == "claimed 6 but steps certify 7"

    def test_a_step_index_outside_the_channel_raises(self):
        # a dense read of H[-1, ...] here wraps to row K
        chain = sc.asym_plan(P(K=8, t_left=1, r_left=1))
        step = chain.subnets[0].scalar_steps[0]
        bad = _with_subnet(chain, 0, scalar_steps=(
            step._replace(antenna=0),) + chain.subnets[0].scalar_steps[1:])
        for certify in (sc.certify_plan, dense.certify_plan):
            with pytest.raises(ValueError, match=r"^index 0 outside 1\.\.8$"):
                certify(bad, model(chain.params, nm.ASYMMETRIC, 0.5))

    @pytest.mark.parametrize("edit, bad", [
        ("subnet antenna", 6), ("subnet tx", 0), ("step antenna", 0),
    ])
    def test_an_index_raises_where_it_is_read(self, edit, bad):
        # a plan of one subnet, so no coupling scan reads the index; the
        # reference once certified the first two ok and gave the third a
        # zero pivot, reading H[-1, 0], which wraps to row K
        p = P(K=5, t_left=2, r_left=2)
        plan = sc.asym_plan(p)
        sn, = plan.subnets
        fields = {"subnet antenna": dict(rx_antennas=sn.rx_antennas + (bad,)),
                  "subnet tx": dict(active_tx=(bad,) + sn.active_tx),
                  "step antenna": dict(scalar_steps=(
                      sn.scalar_steps[0]._replace(antenna=bad),) + sn.scalar_steps[1:])}[edit]
        for certify in (dense.certify_plan, sc.certify_plan):
            with pytest.raises(ValueError, match=rf"^index {bad} outside 1\.\.5$"):
                certify(_with_subnet(plan, 0, **fields), model(p, nm.ASYMMETRIC, 0.5))

    def test_blocks_with_one_pattern_and_different_gains_get_their_own_rank(self):
        # blocks {1,2,3} and {5,6,7} share a pattern; the second is singular:
        # det [[1, u1, 0], [l1, 1, u2], [0, l2, 1]] = 1 - l1 u1 - l2 u2 = 0
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        assert [b.antennas for sn in plan.subnets for b in sn.mimo_blocks][:2] == [
            (1, 2, 3), (5, 6, 7)]
        sub, sup = [0.3] * 8, [0.3] * 8
        sub[4], sup[4], sub[5], sup[5] = 1.0, 0.5, 1.0, 0.5
        m = nm.build_channel(p, nm.SYMMETRIC, nm.CrossGainAssignment.explicit(sub, sup))
        cert = self.same(plan, m)
        assert cert["failure"] == "rank 2 < required 3 in subnet 1"
        sub[5], sup[5] = 0.3, 0.3
        fine = nm.build_channel(p, nm.SYMMETRIC, nm.CrossGainAssignment.explicit(sub, sup))
        assert self.same(plan, fine)["ok"]
        # the blocks' first columns agree; only l2 u2 = 0.75 makes the second
        # singular: 1 - 0.5 * 0.5 - 0.75 = 0 in the floats given
        sub, sup = [0.5] * 8, [0.5] * 8
        sub[5], sup[5] = 1.0, 0.75
        m = nm.build_channel(p, nm.SYMMETRIC, nm.CrossGainAssignment.explicit(sub, sup))
        assert self.same(plan, m)["failure"] == "rank 2 < required 3 in subnet 1"
        # with 0.3 and 0.91 the determinant is 1 - 0.3 * 0.3 - 0.91 = -2.4e-17
        # in the floats given: exact rank 3 in both, where an SVD sees 2
        sub, sup = [0.3] * 8, [0.3] * 8
        sub[5], sup[5] = 1.0, 0.91
        near = nm.build_channel(p, nm.SYMMETRIC, nm.CrossGainAssignment.explicit(sub, sup))
        assert self.same(plan, near)["ok"]

    def test_certify_never_builds_the_dense_channel(self, monkeypatch):
        def boom(self):
            raise AssertionError("dense channel built")

        monkeypatch.setattr(nm.ChannelModel, "matrix", property(boom))
        p = P(K=20000, t_left=1, t_right=1, r_left=1, r_right=1)
        cert = sc.certify_plan(sc.sym_symmetric_si_plan(p, 0.3), model(p, nm.SYMMETRIC, 0.3))
        assert cert.ok and cert.certified_dof == 15000


class TestPlanJson:
    def test_round_trip(self):
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)
        blob = json.dumps(sc.plan_to_json(plan))
        again = sc.plan_from_json(blob)
        assert again == plan

    def test_round_trip_general_label(self):
        p = P(K=10, r_left=1, r_right=1)
        plan = sc.sym_general_plan(p, "lb-central-mimo")
        again = sc.plan_from_json(sc.plan_to_json(plan))
        assert again == plan

    def test_tampered_json_rejected(self):
        p = P(K=8)
        blob = sc.plan_to_json(sc.asym_plan(p))
        blob["claimed_dof"] += 1
        with pytest.raises(ValueError):
            sc.plan_from_json(blob)

    @pytest.mark.parametrize("edit, named", [
        (lambda b: b.update(family="sym-si-case9", subnets=[
            {"tx": list(range(1, 8)), "rx": list(range(1, 8)), "kind": "generic"}]),
         "family, subnets"),
        (lambda b: b["prelog"].update({"2": 4, "6": 2}), "prelog"),
        (lambda b: b["strategies"].update({"2": "Skipped"}), "strategies"),
        (lambda b: b.update(topology="asymmetric"), "topology"),
    ], ids=["one-block-case9", "prelog", "strategy", "topology"])
    def test_edited_plan_file_rejected(self, edit, named):
        # every edit keeps `silenced` and `claimed_dof` as synthesized
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        blob = sc.plan_to_json(sc.sym_symmetric_si_plan(p, 0.3))
        edit(blob)
        with pytest.raises(ValueError, match=f"sym-si-case3 plan in: {named}$"):
            sc.plan_from_json(blob)

    def test_strategy_map_covers_every_pair(self):
        p = P(K=8, t_left=1, r_left=1)
        plan = sc.asym_plan(p)
        tags = plan.strategy_map()
        assert set(tags) == set(range(1, 9))
        assert tags[plan.silenced_tx[0]] == "Silenced"


def one_record_each():
    """One instance of every record of the package, by class name."""
    p9 = P(9, 1, 1, 1, 1)
    plan = sc.sym_general_plan(p9, "lb-central-mimo")
    sn = plan.subnets[0]  # it has scalar steps and a block
    m = model(p9, nm.SYMMETRIC, 0.9)
    genie = cv.build_sym_genie_ub1(p9, 0.9)
    return {
        "ScalarStep": sn.scalar_steps[0], "MimoBlock": sn.mimo_blocks[0], "Subnet": sn,
        "TransmissionPlan": plan, "Certification": sc.certify_plan(plan, m),
        "NetworkParams": p9, "CrossGainAssignment": m.gains, "ChannelModel": m,
        "RootAlpha": ROOT3, "RootSet": critical_roots(5), "VSequence": td.v_sequence(4, 0.9),
        "DofInterval": dc.sym_dof_interval(p9, 0.9),
        "PerUserAsymptote": dc.sym_mg_per_user(p9, ROOT3),
        "BoundValue": dc.sym_lower_bounds(p9)[0],
        "RateCurve": sim.slope_estimate(plan, m),
        "OffsetCurve": sim.offset_experiment(2, ROOT3, 7),
        "RankTrialReport": sim.random_gain_rank_trials(8, nm.SYMMETRIC, 2, 0),
        "GenieSignal": genie.genies[0], "ReconstructionStep": genie.steps[0],
        "GeniePartition": genie, "ReconstructionReport": cv.verify_reconstruction(genie, m, 2),
        "EntropyReport": cv.genie_entropy_check(genie, m),
    }


RECORD_MODULES = (sc, nm, td, dc, sim, cv)
RECORD_NAMES = ("ScalarStep", "MimoBlock", "Subnet", "TransmissionPlan", "Certification",
                "NetworkParams", "CrossGainAssignment", "ChannelModel", "RootAlpha", "RootSet",
                "VSequence", "DofInterval", "PerUserAsymptote", "BoundValue", "RateCurve",
                "OffsetCurve", "RankTrialReport", "GenieSignal", "ReconstructionStep",
                "GeniePartition", "ReconstructionReport", "EntropyReport")


class TestPlanRecords:
    """Every record is an immutable, hashable NamedTuple edited with
    `_replace`; synthesis is deterministic, and `plan_to_json` of one plan
    per family prints what `wynerdof plan` printed when the records were
    frozen dataclasses."""

    P5 = P(K=5, t_left=1, t_right=1, r_left=1, r_right=1)

    @classmethod
    def one_plan_per_family(cls):
        p5 = cls.P5
        return ([sc.asym_plan(p5), sc.synthesize_plan(p5, "asym-rotation-2"),
                 sc.sym_symmetric_si_plan(P(3, 1, 1, 1, 1), 0.3)]
                + [sc.sym_symmetric_si_plan(p5, a) for a in (RootAlpha(2, 1), 0.3, ROOT3)]
                + [sc.sym_general_plan(p5, label) for label in
                   ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo")])

    # json.dumps(plan_to_json(plan), sort_keys=True) of each plan above, in order
    PLAN_JSON = [
        '{"K": 5, "alpha": null, "claimed_dof": 4, "family": "asym-silencing", '
         '"prelog": {"1": 1, "2": 1, "3": 1, "5": 1}, "r_left": 1, "r_right": 1, '
         '"silenced": [5], "silenced_pairs": [], "strategies": {"1": "SingleUserSICLeft", '
         '"2": "SingleUserSICLeft", "3": "DPCLeft", "4": "Skipped", "5": "Silenced"}, '
         '"subnets": [{"kind": "reduced", "rx": [1, 2, 3, 4, 5], "tx": [1, 2, 3, 4]}], '
         '"t_left": 1, "t_right": 1, "topology": "asymmetric"}',
        '{"K": 5, "alpha": null, "claimed_dof": 4, "family": "asym-rotation-2", '
         '"prelog": {"1": 1, "3": 1, "4": 1, "5": 1}, "r_left": 1, "r_right": 1, '
         '"silenced": [2], "silenced_pairs": [], "strategies": {"1": "SingleUserSICLeft", '
         '"2": "Silenced", "3": "SingleUserSICLeft", "4": "SingleUserSICLeft", '
         '"5": "DPCLeft"}, "subnets": [{"kind": "reduced", "rx": [1, 2], "tx": [1]}, '
         '{"kind": "reduced", "rx": [3, 4, 5], "tx": [3, 4, 5]}], "t_left": 1, '
         '"t_right": 1, "topology": "asymmetric"}',
        '{"K": 3, "alpha": "0.3", "claimed_dof": 3, "family": "sym-si-case1", '
         '"prelog": {"2": 3}, "r_left": 1, "r_right": 1, "silenced": [], '
         '"silenced_pairs": [], "strategies": {"1": "Skipped", "2": "MimoP2P", '
         '"3": "Skipped"}, "subnets": [{"kind": "generic", "rx": [1, 2, 3], "tx": [1, 2, '
         '3]}], "t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": "root:2:1", "claimed_dof": 4, "family": "sym-si-case2", '
         '"prelog": {"2": 3, "5": 1}, "r_left": 1, "r_right": 1, "silenced": [4], '
         '"silenced_pairs": [4], "strategies": {"1": "Skipped", "2": "MimoP2P", '
         '"3": "Skipped", "4": "Silenced", "5": "MimoP2P"}, "subnets": [{"kind": "generic", '
         '"rx": [1, 2, 3], "tx": [1, 2, 3]}, {"kind": "reduced", "rx": [5], "tx": [5]}], '
         '"t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": "0.3", "claimed_dof": 4, "family": "sym-si-case3", '
         '"prelog": {"2": 3, "5": 1}, "r_left": 1, "r_right": 1, "silenced": [4], '
         '"silenced_pairs": [4], "strategies": {"1": "Skipped", "2": "MimoP2P", '
         '"3": "Skipped", "4": "Silenced", "5": "MimoP2P"}, "subnets": [{"kind": "generic", '
         '"rx": [1, 2, 3], "tx": [1, 2, 3]}, {"kind": "reduced", "rx": [5], "tx": [5]}], '
         '"t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": "root:3:1", "claimed_dof": 4, "family": "sym-si-case4", '
         '"prelog": {"1": 1, "2": 1, "4": 1, "5": 1}, "r_left": 1, "r_right": 1, '
         '"silenced": [3], "silenced_pairs": [3], "strategies": {"1": "MimoMAC", '
         '"2": "MimoMAC", "3": "Silenced", "4": "MimoMAC", "5": "MimoMAC"}, '
         '"subnets": [{"kind": "reduced", "rx": [1, 2], "tx": [1, 2]}, {"kind": "reduced", '
         '"rx": [4, 5], "tx": [4, 5]}], "t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": null, "claimed_dof": 2, "family": "sym-lb-combined", '
         '"prelog": {"2": 1, "3": 1}, "r_left": 1, "r_right": 1, "silenced": [1, 4, 5], '
         '"silenced_pairs": [], "strategies": {"1": "Silenced", "2": "DoublePairSICLeft", '
         '"3": "MirroredDoublePair", "4": "Silenced", "5": "Silenced"}, '
         '"subnets": [{"kind": "generic", "rx": [1, 2, 3, 4], "tx": [2, 3]}, '
         '{"kind": "reduced", "rx": [5], "tx": []}], "t_left": 1, "t_right": 1, '
         '"topology": "symmetric"}',
        '{"K": 5, "alpha": null, "claimed_dof": 1, "family": "sym-lb-left-chain", '
         '"prelog": {"2": 1}, "r_left": 1, "r_right": 1, "silenced": [1, 3, 4, 5], '
         '"silenced_pairs": [], "strategies": {"1": "Silenced", "2": "DoublePairSICLeft", '
         '"3": "Silenced", "4": "Silenced", "5": "Silenced"}, '
         '"subnets": [{"kind": "generic", "rx": [1, 2, 3], "tx": [2]}, {"kind": "reduced", '
         '"rx": [4, 5], "tx": []}], "t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": null, "claimed_dof": 1, "family": "sym-lb-right-chain", '
         '"prelog": {"4": 1}, "r_left": 1, "r_right": 1, "silenced": [1, 2, 3, 5], '
         '"silenced_pairs": [], "strategies": {"1": "Silenced", "2": "Silenced", '
         '"3": "Silenced", "4": "MirroredDoublePair", "5": "Silenced"}, '
         '"subnets": [{"kind": "reduced", "rx": [1, 2], "tx": []}, {"kind": "generic", '
         '"rx": [3, 4, 5], "tx": [4]}], "t_left": 1, "t_right": 1, "topology": "symmetric"}',
        '{"K": 5, "alpha": null, "claimed_dof": 3, "family": "sym-lb-central-mimo", '
         '"prelog": {"2": 1, "3": 1, "4": 1}, "r_left": 1, "r_right": 1, "silenced": [1, '
         '5], "silenced_pairs": [], "strategies": {"1": "Silenced", '
         '"2": "SingleUserSICLeft", "3": "CentralMimoDecode", "4": "SingleUserSICRight", '
         '"5": "Silenced"}, "subnets": [{"kind": "generic", "rx": [1, 2, 3, 4, 5], '
         '"tx": [2, 3, 4]}], "t_left": 1, "t_right": 1, "topology": "symmetric"}',
    ]

    @pytest.fixture(scope="class")
    def records(self):
        return one_record_each()

    def test_every_exported_record_has_a_sample(self, records):
        named = {name for mod in RECORD_MODULES for name in mod.__all__
                 if hasattr(getattr(mod, name), "_fields")}
        assert named == set(records) == set(RECORD_NAMES)

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_a_record_is_immutable_hashable_and_replaceable(self, records, name):
        rec = records[name]
        cls, = {getattr(mod, name) for mod in RECORD_MODULES if name in mod.__all__}
        assert type(rec) is cls
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        assert hash(rec) == hash(cls(*rec)) and cls(*rec) == rec
        assert cls(**rec._asdict()) == rec
        again = rec._replace(**{cls._fields[0]: getattr(rec, cls._fields[0])})
        assert type(again) is cls and again == rec and hash(again) == hash(rec)
        assert repr(rec).startswith(f"{name}(")

    @pytest.mark.parametrize("build, message", [
        (lambda: P(0), "K must be >= 1"),
        (lambda: P(K=5, t_left=-1), "t_left must be >= 0"),
        (lambda: P(5, 0, 0, 0, -1), "r_right must be >= 0"),
        (lambda: RootAlpha(1, 1), "u_p has roots only for p >= 2"),
        (lambda: RootAlpha(p=3, k=1, sign=0), "sign must be +1 or -1"),
        (lambda: RootAlpha(3, 2), "u_3 has 1 positive roots; got k=2"),
        (lambda: dc.DofInterval(3, 2, "a", "b"), "invalid interval [3, 2]"),
        (lambda: dc.DofInterval(lower=-1, upper=2, lower_by="a", upper_by="b"),
         "invalid interval [-1, 2]"),
        (lambda: dc.PerUserAsymptote(Fraction(1, 3), Fraction(1)),
         "per-user asymptote must sit inside [1/2, 1]"),
        (lambda: dc.PerUserAsymptote(value_lower=Fraction(1), value_upper=Fraction(3, 2)),
         "per-user asymptote must sit inside [1/2, 1]"),
        (lambda: P(5)._replace(K=0), "K must be >= 1"),
        (lambda: ROOT3._replace(k=2), "u_3 has 1 positive roots; got k=2"),
        (lambda: dc.DofInterval(1, 2, "a", "b")._replace(lower=3), "invalid interval [3, 2]"),
        (lambda: dc.PerUserAsymptote(Fraction(1, 2), Fraction(1))._replace(value_upper=2),
         "per-user asymptote must sit inside [1/2, 1]"),
    ])
    def test_a_checked_record_keeps_its_error_text(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_a_resynthesized_plan_equals_the_first(self):
        for p in (self.P5, P(12, 1, 1, 1, 1), P(12, 2, 0, 1, 1), P(12, 0, 1, 2, 1)):
            plans = [sc.asym_plan(p), *sc.fair_time_sharing_plan(p)]
            for label in ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo"):
                try:
                    plans.append(sc.sym_general_plan(p, label))
                except sc.NotApplicableError:
                    pass
            if p.t_left + p.r_left == p.t_right + p.r_right:
                plans += [sc.sym_symmetric_si_plan(p, a) for a in (0.3, RootAlpha(2, 1), ROOT3)]
            for plan in plans:
                alpha = plan.alpha_token and nm.parse_alpha_token(plan.alpha_token)
                again = sc.synthesize_plan(p, plan.family, alpha)
                assert again == plan and hash(again) == hash(plan), (p, plan.family)

    def test_plan_json_is_unchanged(self):
        got = [json.dumps(sc.plan_to_json(plan), sort_keys=True)
               for plan in self.one_plan_per_family()]
        assert got == self.PLAN_JSON


def pair_silencing_grid():
    """(params, gain the plan is made at, gain it is certified at) over
    K <= 60 and sides 0..3 with t_l + r_l = t_r + r_r: per instance a
    decimal and a root of one u_q the case split tests; every third size
    also a plan made at 0.3, certified at a root of u_{L+1}."""
    for K in range(1, 61):
        for tl, tr, rl in product(range(4), repeat=3):
            rr = tl + rl - tr
            if not 0 <= rr <= 3:
                continue
            p, L = P(K, tl, tr, rl, rr), tl + rl
            qs = [q for q in (L + 1, K % (L + 2), L) if q >= 2]
            gains = [(0.3, -0.45)[K % 2]]
            if qs:
                gains.append(RootAlpha(qs[K % len(qs)], 1, (-1) ** K))
            for alpha in gains:
                yield p, alpha, alpha
            if K % 3 == 0 and L >= 1:
                yield p, 0.3, RootAlpha(L + 1, 1)


def asymmetric_and_chain_grid():
    """(params, family, build, channels) over K <= 16 and sides 0..2: the
    asymmetric and rotation plans at 0.6, the four lb plans at 0.3 and
    root:3:1."""
    for K in range(1, 17):
        for side in product(range(3), repeat=4):
            p = P(K, *side)
            asym = [model(p, nm.ASYMMETRIC, 0.6)]
            yield p, "asym-silencing", lambda: sc.asym_plan(p), asym
            for i in range(1, p.side_sum + 3):
                yield p, f"asym-rotation-{i}", lambda: sc._rotation_plan(
                    p, i, f"asym-rotation-{i}"), asym
            sym = [model(p, nm.SYMMETRIC, a) for a in (0.3, ROOT3)]
            for label in ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo"):
                yield p, label, lambda: sc.sym_general_plan(p, label), sym


def outcome(run):
    """run(), or the type and text of the exception it raises."""
    try:
        return run()
    except Exception as exc:  # NotApplicableError included
        return f"{type(exc).__name__}: {exc}"


class TestEveryPlanUnchanged:
    """Plan synthesis against sha256 digests of plan reprs, field for field,
    or of the error's type and text.  The K <= 12 digest was recorded before
    the subnets' own `claimed` counts and the chain blocks' unread
    transmit-reach argument were deleted, and re-recorded when
    lb-right-chain's NotApplicable reasons began to name the right side, and
    again when steps dropped `decoder` and blocks `tx_of` (the earlier plans
    hash alike over the fields left) and lb-combined began to say "nothing
    to prove" before delegating.  The other three were recorded where two
    verbatim copies of earlier synthesis code (the per-offset MIMO subnet
    and its three tag branches, and the chain blocks built in local
    coordinates and shifted) gave the same plans on every case.  A plan
    that changes on purpose must re-record its digest."""

    DIGEST = "59a700da2c5b6f7450a78de0f4c1cdce854bfd2fe06d3d122fa4f3a3e1da7439"
    PAIR_SILENCING_DIGEST = "d599f3646511e3719fd2b09d6189daf67c7cd544a8cd6862549144c18c14ce98"
    CHAIN_DIGEST = "cbdcd46b34359339bcfddd32cad225e17a6aff2c585496ce3d42bf75e569206e"
    MIMO_SUBNET_DIGEST = "1c1736efa0e1cfd1cb2d9bb4690acd3cd342d8ea940cb40d0e65aca4324f824e"

    @staticmethod
    def every_family(p):
        yield "asym-silencing", lambda: sc.asym_plan(p)
        for i in range(1, p.side_sum + 3):
            yield f"asym-rotation-{i}", lambda: sc.synthesize_plan(p, f"asym-rotation-{i}")
        for alpha in (0.3, ROOT3, RootAlpha(2, 1)):
            yield f"sym-si {alpha!r}", lambda: sc.sym_symmetric_si_plan(p, alpha)
        for label in ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo"):
            yield label, lambda: sc.sym_general_plan(p, label)

    def test_every_family_matches_the_recorded_digest(self):
        h = hashlib.sha256()
        for K in range(1, 13):
            for side in product(range(3), repeat=4):
                p = P(K, *side)
                for name, build in self.every_family(p):
                    try:
                        pl = build()
                        text = repr((pl.family, pl.topology, pl.params, pl.silenced_tx,
                                     pl.silenced_rx, pl.signal_deps, pl.message_prelog,
                                     pl.claimed_dof, pl.alpha_token,
                                     [(sn.active_tx, sn.rx_antennas, sn.kind, sn.scalar_steps,
                                       sn.mimo_blocks) for sn in pl.subnets]))
                    except ValueError as exc:  # NotApplicableError included
                        text = f"{type(exc).__name__}: {exc}"
                    h.update(f"{p} {name} {text}\n".encode())
        assert h.hexdigest() == self.DIGEST

    def test_pair_silencing_plans_match_the_recorded_digest(self):
        h = hashlib.sha256()
        for p, alpha, _ in pair_silencing_grid():
            text = outcome(lambda: repr(sc.sym_symmetric_si_plan(p, alpha)))
            h.update(f"{p} {alpha!r} {text}\n".encode())
        assert h.hexdigest() == self.PAIR_SILENCING_DIGEST

    def test_asymmetric_and_chain_plans_match_the_recorded_digest(self):
        h = hashlib.sha256()
        for p, family, build, _ in asymmetric_and_chain_grid():
            h.update(f"{p} {family} {outcome(lambda: repr(build()))}\n".encode())
        assert h.hexdigest() == self.CHAIN_DIGEST

    def test_every_mimo_subnet_matches_the_recorded_digest(self):
        # every split, size, offset and gain: the subnet and its deps, sorted
        gains = [0.3, -0.45, 1.7] + [ra for p in range(2, 9)
                                      for ra in critical_roots(p).root_alphas]
        h, cases = hashlib.sha256(), 0
        for L in range(7):
            for tl, tr in product(range(L + 1), repeat=2):
                for kappa in range(1, L + 3):
                    for offset in (0, 7):
                        p = P(offset + kappa, tl, tr, L - tl, L - tr)
                        for alpha in gains:
                            sn, deps = sc._mimo_subnet(sc._mimo_shape(p, kappa, alpha), offset)
                            deps = sorted((t, sorted(d)) for t, d in deps.items())
                            h.update(f"{p} {offset} {kappa} {alpha!r} {sn!r} {deps}\n".encode())
                            cases += 1
        assert cases == 64680
        assert len(gains) == 3 + 2 * sum(p // 2 for p in range(2, 9))
        assert h.hexdigest() == self.MIMO_SUBNET_DIGEST


class TestEveryFamilyMatchesTheOracles:
    """Every family's plan, on the grids of the recorded digests, certified
    by certify_plan and by the reference certifier (tests/dense_certify.py):
    equal Certifications field for field, or the same exception type and
    text."""

    @staticmethod
    def check(plan, channels):
        out = set()
        for m in channels:
            got = outcome(lambda: sc.certify_plan(plan, m))
            assert got == outcome(lambda: dense.certify_plan(plan, m)), (plan, m.gains)
            out.add("ok" if got.ok else got.failure.split(" ")[0])
        return out

    def test_pair_silencing_plans_at_roots_and_decimals(self):
        outcomes, plans = set(), 0
        for p, alpha, at in pair_silencing_grid():
            outcomes |= self.check(sc.sym_symmetric_si_plan(p, alpha),
                                   [model(p, nm.SYMMETRIC, at)])
            plans += 1
        assert plans > 5000 and outcomes == {"ok", "rank"}

    def test_asymmetric_and_chain_plans(self):
        outcomes = set()
        for _, _, build, channels in asymmetric_and_chain_grid():
            plan = outcome(build)
            if not isinstance(plan, str):
                outcomes |= self.check(plan, channels)
        assert outcomes == {"ok", "rank"}


def mutations(plan):
    """Edits of `plan` that reach every certification check: subnet, step,
    block, deps, silencing and total edits, duplicate signal_deps keys and
    unsorted active_tx."""
    K = plan.params.K
    subs = plan.subnets
    for i, sn in enumerate(subs[:3]):
        nxt = subs[i + 1] if i + 1 < len(subs) else subs[0]
        yield _with_subnet(plan, i, active_tx=sn.active_tx[::-1])
        yield _with_subnet(plan, i, active_tx=sn.active_tx + nxt.active_tx[:1])
        yield _with_subnet(plan, i, rx_antennas=sn.rx_antennas + nxt.rx_antennas[:1])
        yield _with_subnet(plan, i, rx_antennas=sn.rx_antennas[1:])
        yield _with_subnet(plan, i, rx_antennas=sn.rx_antennas + (K + 1,))
        yield _with_subnet(plan, i, active_tx=(0,) + sn.active_tx)
        yield _with_subnet(plan, i, scalar_steps=sn.scalar_steps[::-1])
        for j, st in enumerate(sn.scalar_steps[:2]):
            for field, value in [("antenna", st.antenna + 1), ("antenna", st.antenna - 1),
                                 ("tx", st.tx + 1), ("tx", st.tx - 1), ("message", K + 1),
                                 ("antenna", 0)]:
                steps = list(sn.scalar_steps)
                steps[j] = st._replace(**{field: value})
                yield _with_subnet(plan, i, scalar_steps=tuple(steps))
        for blk in sn.mimo_blocks[:1]:
            (r, ants), (pm, w) = blk.decoders[0], blk.prelog[0]
            for fields in [dict(decoders=((r, ants + (max(ants) + 2,)),) + blk.decoders[1:]),
                           dict(decoders=blk.decoders[1:]),
                           dict(decoders=blk.decoders + ((K + 1, ()),)),
                           dict(prelog=((pm, w + 1),) + blk.prelog[1:]),
                           dict(prelog=((0, w),) + blk.prelog[1:]),
                           dict(coupled=(1,)), dict(coupled=(K + 1,)),
                           dict(tx=blk.tx + (0,)), dict(antennas=blk.antennas + (K + 1,))]:
                yield _with_block(plan, i, **fields)
    deps = plan.signal_deps
    if deps:
        t, d = deps[-1]
        far = ((t, (t + plan.params.t_right + 1,)),)
        yield plan._replace(signal_deps=deps + far)  # the last key wins
        yield plan._replace(signal_deps=far + deps)
        yield plan._replace(signal_deps=deps + ((t, (t - plan.params.t_left - 1,)),))
        yield plan._replace(signal_deps=tuple((t, d[::-1] + d) for t, d in deps))
        yield plan._replace(signal_deps=())
        yield plan._replace(message_prelog=plan.message_prelog + plan.message_prelog[:1])
    active = [t for sn in subs for t in sn.active_tx]
    if active:
        yield plan._replace(silenced_tx=plan.silenced_tx + (active[0],))
        yield plan._replace(silenced_rx=plan.silenced_rx + subs[0].rx_antennas[:1])
    yield plan._replace(claimed_dof=plan.claimed_dof + 1)


class TestCertifyMatchesTheOracle:
    """certify_plan on edited plans against the reference certifier
    (tests/dense_certify.py): equal Certifications field for field, or the
    same exception type and text."""

    @staticmethod
    def same(plan, m):
        got = outcome(lambda: sc.certify_plan(plan, m))
        assert got == outcome(lambda: dense.certify_plan(plan, m)), (plan, m.gains)
        return got if isinstance(got, str) else got.failure or "ok"

    def test_edited_plans(self):
        outcomes = set()
        plans = [pm for pm in hand_edited_plans().values()] + every_family()
        for plan, m in plans:
            for bad in mutations(plan):
                outcomes.add(self.same(bad, m).split(" ")[0])
        assert outcomes >= {"ok", "ValueError:", "subnets", "silenced", "transmitter", "message",
                            "decoder", "zero", "step", "receiver", "joint", "rank", "claimed"}

    def test_edited_plans_at_random_gains(self):
        outcomes = set()
        for plan, m in every_family():
            g = nm.CrossGainAssignment.random(plan.params.K)
            m = nm.build_channel(plan.params, m.topology, g)
            for bad in (plan, *mutations(plan)):
                outcomes.add(self.same(bad, m).split(" ")[0])
        assert {"ok", "ValueError:", "rank", "claimed"} <= outcomes

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_an_asymmetric_window_has_full_rank_at_any_gains(self, seed):
        # the sym-si plan's blocks are the windows 1..3 and 5..7; on the
        # asymmetric band each is unit lower-triangular, so rank 3 at the
        # gains --gains-seed draws
        p = P(K=7, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_symmetric_si_plan(p, 0.3)._replace(topology=nm.ASYMMETRIC)
        assert [b.antennas for sn in plan.subnets for b in sn.mimo_blocks] == [
            (1, 2, 3), (5, 6, 7)]
        m = nm.build_channel(p, nm.ASYMMETRIC, nm.CrossGainAssignment.random(seed))
        assert self.same(plan, m) == "ok"
        assert sc.certify_plan(plan, m).certified_dof == 6

    @pytest.mark.parametrize("order, deps, named", [
        ((2, 3, 4), {}, 2), ((4, 3, 2), {}, 4),
        # transmitter 2 carries message 3 itself, so the sender cannot absorb it
        ((2, 3, 4), {2: (3,), 3: (3, 4)}, 2),
        # the sender of message 3 also sends message 2 and absorbs transmitter 2
        ((2, 3, 4), {3: (2, 3)}, 4),
    ], ids=["sorted", "unsorted", "own-message", "absorbed"])
    def test_the_first_unremovable_interferer_is_named(self, order, deps, named):
        # a step for message 3 at antenna 3 hears transmitters 2 and 4; with
        # deps (t,) neither is removable, and the one named is the first
        # unremovable one in active_tx
        p = P(K=9, t_left=1, t_right=1, r_left=1, r_right=1)
        plan = sc.sym_general_plan(p, "lb-central-mimo")
        plan = plan._replace(signal_deps=tuple(
            (t, deps.get(t, (t,))) for t in range(1, 10)))
        step = plan.subnets[0].scalar_steps[0]._replace(message=3, tx=3, antenna=3)
        bad = _with_subnet(plan, 0, active_tx=order, scalar_steps=(step,))
        assert self.same(bad, model(p, nm.SYMMETRIC, 0.3)) == (
            f"message 3: interference from transmitter {named} is not removable")


class TestGainClassInvariance:
    """u_q vanishes at root:p:k iff its zero period n = (p+1)/gcd(k, p+1)
    divides q+1, and every certification step at equal gains is a zero test
    or a nonzero pivot, so root gains of one period certify alike."""

    def test_certification_depends_on_a_root_gain_only_through_its_zero_period(self):
        classes = {}
        for q in range(2, 12):
            for k in range(1, q // 2 + 1):
                for sign in (1, -1):
                    n = (q + 1) // gcd(k, q + 1)
                    classes.setdefault(n, []).append(RootAlpha(q, k, sign))
        assert {RootAlpha(4, 1), RootAlpha(4, 2)} <= set(classes[5])
        verdicts = set()
        for K in range(1, 11):
            for side in product(range(3), repeat=4):
                p = P(K, *side)
                plans = []
                for label in ("lb-combined", "lb-left-chain", "lb-right-chain",
                              "lb-central-mimo"):
                    try:
                        plans.append(lambda a, plan=sc.sym_general_plan(p, label): plan)
                    except sc.NotApplicableError:
                        pass
                if side[0] + side[2] == side[1] + side[3]:
                    plans.append(lambda a: sc.sym_symmetric_si_plan(p, a))
                for n, gains in classes.items():
                    for build in plans:
                        got = {(c.ok, c.certified_dof, c.failure) for c in
                               (sc.certify_plan(build(a), model(p, nm.SYMMETRIC, a))
                                for a in gains)}
                        assert len(got) == 1, (p, n, got)
                        verdicts |= got
        assert {v[0] for v in verdicts} == {True, False}


class TestCertifyAgreesWithMg:
    """At a gain near a critical one, certify_plan and mg decide block ranks
    by the same zero test, so the default plan certifies at least mg's lower
    bound."""

    def test_default_plans_near_every_root(self):
        sides = [(tl, tr, rl, tl + rl - tr) for tl, tr, rl in product(range(4), repeat=3)
                 if 0 <= tl + rl - tr <= 3]
        cases = 0
        for q in range(2, 8):
            for root in critical_roots(q).alphas():
                for k, sign in product(range(3, 16), (1, -1)):
                    gains = nm.CrossGainAssignment.equal(root + sign * 10.0 ** -k)
                    for side in sides:
                        p = P(7, *side)
                        cert = sc.certify_plan(sc.sym_symmetric_si_plan(p, gains.alpha),
                                               nm.build_channel(p, nm.SYMMETRIC, gains))
                        lower = dc.sym_dof_interval(p, gains).lower
                        assert cert.ok and cert.certified_dof >= lower, (
                            p, gains.alpha, cert.failure, lower)
                        cases += 1
        assert len(sides) == 44 and cases == 24 * 26 * 44
