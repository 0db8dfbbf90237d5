"""Properties under the left/right relabeling k -> K+1-k, the plan JSON
round trip, and plans against the upper bound, on random instances.

Gains are two-decimal values with 0.15 <= |a| <= 2 (the acceptance suite's
range), never the rational critical gain |a| = 1; root gains are the signed
critical gains root:p:k of orders 2..7.
"""

import re
from itertools import product

from hypothesis import given, settings, strategies as st

from wynerdof import converse as cv
from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof import schemes as sc
from wynerdof.tridiag import RootAlpha

LABELS = ("lb-combined", "lb-left-chain", "lb-right-chain", "lb-central-mimo")
SWAP = {"lb-left-chain": "lb-right-chain", "lb-right-chain": "lb-left-chain",
        "ub-singular-left": "ub-singular-right", "ub-singular-right": "ub-singular-left"}
SWAP_SIDE = {"left": "right", "right": "left"}

side = st.integers(min_value=0, max_value=2)
params = st.builds(nm.NetworkParams, st.integers(min_value=1, max_value=24), side, side, side, side)
gains = st.builds(lambda n, sign: sign * n / 100,
                  st.integers(min_value=15, max_value=200).filter(lambda n: n != 100),
                  st.sampled_from((1, -1)))
roots = st.integers(min_value=2, max_value=7).flatmap(
    lambda p: st.builds(RootAlpha, st.just(p), st.integers(min_value=1, max_value=p // 2),
                        st.sampled_from((1, -1))))
SETTINGS = settings(max_examples=40, deadline=None)


def channel(p, alpha):
    return nm.build_channel(p, nm.SYMMETRIC, nm.CrossGainAssignment.equal(alpha))


def bound_values(p, alpha):
    bounds = dc.sym_lower_bounds(p) + dc.sym_upper_bounds(p, alpha)
    return {b.label: (b.value, b.applicable) for b in bounds}


def certified(p, label, alpha):
    try:
        plan = sc.sym_general_plan(p, label)
    except sc.NotApplicableError:
        return None
    cert = sc.certify_plan(plan, channel(p, alpha))
    return cert.ok, cert.certified_dof


@given(params, gains)
@SETTINGS
def test_bounds_swap_under_mirroring(p, alpha):
    here, there = bound_values(p, alpha), bound_values(p.mirrored(), alpha)
    assert {SWAP.get(label, label): v for label, v in here.items()} == there
    a, b = dc.sym_dof_interval(p, alpha), dc.sym_dof_interval(p.mirrored(), alpha)
    assert (a.lower, a.upper) == (b.lower, b.upper)


@given(params, gains)
@SETTINGS
def test_general_plans_certify_alike_under_mirroring(p, alpha):
    for label in LABELS:
        assert certified(p, label, alpha) == certified(p.mirrored(), SWAP.get(label, label), alpha)


def not_applicable_reason(p, label):
    try:
        sc.sym_general_plan(p, label)
    except sc.NotApplicableError as exc:
        return str(exc)
    return None


def test_not_applicable_reasons_swap_sides_under_mirroring():
    swap = lambda text: re.sub("left|right", lambda m: SWAP_SIDE[m.group()], text)
    for K, side in product((1, 7, 12), product(range(4), repeat=4)):
        p = nm.NetworkParams(K, *side)
        for label in LABELS:
            here = not_applicable_reason(p, label)
            there = not_applicable_reason(p.mirrored(), SWAP.get(label, label))
            assert (here and swap(here)) == there, (p, label)


@given(params, gains)
@SETTINGS
def test_generic_genie_is_mirror_invariant(p, alpha):
    m = p.mirrored()
    here, there = cv.build_sym_genie_ub1(p, alpha), cv.build_sym_genie_ub1(m, alpha)
    assert here.bound == there.bound
    assert cv.verify_reconstruction(here, channel(p, alpha), trials=5).ok
    assert cv.verify_reconstruction(there, channel(m, alpha), trials=5).ok


def ub2_or_error(p, alpha):
    try:
        return cv.build_sym_genie_ub2(p, alpha), None
    except ValueError as exc:
        return None, str(exc)


@given(params, roots)
@SETTINGS
def test_singular_genie_is_mirror_invariant(p, alpha):
    m = p.mirrored()
    there, err = ub2_or_error(m, alpha)
    if err is None:
        here = cv.mirror_partition(there, p)
        assert here.bound == there.bound
        assert cv.verify_reconstruction(here, channel(p, alpha), trials=5).ok
        assert cv.verify_reconstruction(there, channel(m, alpha), trials=5).ok


def root_of_the_mirrored_left_side(p):
    """A critical root of u_{t_r+r_r+1}, the order ub2 needs singular on p.mirrored()."""
    order = p.t_right + p.r_right + 1
    return st.builds(RootAlpha, st.just(order), st.integers(min_value=1, max_value=order // 2),
                     st.sampled_from((1, -1)))


generic_cases = st.tuples(params, st.just(cv.build_sym_genie_ub1), gains)
singular_cases = params.filter(lambda p: p.t_right + p.r_right >= 1).flatmap(
    lambda p: st.tuples(st.just(p), st.just(cv.build_sym_genie_ub2),
                        root_of_the_mirrored_left_side(p)))


@given(st.one_of(singular_cases, generic_cases))
@SETTINGS
def test_mirrored_recipes_replay_on_the_instance(case):
    p, build, alpha = case
    try:
        mirrored = build(p.mirrored(), alpha)
    except ValueError as exc:
        assert "construction gap" in str(exc)
        return
    part = cv.mirror_partition(mirrored, p)
    assert part.bound == mirrored.bound
    rep = cv.verify_reconstruction(part, channel(p, alpha), trials=5)
    assert rep.ok, rep.failure


def every_plan(p, alpha):
    yield sc.asym_plan(p)
    yield from sc.fair_time_sharing_plan(p)
    for label in LABELS:
        try:
            yield sc.sym_general_plan(p, label)
        except sc.NotApplicableError:
            pass
    if p.t_left + p.r_left == p.t_right + p.r_right:
        yield sc.sym_symmetric_si_plan(p, alpha)


@given(params, gains)
@SETTINGS
def test_plan_json_round_trip(p, alpha):
    for plan in every_plan(p, alpha):
        assert sc.plan_from_json(sc.plan_to_json(plan)) == plan


@given(params, st.one_of(gains, roots))
@SETTINGS
def test_certified_plans_never_beat_the_upper_bound(p, alpha):
    # asymmetric plans certify only against an asymmetric channel
    upper = dc.sym_dof_interval(p, alpha).upper
    for plan in every_plan(p, alpha):
        if plan.topology == nm.SYMMETRIC:
            cert = sc.certify_plan(plan, channel(p, alpha))
            assert not cert.ok or cert.certified_dof <= upper, plan.family
