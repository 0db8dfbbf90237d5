"""The symmetric bound table in ``dofcalc`` and what hangs off it: the plan
builders in ``schemes`` keyed by its lower rows' labels, and each row's
per-user limit."""

from collections import Counter
from itertools import product

import pytest

from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof import schemes as sc
from wynerdof.tridiag import RootAlpha

P = nm.NetworkParams
GENERAL_LOWER = [row.label for row in dc._ROWS if row.scope == "instance" and row.side == "lower"]


def test_each_label_is_one_row():
    assert max(Counter(row.label for row in dc._ROWS).values()) == 1


def test_plan_builders_are_the_general_lower_rows():
    assert GENERAL_LOWER == [b.label for b in dc.sym_lower_bounds(P(K=5))]
    assert sorted(GENERAL_LOWER) == sorted(sc._GENERAL_PLANS)


def test_every_lower_label_has_a_plan_or_a_reason():
    for K in range(1, 13):
        for side in product(range(3), repeat=4):
            p = P(K, *side)
            for label in GENERAL_LOWER:
                try:
                    plan = sc.sym_general_plan(p, label)
                except sc.NotApplicableError as exc:
                    assert str(exc) and "unknown bound label" not in str(exc), (p, label)
                else:
                    assert plan.family == "sym-" + label, (p, label)


# where each scope's rows are evaluated: (symmetric side-information only, gains)
SCOPES = {"instance": (False, [None]),
          "equal": (False, [0.3] + [RootAlpha(q, 1) for q in range(2, 8)]),
          "split": (True, [0.3] + [RootAlpha(q, 1) for q in range(2, 8)]),
          "random": (True, [None])}


def test_per_user_limit_is_the_rows_large_K_slope():
    """|value(K) - (1 - c/beta) K| <= 2 at K = 10^3 beta and 10^6 beta, for
    every row with a c and beta, on sides 0..3 wherever the row applies."""
    applied = Counter()
    for row in dc._ROWS:
        if row.c is None:
            assert row.per_user(1, 1, 1) is None
            continue
        symmetric_only, gains = SCOPES[row.scope]
        for side in product(range(4), repeat=4):
            if symmetric_only and side[0] + side[2] != side[1] + side[3]:
                continue
            sums = side[0] + side[2], side[1] + side[3], side[2] + side[3]  # l, r, m
            beta = row.beta(*sums)
            if beta == 0:  # lb-combined without side-information: no bound
                continue
            for gain, scale in product(gains, (10 ** 3, 10 ** 6)):
                p = P(scale * beta, *side)
                zero = None if gain is None else dc._zero_tests(gain)
                lows, ups = dc._evaluate((row,), *dc._sums(p), zero)
                for value, _ in lows + ups:
                    assert abs(value - row.per_user(*sums) * p.K) <= 2, (row.label, p, gain)
                    applied[row.label] += 1
    assert set(applied) == {row.label for row in dc._ROWS if row.c is not None}


CENTRAL_SINGULAR = P(K=6, t_left=0, t_right=0, r_left=0, r_right=3)


def test_mg_takes_lb_central_mimo_at_its_singular_block():
    iv = dc.sym_dof_interval(CENTRAL_SINGULAR, RootAlpha(4, 1))
    assert (iv.lower, iv.upper, iv.lower_by) == (4, 4, "lb-central-mimo")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="u_4(root:4:1) = 0 makes the central block singular: rank 3 < "
                          "required 4 in subnet 0 (ROADMAP items 4 and 5)")
def test_lb_central_mimo_plan_certifies_mg_lower_bound_at_a_singular_block():
    alpha = RootAlpha(4, 1)
    iv = dc.sym_dof_interval(CENTRAL_SINGULAR, alpha)
    plan = sc.sym_general_plan(CENTRAL_SINGULAR, iv.lower_by)
    model = nm.build_channel(CENTRAL_SINGULAR, nm.SYMMETRIC, nm.CrossGainAssignment.equal(alpha))
    cert = sc.certify_plan(plan, model)
    assert cert.ok and cert.certified_dof == iv.lower, cert.failure
