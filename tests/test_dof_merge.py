"""The bound table and its merge against the objects it replaced.

``dof_merge_oracle`` keeps the earlier ``sym_lower_bounds``,
``sym_upper_bounds``, ``sym_dof_interval`` and ``sym_mg_per_user``
verbatim; every result here must equal theirs field for field.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import dof_merge_oracle as oracle
from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof.tridiag import critical_roots

P = nm.NetworkParams
ROOTS = [ra for p in range(2, 9) for ra in critical_roots(p).root_alphas]  # +- each
GAINS = [0.3, -1.7, 1, Fraction(1, 3)] + ROOTS + [float(ra) for ra in ROOTS]
INSTANCES = [P(K, *side) for K in range(1, 41) for side in product(range(4), repeat=4)]
ASSIGNMENTS = [nm.CrossGainAssignment.random(3), nm.CrossGainAssignment.random(8),
               nm.CrossGainAssignment.explicit([0.4, -1.2, 0.9], [1.1, 0.7, -0.5]),
               nm.CrossGainAssignment.equal(ROOTS[1])]


def _symmetric_si(p):
    return p.t_left + p.r_left == p.t_right + p.r_right


SI = [p for p in INSTANCES if _symmetric_si(p)]
OTHER = [p for p in INSTANCES if not _symmetric_si(p)]
# Each instance meets a rotating share of the gains: a fifth at symmetric
# side-information, where the case split and every zero test take part, a
# seventeenth elsewhere.  5 and 17 are prime to the 44 and 212 side patterns
# of one K, so every gain meets every side pattern at 2 to 8 values of K.
ROTATION = [(p, GAINS[j % 5::5]) for j, p in enumerate(SI)] + \
    [(p, GAINS[j % 17::17]) for j, p in enumerate(OTHER)]


def test_grid_has_every_root_both_signs():
    assert len(ROOTS) == 2 * sum(p // 2 for p in range(2, 9))
    assert {float(ra) for ra in ROOTS} == {-float(ra) for ra in ROOTS}


def test_lower_bounds_equal():
    for p in INSTANCES:
        assert dc.sym_lower_bounds(p) == oracle.sym_lower_bounds(p), p


def test_intervals_and_upper_bounds_equal_at_equal_gains():
    for p, gains in ROTATION:
        for a in gains:
            assert dc.sym_dof_interval(p, a) == oracle.sym_dof_interval(p, a), (p, a)
            for variant in ("statement", "prose"):
                assert dc.sym_upper_bounds(p, a, variant) == \
                    oracle.sym_upper_bounds(p, a, variant), (p, a, variant)


def test_intervals_and_upper_bounds_equal_at_assignments():
    for p in INSTANCES:
        assert dc.sym_upper_bounds(p, None) == oracle.sym_upper_bounds(p, None), p
        for gains in ASSIGNMENTS:
            assert dc.sym_dof_interval(p, gains) == oracle.sym_dof_interval(p, gains), \
                (p, gains)


def test_per_user_and_case_split_equal():
    for p, gains in ROTATION[:len(SI)]:
        for a in gains:
            assert dc.sym_mg_per_user(p, a) == oracle.sym_mg_per_user(p, a), (p, a)
            assert dc.sym_mg_symmetric_si(p, a) == oracle.sym_mg_symmetric_si(p, a), (p, a)


def test_errors_equal():
    for call in ("sym_dof_interval", "sym_mg_per_user", "sym_upper_bounds"):
        with pytest.raises(ValueError, match="nonzero cross-gain required"):
            getattr(dc, call)(P(K=5, t_left=1, r_right=1), 0.0)
    for call in ("sym_mg_per_user", "sym_mg_symmetric_si"):
        with pytest.raises(ValueError, match="requires symmetric side-information"):
            getattr(dc, call)(P(K=5, t_left=1), 0.3)
    with pytest.raises(ValueError, match="theta4_variant"):
        dc.sym_upper_bounds(P(K=5), 0.3, "other")


def test_each_zero_test_runs_at_most_once_per_interval(monkeypatch):
    calls = Counter()

    def counted(q, alpha, _real=dc.u_is_zero):
        calls[q] += 1
        return _real(q, alpha)

    monkeypatch.setattr(dc, "u_is_zero", counted)
    seen = set()
    for K in range(1, 41):
        for side in ((0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 1, 3), (0, 2, 2, 0), (3, 1, 0, 2)):
            p = P(K, *side)
            for a in GAINS:
                calls.clear()
                dc.sym_dof_interval(p, a)
                assert max(calls.values(), default=0) <= 1, (p, a, dict(calls))
                seen.update(calls)
    assert len(seen) > 3  # the count covered the singular bounds and the case split
