"""Reference rank trials, kept in the tests as an oracle.

``wynerdof.simulator.random_gain_rank_trials`` proves most windows full rank
from their determinants and sends the rest of each window size to LAPACK as
one stacked SVD call.  This module keeps the loop that replaced: one SVD per
contiguous principal window, taken as a slice of the dense channel matrix,
in (trial, size, start) order.  It shares no code with the batched version
but the gain resolution in ``netmodel``, ``sample_generic_gains`` and the
report type.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from wynerdof.netmodel import CrossGainAssignment, NetworkParams, \
    build_channel, sample_generic_gains
from wynerdof.simulator import RankTrialReport


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
