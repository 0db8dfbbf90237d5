"""Reference rank trials at random gains, kept in the tests as an oracle.

``wynerdof.simulator.random_gain_rank_trials`` proves most windows of a
random trial nonsingular from a float pass over their continuants and
decides the rest by the exact continuant.  This module keeps an independent
loop: one SVD per contiguous principal window, taken as a slice of the dense
channel matrix, in (trial, size, start) order.  It shares no code with the
package's version but the gain resolution in ``netmodel``,
``sample_generic_gains`` and the report type.  Fixed gains take the zero
test instead, so they have no oracle here.
"""

from __future__ import annotations

import numpy as np

from wynerdof.netmodel import NetworkParams, build_channel, sample_generic_gains
from wynerdof.simulator import RankTrialReport


def random_gain_rank_trials(K: int, topology: str, trials: int, seed: int,
                            max_window: int = 12,
                            rel_tol: float = 1e-8) -> RankTrialReport:
    """Check every contiguous principal submatrix of each trial's random
    gains for full numeric rank."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = NetworkParams(K=K)
    wmax = min(K, max_window)
    failures = []
    for t in range(trials):
        model = build_channel(params, topology, sample_generic_gains(K, topology, seed + t))
        H = model.matrix
        for size in range(1, wmax + 1):
            for start in range(0, K - size + 1):
                block = H[start:start + size, start:start + size]
                s = np.linalg.svd(block, compute_uv=False)
                if s[-1] <= rel_tol * s[0]:
                    failures.append((t, start + 1, size))
    return RankTrialReport(trials=trials, failures=len(failures),
                           max_window=wmax, failed_cases=tuple(failures[:50]))
