"""Reference non-interference test for plans, kept in the tests as an oracle.

``wynerdof.schemes.certify_plan`` finds coupled subnets with one scan of the
channel's nonzeros against per-index owner lists.  This module keeps the
definition that scan replaced: for every ordered pair of distinct subnets,
the channel submatrix from the first subnet's antennas to the second one's
active transmitters must be all zero.  It costs S(S-1) submatrix extractions
for S subnets, and shares no code with the scan but ``netmodel.submatrix``.
"""

from __future__ import annotations

import numpy as np

from wynerdof.netmodel import submatrix


def first_coupling(subnets, model):
    """The first pair (i, j), i != j, in row-major order whose submatrix is
    nonzero, or None; an index outside 1..K raises ValueError at the first
    pair that names it."""
    for i, sa in enumerate(subnets):
        for j, sb in enumerate(subnets):
            if i == j:
                continue
            sub = submatrix(model, sa.rx_antennas, sb.active_tx)
            if sub.size and np.any(sub != 0):
                return i, j
    return None
