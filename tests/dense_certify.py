"""Reference certification on the dense channel, kept in the tests as an oracle.

``wynerdof.schemes.certify_plan`` reads the channel's 3 x K band: it walks
each antenna against its three possible neighbours for coupling and for a
scalar step's interference, and keys block ranks on the band entries a
block's submatrix can read (``certify_oracle`` keeps the first banded
version).  This module keeps the dense version both replaced, which reads
the dense K x K matrix throughout: coupling from ``np.nonzero`` of the matrix,
pivots by dense indexing, window checks through ``tx_window``/``rx_window``
sets and block ranks keyed on each dense submatrix's bytes.  It shares no
code with the banded version but ``ChannelModel.matrix`` (built from the
band), the ``Certification`` type and ``_numeric_rank``.  A step's decoder
is its message, a block's encoders are the transmitters whose
``signal_deps`` name a message, and a step's transmitter must be one of its
message's encoders.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from wynerdof.netmodel import ChannelModel
from wynerdof.schemes import Certification, TransmissionPlan, _numeric_rank


def submatrix(model: ChannelModel, rx_indices: Iterable[int], tx_indices: Iterable[int]) -> np.ndarray:
    """Entries H[j][i] for the given 1-based antenna/transmitter index lists."""
    rx = list(rx_indices)
    tx = list(tx_indices)
    K = model.K
    for j in rx + tx:
        if not 1 <= j <= K:
            raise ValueError(f"index {j} outside 1..{K}")
    if not rx or not tx:
        return np.zeros((len(rx), len(tx)))
    r = np.asarray(rx, dtype=int) - 1
    t = np.asarray(tx, dtype=int) - 1
    return model.matrix[np.ix_(r, t)]


def _first_coupling(subnets, model: ChannelModel) -> Optional[Tuple[int, int]]:
    """Lexicographically first (i, j), i != j, with H[a, t] != 0 for an
    antenna a of subnet i and an active transmitter t of subnet j.

    One scan of the channel's nonzeros against per-index owner lists; the
    lists keep every subnet naming an index, so shared indices still couple.
    An index outside 1..K raises ValueError (from `submatrix`) when the
    first pair naming it is not after the first coupling.
    """
    rx_owners: Dict[int, List[int]] = {}
    tx_owners: Dict[int, List[int]] = {}
    for i, sn in enumerate(subnets):
        for a in sn.rx_antennas:
            rx_owners.setdefault(a, []).append(i)
        for t in sn.active_tx:
            tx_owners.setdefault(t, []).append(i)
    first = None
    rows, cols = np.nonzero(model.matrix)
    for a, t in zip(rows.tolist(), cols.tolist()):
        for i in rx_owners.get(a + 1, ()):
            for j in tx_owners.get(t + 1, ()):
                if i != j and (first is None or (i, j) < first):
                    first = (i, j)
    if len(subnets) >= 2:
        bad = lambda idx: any(not 1 <= x <= model.K for x in idx)
        other = lambda i: 1 if i == 0 else 0
        raising = [(i, other(i)) for i, sn in enumerate(subnets) if bad(sn.rx_antennas)]
        raising += [(other(j), j) for j, sn in enumerate(subnets) if bad(sn.active_tx)]
        if raising and (first is None or min(raising) <= first):
            i, j = min(raising)
            submatrix(model, subnets[i].rx_antennas, subnets[j].active_tx)  # raises
    return first


def certify_plan(plan: TransmissionPlan, model: ChannelModel) -> Certification:
    """Verify a plan against a concrete channel: non-interference,
    side-information feasibility, chain pivots/removability, block ranks,
    and the claimed total.  Stops at the first violated check."""
    params = plan.params
    if params != model.params or plan.topology != model.topology:
        raise ValueError("plan and model describe different instances")
    H = model.matrix
    K = params.K
    deps = plan.deps_map()
    prelog = plan.prelog_map()
    checks: List[str] = []

    def fail(msg):
        return Certification(ok=False, certified_dof=0, claimed_dof=plan.claimed_dof,
                             failure=msg, checks=tuple(checks))

    silenced = set(plan.silenced_tx)
    silenced_rx = set(plan.silenced_rx)
    active_all = set()
    for sn in plan.subnets:
        active_all.update(sn.active_tx)
    if active_all & silenced:
        return fail("silenced transmitter listed as active")

    # (a) subnets do not interfere
    coupling = _first_coupling(plan.subnets, model)
    if coupling is not None:
        return fail("subnets {} and {} couple through the channel".format(*coupling))
    checks.append("non-interference")

    # (b) encoder-side feasibility
    for t, dset in deps.items():
        win = set(params.tx_window(t))
        if not dset <= win:
            return fail(f"transmitter {t} uses messages {sorted(dset - win)} outside its window")
    checks.append("encoder-feasibility")

    # block ranks for this call only: equal gains make H Toeplitz, so most
    # blocks repeat one submatrix
    ranks: Dict[Tuple[Tuple[int, ...], bytes], int] = {}
    certified = 0
    for si, sn in enumerate(plan.subnets):
        decoded: set = set()
        needed_antennas: Dict[int, set] = {}
        for st in sn.scalar_steps:
            if st.antenna in silenced_rx:
                return fail(f"step for message {st.message} uses a silenced antenna")
            pivot = H[st.antenna - 1, st.tx - 1]
            if pivot == 0:
                return fail(f"zero pivot: message {st.message} at antenna {st.antenna}")
            own_deps = deps.get(st.tx, frozenset())
            if st.message not in own_deps:
                return fail(f"transmitter {st.tx} does not encode message {st.message}")
            need = {st.antenna}
            for tx2 in sn.active_tx:
                if tx2 == st.tx or H[st.antenna - 1, tx2 - 1] == 0:
                    continue
                d2 = deps.get(tx2, frozenset())
                if d2 and d2 <= own_deps - {st.message}:
                    pass  # the sender's signal already absorbs this interferer
                elif d2 <= decoded:
                    for m in d2:
                        need |= needed_antennas.get(m, set())
                else:
                    return fail(f"message {st.message}: interference from transmitter "
                                f"{tx2} is not removable")
            reach = set(params.rx_window(st.message))
            if not need <= reach:
                return fail(f"decoder {st.message} needs antennas {sorted(need - reach)} "
                            f"outside its cluster")
            needed_antennas[st.message] = need
            decoded.add(st.message)
            certified += 1
        for blk in sn.mimo_blocks:
            covered = set()
            for r, ants in blk.decoders:
                reach = set(params.rx_window(r))
                aset = set(ants)
                if not aset <= reach:
                    return fail(f"receiver {r} assigned antennas outside its cluster")
                if aset & silenced_rx:
                    return fail(f"receiver {r} assigned a silenced antenna")
                covered |= aset
            if not set(blk.antennas) <= covered:
                return fail("joint decoder does not cover the block antennas")
            want = sum(w for _, w in blk.prelog) + sum(prelog.get(m, 0) for m in blk.coupled)
            sub = submatrix(model, blk.antennas, blk.tx)
            key = (sub.shape, sub.tobytes())
            if key not in ranks:
                ranks[key] = _numeric_rank(sub)
            r = ranks[key]
            if r < want:
                return fail(f"rank {r} < required {want} in subnet {si}")
            certified += sum(w for _, w in blk.prelog)
    checks.append("chains-and-ranks")

    if certified != plan.claimed_dof:
        return fail(f"claimed {plan.claimed_dof} but steps certify {certified}")
    checks.append("claimed-total")
    return Certification(ok=True, certified_dof=certified, claimed_dof=plan.claimed_dof,
                         checks=tuple(checks))
