"""Plan certification as it was before the one-pass rewrite, kept in the
tests as an oracle.

``wynerdof.schemes.certify_plan`` reads the channel's three diagonals, the
band's tuples, once per call and makes one pass over the plan: the scalar
steps' interference scan visits only the active transmitters next to the
step's antenna, and window tests are inline min/max comparisons.  This
module keeps the version that replaced, verbatim: ``_first_coupling`` walks
every antenna through ``ChannelModel.entry``, each scalar step scans every
active transmitter of its subnet, window tests build sorted lists, and a
block's rank is the SVD's (``dense_certify.svd_rank``) where the rewrite's is
exact.  It shares no code with the rewrite but the plan types and
``netmodel.submatrix``.  Like the rewrite, it reads a step's decoder off its
message and a block's encoders off ``signal_deps``, which plans no longer
state twice, fails a step whose transmitter's deps do not name its
message, and fails a block that is neither jointly decoded nor jointly
precoded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from dense_certify import svd_rank
from wynerdof.netmodel import ChannelModel, submatrix
from wynerdof.schemes import Certification, TransmissionPlan


def _first_coupling(subnets, model: ChannelModel) -> Optional[Tuple[int, int]]:
    """Lexicographically first (i, j), i != j, with H[a][t] != 0 for an
    antenna a of subnet i and an active transmitter t of subnet j.

    Each antenna a is walked against the transmitters a-1, a, a+1 (the only
    ones a banded channel can couple it to) and their per-index owner lists;
    the lists keep every subnet naming an index, so shared indices still
    couple.  An index outside 1..K raises ValueError wherever it sits.
    """
    K = model.K
    tx_owners: Dict[int, List[int]] = {}
    for j, sn in enumerate(subnets):
        _check_range(sn.rx_antennas, K)
        _check_range(sn.active_tx, K)
        for t in sn.active_tx:
            tx_owners.setdefault(t, []).append(j)
    for i, sn in enumerate(subnets):
        coupled = [j for a in sn.rx_antennas
                   for t in (a - 1, a, a + 1) if t in tx_owners
                   for j in tx_owners[t] if j != i and model.entry(a, t) != 0]
        if coupled:
            return i, min(coupled)
    return None


def _outside(idx, lo: int, hi: int) -> List[int]:
    """The indices in `idx` outside lo..hi, sorted."""
    if not idx or lo <= min(idx) and max(idx) <= hi:
        return []
    return sorted(x for x in idx if not lo <= x <= hi)


def _check_range(idx, K: int) -> None:
    """Raise ValueError naming the smallest index in `idx` outside 1..K."""
    if idx and (min(idx) < 1 or max(idx) > K):
        raise ValueError(f"index {_outside(idx, 1, K)[0]} outside 1..{K}")


def certify_plan(plan: TransmissionPlan, model: ChannelModel) -> Certification:
    """Verify a plan against a concrete channel: non-interference,
    side-information feasibility, chain pivots/removability, block ranks,
    and the claimed total.  Stops at the first violated check."""
    params = plan.params
    if params != model.params or plan.topology != model.topology:
        raise ValueError("plan and model describe different instances")
    H = model.entry
    band = np.asarray(model.band)  # the memo keys on its slices' bytes
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
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

    # (b) encoder-side feasibility: transmitter t knows messages t-tl .. t+tr
    for t, dset in deps.items():
        outside = _outside(dset, max(1, t - tl), min(K, t + tr))
        if outside:
            return fail(f"transmitter {t} uses messages {outside} outside its window")
    checks.append("encoder-feasibility")

    # block ranks for this call only, keyed by the block's index pattern
    # relative to its smallest index o and the band columns o..hi it spans:
    # exact for any gains, and equal gains make most blocks share one key
    ranks: Dict[Tuple[Tuple[int, ...], Tuple[int, ...], bytes], int] = {}
    certified = 0
    for si, sn in enumerate(plan.subnets):
        decoded: set = set()
        needed_antennas: Dict[int, set] = {}
        for st in sn.scalar_steps:
            if not 1 <= st.message <= K:
                _check_range((st.message,), K)
            if st.antenna in silenced_rx:
                return fail(f"step for message {st.message} uses a silenced antenna")
            if H(st.antenna, st.tx) == 0:
                return fail(f"zero pivot: message {st.message} at antenna {st.antenna}")
            own_deps = deps.get(st.tx, frozenset())
            if st.message not in own_deps:
                return fail(f"transmitter {st.tx} does not encode message {st.message}")
            need = {st.antenna}
            for tx2 in sn.active_tx:
                if tx2 == st.tx or H(st.antenna, tx2) == 0:
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
            outside = _outside(need, max(1, st.message - rl), min(K, st.message + rr))
            if outside:
                return fail(f"decoder {st.message} needs antennas {outside} "
                            f"outside its cluster")
            needed_antennas[st.message] = need
            decoded.add(st.message)
            certified += 1
        for blk in sn.mimo_blocks:
            covered = set()
            for r, ants in blk.decoders:
                if not 1 <= r <= K:
                    _check_range((r,), K)
                if _outside(ants, max(1, r - rl), min(K, r + rr)):
                    return fail(f"receiver {r} assigned antennas outside its cluster")
                aset = set(ants)
                if aset & silenced_rx:
                    return fail(f"receiver {r} assigned a silenced antenna")
                covered |= aset
            if not set(blk.antennas) <= covered:
                return fail("joint decoder does not cover the block antennas")
            own = 0
            for m, w in blk.prelog:
                if not 1 <= m <= K:
                    _check_range((m,), K)
                own += w
            _check_range(blk.coupled, K)
            want = own + sum(prelog.get(m, 0) for m in blk.coupled)
            idx = (*blk.antennas, *blk.tx)
            o, hi = min(idx, default=1), max(idx, default=0)
            if o < 1 or hi > K:
                _check_range(idx, K)
            claimed = [m for m, w in blk.prelog if w]
            blind = [m for m in claimed
                     if _outside(blk.antennas, max(1, m - rl), min(K, m + rr))]
            unaware = [(t, m) for t in blk.tx for m in claimed
                       if m not in deps.get(t, frozenset())]
            if blind and unaware:
                unseen = _outside(blk.antennas, max(1, blind[0] - rl), min(K, blind[0] + rr))
                return fail(f"block in subnet {si}: receiver {blind[0]} does not see antennas "
                            f"{unseen}, and transmitter {unaware[0][0]} does not encode "
                            f"message {unaware[0][1]}")
            key = (tuple(a - o for a in blk.antennas), tuple(t - o for t in blk.tx),
                   band[:, o - 1:hi].tobytes())
            if key not in ranks:
                ranks[key] = svd_rank(submatrix(model, blk.antennas, blk.tx))
            r = ranks[key]
            if r < want:
                return fail(f"rank {r} < required {want} in subnet {si}")
            certified += own
    checks.append("chains-and-ranks")

    if certified != plan.claimed_dof:
        return fail(f"claimed {plan.claimed_dof} but steps certify {certified}")
    checks.append("claimed-total")
    return Certification(ok=True, certified_dof=certified, claimed_dof=plan.claimed_dof,
                         checks=tuple(checks))
