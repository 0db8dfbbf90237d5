"""The reference certifier of the tests: plan certification on the dense
channel, with exact ranks.

``wynerdof.schemes.certify_plan`` reads the channel's 3 x K band and takes
block ranks from ``tridiag.band_rank``.  This module checks the same plan
from the dense K x K matrix and shares nothing with it but the record types:
coupling from ``np.nonzero`` of ``ChannelModel.matrix``, pivots by dense
indexing, window checks through ``tx_window``/``rx_window`` sets, and each
block's rank by Gaussian elimination of its dense submatrix
(``exact_rank``).  Its rules:

* subnets do not couple through the channel;
* a transmitter is listed at most once in ``signal_deps``;
* transmitter t encodes only messages in its window, receiver m decodes
  message m from antennas in its cluster, and a block's encoders are the
  transmitters whose ``signal_deps`` name a message;
* a step's transmitter encodes its message, its pivot is nonzero, and each
  interferer is absorbed by the sender or made of messages decoded before;
* a block is jointly decoded (each claimed message's receiver sees all its
  antennas) or jointly precoded (each of its transmitters encodes every
  claimed message), and has rank at least the prelog it carries;
* the steps and blocks certify the claimed total.

An index outside 1..K raises ValueError where it is read, and every subnet
index is checked before any coupling.

Ranks are exact.  A float gain, equal, explicit or random, is an exact
rational, so elimination runs in ``Fraction``.  An equal ``RootAlpha`` gain
is irrational, so elimination runs in 80-digit ``Decimal`` on its closed
form sign / (2 cos(k pi/(p+1))), a pivot below 1e-60 counting as zero.
A float gain within 4 float steps of a root, which ``u_is_zero`` treats as
the root, is taken as the rational it is here; the test grids hold none.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from wynerdof.netmodel import ChannelModel
from wynerdof.schemes import Certification, TransmissionPlan
from wynerdof.tridiag import _PI, RootAlpha


def eliminated_rank(M, is_zero) -> int:
    """Rank of the list-of-rows matrix M by Gaussian elimination, a pivot
    counting as zero when is_zero(pivot)."""
    M = [list(row) for row in M]
    rank = 0
    for j in range(len(M[0]) if M else 0):
        piv = max(range(rank, len(M)), key=lambda i: abs(M[i][j]), default=None)
        if piv is None or is_zero(M[piv][j]):
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][j] / M[rank][j]
            M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=1024)  # the test grids repeat a few blocks many times
def exact_rank(M: Tuple[Tuple[float, ...], ...], root: Optional[RootAlpha] = None) -> int:
    """The rank of the float matrix M (a tuple of rows), each entry the
    rational it is; with `root`, each entry equal to root's float stands for
    the root itself, from the cosine's Taylor series in 80 digits."""
    if root is None:
        return eliminated_rank([[Fraction(g) for g in row] for row in M], lambda x: x == 0)
    with localcontext() as ctx:
        ctx.prec = 80
        x, term, cos, n = Decimal(_PI) / 2 ** 256 * root.k / (root.p + 1), 1, Decimal(1), 0
        while abs(term) > Decimal(10) ** -70:
            n += 2
            term *= -x * x / (n * (n - 1))
            cos += term
        a = root.sign / (2 * cos)
        return eliminated_rank([[a if g == root.value else Decimal(g) for g in row] for row in M],
                               lambda x: abs(x) < Decimal(10) ** -60)


def submatrix(model: ChannelModel, rows, cols) -> Tuple[Tuple[float, ...], ...]:
    """Entries H[a][t] of the dense channel for 1-based rows a and columns
    t, as a tuple of rows."""
    sub = model.matrix[np.ix_(np.asarray(rows, dtype=int) - 1, np.asarray(cols, dtype=int) - 1)]
    return tuple(map(tuple, sub.tolist()))


def _check_range(idx, K: int) -> None:
    """Raise ValueError naming the smallest index in `idx` outside 1..K."""
    bad = [x for x in idx if not 1 <= x <= K]
    if bad:
        raise ValueError(f"index {min(bad)} outside 1..{K}")


def _first_coupling(subnets, model: ChannelModel) -> Optional[Tuple[int, int]]:
    """Lexicographically first (i, j), i != j, with H[a, t] != 0 for an
    antenna a of subnet i and an active transmitter t of subnet j: one scan
    of the channel's nonzeros against per-index owner lists, which keep
    every subnet naming an index, so shared indices still couple."""
    rx_owners: Dict[int, List[int]] = {}
    tx_owners: Dict[int, List[int]] = {}
    for i, sn in enumerate(subnets):
        for a in sn.rx_antennas:
            rx_owners.setdefault(a, []).append(i)
        for t in sn.active_tx:
            tx_owners.setdefault(t, []).append(i)
    rows, cols = np.nonzero(model.matrix)
    return min(((i, j) for a, t in zip(rows.tolist(), cols.tolist())
                for i in rx_owners.get(a + 1, ()) for j in tx_owners.get(t + 1, ()) if i != j),
               default=None)


def certify_plan(plan: TransmissionPlan, model: ChannelModel) -> Certification:
    """Verify a plan against a concrete channel: non-interference,
    side-information feasibility, chain pivots/removability, block ranks,
    and the claimed total.  Stops at the first violated check."""
    params = plan.params
    if params != model.params or plan.topology != model.topology:
        raise ValueError("plan and model describe different instances")
    H = model.matrix
    K = params.K
    root = model.equal_alpha if isinstance(model.equal_alpha, RootAlpha) else None
    deps = {t: set(d) for t, d in plan.signal_deps}
    prelog = dict(plan.message_prelog)
    checks: List[str] = []

    def fail(msg):
        return Certification(ok=False, certified_dof=0, claimed_dof=plan.claimed_dof,
                             failure=msg, checks=tuple(checks))

    silenced_rx = set(plan.silenced_rx)
    if {t for sn in plan.subnets for t in sn.active_tx} & set(plan.silenced_tx):
        return fail("silenced transmitter listed as active")

    # (a) subnets do not interfere
    for sn in plan.subnets:
        _check_range(sn.rx_antennas, K)
        _check_range(sn.active_tx, K)
    coupling = _first_coupling(plan.subnets, model)
    if coupling is not None:
        return fail("subnets {} and {} couple through the channel".format(*coupling))
    checks.append("non-interference")

    # (b) encoder-side feasibility: each transmitter's deps are stated once
    keys = [t for t, _ in plan.signal_deps]
    for i, t in enumerate(keys):
        if t in keys[:i]:
            return fail(f"transmitter {t} is listed twice in signal_deps")
    for t, dset in deps.items():
        win = set(params.tx_window(t))
        if not dset <= win:
            return fail(f"transmitter {t} uses messages {sorted(dset - win)} outside its window")
    checks.append("encoder-feasibility")

    certified = 0
    for si, sn in enumerate(plan.subnets):
        decoded: set = set()
        needed_antennas: Dict[int, set] = {}
        for st in sn.scalar_steps:
            _check_range((st.message,), K)
            if st.antenna in silenced_rx:
                return fail(f"step for message {st.message} uses a silenced antenna")
            _check_range((st.antenna,), K)
            _check_range((st.tx,), K)
            if H[st.antenna - 1, st.tx - 1] == 0:
                return fail(f"zero pivot: message {st.message} at antenna {st.antenna}")
            own_deps = deps.get(st.tx, set())
            if st.message not in own_deps:
                return fail(f"transmitter {st.tx} does not encode message {st.message}")
            need = {st.antenna}
            for tx2 in sn.active_tx:
                if tx2 == st.tx or H[st.antenna - 1, tx2 - 1] == 0:
                    continue
                d2 = deps.get(tx2, set())
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
                _check_range((r,), K)
                aset = set(ants)
                if not aset <= set(params.rx_window(r)):
                    return fail(f"receiver {r} assigned antennas outside its cluster")
                if aset & silenced_rx:
                    return fail(f"receiver {r} assigned a silenced antenna")
                covered |= aset
            if not set(blk.antennas) <= covered:
                return fail("joint decoder does not cover the block antennas")
            for m, _ in blk.prelog:
                _check_range((m,), K)
            _check_range(blk.coupled, K)
            _check_range(blk.tx, K)
            want = sum(w for _, w in blk.prelog) + sum(prelog.get(m, 0) for m in blk.coupled)
            claimed = [m for m, w in blk.prelog if w]
            blind = [m for m in claimed if not set(blk.antennas) <= set(params.rx_window(m))]
            unaware = [(t, m) for t in blk.tx for m in claimed if m not in deps.get(t, ())]
            if blind and unaware:
                unseen = sorted(a for a in blk.antennas if a not in params.rx_window(blind[0]))
                return fail(f"block in subnet {si}: receiver {blind[0]} does not see antennas "
                            f"{unseen}, and transmitter {unaware[0][0]} does not encode "
                            f"message {unaware[0][1]}")
            r = exact_rank(submatrix(model, blk.antennas, blk.tx), root)
            if r < want:
                return fail(f"rank {r} < required {want} in subnet {si}")
            certified += sum(w for _, w in blk.prelog)
    checks.append("chains-and-ranks")

    if certified != plan.claimed_dof:
        return fail(f"claimed {plan.claimed_dof} but steps certify {certified}")
    checks.append("claimed-total")
    return Certification(ok=True, certified_dof=certified, claimed_dof=plan.claimed_dof,
                         checks=tuple(checks))
