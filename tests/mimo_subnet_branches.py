"""The MIMO subnet rule as it was before the transmit/receive-dual rule,
kept in the tests as an oracle.

``wynerdof.schemes._mimo_subnet`` writes one rule: the broadcast and the
multiple-access block share their messages, weights and groups and differ
only in which side the groups sit on, and point-to-point is their
one-message case.  This module keeps the version that replaced, verbatim:
three hand-written branches, one per tag.  It shares no code with the rule
but the plan types and ``tridiag``'s zero test.
"""

from __future__ import annotations

from typing import Dict, Tuple

from wynerdof.netmodel import NetworkParams
from wynerdof.schemes import MimoBlock, StrategyTag, Subnet
from wynerdof.tridiag import AlphaLike, u_is_zero


def _mimo_subnet(params: NetworkParams, offset: int, size: int,
                 alpha: AlphaLike) -> Tuple[Subnet, Dict[int, set]]:
    """One pair-silencing subnet handled as a joint MIMO block."""
    kappa = size
    tl_ = max(0, kappa - 1 - params.r_left)
    rl_ = kappa - 1 - tl_
    tr_ = max(0, kappa - 1 - params.r_right)
    rr_ = kappa - 1 - tr_
    full_rank = not u_is_zero(kappa, alpha)
    claimed = kappa if full_rank else kappa - 1

    txs = tuple(range(offset + 1, offset + kappa + 1))
    ants = txs
    bal = (rl_ + rr_) - (tl_ + tr_)
    deps: Dict[int, set] = {}
    if bal == 0:
        tag = StrategyTag.MIMO_P2P
        msg = offset + tr_ + 1
        prelog = [(msg, claimed)]
        decoders = [(msg, ants)]
        for t in txs:
            deps[t] = {msg}
    elif bal < 0:
        tag = StrategyTag.MIMO_BC
        msgs = list(range(offset + rl_ + 1, offset + tr_ + 2))
        weights = {m: 1 for m in msgs}
        weights[msgs[0]] = rl_ + 1
        weights[msgs[-1]] += rr_  # last gets r_r'+1 in total
        if not full_rank:
            big = max(msgs, key=lambda m: weights[m])
            weights[big] -= 1
        prelog = [(m, w) for m, w in weights.items() if w > 0]
        decoders = [(msgs[0], tuple(range(offset + 1, offset + rl_ + 2)))]
        for m in msgs[1:-1]:
            decoders.append((m, (m,)))
        decoders.append((msgs[-1], tuple(range(offset + tr_ + 1, offset + kappa + 1))))
        all_msgs = set(msgs)
        for t in txs:
            deps[t] = set(all_msgs)
    else:
        tag = StrategyTag.MIMO_MAC
        msgs = list(range(offset + tr_ + 1, offset + rl_ + 2))
        weights = {m: 1 for m in msgs}
        weights[msgs[0]] = tr_ + 1
        weights[msgs[-1]] += tl_
        if not full_rank:
            big = max(msgs, key=lambda m: weights[m])
            weights[big] -= 1
        prelog = [(m, w) for m, w in weights.items() if w > 0]
        for m in msgs:
            if m == msgs[0]:
                group = tuple(range(offset + 1, offset + tr_ + 2))
            elif m == msgs[-1]:
                group = tuple(range(offset + rl_ + 1, offset + kappa + 1))
            else:
                group = (m,)
            for t in group:
                deps.setdefault(t, set()).add(m)
        decoders = [(r, tuple(a for a in params.rx_window(r) if offset + 1 <= a <= offset + kappa))
                    for r in msgs]

    block = MimoBlock(tag=tag, tx=txs, antennas=ants,
                      prelog=tuple(prelog), decoders=tuple(decoders))
    sn = Subnet(active_tx=txs, rx_antennas=ants,
                kind="generic" if kappa == params.t_left + params.r_left + 1 else "reduced",
                scalar_steps=(), mimo_blocks=(block,))
    return sn, deps
