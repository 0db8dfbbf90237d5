"""Plan synthesis as it was before each block size's shape was resolved
once per plan, kept in the tests as an oracle.

``wynerdof.schemes`` resolves a pair-silencing subnet's shape (reduced
sides, groups, weights, tag, kind) once per block size and places it at
each offset, and the asymmetric and chain builders make their steps at
their offset.  This module keeps the versions that replaced, verbatim:
every MIMO subnet is derived from scratch, and the chain blocks are built
in local coordinates and then shifted by ``_remap_steps``/``_remap_block``;
the right chain is the left chain of the mirrored instance, reflected by
``_mirror_plan``, and its NotApplicable reasons name the right side.
It shares no code with them but the plan types and the unchanged helpers
``_reduce_asym`` and ``_pair_tx_silencing``; ``_finalize`` is kept too, as
it was before it sorted each shared deps set once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from wynerdof.netmodel import ASYMMETRIC, SYMMETRIC, NetworkParams
from wynerdof.schemes import (MimoBlock, NotApplicableError, ScalarStep, StrategyTag, Subnet,
                              TransmissionPlan, _pair_tx_silencing, _reduce_asym)
from wynerdof.tridiag import AlphaLike, alpha_float, alpha_token, u_is_zero


def _finalize(params, topology, family, silenced_tx, silenced_rx, subnets, deps,
              alpha=None) -> TransmissionPlan:
    prelog: Dict[int, int] = {}
    for sn in subnets:
        for st in sn.scalar_steps:
            prelog[st.message] = prelog.get(st.message, 0) + 1
        for blk in sn.mimo_blocks:
            for msg, w in blk.prelog:
                prelog[msg] = prelog.get(msg, 0) + w
    return TransmissionPlan(
        params=params,
        topology=topology,
        family=family,
        silenced_tx=tuple(sorted(silenced_tx)),
        silenced_rx=tuple(sorted(silenced_rx)),
        subnets=tuple(subnets),
        signal_deps=tuple(sorted((t, tuple(sorted(d))) for t, d in deps.items())),
        message_prelog=tuple(sorted(prelog.items())),
        claimed_dof=sum(prelog.values()),
        alpha_token=alpha_token(alpha),
    )


def _asym_block(offset: int, red: Tuple[int, int, int, int]):
    """Steps and deps for one asymmetric subnet, local indices shifted by offset.

    red = (t_l', t_r', r_l', r_r').  Active transmitters are offset+1 ..
    offset+S with S = sum(red)+1; antennas offset+1 .. offset+S(+1).
    """
    tl, tr, rl, rr = red
    S = tl + tr + rl + rr + 1
    steps: List[ScalarStep] = []
    deps: Dict[int, set] = {}
    g1_end = rl + 1
    g2_end = rl + tl + 1
    g3_end = rl + tl + tr + 1

    for k in range(1, g1_end + 1):  # single-user, cancel from the left
        deps[k] = {k}
        steps.append(ScalarStep(k, k, k, k, StrategyTag.SINGLE_USER_SIC_LEFT))
    for k in range(g1_end + 1, g2_end + 1):  # precancel the left neighbor
        deps[k] = {k} | deps.get(k - 1, set())
        steps.append(ScalarStep(k, k, k, k, StrategyTag.DPC_LEFT))

    if rr > 0:
        for k in range(g3_end + 1, S + 1):  # single-user, cancel from the right
            deps[k] = {k}
        for k in range(g3_end, g2_end, -1):  # precancel the right neighbor
            deps[k] = {k} | deps.get(k + 1, set())
        for k in range(S, g3_end, -1):
            steps.append(ScalarStep(k, k, k + 1, k, StrategyTag.SINGLE_USER_SIC_RIGHT))
        for k in range(g2_end + 1, g3_end + 1):
            steps.append(ScalarStep(k, k, k + 1, k, StrategyTag.DPC_RIGHT_SCALED))
    elif tr >= 1:
        # no right clustering: transmitter k carries its right neighbor's message
        for k in range(g3_end, g2_end, -1):
            deps[k] = {k + 1} | deps.get(k + 1, set())
        for k in range(g2_end + 1, g3_end + 1):
            steps.append(ScalarStep(k + 1, k, k + 1, k + 1, StrategyTag.DPC_RIGHT_SCALED))

    shift = lambda i: i + offset
    return _remap_steps(steps, shift), _remap_deps(deps, shift)


def _rotation_plan(params: NetworkParams, i: int, family: str) -> TransmissionPlan:
    """Silencing plan i of the asymmetric network, 1 <= i <= beta.

    Silences {i, i+beta, i+2*beta, ...} (beta = t_l+t_r+r_l+r_r+2) and, when
    the trailing segment is too long to keep all its pairs, transmitter K.
    """
    K = params.K
    beta = params.side_sum + 2
    if not 1 <= i <= beta:
        raise ValueError(f"asymmetric rotation {i} outside 1..{beta}")
    full = (params.t_left, params.t_right, params.r_left, params.r_right)
    silenced = set(range(i, K + 1, beta))
    if K not in silenced and K - max(silenced, default=0) > params.t_left + params.r_left + 1:
        silenced.add(K)
    subnets: List[Subnet] = []
    deps: Dict[int, set] = {}
    segments = []
    prev = 0
    for s in sorted(silenced):
        segments.append((prev, s, True))  # antennas prev+1..s, tx s silenced
        prev = s
    if prev < K:
        segments.append((prev, K, False))
    for lo, hi, last_silenced in segments:
        n_rx = hi - lo
        n_active = n_rx - 1 if last_silenced else n_rx
        if n_active <= 0:
            continue
        red = _reduce_asym(params, n_active)
        steps, d = _asym_block(lo, red)
        deps.update(d)
        generic = n_rx == beta and red == full
        subnets.append(Subnet(
            active_tx=tuple(range(lo + 1, lo + n_active + 1)),
            rx_antennas=tuple(range(lo + 1, hi + 1)),
            kind="generic" if generic else "reduced",
            scalar_steps=steps,
            mimo_blocks=(),
        ))
    return _finalize(params, ASYMMETRIC, family, silenced, (), subnets, deps)


def asym_plan(params: NetworkParams) -> TransmissionPlan:
    """Periodic-silencing plan for the asymmetric network: rotation beta,
    which silences every beta-th transmitter (plus K when needed)."""
    return _rotation_plan(params, params.side_sum + 2, "asym-silencing")


def fair_time_sharing_plan(params: NetworkParams) -> List[TransmissionPlan]:
    """All beta rotated silencing plans; every message is served in most of
    them, so averaged over the beta plans the multiplexing gain is at least
    K - gamma - 1."""
    return [_rotation_plan(params, i, f"asym-rotation-{i}")
            for i in range(1, params.side_sum + 3)]


def _mimo_subnet(params: NetworkParams, offset: int, size: int,
                 alpha: AlphaLike) -> Tuple[Subnet, Dict[int, set]]:
    """One pair-silencing subnet handled as a joint MIMO block.

    Its messages txs[lo..hi] (lo, hi = min, max of the reduced r_l', t_r')
    cut the block into one group each, and each carries one prelog per
    member of its group.  A broadcast block (r_l' < t_r') sends from the
    whole block and decodes message j from group j; its t/r dual, the
    multiple-access block (r_l' > t_r'), sends message j from group j and
    decodes it from its receive window.  Point-to-point is their one-message
    case.  A singular block takes one from the first largest weight."""
    kappa = size
    rl_ = min(params.r_left, kappa - 1)
    tr_ = max(0, kappa - 1 - params.r_right)
    lo, hi = (rl_, tr_) if rl_ <= tr_ else (tr_, rl_)
    txs = tuple(range(offset + 1, offset + kappa + 1))
    msgs = txs[lo:hi + 1]
    groups = [txs[:lo + 1], *zip(msgs[1:-1]), txs[hi:]] if lo < hi else [txs]
    weights = list(map(len, groups))
    if u_is_zero(kappa, alpha):
        weights[weights.index(max(weights))] -= 1
    prelog = [(m, w) for m, w in zip(msgs, weights) if w]

    if rl_ <= tr_:
        tag = StrategyTag.MIMO_P2P if rl_ == tr_ else StrategyTag.MIMO_BC
        tx_of = [(m, txs) for m, _ in prelog]
        decoders = list(zip(msgs, groups))
        deps = {t: set(msgs) for t in txs}
    else:
        tag = StrategyTag.MIMO_MAC
        tx_of = list(zip(msgs, groups))
        # receiver txs[j] sees txs[j - r_l .. j + r_r]: its window within the block
        decoders = [(m, txs[max(0, j - params.r_left):j + params.r_right + 1])
                    for j, m in enumerate(msgs, lo)]
        deps = {t: {m} for m, group in tx_of for t in group}

    # positional: binding keywords took about 8% of this function's time (CPython 3.11)
    block = MimoBlock(tag, txs, txs, tuple(prelog), tuple(tx_of), tuple(decoders))
    sn = Subnet(txs, txs, "generic" if kappa == params.t_left + params.r_left + 1 else "reduced",
                (), (block,))
    return sn, deps


def _pair_silencing_subnets(params, silenced_pairs, alpha):
    K = params.K
    subnets = []
    deps: Dict[int, set] = {}
    cut = sorted(silenced_pairs)
    prev = 0
    for s in cut + [K + 1]:
        if s - prev > 1:
            offset, size = prev, s - prev - 1
            sn, d = _mimo_subnet(params, offset, size, alpha)
            subnets.append(sn)
            deps.update(d)
        prev = s
    return subnets, deps


def sym_symmetric_si_plan(params: NetworkParams, alpha: AlphaLike) -> TransmissionPlan:
    """Pair-silencing plan for equal gains and symmetric side-information.

    The silencing period tracks the determinant pattern of alpha: period
    L+2 while the (L+1)-size blocks stay full rank, period L+1 at the
    critical gains, with the last cut shifted by one whenever the leftover
    block would itself be singular.
    """
    L = params.t_left + params.r_left
    if L != params.t_right + params.r_right:
        raise NotApplicableError("requires symmetric side-information")
    if alpha_float(alpha) == 0:
        raise ValueError("nonzero cross-gain required")
    K = params.K

    if K <= L + 1:
        case, period = 1, K + 1  # one block, nothing silenced
    elif u_is_zero(L + 1, alpha):
        case, period = 4, L + 1
    elif u_is_zero(L, alpha):
        case, period = 2, L + 2
    else:
        case, period = 3, L + 2
    silenced = list(range(period, K + 1, period))
    kappa = K % period
    if case in (3, 4) and kappa >= 2 and u_is_zero(kappa, alpha):
        # shift the last cut so every block stays full rank
        silenced[-1] -= 1

    subnets, deps = _pair_silencing_subnets(params, silenced, alpha)
    return _finalize(params, SYMMETRIC, f"sym-si-case{case}", silenced, silenced,
                     subnets, deps, alpha=alpha)


def _f_block(rl_: int, t_end: int):
    """Double-interference chain over local transmitters 2..t_end.

    Antennas 1..t_end-1 are used; messages 2..t_end (own message, when the
    decoder can reach to its left) or 1..t_end-1 (shifted onto the right
    neighbor when r_l' = 0).  Claims t_end-1 degrees of freedom.
    """
    steps: List[ScalarStep] = []
    deps: Dict[int, set] = {}
    if t_end < 2:
        return tuple(steps), deps
    if rl_ >= 1:
        f1_end = min(rl_ + 1, t_end)
        for k in range(2, f1_end + 1):
            deps[k] = {k}
            steps.append(ScalarStep(k, k, k - 1, k, StrategyTag.DOUBLE_PAIR_SIC_LEFT))
        for k in range(f1_end + 1, t_end + 1):
            deps[k] = {k} | deps.get(k - 1, set()) | deps.get(k - 2, set())
            steps.append(ScalarStep(k, k, k - 1, k, StrategyTag.DOUBLE_PAIR_DPC))
    else:
        for k in range(2, t_end + 1):
            deps[k] = {k - 1} | deps.get(k - 1, set()) | deps.get(k - 2, set())
            steps.append(ScalarStep(k - 1, k, k - 1, k - 1, StrategyTag.DOUBLE_PAIR_DPC))
    return tuple(steps), deps


def _remap_steps(steps, f, tag: Optional[StrategyTag] = None):
    """Steps with every index i moved to f(i); `tag` replaces their tags."""
    return tuple(ScalarStep(f(s.message), f(s.tx), f(s.antenna), f(s.decoder), tag or s.tag)
                 for s in steps)


def _remap_deps(deps, f):
    return {f(t): {f(m) for m in d} for t, d in deps.items()}


def _remap_block(b: MimoBlock, f) -> MimoBlock:
    """Block with every index moved by f; index lists stay ascending."""
    ids = lambda idx: tuple(sorted(map(f, idx)))
    return MimoBlock(
        tag=b.tag,
        tx=ids(b.tx),
        antennas=ids(b.antennas),
        prelog=tuple((f(m), w) for m, w in b.prelog),
        tx_of=tuple((f(m), ids(g)) for m, g in b.tx_of),
        decoders=tuple((f(r), ids(ants)) for r, ants in b.decoders),
        coupled=ids(b.coupled),
    )


def _lb_chain_blocks(params, beta, block_builder, family):
    """Shared skeleton for the transmitter-pair silencing chain schemes.

    block_builder(size) returns (scalar_steps, mimo_blocks, deps) in local
    coordinates 1..size (antennas; active transmitters are 2..size-1).
    """
    K = params.K
    silenced, gamma, kappa, theta = _pair_tx_silencing(K, beta)
    subnets: List[Subnet] = []
    deps: Dict[int, set] = {}
    segments = [(m * beta, beta, "generic") for m in range(gamma)]
    if theta >= 1 and kappa >= 1:
        segments.append((gamma * beta, kappa, "reduced"))
    for offset, size, kind in segments:
        steps, blocks, d = block_builder(size)
        shift = lambda i: i + offset
        deps.update(_remap_deps(d, shift))
        subnets.append(Subnet(
            active_tx=tuple(range(offset + 2, offset + size)),
            rx_antennas=tuple(range(offset + 1, offset + size + 1)),
            kind=kind,
            scalar_steps=_remap_steps(steps, shift),
            mimo_blocks=tuple(_remap_block(b, shift) for b in blocks),
        ))
    return _finalize(params, SYMMETRIC, family, silenced, (), subnets, deps)


def sym_general_plan(params: NetworkParams, bound_label: str) -> TransmissionPlan:
    """Constructive plan matching one of the four general lower bounds.

    bound_label in {"lb-combined", "lb-left-chain", "lb-right-chain",
    "lb-central-mimo"}.  Raises NotApplicableError for labels whose scheme
    does not cover the instance (with the delegation reason).
    """
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right

    if bound_label == "lb-left-chain":
        if tl + rl <= 1:
            raise NotApplicableError("t_left+r_left <= 1: nothing to prove (bound <= 0)")
        if tl == 0:
            raise NotApplicableError("t_left = 0: delegates to lb-central-mimo")
        beta = tl + rl + 1

        def build(size):
            t_end = size - 1
            steps, d = _f_block(min(rl, max(0, t_end - 1)), t_end)
            return steps, (), d

        return _lb_chain_blocks(params, beta, build, "sym-lb-left-chain")

    if bound_label == "lb-right-chain":
        try:
            mirrored = sym_general_plan(params.mirrored(), "lb-left-chain")
        except NotApplicableError as exc:  # the left chain's reason, for the right side
            raise NotApplicableError(str(exc).replace("left", "right")) from None
        return _mirror_plan(mirrored, params, "sym-lb-right-chain")

    if bound_label == "lb-combined":
        if tl + rl == 0:
            raise NotApplicableError("t_left+r_left = 0: delegates to lb-right-chain")
        if tr + rr == 0:
            raise NotApplicableError("t_right+r_right = 0: delegates to lb-left-chain")
        if params.side_sum <= 2:
            raise NotApplicableError("side-information sum <= 2: nothing to prove")
        beta = params.side_sum

        def build(size):
            # left and right chains back to back; two central antennas unused
            ltot = min(tl + rl, size - 1)
            rtot = size - ltot
            lsteps, ldeps = _f_block(min(rl, max(0, ltot - 1)), ltot)
            rsteps, rdeps = _f_block(min(rr, max(0, rtot - 1)), rtot)
            ref = lambda i: size + 1 - i
            rsteps = _remap_steps(rsteps, ref, StrategyTag.MIRRORED_DOUBLE_PAIR)
            rdeps = _remap_deps(rdeps, ref)
            deps = dict(ldeps)
            deps.update(rdeps)
            return lsteps + rsteps, (), deps

        return _lb_chain_blocks(params, beta, build, "sym-lb-combined")

    if bound_label == "lb-central-mimo":
        beta = rl + rr + 3

        def build(size):
            if size < 3:
                return (), (), {}
            rl_e = min(rl, size - 3)
            rr_e = size - 3 - rl_e
            center = rl_e + 2
            steps: List[ScalarStep] = []
            deps: Dict[int, set] = {center: {center}}
            left_msgs = tuple(range(2, rl_e + 2))
            right_msgs = tuple(range(center + 1, center + 1 + rr_e))
            for k in left_msgs:
                deps[k] = {k}
                steps.append(ScalarStep(k, k, k - 1, k, StrategyTag.SINGLE_USER_SIC_LEFT))
            for k in reversed(right_msgs):
                deps[k] = {k}
                steps.append(ScalarStep(k, k, k + 1, k, StrategyTag.SINGLE_USER_SIC_RIGHT))
            block = MimoBlock(
                tag=StrategyTag.CENTRAL_MIMO_DECODE,
                tx=tuple(range(2, size)),
                antennas=tuple(range(2, size)),
                prelog=((center, 1),),
                tx_of=((center, (center,)),),
                decoders=((center, tuple(range(2, size))),),
                coupled=left_msgs + right_msgs,
            )
            return tuple(steps), (block,), deps

        return _lb_chain_blocks(params, beta, build, "sym-lb-central-mimo")

    raise NotApplicableError(f"unknown bound label {bound_label!r}")


def _mirror_plan(plan: TransmissionPlan, params: NetworkParams, family: str) -> TransmissionPlan:
    ref = lambda i: params.K + 1 - i
    subnets = [Subnet(
        active_tx=tuple(sorted(map(ref, sn.active_tx))),
        rx_antennas=tuple(sorted(map(ref, sn.rx_antennas))),
        kind=sn.kind,
        scalar_steps=_remap_steps(sn.scalar_steps, ref, StrategyTag.MIRRORED_DOUBLE_PAIR),
        mimo_blocks=tuple(_remap_block(b, ref) for b in sn.mimo_blocks),
    ) for sn in reversed(plan.subnets)]
    return _finalize(params, SYMMETRIC, family, map(ref, plan.silenced_tx),
                     map(ref, plan.silenced_rx), subnets, _remap_deps(plan.deps_map(), ref))
