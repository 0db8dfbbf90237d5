"""Constructive transmission plans and their linear-algebraic certification.

A plan silences transmitters (or transmitter/receiver pairs), which splits
the chain into non-interfering subnets, and assigns every surviving message
a concrete strategy: a successive-cancellation or known-interference
(dirty-paper style) scalar step, or membership in a joint MIMO block.

Certification never simulates codebooks.  It checks exactly the linear
facts the degrees-of-freedom claims rest on:

* subnets do not couple through the channel;
* every encoder uses only messages inside its cognition window and every
  decoder only antennas inside its cluster: receiver m decodes message m,
  whose encoders are the transmitters whose `signal_deps` name it, each
  transmitter listed there once;
* each scalar step is sent by an encoder of its message, and scalar chains
  are triangular with nonzero pivots once interference is removed either
  by earlier decoding or by sender-side precancellation;
* each MIMO block is jointly decoded (every claimed message's receiver
  sees all its antennas) or jointly precoded (every block transmitter
  encodes every claimed message), and its submatrix has rank at least the
  degrees of freedom claimed through it.  Every rank is exact:
  tridiag.band_rank, whose runs of diagonal pairs are singular at equal
  gains by the zero test the closed form uses, and at any other gains when
  their continuant is exactly 0.

Dirty-paper steps are modeled as removable known interference: the sender
must be able to compute the interfering signal from messages it knows,
which is tracked through a per-transmitter dependency map.

Plan records, like every record of the package, are NamedTuples:
ScalarStep, MimoBlock, Subnet and TransmissionPlan are built per step and
per subnet, about three times faster than frozen dataclasses, are hashable
and are edited with ``._replace``; so is the Certification report.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .netmodel import ASYMMETRIC, SYMMETRIC, ChannelModel, NetworkParams
from .tridiag import AlphaLike, alpha_float, alpha_token, band_rank, u_is_zero

__all__ = [
    "StrategyTag",
    "ScalarStep",
    "MimoBlock",
    "Subnet",
    "TransmissionPlan",
    "Certification",
    "asym_plan",
    "sym_symmetric_si_plan",
    "sym_general_plan",
    "fair_time_sharing_plan",
    "certify_plan",
    "plan_to_json",
    "synthesize_plan",
    "NotApplicableError",
]


class StrategyTag(str, Enum):
    SINGLE_USER_SIC_LEFT = "SingleUserSICLeft"
    DPC_LEFT = "DPCLeft"
    DPC_RIGHT_SCALED = "DPCRightScaled"
    SINGLE_USER_SIC_RIGHT = "SingleUserSICRight"
    MIMO_P2P = "MimoP2P"
    MIMO_BC = "MimoBC"
    MIMO_MAC = "MimoMAC"
    DOUBLE_PAIR_SIC_LEFT = "DoublePairSICLeft"
    DOUBLE_PAIR_DPC = "DoublePairDPC"
    MIRRORED_DOUBLE_PAIR = "MirroredDoublePair"
    CENTRAL_MIMO_DECODE = "CentralMimoDecode"
    SKIPPED = "Skipped"
    SILENCED = "Silenced"


class NotApplicableError(ValueError):
    """Raised when a requested scheme label does not apply to the instance."""


class ScalarStep(NamedTuple):
    """Message m decoded by receiver m from one antenna (successive cancellation / DPC)."""

    message: int
    tx: int
    antenna: int
    tag: StrategyTag


class MimoBlock(NamedTuple):
    """Jointly decoded group: claimed prelogs ride on the block's rank.

    `coupled` lists messages whose prelog is claimed by scalar steps but
    which the block's joint decoder must also carry (the central-decoder
    scheme); they are included in the rank requirement.  A message's
    encoders are the transmitters whose `signal_deps` name it.
    """

    tag: StrategyTag
    tx: Tuple[int, ...]
    antennas: Tuple[int, ...]
    prelog: Tuple[Tuple[int, int], ...]           # (message, prelog)
    decoders: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (receiver, antennas used)
    coupled: Tuple[int, ...] = ()


class Subnet(NamedTuple):
    active_tx: Tuple[int, ...]
    rx_antennas: Tuple[int, ...]
    kind: str  # "generic" | "reduced"
    scalar_steps: Tuple[ScalarStep, ...]
    mimo_blocks: Tuple[MimoBlock, ...]


class TransmissionPlan(NamedTuple):
    params: NetworkParams
    topology: str
    family: str
    silenced_tx: Tuple[int, ...]
    silenced_rx: Tuple[int, ...]
    subnets: Tuple[Subnet, ...]
    signal_deps: Tuple[Tuple[int, Tuple[int, ...]], ...]  # tx -> message deps
    message_prelog: Tuple[Tuple[int, int], ...]
    claimed_dof: int
    alpha_token: Optional[str] = None

    def strategy_map(self) -> Dict[int, str]:
        tags: Dict[int, str] = {}
        for sn in self.subnets:
            for st in sn.scalar_steps:
                tags[st.message] = st.tag.value
            for blk in sn.mimo_blocks:
                for msg, _ in blk.prelog:
                    tags[msg] = blk.tag.value
        for k in self.silenced_tx:
            tags[k] = StrategyTag.SILENCED.value
        for k in range(1, self.params.K + 1):
            tags.setdefault(k, StrategyTag.SKIPPED.value)
        return tags


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _reduce_asym(params: NetworkParams, n_active: int) -> Tuple[int, int, int, int]:
    """Clip side-information so that r_l'+t_l'+t_r'+r_r'+1 == n_active.

    Clipping order: keep r_left first, then t_left, t_right, r_right.
    """
    budget = n_active - 1
    rl = min(params.r_left, budget)
    budget -= rl
    tl = min(params.t_left, budget)
    budget -= tl
    tr = min(params.t_right, budget)
    budget -= tr
    rr = min(params.r_right, budget)
    budget -= rr
    if budget != 0:
        raise ValueError("block larger than the side-information allows")
    return (tl, tr, rl, rr)


def _finalize(params, topology, family, silenced_tx, silenced_rx, subnets, deps,
              alpha=None) -> TransmissionPlan:
    prelog: Dict[int, int] = {}
    for sn in subnets:
        for st in sn.scalar_steps:
            prelog[st.message] = prelog.get(st.message, 0) + 1
        for blk in sn.mimo_blocks:
            for msg, w in blk.prelog:
                prelog[msg] = prelog.get(msg, 0) + w
    signal_deps = sorted(deps.items())
    if set(map(type, deps.values())) != {tuple}:  # MIMO subnets' deps are sorted tuples already
        signal_deps = [(t, tuple(sorted(d))) for t, d in signal_deps]
    return TransmissionPlan(
        params=params,
        topology=topology,
        family=family,
        silenced_tx=tuple(sorted(silenced_tx)),
        silenced_rx=tuple(sorted(silenced_rx)),
        subnets=tuple(subnets),
        signal_deps=tuple(signal_deps),
        message_prelog=tuple(sorted(prelog.items())),
        claimed_dof=sum(prelog.values()),
        alpha_token=alpha_token(alpha),
    )


# ---------------------------------------------------------------------------
# asymmetric plan
# ---------------------------------------------------------------------------

def _asym_block(offset: int, red: Tuple[int, int, int, int]):
    """Steps and deps for one asymmetric subnet, built at its offset.

    red = (t_l', t_r', r_l', r_r').  Active transmitters are offset+1 ..
    offset+S with S = sum(red)+1; antennas offset+1 .. offset+S(+1).
    """
    tl, tr, rl, rr = red
    S = offset + tl + tr + rl + rr + 1
    steps: List[ScalarStep] = []
    deps: Dict[int, set] = {}
    g1_end = offset + rl + 1
    g2_end = g1_end + tl
    g3_end = g2_end + tr

    for k in range(offset + 1, g1_end + 1):  # single-user, cancel from the left
        deps[k] = {k}
        steps.append(ScalarStep(k, k, k, StrategyTag.SINGLE_USER_SIC_LEFT))
    for k in range(g1_end + 1, g2_end + 1):  # precancel the left neighbor
        deps[k] = {k} | deps.get(k - 1, set())
        steps.append(ScalarStep(k, k, k, StrategyTag.DPC_LEFT))

    if rr > 0:
        for k in range(g3_end + 1, S + 1):  # single-user, cancel from the right
            deps[k] = {k}
        for k in range(g3_end, g2_end, -1):  # precancel the right neighbor
            deps[k] = {k} | deps.get(k + 1, set())
        for k in range(S, g3_end, -1):
            steps.append(ScalarStep(k, k, k + 1, StrategyTag.SINGLE_USER_SIC_RIGHT))
        for k in range(g2_end + 1, g3_end + 1):
            steps.append(ScalarStep(k, k, k + 1, StrategyTag.DPC_RIGHT_SCALED))
    elif tr >= 1:
        # no right clustering: transmitter k carries its right neighbor's message
        for k in range(g3_end, g2_end, -1):
            deps[k] = {k + 1} | deps.get(k + 1, set())
        for k in range(g2_end + 1, g3_end + 1):
            steps.append(ScalarStep(k + 1, k, k + 1, StrategyTag.DPC_RIGHT_SCALED))
    return tuple(steps), deps


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


# ---------------------------------------------------------------------------
# symmetric side-information plan (pair silencing + MIMO subnets)
# ---------------------------------------------------------------------------

def _mimo_shape(params: NetworkParams, kappa: int, alpha: AlphaLike):
    """The offset-free shape of a kappa-sized pair-silencing subnet, handled
    as one joint MIMO block: its tag, kind and the positions in the block of
    its prelogs, sender spans (of transmitters, of messages) and decoders.

    Its messages (positions lo..hi, the min and max of the reduced r_l',
    t_r') cut the block into one group each, and each carries one prelog per
    member of its group.  A broadcast block (r_l' < t_r') sends from the
    whole block and decodes message j from group j; its t/r dual, the
    multiple-access block (r_l' > t_r'), sends message j from group j and
    decodes it from its receive window.  Point-to-point is their one-message
    case.  A singular block takes one from the first largest weight."""
    rl_ = min(params.r_left, kappa - 1)
    tr_ = max(0, kappa - 1 - params.r_right)
    lo, hi = (rl_, tr_) if rl_ <= tr_ else (tr_, rl_)
    spans = [(0, lo + 1), *((j, j + 1) for j in range(lo + 1, hi)), (hi, kappa)] if lo < hi \
        else [(0, kappa)]
    weights = [b - a for a, b in spans]
    if u_is_zero(kappa, alpha):
        weights[weights.index(max(weights))] -= 1
    prelog = [(j, w) for j, w in enumerate(weights, lo) if w]
    groups = list(enumerate(spans, lo))
    if rl_ <= tr_:
        tag = StrategyTag.MIMO_P2P if rl_ == tr_ else StrategyTag.MIMO_BC
        senders, decoders = [((0, kappa), (lo, hi + 1))], groups
    else:
        # receiver j sees positions j - r_l .. j + r_r: its window within the block
        tag = StrategyTag.MIMO_MAC
        senders = [(span, (j, j + 1)) for j, span in groups]
        decoders = [(j, (max(0, j - params.r_left), j + params.r_right + 1))
                    for j in range(lo, hi + 1)]
    kind = "generic" if kappa == params.t_left + params.r_left + 1 else "reduced"
    return tag, kind, kappa, prelog, senders, decoders


def _mimo_subnet(shape, offset: int) -> Tuple[Subnet, Dict[int, Tuple[int, ...]]]:
    """The subnet of `shape` on transmitters and antennas offset+1 ..
    offset+kappa, and its transmitters' message deps: per sender span one
    ascending tuple, a slice of the block's transmitters."""
    tag, kind, kappa, prelog, senders, decoders = shape
    txs = tuple(range(offset + 1, offset + kappa + 1))
    # positional: binding keywords took about 8% of this function's time (CPython 3.11)
    block = MimoBlock(tag, txs, txs, tuple([(txs[j], w) for j, w in prelog]),
                      tuple([(txs[j], txs[a:b]) for j, (a, b) in decoders]))
    # one tuple per span, shared by its transmitters: a set per span kept
    # the cyclic collector busy at large K
    deps = {t: msgs for (a, b), (ma, mb) in senders for msgs in (txs[ma:mb],) for t in txs[a:b]}
    return Subnet(txs, txs, kind, (), (block,)), deps


def _pair_silencing_subnets(params, silenced_pairs, alpha):
    """The MIMO subnets between the silenced pairs, one shape per block size."""
    subnets = []
    deps: Dict[int, Tuple[int, ...]] = {}
    shapes: Dict[int, tuple] = {}
    prev = 0
    for s in sorted(silenced_pairs) + [params.K + 1]:
        if s - prev > 1:
            size = s - prev - 1
            if size not in shapes:
                shapes[size] = _mimo_shape(params, size, alpha)
            sn, d = _mimo_subnet(shapes[size], prev)
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


# ---------------------------------------------------------------------------
# general-parameter chain plans (pair-of-transmitters silencing)
# ---------------------------------------------------------------------------

def _f_block(rl: int, t_end: int, f, tag: Optional[StrategyTag] = None):
    """Double-interference chain over local transmitters 2..t_end, each local
    index i built at f(i); `tag` replaces the steps' tags.

    Antennas 1..t_end-1 are used; messages 2..t_end (own message, when the
    decoder can reach to its left) or 1..t_end-1 (shifted onto the right
    neighbor when r_l = 0).  Claims t_end-1 degrees of freedom.
    """
    steps: List[ScalarStep] = []
    deps: Dict[int, set] = {}
    sic, dpc = tag or StrategyTag.DOUBLE_PAIR_SIC_LEFT, tag or StrategyTag.DOUBLE_PAIR_DPC
    if t_end < 2:
        return tuple(steps), deps
    if rl >= 1:
        f1_end = min(rl + 1, t_end)
        for k in range(2, f1_end + 1):
            deps[k] = {k}
            steps.append(ScalarStep(f(k), f(k), f(k - 1), sic))
        for k in range(f1_end + 1, t_end + 1):
            deps[k] = {k} | deps.get(k - 1, set()) | deps.get(k - 2, set())
            steps.append(ScalarStep(f(k), f(k), f(k - 1), dpc))
    else:
        for k in range(2, t_end + 1):
            deps[k] = {k - 1} | deps.get(k - 1, set()) | deps.get(k - 2, set())
            steps.append(ScalarStep(f(k - 1), f(k), f(k - 1), dpc))
    return tuple(steps), {f(t): {f(m) for m in d} for t, d in deps.items()}


def _pair_tx_silencing(K: int, beta: int):
    """Silenced transmitters {m*beta+1} and {m*beta}, plus the tail rule."""
    gamma = K // beta
    kappa = K % beta
    theta = 0 if kappa == 0 else (1 if kappa == 1 else 2)
    silenced = {m * beta + 1 for m in range(0, gamma)} | {m * beta for m in range(1, gamma + 1)}
    if theta >= 1:
        silenced.add(gamma * beta + 1)
    if theta == 2:
        silenced.add(K)
    return silenced, gamma, kappa, theta


def _lb_chain_blocks(params, beta, block_builder, family, from_right=False):
    """Shared skeleton for the transmitter-pair silencing chain schemes.

    block_builder(offset, size) returns (scalar_steps, mimo_blocks, deps) on
    antennas offset+1 .. offset+size (active transmitters are offset+2 ..
    offset+size-1).  Segments are laid out from antenna 1, the shorter tail
    segment last; from_right lays them out from antenna K down, so the tail
    sits at the left end and the silenced set is reflected (s -> K+1-s).
    """
    K = params.K
    silenced, gamma, kappa, theta = _pair_tx_silencing(K, beta)
    subnets: List[Subnet] = []
    deps: Dict[int, set] = {}
    segments = [(m * beta, beta, "generic") for m in range(gamma)]
    if theta >= 1 and kappa >= 1:
        segments.append((gamma * beta, kappa, "reduced"))
    if from_right:
        silenced = {K + 1 - s for s in silenced}
        segments = [(K - offset - size, size, kind) for offset, size, kind in reversed(segments)]
    for offset, size, kind in segments:
        steps, blocks, d = block_builder(offset, size)
        deps.update(d)
        subnets.append(Subnet(
            active_tx=tuple(range(offset + 2, offset + size)),
            rx_antennas=tuple(range(offset + 1, offset + size + 1)),
            kind=kind,
            scalar_steps=steps,
            mimo_blocks=blocks,
        ))
    return _finalize(params, SYMMETRIC, family, silenced, (), subnets, deps)


def _chains(params: NetworkParams, left: int):
    """Segment builder of the chain plans: a segment of `size` antennas holds
    a left chain over its first min(left, size-1) positions and the mirrored
    right chain over the rest.  A chain of one position is empty."""
    def build(offset, size):
        ltot = min(left, size - 1)
        steps, deps = _f_block(params.r_left, ltot, lambda i: i + offset)
        rsteps, rdeps = _f_block(params.r_right, size - ltot, lambda i: offset + size + 1 - i,
                                 StrategyTag.MIRRORED_DOUBLE_PAIR)
        deps.update(rdeps)
        return steps + rsteps, (), deps

    return build


def _left_chain_plan(params: NetworkParams) -> TransmissionPlan:
    tl, rl = params.t_left, params.r_left
    if tl + rl <= 1:
        raise NotApplicableError("t_left+r_left <= 1: nothing to prove (bound <= 0)")
    if tl == 0:
        raise NotApplicableError("t_left = 0: delegates to lb-central-mimo")
    return _lb_chain_blocks(params, tl + rl + 1, _chains(params, tl + rl), "sym-lb-left-chain")


def _right_chain_plan(params: NetworkParams) -> TransmissionPlan:
    tr, rr = params.t_right, params.r_right
    if tr + rr <= 1:
        raise NotApplicableError("t_right+r_right <= 1: nothing to prove (bound <= 0)")
    if tr == 0:
        raise NotApplicableError("t_right = 0: delegates to lb-central-mimo")
    return _lb_chain_blocks(params, tr + rr + 1, _chains(params, 1), "sym-lb-right-chain",
                            from_right=True)


def _combined_plan(params: NetworkParams) -> TransmissionPlan:
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    if params.side_sum <= 2:  # first: the chain delegated to would not apply either
        raise NotApplicableError("side-information sum <= 2: nothing to prove")
    if tl + rl == 0:
        raise NotApplicableError("t_left+r_left = 0: delegates to lb-right-chain")
    if tr + rr == 0:
        raise NotApplicableError("t_right+r_right = 0: delegates to lb-left-chain")
    # left and right chains back to back; two central antennas unused
    return _lb_chain_blocks(params, params.side_sum, _chains(params, tl + rl), "sym-lb-combined")


def _central_mimo_plan(params: NetworkParams) -> TransmissionPlan:
    rl, rr = params.r_left, params.r_right

    def build(offset, size):
        if size < 3:
            return (), (), {}
        rl_e = min(rl, size - 3)
        rr_e = size - 3 - rl_e
        center = offset + rl_e + 2
        steps: List[ScalarStep] = []
        deps: Dict[int, set] = {center: {center}}
        left_msgs = tuple(range(offset + 2, center))
        right_msgs = tuple(range(center + 1, center + 1 + rr_e))
        for k in left_msgs:
            deps[k] = {k}
            steps.append(ScalarStep(k, k, k - 1, StrategyTag.SINGLE_USER_SIC_LEFT))
        for k in reversed(right_msgs):
            deps[k] = {k}
            steps.append(ScalarStep(k, k, k + 1, StrategyTag.SINGLE_USER_SIC_RIGHT))
        inner = tuple(range(offset + 2, offset + size))
        block = MimoBlock(
            tag=StrategyTag.CENTRAL_MIMO_DECODE,
            tx=inner,
            antennas=inner,
            prelog=((center, 1),),
            decoders=((center, inner),),
            coupled=left_msgs + right_msgs,
        )
        return tuple(steps), (block,), deps

    return _lb_chain_blocks(params, rl + rr + 3, build, "sym-lb-central-mimo")


# the plan behind each general lower bound, by the bound's label in dofcalc
_GENERAL_PLANS = {"lb-combined": _combined_plan, "lb-left-chain": _left_chain_plan,
                  "lb-right-chain": _right_chain_plan, "lb-central-mimo": _central_mimo_plan}


def sym_general_plan(params: NetworkParams, bound_label: str) -> TransmissionPlan:
    """Constructive plan matching one of the four general lower bounds, the
    keys of _GENERAL_PLANS.  Raises NotApplicableError for labels whose
    scheme does not cover the instance (with the delegation reason)."""
    build = _GENERAL_PLANS.get(bound_label)
    if build is None:
        raise NotApplicableError(f"unknown bound label {bound_label!r}")
    return build(params)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

class Certification(NamedTuple):
    ok: bool
    certified_dof: int
    claimed_dof: int
    failure: Optional[str] = None
    checks: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"ok": self.ok, "certified_dof": self.certified_dof,
                "claimed_dof": self.claimed_dof, "failure": self.failure,
                "checks": list(self.checks)}


def _outside(idx, lo: int, hi: int) -> List[int]:
    """The indices in `idx` outside lo..hi, sorted: for failure texts."""
    return sorted(x for x in idx if not lo <= x <= hi)


def _check_range(idx, K: int) -> None:
    """Raise ValueError naming the smallest index in `idx` outside 1..K."""
    if idx and (min(idx) < 1 or max(idx) > K):
        raise ValueError(f"index {_outside(idx, 1, K)[0]} outside 1..{K}")


def certify_plan(plan: TransmissionPlan, model: ChannelModel) -> Certification:
    """Verify a plan against a concrete channel: non-interference,
    side-information feasibility, chain pivots/removability, block ranks,
    and the claimed total.  Stops at the first violated check.

    The channel is read as its three diagonals: antenna a hears only
    transmitters a-1, a and a+1, so each coupling and interference scan
    looks at those three alone.  An index outside 1..K raises ValueError
    where it is read; subnet indices are all checked before any coupling."""
    params = plan.params
    if params != model.params or plan.topology != model.topology:
        raise ValueError("plan and model describe different instances")
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    diag, sub, sup = model.band
    deps = dict(plan.signal_deps)
    prelog = dict(plan.message_prelog)
    silenced_rx = set(plan.silenced_rx)
    checks: List[str] = []

    def H(a, t):  # for a and t in 1..K
        return (diag[a - 1] if a == t else sub[t - 1] if a == t + 1
                else sup[a - 1] if a == t - 1 else 0.0)

    def fail(msg):
        return Certification(ok=False, certified_dof=0, claimed_dof=plan.claimed_dof,
                             failure=msg, checks=tuple(checks))

    # (a) subnets do not interfere: the lexicographically first coupled pair
    # (i, j) is reported.  owner maps each transmitter to its subnet; when a
    # transmitter is named twice, owner lists keep every subnet naming it,
    # so shared indices still couple.
    owner = {t: j for j, sn in enumerate(plan.subnets) for t in sn.active_tx}
    if not owner.keys().isdisjoint(plan.silenced_tx):
        return fail("silenced transmitter listed as active")
    # extremes only: a set of every antenna, built per call, left the heap
    # fragmented (certify-grid peak RSS +0.6 MB at 60 passes); antennas that
    # are their subnet's transmitters tuple are owner's keys
    rxs = [a for sn in plan.subnets if sn.rx_antennas is not sn.active_tx for a in sn.rx_antennas]
    if (rxs and (min(rxs) < 1 or max(rxs) > K)
            or owner and (min(owner) < 1 or max(owner) > K)):
        for sn in plan.subnets:
            _check_range(sn.rx_antennas, K)
            _check_range(sn.active_tx, K)
    if len(owner) == sum(len(sn.active_tx) for sn in plan.subnets):
        # H is read only where a neighbour has an owner other than subnet i
        coupled = [(i, j) for i, sn in enumerate(plan.subnets) for a in sn.rx_antennas
                   for t in (a - 1, a, a + 1) if (j := owner.get(t, i)) != i and H(a, t) != 0]
    else:
        owners: Dict[int, List[int]] = {}
        for j, sn in enumerate(plan.subnets):
            for t in sn.active_tx:
                owners.setdefault(t, []).append(j)
        coupled = [(i, j) for i, sn in enumerate(plan.subnets) for a in sn.rx_antennas
                   for t in (a - 1, a, a + 1) for j in owners.get(t, ()) if j != i and H(a, t) != 0]
    if coupled:
        return fail("subnets {} and {} couple through the channel".format(*min(coupled)))
    checks.append("non-interference")

    # (b) encoder-side feasibility: transmitter t knows messages t-tl .. t+tr
    if len(deps) < len(plan.signal_deps):
        seen: set = set()
        for t, _ in plan.signal_deps:
            if t in seen:
                return fail(f"transmitter {t} is listed twice in signal_deps")
            seen.add(t)
    last = None
    for t, d in deps.items():
        if not d:
            continue
        if d is not last:  # a MIMO span's transmitters share one deps tuple
            last = d
            lo, hi = (d[0], d[0]) if len(d) == 1 else (min(d), max(d))
        # max(1, t - tl) <= lo and hi <= min(K, t + tr), in two comparisons
        if not (1 <= lo >= t - tl and K >= hi <= t + tr):
            outside = _outside(set(d), max(1, t - tl), min(K, t + tr))
            return fail(f"transmitter {t} uses messages {outside} outside its window")
    checks.append("encoder-feasibility")

    # runs of diagonal pairs are H_l(alpha) at equal gains, and on the
    # asymmetric band unit lower-triangular at any gains (u_l(0) = 1)
    alpha = model.equal_alpha if plan.topology == SYMMETRIC else 0.0
    ranks: Dict[int, int] = {}  # a window's rank at equal gains, by its size
    certified = 0
    for si, sn in enumerate(plan.subnets):
        if sn.scalar_steps:
            decoded: set = set()
            needed: Dict[int, set] = {}
            mine = set(sn.active_tx)
        for st in sn.scalar_steps:
            m, t, a = st.message, st.tx, st.antenna
            if not 1 <= m <= K:
                _check_range((m,), K)
            if a in silenced_rx:
                return fail(f"step for message {m} uses a silenced antenna")
            if not (1 <= a <= K and 1 <= t <= K):
                _check_range((a,), K)
                _check_range((t,), K)
            if H(a, t) == 0:
                return fail(f"zero pivot: message {m} at antenna {a}")
            sent = deps.get(t, ())
            if m not in sent:
                return fail(f"transmitter {t} does not encode message {m}")
            need = {a}
            rest = set(sent) - {m}
            near = [x for x in (a - 1, a, a + 1) if x != t and x in mine]
            for t2 in sorted(near, key=sn.active_tx.index):  # in active_tx order
                d2 = deps.get(t2, ())
                if H(a, t2) == 0 or d2 and rest.issuperset(d2):
                    continue  # silent, or the sender's signal already absorbs it
                if not decoded.issuperset(d2):
                    return fail(f"message {m}: interference from transmitter "
                                f"{t2} is not removable")
                for m2 in d2:
                    need.update(needed.get(m2, ()))
            lo, hi = max(1, m - rl), min(K, m + rr)  # receiver m decodes message m
            if min(need) < lo or max(need) > hi:
                return fail(f"decoder {m} needs antennas {_outside(need, lo, hi)} "
                            f"outside its cluster")
            needed[m] = need
            decoded.add(m)
            certified += 1
        for blk in sn.mimo_blocks:
            ants, n = blk.antennas, len(blk.antennas)
            # a principal window, as every synthesized block is: its ends are its extremes
            window = n and blk.tx == ants and ants == tuple(range(ants[0], ants[0] + n))
            amin, amax = (ants[0], ants[-1]) if window else (min(ants), max(ants)) if n else (1, K)
            covered, whole = set(), False
            for r, d in blk.decoders:
                if not 1 <= r <= K:
                    _check_range((r,), K)
                if d is ants:  # the block's own antennas cover it
                    whole, lo, hi = True, amin, amax
                elif d:
                    covered.update(d)
                    lo, hi = min(d), max(d)
                if d and not (1 <= lo >= r - rl and K >= hi <= r + rr):
                    return fail(f"receiver {r} assigned antennas outside its cluster")
                if not silenced_rx.isdisjoint(d):
                    return fail(f"receiver {r} assigned a silenced antenna")
            if not (whole or covered.issuperset(ants)):
                return fail("joint decoder does not cover the block antennas")
            # receiver m sees every antenna iff amax - rr <= m <= amin + rl
            seen_lo, seen_hi = (amax - rr, amin + rl) if n else (1, K)
            own, blind = 0, None
            for m, w in blk.prelog:
                if not 1 <= m <= K:
                    _check_range((m,), K)
                own += w
                if w and not seen_lo <= m <= seen_hi and blind is None:
                    blind = m  # the first claimed message whose receiver misses an antenna
            want = own
            if blk.coupled:
                _check_range(blk.coupled, K)
                want += sum(prelog.get(m, 0) for m in blk.coupled)
            if not window and blk.tx != ants:  # the decoders put the antennas in 1..K
                _check_range(blk.tx, K)
            if blind is not None:  # not jointly decoded: is it jointly precoded?
                claimed, last = {m for m, w in blk.prelog if w}, None
                for t in blk.tx:
                    d = deps.get(t, ())
                    if d is not last:  # a broadcast block's transmitters share one deps tuple
                        last, unknown = d, claimed.difference(d)
                    if unknown:
                        m = next(m for m, w in blk.prelog if w and m in unknown)
                        return fail(f"block in subnet {si}: receiver {blind} does not see "
                                    f"antennas {_outside(ants, blind - rl, blind + rr)}, and "
                                    f"transmitter {t} does not encode message {m}")
            if window and alpha is not None:  # band_rank's zero test, once per size
                rank = ranks.get(n)
                if rank is None:
                    rank = ranks[n] = n - u_is_zero(n, alpha)
            else:
                rank = band_rank(ants, blk.tx, model.band, alpha)
            if rank < want:
                return fail(f"rank {rank} < required {want} in subnet {si}")
            certified += own
    checks.append("chains-and-ranks")

    if certified != plan.claimed_dof:
        return fail(f"claimed {plan.claimed_dof} but steps certify {certified}")
    checks.append("claimed-total")
    return Certification(ok=True, certified_dof=certified, claimed_dof=plan.claimed_dof,
                         checks=tuple(checks))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def plan_to_json(plan: TransmissionPlan) -> dict:
    return {
        "family": plan.family,
        "topology": plan.topology,
        "K": plan.params.K,
        "t_left": plan.params.t_left,
        "t_right": plan.params.t_right,
        "r_left": plan.params.r_left,
        "r_right": plan.params.r_right,
        "alpha": plan.alpha_token,
        "silenced": list(plan.silenced_tx),
        "silenced_pairs": list(plan.silenced_rx),
        "subnets": [{"tx": list(s.active_tx), "rx": list(s.rx_antennas), "kind": s.kind}
                    for s in plan.subnets],
        "strategies": {str(k): v for k, v in sorted(plan.strategy_map().items())},
        "prelog": {str(k): v for k, v in plan.message_prelog},
        "claimed_dof": plan.claimed_dof,
    }


def synthesize_plan(params: NetworkParams, family: str,
                    alpha: Optional[AlphaLike] = None) -> TransmissionPlan:
    """Re-create a plan from its descriptor (families are deterministic)."""
    if family.startswith("asym-rotation-"):
        i = int(family[len("asym-rotation-"):])
        return _rotation_plan(params, i, f"asym-rotation-{i}")
    if family == "asym-silencing":
        return asym_plan(params)
    if family.startswith("sym-si"):
        if alpha is None:
            raise ValueError("symmetric plans need the cross-gain")
        return sym_symmetric_si_plan(params, alpha)
    if family.startswith("sym-lb"):
        return sym_general_plan(params, family.replace("sym-", "", 1))
    raise ValueError(f"unknown plan family {family!r}")


def plan_from_json(obj) -> TransmissionPlan:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("plan JSON must be an object")
    for name in ("K", "t_left", "t_right", "r_left", "r_right"):
        if type(obj.get(name)) is not int:
            raise ValueError(f"plan field {name!r} must be an integer")
    if not isinstance(obj.get("family"), str):
        raise ValueError("plan field 'family' must be a string")
    params = NetworkParams(K=obj["K"], t_left=obj["t_left"], t_right=obj["t_right"],
                           r_left=obj["r_left"], r_right=obj["r_right"])
    alpha = None
    if obj.get("alpha") is not None:
        from .netmodel import parse_alpha_token
        alpha = parse_alpha_token(obj["alpha"])
    plan = synthesize_plan(params, obj["family"], alpha=alpha)
    want = plan_to_json(plan)
    if want != obj:
        diff = sorted(k for k in want.keys() | obj.keys() if want.get(k) != obj.get(k))
        raise ValueError(f"plan JSON differs from the {plan.family} plan in: {', '.join(diff)}")
    return plan
