"""Genie-aided converse constructions, verified as exact linear identities.

Each construction partitions the receivers into a cooperating group A and
ordered groups B_1..B_q, reveals linear noise combinations (genies) to A,
and supplies round-by-round recipes that rebuild every antenna output A
cannot see from: outputs A observes (or rebuilt in earlier rounds), inputs
computable from messages decoded so far, and the genies.  A is derived from
the recipes: every receiver whose cluster holds no rebuilt output.  The
resulting bound on the multiplexing gain is |R_A|, the number of antennas A
observes.

The recipes are pure linear algebra over the channel law, so they are
checked here numerically on sampled data to machine precision; the
information-theoretic steps that turn them into a capacity bound are not
simulated.  Out-of-range signal indices are identically zero and are
dropped from every coefficient map.

Building block: with M_p(alpha) the banded matrix from tridiag, a window of
p received symbols below an antenna c satisfies

    (Y_{c-1},..,Y_{c-p})^T = M_p(alpha) (X_c,..,X_{c-p+1})^T + e + N-window,

where e carries only the two inputs just below the window; the mirrored
statement holds above c.  Rows of the inverse of M_p therefore express
single inputs through observed outputs, two boundary inputs, and a noise
combination - exactly what a genie can supply.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .netmodel import ASYMMETRIC, SYMMETRIC, ChannelModel, NetworkParams
from .tridiag import (AlphaLike, alpha_float, alpha_token, h_matrix, m_inverse,
                      u_is_zero, v_sequence)

__all__ = [
    "GenieSignal",
    "ReconstructionStep",
    "GeniePartition",
    "build_asym_genie",
    "build_sym_genie_ub1",
    "build_sym_genie_ub2",
    "build_offset_genie",
    "mirror_partition",
    "verify_reconstruction",
    "genie_entropy_check",
    "ReconstructionReport",
    "EntropyReport",
]

Terms = Tuple[Tuple[int, float], ...]


class GenieSignal(NamedTuple):
    """One revealed linear combination of noises (and, for the power-offset
    construction only, of inputs)."""

    index: int
    noise_coeff: Terms
    input_coeff: Terms = ()


class ReconstructionStep(NamedTuple):
    round_no: int
    target: int
    y_terms: Terms
    x_terms: Terms
    v_terms: Terms


class _PartitionFields(NamedTuple):
    params: NetworkParams
    topology: str
    family: str
    alpha_token: Optional[str]
    group_a: Tuple[int, ...]
    groups_b: Tuple[Tuple[int, ...], ...]
    genies: Tuple[GenieSignal, ...]
    steps: Tuple[ReconstructionStep, ...]


class GeniePartition(_PartitionFields):
    """Instances keep a __dict__, which caches `r_a`."""

    @functools.cached_property
    def r_a(self) -> Tuple[int, ...]:
        """R_A, the antennas A observes: the union of A's clusters."""
        out = set()
        for k in self.group_a:
            out.update(self.params.rx_window(k))
        return tuple(sorted(out))

    @property
    def bound(self) -> int:
        return len(self.r_a)

    def missing(self) -> Tuple[int, ...]:
        return tuple(sorted(set(range(1, self.params.K + 1)) - set(self.r_a)))

    def to_json(self) -> dict:
        if not all(math.isfinite(c) for g in self.genies  # JSON has no inf or nan
                   for _, c in g.noise_coeff + g.input_coeff):
            raise _overflow(self.alpha_token, "a genie coefficient")
        return {
            "family": self.family,
            "bound": self.bound,
            "group_a": list(self.group_a),
            "groups_b": [list(b) for b in self.groups_b],
            "missing_antennas": list(self.missing()),
            "genies": [{"index": g.index,
                        "noise": {str(k): c for k, c in g.noise_coeff},
                        "inputs": {str(k): c for k, c in g.input_coeff}}
                       for g in self.genies],
        }


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _overflow(token: Optional[str], what: str) -> ValueError:
    return ValueError(f"arithmetic overflows at alpha={token}: {what} is not finite")


def _index(idx: int, K: int) -> int:
    """idx, or ValueError when it lies outside 1..K."""
    if not 1 <= idx <= K:
        raise ValueError(f"index {idx} outside 1..{K}")
    return idx


def _quiet(func):
    """Run func with numpy's overflow and invalid-value warnings off: the
    verdicts check their own numbers and raise _overflow instead."""
    @functools.wraps(func)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return func(*args, **kwargs)
    return run


def _seers(params: NetworkParams, antennas) -> set:
    """The receivers whose cluster holds one of `antennas` (k sees t iff
    t - r_right <= k <= t + r_left), indices outside 1..K included."""
    out = set()
    for t in antennas:
        out.update(range(t - params.r_right, t + params.r_left + 1))
    return out


def _partition(params: NetworkParams, topology: str, family: str, alpha,
               groups_b=(), genies=(), steps=()) -> GeniePartition:
    """The partition whose A is every receiver whose cluster holds no output
    the steps rebuild, with the receivers in neither A nor groups_b, if any,
    as the last B group.  alpha is the gain, or the token of a built
    partition's gain."""
    sees = _seers(params, (st.target for st in steps))
    unplaced = sees.difference(*groups_b)
    receivers = range(1, params.K + 1)
    group_a = tuple(k for k in receivers if k not in sees)
    rest = tuple(k for k in receivers if k in unplaced)
    token = alpha if isinstance(alpha, str) else alpha_token(alpha)
    return GeniePartition(params, topology, family, token, group_a,
                          tuple(groups_b) + ((rest,) if rest else ()),
                          tuple(genies), tuple(steps))


class _TermBag:
    """Accumulates (index, coeff) terms, dropping out-of-range indices."""

    def __init__(self, K: int):
        self.K = K
        self.y: Dict[int, float] = {}
        self.x: Dict[int, float] = {}

    def add(self, kind: str, idx: int, coef: float):
        if coef == 0 or not 1 <= idx <= self.K:
            return
        d = getattr(self, kind)
        d[idx] = d.get(idx, 0.0) + coef

    def terms(self, kind: str) -> Terms:
        d = getattr(self, kind)
        return tuple(sorted((k, v) for k, v in d.items() if v != 0))


def _window_expr(bag: _TermBag, origin: int, step: int, row: int, p: int,
                 inv: List[List[float]], a: float, scale: float):
    """Add scale * (X_{origin+step*(row-1)} + noise-combination) expressed
    through the outputs Y_{origin+step*j}, j = 1..p, and the two boundary
    inputs at origin+step*p and origin+step*(p+1).  step = -1 reads the
    window below origin, step = +1 the window above it.  inv is the window's
    inverse as nested lists of floats, so each term is plain float
    arithmetic."""
    inv_r = inv[row - 1]
    for j in range(1, p + 1):
        bag.add("y", origin + step * j, scale * inv_r[j - 1])
    if p >= 2:
        bag.add("x", origin + step * p, -scale * inv_r[p - 2] * a)
    bag.add("x", origin + step * p, -scale * inv_r[p - 1])
    bag.add("x", origin + step * (p + 1), -scale * inv_r[p - 1] * a)


def _rebuild(K: int, t: int, lo: int, hi: int, below, above, a: float) -> _TermBag:
    """A bag holding the inputs of Y_t = a X_{t-1} + X_t + a X_{t+1} + N_t,
    added in that order.  An input at or below lo goes through the
    (p, inverse) window `below` under lo, any other through the window
    `above` over hi+1; a row past a one-output window is added as a known
    input.  Inputs outside 1..K are zero, and so is every term of their
    windows."""
    bag = _TermBag(K)
    for i, w in ((t - 1, a), (t, 1.0), (t + 1, a)):
        (p, inv), origin, step = (below, lo, -1) if i <= lo else (above, hi + 1, 1)
        row = step * (i - origin) + 1
        if row > p:
            bag.add("x", i, w)
        elif 1 <= i <= K:
            _window_expr(bag, origin, step, row, p, inv, a, w)
    return bag


def _materialize(bag: _TermBag, target: int, round_no: int,
                 genies: list, steps: list):
    """Close a recipe: the leftover noise mismatch becomes genie len(genies).

    Each output term c*Y_i carries the noise c*N_i along with its inputs, so
    sum(y)+sum(x) = Y_target - N_target + sum_i y_i N_i.  The genie
    V = sum_i y_i N_i - N_target makes Y_target = sum(y) + sum(x) - V exact.
    """
    genie_index = len(genies)
    vbag = dict(bag.y)
    vbag[target] = vbag.get(target, 0.0) - 1.0
    noise = tuple(sorted((k, v) for k, v in vbag.items() if v != 0))
    genies.append(GenieSignal(index=genie_index, noise_coeff=noise))
    steps.append(ReconstructionStep(
        round_no=round_no, target=target,
        y_terms=bag.terms("y"),
        x_terms=bag.terms("x"),
        v_terms=((genie_index, -1.0),),
    ))


# ---------------------------------------------------------------------------
# asymmetric construction
# ---------------------------------------------------------------------------

def build_asym_genie(params: NetworkParams, alpha: AlphaLike) -> GeniePartition:
    """Single-round partition matching the asymmetric silencing formula.

    Geometric noise weights (-1/alpha)^v above each hidden antenna and
    (-alpha)^v below cancel the chain exactly; the hidden antennas are
    {1+m*beta}, one per silenced period, so the bound is K - gamma.
    """
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("nonzero cross-gain required")
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    beta = params.side_sum + 2
    pA = rl + tl + 1
    num = K - tl - rl - 1
    gamma = 0 if num <= 0 else -((-num) // beta)

    genies: List[GenieSignal] = []
    steps: List[ReconstructionStep] = []
    for m in range(gamma):
        c = 1 + m * beta
        noise: Dict[int, float] = {c: 1.0}
        ybag: Dict[int, float] = {}
        xterms: Dict[int, float] = {}
        try:  # a float power that overflows raises
            for v in range(1, pA + 1):
                w = (-1.0 / a) ** v
                if c + v <= K:
                    noise[c + v] = w
                    ybag[c + v] = -w
            if m >= 1:
                for v in range(1, tr + rr + 1):
                    w = (-a) ** v
                    if c - v >= 1:
                        noise[c - v] = w
                        ybag[c - v] = -w
            if c + pA <= K:  # otherwise the chain runs off the network edge
                xterms[pA + 1 + m * beta] = (-1.0 / a) ** pA
            if m >= 1:
                xterms[pA + 1 + (m - 1) * beta] = -((-a) ** (tr + rr + 1))
        except OverflowError:
            raise _overflow(alpha_token(alpha), "a geometric noise weight") from None
        genies.append(GenieSignal(index=m, noise_coeff=tuple(sorted(noise.items()))))
        steps.append(ReconstructionStep(
            round_no=1, target=c,
            y_terms=tuple(sorted(ybag.items())),
            x_terms=tuple(sorted((k, v) for k, v in xterms.items() if 1 <= k <= K)),
            v_terms=((m, 1.0),),
        ))
    return _partition(params, ASYMMETRIC, "asym", alpha, genies=genies, steps=steps)


# ---------------------------------------------------------------------------
# symmetric construction without determinant conditions
# ---------------------------------------------------------------------------

def mirror_partition(part: GeniePartition, params: NetworkParams) -> GeniePartition:
    """`part`, built for params.mirrored(), relabeled k -> K+1-k onto `params`.

    The symmetric channel law is invariant under the relabeling, so the
    mirrored recipes replay on params' symmetric channel unchanged.
    """
    K = params.K
    ref = lambda i: K + 1 - i
    mt = lambda terms: tuple(sorted((ref(i), c) for i, c in terms))
    genies = tuple(GenieSignal(g.index, mt(g.noise_coeff), mt(g.input_coeff))
                   for g in part.genies)
    steps = tuple(ReconstructionStep(s.round_no, ref(s.target), mt(s.y_terms),
                                     mt(s.x_terms), s.v_terms)
                  for s in part.steps)
    return _partition(params, part.topology, part.family + "-mirrored", part.alpha_token,
                      [tuple(sorted(map(ref, b))) for b in part.groups_b], genies, steps)


@_quiet
def build_sym_genie_ub1(params: NetworkParams, alpha: AlphaLike) -> GeniePartition:
    """Partition for the generic (determinant-free) symmetric upper bound.

    Periods of length side_sum+4 hide two adjacent antennas each; the tail
    hides one more when the leftover is long enough on either end, in which
    case the construction is anchored on the side that fits (mirrored when
    only the right side does).
    """
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("nonzero cross-gain required")
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    beta = params.side_sum + 4
    gamma = K // beta
    kappa = K % beta
    theta = 1 if kappa >= min(tl + rl + 2, tr + rr + 2) else 0
    if theta == 1 and kappa < tl + rl + 2:
        return mirror_partition(build_sym_genie_ub1(params.mirrored(), alpha), params)
    if gamma == 0 and theta == 0:  # the tail rule below would hide antenna K
        return _partition(params, SYMMETRIC, "ub1", alpha)

    pL, pR = tl + rl + 1, tr + rr + 1
    above = (pL, m_inverse(pL, a).tolist())
    below = (pR, m_inverse(pR, a).tolist())

    genies: List[GenieSignal] = []
    steps: List[ReconstructionStep] = []
    for m in range(gamma + theta):
        c = m * beta  # hidden antennas c (m >= 1) and c + 1, split at column c
        for t in (c, c + 1):
            if 1 <= t <= K:
                _materialize(_rebuild(K, t, c, c, below, above, a), t, 1, genies, steps)
    if theta == 0:  # hidden antenna K, rebuilt from below only
        _materialize(_rebuild(K, K, K, K, below, above, a), K, 1, genies, steps)
    return _partition(params, SYMMETRIC, "ub1", alpha, genies=genies, steps=steps)


# ---------------------------------------------------------------------------
# symmetric construction at a singular determinant (multi-round)
# ---------------------------------------------------------------------------

def _null_row_coeffs(pL: int, alpha: AlphaLike) -> np.ndarray:
    """Coefficients d_2..d_pL with row_1(H_pL) = sum_j d_j row_j(H_pL).

    Exists exactly when det H_pL(alpha) = 0; solved in float with residual
    guard 1e-9.
    """
    a = alpha_float(alpha)
    h = h_matrix(pL, a)
    sys_a = h[1:, :].T
    rhs = h[0, :]
    d, *_ = np.linalg.lstsq(sys_a, rhs, rcond=None)
    res = float(np.max(np.abs(sys_a @ d - rhs)))
    if res > 1e-9:
        raise ValueError(f"null-space residual {res:.2e} too large; "
                         "alpha is not a singular gain")
    return d  # d[j-2] multiplies row j


@_quiet
def build_sym_genie_ub2(params: NetworkParams, alpha: AlphaLike) -> GeniePartition:
    """Multi-round partition exploiting a singular H_{t_l+r_l+1}(alpha).

    Hides two adjacent antennas per period side_sum+3 (shorter than the
    generic construction by one).  Odd rounds rebuild the right antenna of
    a hidden pair through the dependent-row combination; even rounds rebuild
    the left one using the output reconstructed just before.
    """
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("nonzero cross-gain required")
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    pL, pR = tl + rl + 1, tr + rr + 1
    if not u_is_zero(pL, alpha):
        raise ValueError(f"requires singular H_{pL}(alpha)")
    beta = params.side_sum + 3
    gamma = K // beta
    kappa = K % beta
    theta = 1 if kappa >= tr + rr + 2 else 0
    if gamma >= 1 and theta == 0 and kappa == 0 and tl == 0:
        # With no left cognition and no leftover, the trailing cooperating
        # block is empty and no receiver can cover the top antennas without
        # also observing a hidden one.  The bound formula is still reported;
        # only this constructive certificate is unavailable.
        raise ValueError("construction gap: t_left = 0 and K a multiple of "
                         "side_sum+3 leaves the top antennas uncoverable")

    d = _null_row_coeffs(pL, alpha).tolist()
    above = (pL, m_inverse(pL, a).tolist())
    below = (pR, m_inverse(pR, a).tolist())

    groups_b: List[Tuple[int, ...]] = []
    genies: List[GenieSignal] = []
    steps: List[ReconstructionStep] = []
    for m in range(gamma):
        s = m * beta + tr + rr + 2  # left antenna of the hidden pair
        # odd round: rebuild Y_{s+1} via the dependent row of H_pL
        bag = _TermBag(K)
        for j in range(2, pL + 1):
            bag.add("y", s + j, d[j - 2])
        bag.add("x", (m + 1) * beta + 1, -d[pL - 2] * a)
        _window_expr(bag, s, -1, 1, *below, a, a)
        _materialize(bag, s + 1, 2 * m + 1, genies, steps)
        groups_b.append((m * beta + tr + rr + rl + 3,))
        # even round: rebuild Y_s using Y_{s+1} from the previous round
        _materialize(_rebuild(K, s, s, s - 1, below, above, a), s, 2 * m + 2, genies, steps)
        groups_b.append(tuple(range(m * beta + tr + 2, m * beta + tr + rr + rl + 3)))
    if theta == 1:
        _materialize(_rebuild(K, K, K, K, below, above, a), K, 2 * gamma + 1, genies, steps)
        groups_b.append(tuple(range(K - rr, K + 1)))
    return _partition(params, SYMMETRIC, "ub2", alpha, groups_b, genies, steps)


# ---------------------------------------------------------------------------
# power-offset construction (signal-carrying genie)
# ---------------------------------------------------------------------------

@_quiet
def build_offset_genie(params: NetworkParams, alpha: AlphaLike) -> GeniePartition:
    """Partition whose genie carries the vanishing signal component.

    Requires K = q(L+2) - 1 and side-information summing to
    L = t_left + r_left on both sides.  The first genie is
    sum_j v_j N_{j+1} - alpha v_{L+1} X_{L+1}; its signal part fades like
    the determinant u_{L+1}(alpha), which drives the power offset.
    """
    a = alpha_float(alpha)
    if a == 0:
        raise ValueError("nonzero cross-gain required")
    K, tr, rl = params.K, params.t_right, params.r_left
    L = params.t_left + rl
    if (K + 1) % (L + 2) != 0 or K < L + 3:
        raise ValueError("K must equal q(L+2)-1 for an integer q >= 2")
    if tr + params.r_right != L:
        raise ValueError("side-information must sum to L on both sides")
    q = (K + 1) // (L + 2)

    beta = 2 * (L + 2)
    gamma = (q - 1) // 2  # full two-sided periods
    has_tail = (q % 2 == 0)  # even q leaves a single hidden antenna at K

    vs = v_sequence(L + 1, a)
    window = (L + 1, m_inverse(L + 1, a).tolist())

    genies: List[GenieSignal] = []
    steps: List[ReconstructionStep] = []
    # round 1: antenna 1 through the dependent-row combination of v weights
    noise = tuple((j + 1, vs[j]) for j in range(0, L + 1))
    inputs = ((L + 1, -a * vs[L + 1]),)
    genies.append(GenieSignal(index=0, noise_coeff=noise, input_coeff=inputs))
    steps.append(ReconstructionStep(
        round_no=1, target=1,
        y_terms=tuple((j + 1, -vs[j]) for j in range(1, L + 1)),
        x_terms=((L + 2, a * vs[L]),),
        v_terms=((0, 1.0),),
    ))
    for m in range(1, gamma + 1):
        c = m * beta  # hidden antennas c-1 and c, split at column c-1
        for t in (c - 1, c):
            _materialize(_rebuild(K, t, c - 1, c - 1, window, window, a), t, 2, genies, steps)
    if has_tail:
        _materialize(_rebuild(K, K, K, K, window, window, a), K, 2, genies, steps)

    return _partition(params, SYMMETRIC, "offset", alpha, [(rl + 1,)], genies, steps)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class ReconstructionReport(NamedTuple):
    ok: bool
    max_abs_error: float
    trials: int
    targets: Tuple[int, ...]
    bound: int
    failure: Optional[str] = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "bound": self.bound,
                "targets": list(self.targets),
                "max_abs_error": self.max_abs_error, "trials": self.trials,
                "failure": self.failure}


def _structural_check(partition: GeniePartition) -> Optional[str]:
    """The first recipe that uses an output or a message before the
    procedure makes it available, or the first B receiver that decodes
    before its antennas are, or None.  Round r ends by decoding
    groups_b[r-1], whether or not it rebuilds anything.  A receiver in
    neither A nor any B group never decodes, so it fails too.  A target or
    term index outside 1..K raises ValueError."""
    params = partition.params
    K = params.K
    unplaced = set(range(1, K + 1)).difference(partition.group_a, *partition.groups_b)
    if unplaced:
        return f"receiver {min(unplaced)} is in neither A nor any B group"
    known = set(partition.r_a)
    unknown = set(range(1, K + 1)).difference(known)
    msgs_known = set(partition.group_a)
    by_round: Dict[int, List[ReconstructionStep]] = {}
    for st in partition.steps:
        by_round.setdefault(st.round_no, []).append(st)
    for rnd in sorted(by_round.keys() | range(1, len(partition.groups_b) + 1)):
        new_targets = set()
        for st in by_round.get(rnd, ()):
            for idx, _ in st.y_terms:
                if idx not in known:  # every known output is in range
                    return (f"round {rnd}: output {_index(idx, K)} used before it is "
                            f"observed or reconstructed")
            for idx, _ in st.x_terms:
                window = params.tx_window(_index(idx, K))
                if not msgs_known.issuperset(window):
                    return (f"round {rnd}: input {idx} needs messages "
                            f"{sorted(set(window) - msgs_known)} not yet decoded")
            new_targets.add(_index(st.target, K))
        known |= new_targets
        unknown -= new_targets
        if 1 <= rnd <= len(partition.groups_b):
            late = _seers(params, unknown).intersection(partition.groups_b[rnd - 1])
            if late:
                k = min(late)
                return (f"round {rnd}: receiver {k} decodes before antennas "
                        f"{sorted(unknown.intersection(params.rx_window(k)))} "
                        f"are observed or reconstructed")
            msgs_known.update(partition.groups_b[rnd - 1])
    return None


@_quiet
def verify_reconstruction(partition: GeniePartition, model: ChannelModel,
                          trials: int = 100, tol: float = 1e-8,
                          seed: int = 0) -> ReconstructionReport:
    """Sample inputs and noises, replay the recipes round by round, and
    report the worst absolute reconstruction error.

    Structural problems (a receiver in no group, a recipe consuming an
    output or message before the procedure makes it available, or a B
    receiver decoding before its antennas are) are reported before any
    numeric work.  Every encoder may use its whole cognition window, the
    model's worst case.  A `tol` that is negative or not finite, a replay
    error that is not finite (coefficients or outputs that overflow), an
    index outside 1..K where it is read, or a step naming a genie the
    partition does not have raises ValueError rather than give a verdict.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= tol < math.inf:  # nan compares false
        raise ValueError(f"tol must be finite and >= 0, got {tol:g}")
    if partition.params != model.params or partition.topology != model.topology:
        raise ValueError("partition and model describe different instances")
    err = _structural_check(partition)
    targets = tuple(st.target for st in partition.steps)
    if err is not None:
        return ReconstructionReport(False, math.inf, 0, targets,
                                    partition.bound, failure=err)
    if not partition.steps:
        return ReconstructionReport(True, 0.0, trials, (), partition.bound)
    K = model.K
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((K, trials))
    n = rng.standard_normal((K, trials))
    y = model.matrix @ x + n
    vvals = {}
    for g in partition.genies:
        acc = np.zeros(trials)
        for idx, c in g.noise_coeff:
            acc += c * n[_index(idx, K) - 1]
        for idx, c in g.input_coeff:
            acc += c * x[_index(idx, K) - 1]
        vvals[g.index] = acc
    rec = {}  # reconstructed outputs, used by later rounds
    errors = []
    for st in sorted(partition.steps, key=lambda s: s.round_no):
        acc = np.zeros(trials)
        for idx, c in st.y_terms:
            acc += c * rec.get(idx, y[idx - 1])
        for idx, c in st.x_terms:
            acc += c * x[idx - 1]
        for idx, c in st.v_terms:
            if idx not in vvals:
                raise ValueError(f"the step for output {st.target} uses genie {idx}, "
                                 f"which the partition does not have")
            acc += c * vvals[idx]
        errors.append(np.max(np.abs(acc - y[st.target - 1])))
        rec[st.target] = acc
    worst = float(np.max(errors))  # nan propagates, unlike max()
    if not math.isfinite(worst):
        raise _overflow(partition.alpha_token, "the replay error")
    return ReconstructionReport(worst <= tol, worst, trials, targets, partition.bound)


class EntropyReport(NamedTuple):
    ok: bool
    min_eigenvalue: float
    p_free: bool

    def to_json(self) -> dict:
        return {"entropy_ok": self.ok, "min_eigenvalue": self.min_eigenvalue,
                "p_free": self.p_free}


_EIG_TOL = 1e-10  # smallest conditional eigenvalue counted as nonsingular


@_quiet
def genie_entropy_check(partition: GeniePartition, model: ChannelModel) -> EntropyReport:
    """Finiteness condition: the noises A observes keep a nonsingular
    conditional covariance given the genies' noise parts.

    Input-carrying components (power-offset genie) are excluded here; their
    contribution is bounded separately through the genie's input coefficients.
    Coefficients are plain constants, so nothing depends on the power.  A
    genie covariance or eigenvalue that is not finite, or a genie noise
    index outside 1..K, raises ValueError.
    """
    if partition.params != model.params or partition.topology != model.topology:
        raise ValueError("partition and model describe different instances")
    K = model.K
    ra = [k - 1 for k in partition.r_a]
    if not partition.genies:
        return EntropyReport(True, 1.0, True)
    C = np.zeros((len(partition.genies), K))
    for i, g in enumerate(partition.genies):
        for idx, c in g.noise_coeff:
            C[i, _index(idx, K) - 1] = c
    cc = C @ C.T  # its diagonal sums every coefficient squared
    if not np.isfinite(cc).all():
        raise _overflow(partition.alpha_token, "the genie noise covariance")
    cross = C[:, ra].T
    cond = np.eye(len(ra)) - cross @ np.linalg.pinv(cc) @ cross.T
    eigs = np.linalg.eigvalsh(cond)
    mn = float(eigs.min())
    if not math.isfinite(mn):
        raise _overflow(partition.alpha_token, "the conditional covariance")
    return EntropyReport(mn > _EIG_TOL, mn, True)
