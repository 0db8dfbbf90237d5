"""Network instances and channel matrices for the two Wyner-type topologies.

Asymmetric: receiver k hears its own transmitter plus the one to its left,
so the channel is lower bidiagonal with unit diagonal.
Symmetric: both neighbors interfere and the channel is tridiagonal.
Either way a channel is stored as its three diagonals, three K-tuples.

Transmitter k is cognizant of messages k-t_left .. k+t_right; receiver k
observes antennas k-r_left .. k+r_right (clipped to 1..K everywhere).
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Tuple

from .tridiag import AlphaLike, RootAlpha, alpha_float

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np

ASYMMETRIC = "asymmetric"
SYMMETRIC = "symmetric"
TOPOLOGIES = (ASYMMETRIC, SYMMETRIC)

__all__ = [
    "ASYMMETRIC",
    "SYMMETRIC",
    "NetworkParams",
    "CrossGainAssignment",
    "ChannelModel",
    "build_channel",
    "channel_band",
    "submatrix",
    "sample_generic_gains",
    "instance_to_json",
    "instance_from_json",
]


class _NetworkFields(NamedTuple):
    K: int
    t_left: int
    t_right: int
    r_left: int
    r_right: int


class NetworkParams(_NetworkFields):
    """Problem instance descriptor: K pairs and side-information reach."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    def __new__(cls, K, t_left=0, t_right=0, r_left=0, r_right=0):
        if K < 1:
            raise ValueError("K must be >= 1")
        for name, reach in zip(cls._fields[1:], (t_left, t_right, r_left, r_right)):
            if reach < 0:
                raise ValueError(f"{name} must be >= 0")
        return tuple.__new__(cls, (K, t_left, t_right, r_left, r_right))

    @property
    def side_sum(self) -> int:
        return self.t_left + self.t_right + self.r_left + self.r_right

    def tx_window(self, k: int) -> range:
        """Message indices transmitter k may use, clipped to 1..K."""
        return range(max(1, k - self.t_left), min(self.K, k + self.t_right) + 1)

    def rx_window(self, k: int) -> range:
        """Antenna indices receiver k observes, clipped to 1..K."""
        return range(max(1, k - self.r_left), min(self.K, k + self.r_right) + 1)

    def mirrored(self) -> "NetworkParams":
        """Left/right exchanged parameters (relabeling k -> K+1-k)."""
        return NetworkParams(self.K, self.t_right, self.t_left, self.r_right, self.r_left)


class CrossGainAssignment(NamedTuple):
    """How the nonzero cross-gains are chosen.

    kind "equal": one alpha everywhere (alpha may be an exact RootAlpha).
    kind "explicit": per-link gains; `sub` feeds Y_{k+1} from X_k and `sup`
    feeds Y_k from X_{k+1} (sup unused for the asymmetric topology).
    kind "random": reproducible draws from the continuous distribution
    uniform on [-2,-0.1] U [0.1,2] (nonzero with margin).
    """

    kind: str
    alpha: Optional[AlphaLike] = None
    sub: Optional[tuple] = None
    sup: Optional[tuple] = None
    seed: Optional[int] = None

    @staticmethod
    def equal(alpha: AlphaLike) -> "CrossGainAssignment":
        if _finite_gain(alpha_float(alpha)) == 0:
            raise ValueError("nonzero cross-gain required")
        return CrossGainAssignment(kind="equal", alpha=alpha)

    @staticmethod
    def explicit(sub: Sequence[float], sup: Optional[Sequence[float]] = None) -> "CrossGainAssignment":
        sub = tuple(_finite_gain(float(g)) for g in sub)
        if any(g == 0 for g in sub):
            raise ValueError("nonzero cross-gain required")
        if sup is not None:
            sup = tuple(_finite_gain(float(g)) for g in sup)
            if any(g == 0 for g in sup):
                raise ValueError("nonzero cross-gain required")
        return CrossGainAssignment(kind="explicit", sub=sub, sup=sup)

    @staticmethod
    def random(seed: int) -> "CrossGainAssignment":
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return CrossGainAssignment(kind="random", seed=int(seed))

    def to_json(self) -> dict:
        if self.kind == "equal":
            a = self.alpha
            if isinstance(a, RootAlpha):
                return {"kind": "equal", "alpha": a.token()}
            return {"kind": "equal", "alpha": float(a)}
        if self.kind == "explicit":
            out = {"kind": "explicit", "sub": list(self.sub)}
            if self.sup is not None:
                out["sup"] = list(self.sup)
            return out
        return {"kind": "random", "seed": self.seed}


def _finite_gain(a: float) -> float:
    if not math.isfinite(a):
        raise ValueError(f"cross-gain must be finite, got {a!r}")
    return a


def _draw_nonzero(rng: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np
    mags = rng.uniform(0.1, 2.0, size=n)
    # the draw rng.choice((-1.0, 1.0), size=n) makes, without its overhead
    signs = np.array((-1.0, 1.0))[rng.integers(0, 2, size=n)]
    return mags * signs


def _generic_draws(K: int, topology: str, seed: int):
    """The (sub, sup) gain arrays of length K-1 that seed draws, support
    [-2,-0.1] U [0.1,2]; sup is None for the asymmetric topology."""
    import numpy as np
    if K < 1:
        raise ValueError("K must be >= 1")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    sub = _draw_nonzero(rng, K - 1)
    return sub, _draw_nonzero(rng, K - 1) if topology == SYMMETRIC else None


def sample_generic_gains(K: int, topology: str, seed: int) -> CrossGainAssignment:
    """Reproducible continuous-draw gains; support [-2,-0.1] U [0.1,2]."""
    sub, sup = _generic_draws(K, topology, seed)
    return CrossGainAssignment(kind="explicit", sub=tuple(sub.tolist()),
                               sup=None if sup is None else tuple(sup.tolist()))


def _read_only(self, name, *value):
    """__setattr__/__delattr__ of a record that caches into its __dict__."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class _ChannelFields(NamedTuple):
    params: NetworkParams
    topology: str
    gains: CrossGainAssignment
    band: Tuple[tuple, tuple, tuple]


class ChannelModel(_ChannelFields):
    """Immutable network instance: parameters, topology, gains, and the
    channel's three diagonals as a band of three K-tuples (`channel_band`).
    Instances keep a __dict__, which caches `matrix`; attribute writes raise."""

    __setattr__ = __delattr__ = _read_only

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def equal_alpha(self) -> Optional[AlphaLike]:
        return self.gains.alpha if self.gains.kind == "equal" else None

    def entry(self, a: int, t: int) -> float:
        """H[a][t], the gain from transmitter t to antenna a (1-based)."""
        K = self.params.K
        for j in (a, t):
            if not 1 <= j <= K:
                raise ValueError(f"index {j} outside 1..{K}")
        if a == t:
            return self.band[0][a - 1]
        if a == t + 1:
            return self.band[1][t - 1]
        if a == t - 1:
            return self.band[2][a - 1]
        return 0.0

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense K x K channel, built from the band on first use and kept
        read-only, for callers that need a full matrix product.

        Row j, column i is 1 on the diagonal, the left-neighbor gain when
        j - i = 1, and (symmetric only) the right-neighbor gain when j - i = -1.
        """
        import numpy as np
        diag, sub, sup = self.band
        h = np.diag(diag)
        idx = np.arange(len(diag) - 1)
        h[idx + 1, idx] = sub[:-1]
        h[idx, idx + 1] = sup[:-1]
        h.setflags(write=False)
        return h


def _check_instance(K: int, topology: str, gains: CrossGainAssignment) -> None:
    """Reject an unknown topology, or explicit gains that do not hold K-1
    entries for each diagonal the topology uses.  Plain Python: no numpy."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if gains.kind != "explicit":
        return
    if len(gains.sub) != K - 1:
        raise ValueError(f"expected {K - 1} sub-diagonal gains, got {len(gains.sub)}")
    if topology == SYMMETRIC:
        if gains.sup is None:
            raise ValueError("symmetric topology needs super-diagonal gains")
        if len(gains.sup) != K - 1:
            raise ValueError(f"expected {K - 1} super-diagonal gains, got {len(gains.sup)}")


def channel_band(K: int, topology: str, gains: CrossGainAssignment) -> Tuple[tuple, tuple, tuple]:
    """The channel's three diagonals as three K-tuples of floats: the unit
    diagonal, then the sub- and super-diagonal gains (zero for the asymmetric
    topology), each zero-padded at the end to length K.  An equal gain puts
    alpha_float(alpha) on every link, a random one the seed's
    `_generic_draws`, an explicit one its tuples; every gain used must be
    nonzero.  Only random gains import numpy, for the draws."""
    _check_instance(K, topology, gains)
    if gains.kind == "random":
        gains = sample_generic_gains(K, topology, gains.seed)
    if gains.kind == "equal":
        sub = sup = (alpha_float(gains.alpha),) * (K - 1)
    elif gains.kind == "explicit":
        sub, sup = gains.sub, gains.sup
    else:
        raise ValueError(f"unknown gain kind {gains.kind!r}")
    if 0 in sub or topology == SYMMETRIC and 0 in sup:
        raise ValueError("nonzero cross-gain required")
    if topology != SYMMETRIC:
        sup = (0.0,) * (K - 1)
    return (1.0,) * K, tuple(sub) + (0.0,), tuple(sup) + (0.0,)


def build_channel(params: NetworkParams, topology: str, gains: CrossGainAssignment) -> ChannelModel:
    """The channel for the requested topology, stored as its band of tuples.

    Boundary inputs X_0 and X_{K+1} do not exist, so there is no wraparound.
    """
    band = channel_band(params.K, topology, gains)
    return ChannelModel(params=params, topology=topology, gains=gains, band=band)


def submatrix(model: ChannelModel, rx_indices: Iterable[int], tx_indices: Iterable[int]) -> np.ndarray:
    """Entries H[j][i] for the given 1-based antenna/transmitter index lists,
    read from the band."""
    import numpy as np
    rx = list(rx_indices)
    tx = list(tx_indices)
    K = model.K
    for j in rx + tx:
        if not 1 <= j <= K:
            raise ValueError(f"index {j} outside 1..{K}")
    rows = [[model.entry(a, t) for t in tx] for a in rx]
    return np.array(rows, dtype=float).reshape(len(rx), len(tx))


# ---------------------------------------------------------------------------
# JSON instance format
# ---------------------------------------------------------------------------

def parse_alpha_token(text) -> AlphaLike:
    """Decimal literal or 'root:p:k' (k-th positive root of u_p, '-' prefix ok)."""
    if isinstance(text, bool):
        raise ValueError(f"cross-gain must be a number or root token, got {text!r}")
    if isinstance(text, (int, float)):
        return _finite_gain(float(text))
    s = str(text).strip()
    sign = 1
    if s.startswith("-root:"):
        sign, s = -1, s[1:]
    if s.startswith("root:"):
        try:
            _, p, k = s.split(":")
            return RootAlpha(int(p), int(k), sign)
        except ValueError as exc:
            raise ValueError(f"bad root token {text!r}: {exc}") from None
    return _finite_gain(float(s))


def instance_to_json(model: ChannelModel) -> dict:
    p = model.params
    return {
        "K": p.K,
        "t_left": p.t_left,
        "t_right": p.t_right,
        "r_left": p.r_left,
        "r_right": p.r_right,
        "topology": model.topology,
        "gains": model.gains.to_json(),
    }


def instance_from_json(obj) -> tuple:
    """(params, topology, gains) of an instance file, checked without
    building the channel; `build_channel(*instance_from_json(obj))` builds it."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    fields = {"K": obj.get("K")}
    fields.update((n, obj.get(n, 0)) for n in ("t_left", "t_right", "r_left", "r_right"))
    for name, value in fields.items():
        if type(value) is not int:
            raise ValueError(f"instance field {name!r} must be an integer")
    if not isinstance(obj.get("topology"), str):
        raise ValueError("instance field 'topology' must be a string")
    g = obj.get("gains")
    if not isinstance(g, dict) or not isinstance(g.get("kind"), str):
        raise ValueError("instance field 'gains' must be an object with a string 'kind'")
    params = NetworkParams(**fields)
    kind = g["kind"]
    if kind == "equal":
        gains = CrossGainAssignment.equal(parse_alpha_token(g["alpha"]))
    elif kind == "explicit":
        sub, sup = g.get("sub"), g.get("sup")
        for name, v in (("sub", sub), ("sup", [] if sup is None else sup)):
            if not isinstance(v, list) or any(type(x) not in (int, float) for x in v):
                raise ValueError(f"gains field {name!r} must be a list of numbers")
        gains = CrossGainAssignment.explicit(sub, sup)
    elif kind == "random":
        if type(g.get("seed")) is not int:
            raise ValueError("gains field 'seed' must be an integer")
        gains = CrossGainAssignment.random(g["seed"])
    else:
        raise ValueError(f"unknown gain kind {kind!r}")
    _check_instance(params.K, obj["topology"], gains)
    return params, obj["topology"], gains
