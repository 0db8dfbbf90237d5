"""The genie families' group A as each builder wrote it before A was
derived, kept in the tests as an oracle.

``wynerdof.converse._partition`` derives A from the recipes: receiver k
cooperates iff its cluster holds no output the steps rebuild.  This module
keeps the four hand-derived range formulas that replaced, verbatim, ub1's
mirrored branch and the whole-network early returns included.  It shares no
code with the builders but ``NetworkParams``.  A gain does not enter any
formula; whether a family applies at a gain is the builder's business.
"""

from __future__ import annotations

from typing import List, Tuple

from wynerdof.netmodel import NetworkParams


def asym_group_a(params: NetworkParams) -> Tuple[int, ...]:
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    beta = params.side_sum + 2
    num = K - tl - rl - 1
    gamma = 0 if num <= 0 else -((-num) // beta)
    if gamma == 0:  # the whole network cooperates and nothing is hidden
        return tuple(range(1, K + 1))

    group_a: List[int] = []
    for m in range(gamma - 1):
        group_a.extend(range(m * beta + rl + 2, (m + 1) * beta - rr + 1))
    group_a.extend(range((gamma - 1) * beta + rl + 2, K + 1))
    return tuple(sorted(set(group_a)))


def ub1_group_a(params: NetworkParams) -> Tuple[int, ...]:
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    beta = params.side_sum + 4
    gamma = K // beta
    kappa = K % beta
    theta = 1 if kappa >= min(tl + rl + 2, tr + rr + 2) else 0
    if theta == 1 and kappa < tl + rl + 2:
        return mirror_group_a(ub1_group_a(params.mirrored()), params)
    if gamma == 0 and theta == 0:
        return tuple(range(1, K + 1))

    group_a: List[int] = []
    for m in range(gamma):
        hi = m * beta + rl + tl + tr + 3
        if theta == 0 and m == gamma - 1:
            hi = K - rr - 1
        group_a.extend(range(m * beta + rl + 2, hi + 1))
    if theta == 1:
        group_a.extend(range(gamma * beta + rl + 2, K + 1))
    return tuple(sorted(set(group_a)))


def ub2_group_a(params: NetworkParams) -> Tuple[int, ...]:
    K = params.K
    tl, tr, rl, rr = params.t_left, params.t_right, params.r_left, params.r_right
    beta = params.side_sum + 3
    gamma = K // beta
    kappa = K % beta
    theta = 1 if kappa >= tr + rr + 2 else 0
    if gamma == 0 and theta == 0:
        return tuple(range(1, K + 1))

    group_a: List[int] = list(range(1, tr + 2)) if gamma >= 1 else []
    for m in range(1, gamma):
        group_a.extend(range(m * beta - tl + 1, m * beta + tr + 2))
    tail_hi = K - rr - 1 if theta == 1 else K
    if gamma >= 1:
        group_a.extend(range(gamma * beta - tl + 1, tail_hi + 1))
    else:
        group_a.extend(range(1, tail_hi + 1))
    return tuple(sorted(set(group_a)))


def offset_group_a(params: NetworkParams) -> Tuple[int, ...]:
    K, tr, rl = params.K, params.t_right, params.r_left
    L = params.t_left + rl
    q = (K + 1) // (L + 2)
    beta = 2 * (L + 2)
    gamma = (q - 1) // 2  # full two-sided periods

    group_a: List[int] = list(range(rl + 2, L + tr + 3))
    for m in range(1, gamma + 1):
        group_a.extend(range(m * beta + rl + 1, m * beta + L + tr + 3))
    group_a = [x for x in group_a if x <= K]
    return tuple(sorted(set(group_a)))


def mirror_group_a(group_a: Tuple[int, ...], params: NetworkParams) -> Tuple[int, ...]:
    """A built for params.mirrored(), relabeled k -> K+1-k onto params."""
    return tuple(sorted(params.K + 1 - k for k in group_a))
