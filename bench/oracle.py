"""Reference answers computed without the package under test.

Every expectation the benchmark checks comes from here: the closed forms
are re-derived from the model, the root set from the eigenvalue product
det H_p(a) = prod_j (1 + 2 a cos(j pi/(p+1))), and zero tests from that same
factorisation. Nothing here imports ``wynerdof``.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_TOL = 1e-9  # the absolute bound the program's float zero test uses


def ceil_div(num: int, den: int) -> int:
    return -((-num) // den) if num > 0 else 0


# ---------------------------------------------------------------------------
# determinants and their roots
# ---------------------------------------------------------------------------

def positive_roots(p: int) -> list:
    """Positive roots of u_p, ascending: a_k = 1/(2 cos(k pi/(p+1))), 2k < p+1.

    The k-th entry is the gain the token root:p:k names.
    """
    return [1.0 / (2.0 * math.cos(k * math.pi / (p + 1)))
            for k in range(1, (p + 2) // 2) if 2 * k < p + 1]


def all_roots(p: int) -> list:
    pos = positive_roots(p)
    return sorted([-a for a in pos] + pos)


def root_is_zero_of(p: int, k: int, q: int) -> bool:
    """u_q vanishes at root:p:k iff (q+1) k is a multiple of p+1.

    From u_q(a) = a^q U_q(1/(2a)) and U_q(cos t) = sin((q+1)t)/sin t with
    t = k pi/(p+1).
    """
    return q >= 2 and ((q + 1) * k) % (p + 1) == 0


def decimal_is_zero_of(alpha: float, q: int) -> bool:
    """Exact zero test of u_q at a rational gain.

    A root 1/(2cos t) with t a rational multiple of pi is rational only when
    cos t is +-1/2 (Niven), i.e. |a| = 1, a root of u_q iff 3 divides q+1.
    """
    return q >= 2 and abs(alpha) == 1.0 and (q + 1) % 3 == 0


def u_float(q: int, alpha: float) -> float:
    """u_q(alpha) in float arithmetic (to explain an absolute-bound zero test)."""
    prev, cur = 1.0, 1.0
    b = alpha * alpha
    for _ in range(q - 1):
        prev, cur = cur, cur - b * prev
    return cur


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def asym_mg(K, tl, tr, rl, rr) -> int:
    return K - ceil_div(K - tl - rl - 1, tl + tr + rl + rr + 2)


def _clip(v, K):
    return max(0, min(K, v))


def ub_generic(K, tl, tr, rl, rr) -> int:
    b = tl + tr + rl + rr + 4
    theta = 1 if K % b >= min(tl + rl + 2, tr + rr + 2) else 0
    return _clip(K - 2 * (K // b) - theta, K)


def ub_singular_left(K, tl, tr, rl, rr) -> int:
    b = tl + tr + rl + rr + 3
    theta = 1 if K % b >= tr + rr + 1 else 0
    return _clip(K - 2 * (K // b) - theta, K)


def si_interval(K: int, L: int, zero) -> tuple:
    """Multiplexing-gain bracket under symmetric side-information sum L.

    ``zero(q)`` answers u_q(alpha) == 0 exactly. Returns (lower, upper);
    K == L+2 lies outside the case split and is not covered.
    """
    if K <= L + 1:
        v = K - (1 if zero(K) else 0)
        return v, v
    if K == L + 2:
        raise ValueError("K == L+2 is outside the case split")
    if not zero(L + 1):
        g = K // (L + 2)
        return (K - g, K - g) if not zero(L) else (K - g - 1, K - g)
    beta = 2 * L + 3
    upper = K - 2 * (K // beta) - (1 if K % beta > L + 1 else 0)
    return K - K // (L + 1), upper


def per_user(L: int, critical: bool) -> tuple:
    """Large-K per-user bracket (numerator, denominator) pairs."""
    if not critical:
        return (L + 1, L + 2), (L + 1, L + 2)
    return (L, L + 1), (2 * L + 1, 2 * L + 3)


# ---------------------------------------------------------------------------
# genie finiteness
# ---------------------------------------------------------------------------

def entropy_rounding_floor(genie_rows: list, K: int) -> float:
    """Size below which a conditional-covariance eigenvalue is rounding noise.

    The genie constructions keep the covariance nonsingular for every
    nonzero gain, so the finiteness check should always pass. Its smallest
    eigenvalue is computed through a pseudo-inverse of C C^T, which loses
    about eps * cond(C)^2; the floor is that, or the check's own 1e-10.
    """
    C = np.zeros((len(genie_rows), K))
    for i, terms in enumerate(genie_rows):
        for idx, c in terms:
            C[i, idx - 1] = c
    s = np.linalg.svd(C, compute_uv=False)
    cond = s[0] / s[-1] if s.size and s[-1] > 0 else math.inf
    return max(1e-10, np.finfo(float).eps * cond * cond)


SAMPLE_BOUND = 6.0  # |x|, |n| of a replay's standard-normal samples stay below this


def replay_rounding_floor(steps: list, genies: list, alpha: float) -> float:
    """Worst-case float rounding of a reconstruction replay.

    ``steps`` holds (target, y_terms, x_terms, v_terms) in round order and
    ``genies`` maps a genie index to its (noise, input) terms. The replay
    sums each recipe term by term, so a sum of n terms is off by at most
    (n+1) eps times the sum of |coefficient| * |value|; a reconstructed
    output carries its own error into the later recipes that read it.
    Inputs and noises are bounded by SAMPLE_BOUND, an output by that times
    1 + 2|alpha| (its channel row) plus its noise.
    """
    eps = np.finfo(float).eps
    b_x = SAMPLE_BOUND
    b_y = SAMPLE_BOUND * (2 + 2 * abs(alpha))
    v_mag, v_err = {}, {}
    for idx, (noise, inputs) in genies.items():
        terms = list(noise) + list(inputs)
        v_mag[idx] = b_x * sum(abs(c) for _, c in terms)
        v_err[idx] = (len(terms) + 1) * eps * v_mag[idx]
    rec_err, worst = {}, 0.0
    for target, y_terms, x_terms, v_terms in steps:
        n = len(y_terms) + len(x_terms) + len(v_terms)
        mag = (sum(abs(c) * b_y for _, c in y_terms) + sum(abs(c) * b_x for _, c in x_terms)
               + sum(abs(c) * v_mag[i] for i, c in v_terms))
        err = ((n + 1) * eps * mag + sum(abs(c) * rec_err.get(i, 0.0) for i, c in y_terms)
               + sum(abs(c) * v_err[i] for i, c in v_terms))
        rec_err[target] = err
        worst = max(worst, err)
    return worst
