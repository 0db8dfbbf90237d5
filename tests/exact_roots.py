"""Reference root isolation for u_p, kept in the tests as an independent oracle.

``wynerdof.tridiag`` finds the critical gains from the Chebyshev closed form
u_p(alpha) = prod_j (1 + 2 alpha cos(j pi/(p+1))).  This module finds them
the other way: from the integer beta-polynomial of u_p (beta = alpha^2), with
Sturm chains, exact bisection to width 1e-40 and polynomial gcds over
Fraction coefficients.  It shares no formula with the closed form, so tests
can cross-check the zero test and the float values against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def u_beta_coeffs(p: int) -> tuple:
    """Integer coefficients (ascending) of u_p as a polynomial in beta = alpha^2."""
    if p < 0:
        raise ValueError("order p must be nonnegative")
    if p == 0:
        return (1,)
    prev, cur = (1,), (1,)  # u_0, u_1
    for _ in range(p - 1):
        shifted = (0,) + prev
        n = max(len(cur), len(shifted))
        nxt = tuple(
            (cur[i] if i < len(cur) else 0) - (shifted[i] if i < len(shifted) else 0)
            for i in range(n)
        )
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# exact polynomial helpers (Fraction coefficients, ascending order)
# ---------------------------------------------------------------------------

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _peval(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _pderiv(c):
    return _trim(tuple(c[i] * i for i in range(1, len(c))))


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        q[i] = f
        for j, bc in enumerate(b):
            a[i + j] -= f * bc
    return _trim(q), _trim(a)


def _pgcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(coef / lead for coef in a)
    return a


def _sturm_chain(c):
    chain = [_trim(c), _pderiv(c)]
    while chain[-1]:
        _, r = _pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-x for x in r))
    return [q for q in chain if q]


def _sign_variations(chain, x):
    signs = []
    for c in chain:
        v = _peval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi]."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _isolate_positive_roots(coeffs):
    """Isolating intervals (lo, hi] for every distinct positive root, ascending."""
    chain = _sturm_chain(coeffs)
    bound = Fraction(1) + max(abs(Fraction(c)) for c in coeffs[:-1]) / abs(Fraction(coeffs[-1]))
    stack = [(Fraction(0), bound)]
    found = []
    while stack:
        lo, hi = stack.pop()
        n = _count_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while _peval(coeffs, mid) == 0:
            # never split on a root; nudge the split point
            mid = lo + (hi - lo) * Fraction(3, 7)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(found)


def _refine(coeffs, lo, hi, width):
    """Shrink an isolating interval of `coeffs` to the requested width."""
    flo = _peval(coeffs, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = _peval(coeffs, mid)
        if fmid == 0:
            eps = (hi - lo) / 1024
            return mid - eps, mid + eps
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


@lru_cache(maxsize=None)
def _beta_poly(p: int):
    return _trim(tuple(Fraction(c) for c in u_beta_coeffs(p)))


@lru_cache(maxsize=None)
def _beta_roots(p: int):
    """Isolated beta-roots of u_p with multiplicities: ((lo, hi, mult), ...)."""
    coeffs = _beta_poly(p)
    intervals = _isolate_positive_roots(coeffs)
    out = []
    for lo, hi in intervals:
        lo, hi = _refine(coeffs, lo, hi, Fraction(1, 10**40))
        mult = 1
        g = _pgcd(coeffs, _pderiv(coeffs))
        while len(g) > 1 and _count_roots(_sturm_chain(g), lo, hi) >= 1:
            mult += 1
            g = _pgcd(g, _pderiv(g))
        out.append((lo, hi, mult))
    return tuple(out)


@lru_cache(maxsize=None)
def _common_chain(p: int, q: int):
    """Sturm chain of gcd(u_p, u_q) in beta, or None when they share no root."""
    g = _pgcd(_beta_poly(p), _beta_poly(q))
    return _sturm_chain(g) if len(g) > 1 else None


@lru_cache(maxsize=None)
def _shares_root(p: int, k: int, q: int) -> bool:
    """Exact test: is the k-th positive beta-root of u_p also a root of u_q?"""
    if q <= 1:
        return False
    chain = _common_chain(p, q)
    if chain is None:
        return False
    lo, hi, _ = _beta_roots(p)[k - 1]
    return _count_roots(chain, lo, hi) >= 1

