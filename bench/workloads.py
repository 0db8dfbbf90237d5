"""The in-process workloads: instance generators, timed calls and checks.

Each workload turns the seed into a list of ops with a fixed composition:
the seed draws the parameters, never how many ops of each kind there are,
so costs and failure counts hardly move between seeds. Each op is one
instance: ``run(T)`` makes the timed calls through the tracer,
``check(result)`` compares the outputs with ``oracle`` and returns the
mismatches as (description, known-defect tag or None).

Known-defect tags name failures that exist in the program today and are
explained by a documented mechanism; they are counted and listed like every
other mismatch but do not make a run incorrect:

* ``abs-zero-tol``: float zero tests use |u_q(a)| <= 1e-9, an absolute
  bound, so a decimal gain whose u_q is merely small is treated as critical.
* ``entropy-abs-tol``: ``genie_entropy_check`` compares the smallest
  conditional-covariance eigenvalue with an absolute 1e-10 after a
  cancellation-prone pseudo-inverse, so a finite genie at small |a| fails
  with an eigenvalue inside the rounding floor.
* ``ub2-tail-threshold``: ``build_sym_genie_ub2`` hides the tail antenna
  only when K mod (side_sum+3) >= t_r+r_r+2, while the ub-singular-left
  formula subtracts it from t_r+r_r+1 on, so at equality the constructed
  genie bound is one above the formula.
* ``replay-abs-tol``: ``verify_reconstruction`` compares the replay error
  with an absolute 1e-8, while the recipes' coefficients grow like |a|^-j
  at small gain, so float rounding alone can exceed it; the error must
  stay below the oracle's worst-case rounding bound.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

import oracle as O
from wynerdof import converse as cv
from wynerdof import dofcalc as dc
from wynerdof import netmodel as nm
from wynerdof import schemes as sc
from wynerdof import simulator as sim
from wynerdof import tridiag as td

SYM, ASYM = nm.SYMMETRIC, nm.ASYMMETRIC
ABS_ZERO = "abs-zero-tol"
ENTROPY = "entropy-abs-tol"
UB2_TAIL = "ub2-tail-threshold"
REPLAY = "replay-abs-tol"


Op = namedtuple("Op", "label run check")


def _params(K, tl, tr, rl, rr):
    return nm.NetworkParams(K=K, t_left=tl, t_right=tr, r_left=rl, r_right=rr)


def _channel(T, params, topology, alpha):
    return T("netmodel.build_channel", lambda: nm.build_channel(
        params, topology, nm.CrossGainAssignment.equal(alpha)))


def _gain(T, g):
    """A gain spec is a float or (p, k, sign) for the exact root token."""
    if isinstance(g, tuple):
        return T("tridiag.root_alpha", td.RootAlpha, *g)
    return g


def _zero_fn(g):
    if isinstance(g, tuple):
        return lambda q: O.root_is_zero_of(g[0], g[1], q)
    return lambda q: O.decimal_is_zero_of(g, q)


def _gain_value(g):
    """The float value of a gain spec, from the oracle's root formula."""
    return g[2] * O.positive_roots(g[0])[g[1] - 1] if isinstance(g, tuple) else g


def _gain_str(g):
    return f"root:{g[0]}:{g[1]}*{g[2]}" if isinstance(g, tuple) else repr(g)


def _decimal(rng, lo=0.15, hi=2.0):
    return round(rng.uniform(lo, hi), 4) * rng.choice((-1, 1))


def _generic(rng, lo, hi):
    """A positive decimal gain that is a root of no u_q: by Niven's theorem
    the only rational roots are +-1, so redraw on 1.0."""
    while True:
        a = abs(_decimal(rng, lo, hi))
        if not O.decimal_is_zero_of(a, 2):
            return a


def _root(rng, p):
    return (p, rng.randint(1, len(O.positive_roots(p))), rng.choice((-1, 1)))


def _strata(rng, n, lo, hi):
    """n draws in [lo, hi), one per equal stratum, in random order: every
    seed gets the same spread of sizes, so the total cost hardly varies."""
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _si_split(rng, L):
    tl, tr = rng.randint(0, L), rng.randint(0, L)
    return tl, tr, L - tl, L - tr


def _abs_tol_explains(g, qs) -> bool:
    """A decimal gain at which some u_q is small enough for the 1e-9 bound."""
    return not isinstance(g, tuple) and any(
        q >= 2 and abs(O.u_float(q, g)) <= O.ZERO_TOL for q in qs)


def _count_certify(T, plan, cert):
    T.count("schemes.certify.subnets", len(plan.subnets))
    T.count("schemes.certify.blocks", sum(len(s.mimo_blocks) for s in plan.subnets))
    T.count("schemes.certify.rejected", 0 if cert.ok else 1)


# ---------------------------------------------------------------------------
# certify-grid: closed form, plan synthesis and certification per instance
# ---------------------------------------------------------------------------

CERT_SYM, CERT_ASYM, CERT_NEG = 160, 56, 24  # 1 in 10 is a negative control


def _sym_cert_op(label, K, side, g):
    params = _params(K, *side)
    L = side[0] + side[2]

    def run(T):
        alpha = _gain(T, g)
        model = _channel(T, params, SYM, alpha)
        iv = T("dofcalc.bounds", dc.sym_dof_interval, params, alpha)
        plan = T("schemes.synthesize", sc.sym_symmetric_si_plan, params, alpha)
        cert = T("schemes.certify", sc.certify_plan, plan, model)
        _count_certify(T, plan, cert)
        return iv, cert

    def check(res):
        iv, cert = res
        lo, hi = O.si_interval(K, L, _zero_fn(g))
        out = []
        if not (lo <= iv.lower <= iv.upper <= hi and (lo < hi or iv.lower == lo)):
            out.append(f"interval [{iv.lower},{iv.upper}] vs closed form [{lo},{hi}]")
        if not cert.ok:
            out.append(f"certify rejected: {cert.failure}")
        elif not (lo <= cert.certified_dof <= hi and (lo < hi or cert.certified_dof == lo)):
            out.append(f"certified {cert.certified_dof} vs closed form [{lo},{hi}]")
        known = ABS_ZERO if _abs_tol_explains(g, (L, L + 1, K)) else None
        return [(m, known) for m in out]

    return Op(f"{label} sym K={K} side={side} a={_gain_str(g)}", run, check)


def _asym_cert_op(label, K, side, a):
    params = _params(K, *side)

    def run(T):
        model = _channel(T, params, ASYM, a)
        mg = T("dofcalc.closed_form", dc.asym_mg, params)
        plan = T("schemes.synthesize", sc.asym_plan, params)
        cert = T("schemes.certify", sc.certify_plan, plan, model)
        _count_certify(T, plan, cert)
        return mg, cert

    def check(res):
        mg, cert = res
        want = O.asym_mg(K, *side)
        out = []
        if mg != want:
            out.append(f"asym_mg {mg} vs closed form {want}")
        if not (cert.ok and cert.certified_dof == want):
            out.append(f"certified ok={cert.ok} dof={cert.certified_dof} vs {want}")
        return [(m, None) for m in out]

    return Op(f"{label} asym K={K} side={side} a={a!r}", run, check)


def _negative_cert_op(label, K, side, generic, g):
    """Plan made at a generic gain, certified on the channel at a root of
    u_{L+1}, where the closed form drops: the certificate must fail."""
    params = _params(K, *side)

    def run(T):
        alpha = _gain(T, g)
        model = _channel(T, params, SYM, alpha)
        iv = T("dofcalc.bounds", dc.sym_dof_interval, params, alpha)
        plan = T("schemes.synthesize", sc.sym_symmetric_si_plan, params, generic)
        cert = T("schemes.certify", sc.certify_plan, plan, model)
        _count_certify(T, plan, cert)
        return iv, plan, cert

    def check(res):
        iv, plan, cert = res
        L = side[0] + side[2]
        lo, hi = O.si_interval(K, L, _zero_fn(g))
        out = []
        if not lo <= iv.lower <= iv.upper <= hi:
            out.append(f"interval [{iv.lower},{iv.upper}] vs closed form [{lo},{hi}]")
        if cert.ok:
            out.append("negative control certified ok")
        return [(m, None) for m in out]

    return Op(f"{label} negative K={K} side={side} plan@{generic!r} chan@{_gain_str(g)}",
              run, check)


def certify_grid_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    # Sizes ascend with i while L and the gain kind cycle, so every seed
    # pairs sizes, side sums and kinds the same way and costs the same.
    Ks = sorted(_strata(rng, CERT_SYM, math.log(3), math.log(240)))
    kinds = ["decimal", "critical", "any", "decimal", "low",
             "critical", "decimal", "any", "critical", "decimal"]
    for i in range(CERT_SYM):
        L = i % 4
        side = _si_split(rng, L)
        K = int(round(math.exp(Ks[i])))
        K += K == L + 2  # outside the closed-form case split
        kind = kinds[i % len(kinds)]
        if kind == "low" and L < 2:
            kind = "critical"
        if kind == "critical" and L < 1:
            kind = "any"
        g = {"decimal": lambda: _decimal(rng), "critical": lambda: _root(rng, L + 1),
             "low": lambda: _root(rng, L), "any": lambda: _root(rng, rng.randint(2, 7))}[kind]()
        ops.append(_sym_cert_op(f"s{i}", K, side, g))
    for i, K in enumerate(_strata(rng, CERT_ASYM, 1, 41)):
        side = tuple(rng.randint(0, 3) for _ in range(4))
        ops.append(_asym_cert_op(f"a{i}", int(K), side, _decimal(rng)))
    for i, K in enumerate(_strata(rng, CERT_NEG, 6, 241)):
        L = rng.randint(1, 3)
        side = _si_split(rng, L)
        ops.append(_negative_cert_op(f"n{i}", int(K), side,
                                     _generic(rng, 0.3, 1.5), _root(rng, L + 1)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# critical-gains: exact roots and zero tests at high order
# ---------------------------------------------------------------------------

CRIT_ORDERS = range(8, 31)
CRIT_EXACT_QS = 6     # exact zero tests per root, on top of the forced ones
DECIMAL_REL = 1e-3    # decimal neighbours sit at root * (1 +- this), 6 places


def _crit_k_positions(p):
    """The roots every seed queries: the ends and the thirds of the range."""
    n = len(O.positive_roots(p))
    return sorted({1, max(1, n // 3), max(1, (2 * n) // 3), n})


def _roots_op(label, p):
    def run(T):
        return T("tridiag.critical_roots", td.critical_roots, p)

    def check(rs):
        want = O.all_roots(p)
        got = rs.alphas()
        if len(got) != len(want):
            return [(f"{len(got)} roots vs {len(want)}", None)]
        err = max(abs(a - b) for a, b in zip(got, want))
        out = []
        if err > 1e-9:
            out.append((f"root error {err:.3g} > 1e-9", None))
        if any(m != 1 for _, m in rs.roots):
            out.append(("a root is reported with multiplicity != 1", None))
        return out

    return Op(f"{label} roots p={p}", run, check)


def _gain_query_op(label, p, k, qs, K, side):
    """Zero tests of u_q at root:p:k and at its two decimal neighbours, and
    the multiplexing-gain bracket of an instance with L = p-1 at each."""
    root = O.positive_roots(p)[k - 1]
    decimals = [round(root * (1 + s * DECIMAL_REL), 6) for s in (-1, 1)]
    params = _params(K, *side)
    L = p - 1

    def run(T):
        ra = T("tridiag.root_alpha", td.RootAlpha, p, k)
        exact = [T("tridiag.zero_test", ra.is_root_of, q) for q in qs]
        dec = [[T("tridiag.zero_test", td.u_is_zero, q, a) for q in range(2, 41)]
               for a in decimals]
        brackets = []
        for a in [ra] + decimals:
            brackets.append((T("dofcalc.bounds", dc.sym_dof_interval, params, a),
                             T("dofcalc.closed_form", dc.sym_mg_per_user, params, a)))
        return exact, dec, brackets

    def check(res):
        exact, dec, brackets = res
        out = []
        for q, got in zip(qs, exact):
            if got != O.root_is_zero_of(p, k, q):
                out.append((f"is_root_of({q}) = {got}", None))
        for a, row in zip(decimals, dec):
            bad = [q for q, got in zip(range(2, 41), row)
                   if got != O.decimal_is_zero_of(a, q)]
            if bad:
                out.append((f"u_is_zero(q, {a!r}) wrong for q in {bad}",
                            ABS_ZERO if _abs_tol_explains(a, bad) else None))
        for g, (iv, pu) in zip([(p, k, 1)] + decimals, brackets):
            zero = _zero_fn(g)
            lo, hi = O.si_interval(K, L, zero)
            (ln, ld), (un, ud) = O.per_user(L, zero(L + 1))
            bad = []
            if not (lo <= iv.lower <= iv.upper <= hi and (lo < hi or iv.lower == lo)):
                bad.append(f"interval [{iv.lower},{iv.upper}] vs [{lo},{hi}]")
            if (pu.value_lower, pu.value_upper) != (Fraction(ln, ld), Fraction(un, ud)):
                bad.append(f"per-user [{pu.value_lower},{pu.value_upper}] vs "
                           f"[{ln}/{ld},{un}/{ud}]")
            known = ABS_ZERO if _abs_tol_explains(g, (L, L + 1, K)) else None
            out.extend((f"at {_gain_str(g)}: {m}", known) for m in bad)
        return out

    return Op(f"{label} query root:{p}:{k} K={K} side={side}", run, check)


def critical_gains_ops(seed: int) -> list:
    rng = random.Random(seed)
    orders = list(CRIT_ORDERS)
    rng.shuffle(orders)
    ops = []
    for p in orders:
        ops.append(_roots_op(f"p{p}", p))  # before its queries: pays the cold isolation
        L = p - 1
        for k in _crit_k_positions(p):
            vanish = [q for q in range(2, 41) if O.root_is_zero_of(p, k, q)]
            others = [q for q in range(2, 41) if q not in vanish and q != p]
            qs = sorted(set(vanish[:2] + [p] + rng.sample(others, CRIT_EXACT_QS)))
            K = rng.randint(L + 3, 3 * L + 9)
            ops.append(_gain_query_op(f"p{p}k{k}", p, k, qs, K, _si_split(rng, L)))
    return ops


# ---------------------------------------------------------------------------
# converse-replay: genie constructions replayed on sampled data
# ---------------------------------------------------------------------------

VERIFY_TRIALS = 300
RANK_TRIALS = 4
ENTROPY_PROBE = ((3, 2, 3, 2), 0.18, (20, 40, 60))  # fails today at |a| = 0.18


def _side_upto(rng, total):
    while True:
        side = tuple(rng.randint(0, 3) for _ in range(4))
        if sum(side) <= total:
            return side


def _genie_op(label, family, K, side, g, trial_seed):
    topology = ASYM if family == "asym" else SYM
    params = _params(K, *side)
    tl, tr, rl, rr = side
    gap = family == "ub2" and tl == 0 and K >= sum(side) + 3 and K % (sum(side) + 3) == 0
    build = {"asym": cv.build_asym_genie, "ub1": cv.build_sym_genie_ub1,
             "ub2": cv.build_sym_genie_ub2}[family]

    def run(T):
        alpha = _gain(T, g)
        model = _channel(T, params, topology, alpha)
        if family == "asym":
            want = T("dofcalc.closed_form", dc.asym_mg, params)
        else:
            label_ = "ub-generic" if family == "ub1" else "ub-singular-left"
            ubs = T("dofcalc.bounds", dc.sym_upper_bounds, params, alpha)
            want = next(b.value for b in ubs if b.label == label_)
        try:
            part = T("converse.build", build, params, alpha)
        except ValueError as exc:
            return want, None, None, None, str(exc)
        rep = T("converse.verify", cv.verify_reconstruction, part, model,
                trials=VERIFY_TRIALS, seed=trial_seed)
        ent = T("converse.entropy", cv.genie_entropy_check, part, model)
        T.count("converse.verify.steps", len(part.steps))
        T.count("converse.verify.failed", 0 if rep.ok else 1)
        T.count("converse.entropy.failed", 0 if ent.ok else 1)
        return want, part, rep, ent, None

    def check(res):
        want, part, rep, ent, err = res
        if family == "asym":
            expect = O.asym_mg(K, *side)
        elif family == "ub1":
            expect = O.ub_generic(K, *side)
        else:
            expect = O.ub_singular_left(K, *side)
        out = []
        if want != expect:
            out.append((f"dofcalc bound {want} vs closed form {expect}", None))
        if gap or err is not None:
            if not (gap and err is not None):
                out.append((f"construction gap expected={gap}, raised={err}", None))
            return out
        if part.bound != expect:
            tail = family == "ub2" and part.bound == expect + 1 and \
                K % (sum(side) + 3) == tr + rr + 1
            out.append((f"genie bound {part.bound} vs closed form {expect}",
                        UB2_TAIL if tail else None))
        if not rep.ok:
            steps = [(s.target, s.y_terms, s.x_terms, s.v_terms)
                     for s in sorted(part.steps, key=lambda s: s.round_no)]
            floor = O.replay_rounding_floor(
                steps, {x.index: (x.noise_coeff, x.input_coeff) for x in part.genies},
                _gain_value(g))
            out.append((f"reconstruction error {rep.max_abs_error:.3g} "
                        f"(rounding bound {floor:.3g}): {rep.failure}",
                        REPLAY if rep.failure is None and rep.max_abs_error <= floor
                        else None))
        if not ent.ok:
            floor = O.entropy_rounding_floor([x.noise_coeff for x in part.genies], K)
            out.append((f"entropy rejected a finite genie: min eig "
                        f"{ent.min_eigenvalue:.3g} (rounding floor {floor:.3g})",
                        ENTROPY if abs(ent.min_eigenvalue) <= floor else None))
        return out

    return Op(f"{label} {family} K={K} side={side} a={_gain_str(g)}", run, check)


def _rank_op(label, K, topology, trials, seed):
    def run(T):
        rep = T("simulator.rank_trials", sim.random_gain_rank_trials, K, topology,
                trials, seed)
        T.count("simulator.rank_trials.svds",
                trials * sum(K - s + 1 for s in range(1, min(K, 12) + 1)))
        return rep

    def check(rep):
        return [] if rep.ok else [(f"{rep.failures} rank-deficient windows", None)]

    return Op(f"{label} rank K={K} {topology} trials={trials} seed={seed}", run, check)


def _rank_negative_op(label, K, g):
    """Equal gain at a critical root: exactly the windows of size s with
    u_s(root) = 0 lose rank, once per start position."""
    p, k, _ = g
    sizes = [s for s in range(2, min(K, 12) + 1) if O.root_is_zero_of(p, k, s)]
    want = sum(K - s + 1 for s in sizes)

    def run(T):
        alpha = _gain(T, g)
        rep = T("simulator.rank_trials", sim.random_gain_rank_trials, K, SYM, 1, 0,
                gains=nm.CrossGainAssignment.equal(alpha))
        T.count("simulator.rank_trials.svds", sum(K - s + 1 for s in range(1, min(K, 12) + 1)))
        return rep

    def check(rep):
        if rep.failures != want or {c[2] for c in rep.failed_cases} - set(sizes):
            return [(f"{rep.failures} failing windows vs {want} of sizes {sizes}", None)]
        return []

    return Op(f"{label} rank-negative K={K} a={_gain_str(g)}", run, check)


def _slope_op(label, K, side, a):
    params = _params(K, *side)

    def run(T):
        model = _channel(T, params, SYM, a)
        plan = T("schemes.synthesize", sc.sym_symmetric_si_plan, params, a)
        return T("simulator.slope", sim.slope_estimate, plan, model)

    def check(curve):
        gap = abs(curve.slope_estimate - curve.claimed_dof)
        return [] if gap <= 0.05 else [(f"slope {curve.slope_estimate:.4f} vs "
                                        f"claimed {curve.claimed_dof}", None)]

    return Op(f"{label} slope K={K} side={side} a={a!r}", run, check)


def _offset_op(label, L, g, q):
    K = q * (L + 2) - 1

    def run(T):
        alpha = _gain(T, g)
        return T("simulator.offset", sim.offset_experiment, L, alpha, K)

    def check(curve):
        return [] if abs(curve.fitted_nu - 1) <= 0.2 else [
            (f"fitted nu {curve.fitted_nu:.3f} vs multiplicity 1", None)]

    return Op(f"{label} offset L={L} K={K} a*={_gain_str(g)}", run, check)


def converse_replay_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    mags = _strata(rng, 56, 0.1, 0.25) + _strata(rng, 104, 0.25, 2.0)
    for i, (K, mag) in enumerate(zip(_strata(rng, 160, 2, 61), mags)):
        g = round(mag, 3) * rng.choice((-1, 1))
        ops.append(_genie_op(f"u{i}", "ub1", int(K), _side_upto(rng, 6), g,
                             rng.randrange(10**6)))
    for i, K in enumerate(_strata(rng, 80, 2, 61)):
        ops.append(_genie_op(f"a{i}", "asym", int(K), _side_upto(rng, 6), _decimal(rng),
                             rng.randrange(10**6)))
    for i, K in enumerate(_strata(rng, 40, 5, 61)):
        side = _side_upto(rng, 6)
        while side[0] + side[2] == 0:
            side = _side_upto(rng, 6)
        g = _root(rng, side[0] + side[2] + 1)
        ops.append(_genie_op(f"b{i}", "ub2", int(K), side, g, rng.randrange(10**6)))
    side, mag, Ks = ENTROPY_PROBE
    for K in Ks:
        ops.append(_genie_op(f"e{K}", "ub1", K, side, mag * rng.choice((-1, 1)),
                             rng.randrange(10**6)))
    for i, K in enumerate(_strata(rng, 80, 8, 25)):
        ops.append(_rank_op(f"k{i}", int(K), (SYM, ASYM)[i % 2], RANK_TRIALS,
                            rng.randrange(10**6)))
    for i, K in enumerate(_strata(rng, 8, 12, 25)):
        ops.append(_rank_negative_op(f"kn{i}", int(K), _root(rng, rng.randint(2, 7))))
    for i in range(4):
        L = rng.randint(0, 2)
        ops.append(_slope_op(f"sl{i}", rng.randint(3, 15), _si_split(rng, L),
                             abs(_decimal(rng, 0.2, 2.0))))
        L = rng.randint(1, 3)
        ops.append(_offset_op(f"of{i}", L, _root(rng, L + 1), rng.randint(1, 4)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify-grid": certify_grid_ops,
    "critical-gains": critical_gains_ops,
    "converse-replay": converse_replay_ops,
}
