"""Command-line interface: every computation, machine-readable output.

Data goes to stdout (JSON by default, CSV for the sweep-style commands);
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input.  Cross-gains accept decimal literals or the exact token
root:p:k (k-th positive root of the order-p determinant).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from . import converse, dofcalc, netmodel, schemes, simulator, tridiag
from .netmodel import (ASYMMETRIC, SYMMETRIC, CrossGainAssignment,
                       NetworkParams, build_channel, parse_alpha_token)

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2


def _emit(obj) -> None:
    if isinstance(obj, str):
        sys.stdout.write(obj)
        if not obj.endswith("\n"):
            sys.stdout.write("\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg.rstrip() + "\n")


def _add_instance_flags(p: argparse.ArgumentParser, topology_required=True):
    p.add_argument("--instance", help="JSON instance file (overrides flags)")
    p.add_argument("--topology", choices=[ASYMMETRIC, SYMMETRIC])
    p.add_argument("--K", type=int)
    p.add_argument("--tl", type=int, default=0)
    p.add_argument("--tr", type=int, default=0)
    p.add_argument("--rl", type=int, default=0)
    p.add_argument("--rr", type=int, default=0)
    p.add_argument("--alpha", help="equal cross-gain (decimal or root:p:k)")
    p.add_argument("--gains-seed", type=int, help="continuous random gains")


def _instance_from_args(args) -> netmodel.ChannelModel:
    if args.instance:
        with open(args.instance) as fh:
            return netmodel.instance_from_json(json.load(fh))
    if args.K is None or args.topology is None:
        raise ValueError("--K and --topology (or --instance) are required")
    params = NetworkParams(K=args.K, t_left=args.tl, t_right=args.tr,
                           r_left=args.rl, r_right=args.rr)
    if args.gains_seed is not None:
        gains = CrossGainAssignment.random(args.gains_seed)
    elif args.alpha is not None:
        gains = CrossGainAssignment.equal(parse_alpha_token(args.alpha))
    else:
        raise ValueError("provide --alpha or --gains-seed")
    return build_channel(params, args.topology, gains)


def _params_from_args(args) -> NetworkParams:
    if args.K is None:
        raise ValueError("--K is required")
    return NetworkParams(K=args.K, t_left=args.tl, t_right=args.tr,
                         r_left=args.rl, r_right=args.rr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_mg(args) -> int:
    params = _params_from_args(args)
    if args.topology is None:
        raise ValueError("--topology is required")
    if args.topology == ASYMMETRIC:
        v = dofcalc.asym_mg(params)
        out = {"lower": v, "upper": v, "exact": True,
               "lower_by": "chain-silencing", "upper_by": "cooperative-bound",
               "per_user_limit": str(dofcalc.asym_mg_per_user(params))}
    else:
        if args.gains_seed is not None:
            interval = dofcalc.sym_dof_interval(
                params, CrossGainAssignment.random(args.gains_seed))
        else:
            if args.alpha is None:
                raise ValueError("symmetric topology needs --alpha or --gains-seed")
            interval = dofcalc.sym_dof_interval(params, parse_alpha_token(args.alpha))
        out = interval.to_json()
    _emit(out)
    return _EXIT_OK


def _cmd_bounds(args) -> int:
    params = _params_from_args(args)
    alpha = parse_alpha_token(args.alpha) if args.alpha is not None else None
    bounds = [b.to_json() for b in dofcalc.sym_lower_bounds(params)]
    if alpha is not None:
        bounds += [b.to_json() for b in dofcalc.sym_upper_bounds(params, alpha)]
        if args.verbose:
            bounds += [dict(b.to_json(), variant="prose-threshold")
                       for b in dofcalc.sym_upper_bounds(params, alpha,
                                                         theta4_variant="prose")
                       if b.label == "ub-generic"]
        interval = dofcalc.sym_dof_interval(params, alpha).to_json()
    elif args.gains_seed is not None:
        interval = dofcalc.sym_dof_interval(
            params, CrossGainAssignment.random(args.gains_seed)).to_json()
    else:
        interval = None
    out = {"instance": {"K": params.K, "t_left": params.t_left,
                        "t_right": params.t_right, "r_left": params.r_left,
                        "r_right": params.r_right},
           "bounds": bounds}
    if interval is not None:
        out["interval"] = interval
    _emit(out)
    return _EXIT_OK


def _cmd_roots(args) -> int:
    rs = tridiag.critical_roots(args.p)
    _emit(rs.to_json())
    return _EXIT_OK


def _plan_from_args(args, params):
    alpha = parse_alpha_token(args.alpha) if args.alpha is not None else None
    if args.topology == ASYMMETRIC:
        return schemes.asym_plan(params)
    if args.bound_label:
        return schemes.sym_general_plan(params, args.bound_label)
    if alpha is None:
        raise ValueError("symmetric plans need --alpha (or --bound-label)")
    return schemes.sym_symmetric_si_plan(params, alpha)


def _cmd_plan(args) -> int:
    params = _params_from_args(args)
    plan = _plan_from_args(args, params)
    _emit(schemes.plan_to_json(plan))
    return _EXIT_OK


def _cmd_certify(args) -> int:
    model = _instance_from_args(args)
    if args.plan == "-":
        plan = schemes.plan_from_json(json.load(sys.stdin))
    elif args.plan:
        with open(args.plan) as fh:
            plan = schemes.plan_from_json(json.load(fh))
    else:
        plan = _plan_from_args(args, model.params)
    cert = schemes.certify_plan(plan, model)
    _emit(cert.to_json())
    return _EXIT_OK if cert.ok else _EXIT_VERIFY


_GENIE_BUILDERS = {
    "asym": converse.build_asym_genie,
    "ub1": converse.build_sym_genie_ub1,
    "ub2": converse.build_sym_genie_ub2,
    "offset": converse.build_offset_genie,
}


def _genie_from_args(args, model):
    alpha = model.equal_alpha
    if alpha is None:
        raise ValueError("converse constructions need equal gains (--alpha)")
    build = _GENIE_BUILDERS[args.family]
    if not args.mirror:
        return build(model.params, alpha)
    if model.topology == ASYMMETRIC:
        raise ValueError("--mirror needs the symmetric topology: the asymmetric channel "
                         "is not reflection-invariant, so a mirrored recipe cannot replay on it")
    return converse.mirror_partition(build(model.params.mirrored(), alpha), model.params)


def _cmd_converse(args) -> int:
    model = _instance_from_args(args)
    part = _genie_from_args(args, model)
    rep = converse.verify_reconstruction(part, model, trials=args.trials,
                                         tol=args.tol, seed=args.seed)
    ent = converse.genie_entropy_check(part, model)
    out = rep.to_json()
    out["entropy_ok"] = ent.ok
    out["partition"] = part.to_json()
    _emit(out)
    return _EXIT_OK if (rep.ok and ent.ok) else _EXIT_VERIFY


def _cmd_entropy(args) -> int:
    model = _instance_from_args(args)
    part = _genie_from_args(args, model)
    rep = converse.genie_entropy_check(part, model)
    _emit(rep.to_json())
    return _EXIT_OK if rep.ok else _EXIT_VERIFY


def _cmd_simulate(args) -> int:
    model = _instance_from_args(args)
    plan = _plan_from_args(args, model.params)
    grid = simulator.default_power_grid(args.pmin, args.pmax, args.points)
    curve = simulator.slope_estimate(plan, model, grid)
    _emit(curve.to_csv(plan_id=plan.family))
    _diag(f"slope={curve.slope_estimate:.6f} claimed={curve.claimed_dof}")
    return _EXIT_OK


def _cmd_offset(args) -> int:
    alpha_star = parse_alpha_token(args.alpha_star)
    gaps = tuple(2.0 ** (-e) for e in range(args.gap_min_exp, args.gap_max_exp + 1))
    curve = simulator.offset_experiment(args.L, alpha_star, args.K, alpha_gaps=gaps)
    _emit(curve.to_csv())
    _diag(f"fitted_nu={curve.fitted_nu:.6f}")
    return _EXIT_OK


def _cmd_random_check(args) -> int:
    gains = None
    if args.alpha is not None:
        gains = CrossGainAssignment.equal(parse_alpha_token(args.alpha))
    rep = simulator.random_gain_rank_trials(args.K, args.topology, args.trials,
                                            args.seed, gains=gains)
    _emit(rep.to_json())
    return _EXIT_OK if rep.ok else _EXIT_VERIFY


_SWEEP_CHECKS = ("mg", "certify", "converse")


def _sweep_one(idx, inst, checks):
    """One CSV row; a check that does not apply ends the row in an `error` cell."""
    row = {"index": idx, **inst}
    try:
        _sweep_checks(row, inst, checks)
    except ValueError as exc:  # NotApplicableError included
        row["error"] = str(exc)
    return row


def _sweep_checks(row, inst, checks):
    for name in ("K", "tl", "tr", "rl", "rr"):
        if type(inst[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {inst[name]!r}")
    params = NetworkParams(K=inst["K"], t_left=inst["tl"], t_right=inst["tr"],
                           r_left=inst["rl"], r_right=inst["rr"])
    alpha = parse_alpha_token(inst["alpha"])
    topology = inst.get("topology", SYMMETRIC)
    model = build_channel(params, topology, CrossGainAssignment.equal(alpha))
    if "mg" in checks:
        if topology == ASYMMETRIC:
            v = dofcalc.asym_mg(params)
            row["mg_lower"] = row["mg_upper"] = v
        else:
            iv = dofcalc.sym_dof_interval(params, alpha)
            row["mg_lower"], row["mg_upper"] = iv.lower, iv.upper
    if "certify" in checks:
        if topology == ASYMMETRIC:
            plan = schemes.asym_plan(params)
        else:
            plan = schemes.sym_symmetric_si_plan(params, alpha)
        cert = schemes.certify_plan(plan, model)
        row["certified"] = cert.certified_dof if cert.ok else -1
    if "converse" in checks:
        if topology == ASYMMETRIC:
            part = converse.build_asym_genie(params, alpha)
        else:
            part = converse.build_sym_genie_ub1(params, alpha)
        rep = converse.verify_reconstruction(part, model, trials=20)
        row["converse_bound"] = part.bound
        row["converse_ok"] = rep.ok


def _csv_cell(value) -> str:
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    checks = spec.get("checks", ["mg"])
    if not isinstance(checks, list) or any(c not in _SWEEP_CHECKS for c in checks):
        raise ValueError(f"sweep spec 'checks' must be a list of {', '.join(_SWEEP_CHECKS)}")
    if not isinstance(spec.get("topology", ""), str):
        raise ValueError("sweep spec 'topology' must be a string")
    keys = ["K", "tl", "tr", "rl", "rr", "alpha"]
    grids = [spec.get(k, None if k == "K" else [0]) for k in keys]
    for k, grid in zip(keys, grids):
        if not isinstance(grid, list):
            raise ValueError(f"sweep spec {k!r} must be a list")
    instances = []
    idx = 0
    from itertools import product
    for combo in product(*grids):
        inst = dict(zip(keys, combo))
        if "topology" in spec:
            inst["topology"] = spec["topology"]
        instances.append((idx, inst))
        idx += 1
    jobs = args.jobs or 1
    rows = [None] * len(instances)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            futs = {ex.submit(_sweep_one, i, inst, checks): i for i, inst in instances}
            for f in futs:
                rows[futs[f]] = f.result()
    else:
        for i, inst in instances:
            rows[i] = _sweep_one(i, inst, checks)
    cols = sorted({k for r in rows for k in r}, key=lambda c: (c != "index", c))
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(c, "")) for c in cols))
    _emit("\n".join(lines))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_MIRROR_HELP = ("build the family for the left/right-exchanged instance and "
                "relabel it k -> K+1-k (symmetric topology only)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wynerdof",
        description="multiplexing-gain calculator and verifier for "
                    "Wyner-type linear interference networks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mg", help="multiplexing-gain interval")
    _add_instance_flags(p)
    p.set_defaults(func=_cmd_mg)

    p = sub.add_parser("bounds", help="all lower/upper bounds with applicability")
    _add_instance_flags(p)
    p.add_argument("--verbose", action="store_true",
                   help="also evaluate the alternative tail-threshold variant")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("roots", help="critical gains of the order-p determinant")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("plan", help="transmission plan as JSON")
    _add_instance_flags(p)
    p.add_argument("--bound-label", help="general-parameter scheme label")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("certify", help="certify a plan against a channel")
    _add_instance_flags(p)
    p.add_argument("--plan", help="plan JSON file, or - to read it from stdin "
                                  "(default: re-synthesized from the flags)")
    p.add_argument("--bound-label")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("converse", help="build and verify a genie construction")
    _add_instance_flags(p)
    p.add_argument("--family", required=True,
                   choices=["asym", "ub1", "ub2", "offset"])
    p.add_argument("--mirror", action="store_true", help=_MIRROR_HELP)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_converse)

    p = sub.add_parser("entropy", help="finiteness condition of a genie family")
    _add_instance_flags(p)
    p.add_argument("--family", required=True, choices=["asym", "ub1", "ub2"])
    p.add_argument("--mirror", action="store_true", help=_MIRROR_HELP)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("simulate", help="rate curve and slope for a plan (CSV)")
    _add_instance_flags(p)
    p.add_argument("--bound-label")
    p.add_argument("--pmin", type=float, default=1e3)
    p.add_argument("--pmax", type=float, default=1e14)
    p.add_argument("--points", type=int, default=12)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("offset", help="power-offset growth experiment (CSV)")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--alpha-star", required=True)
    p.add_argument("--gap-min-exp", type=int, default=3)
    p.add_argument("--gap-max-exp", type=int, default=12)
    p.set_defaults(func=_cmd_offset)

    p = sub.add_parser("sweep", help="parameter grid from a JSON spec (CSV)")
    p.add_argument("--spec", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("random-check", help="probability-1 full-rank sampling")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--topology", choices=[ASYMMETRIC, SYMMETRIC], required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", help="fixed equal gain instead of random draws")
    p.set_defaults(func=_cmd_random_check)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else _EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, schemes.NotApplicableError) as exc:
        _diag(f"error: {exc}")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
