"""Command-line interface: every computation, machine-readable output.

Data goes to stdout (JSON by default, CSV for the sweep-style commands);
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input.  Cross-gains accept decimal literals or the exact token
root:p:k (k-th positive root of the order-p determinant).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import product
from typing import TYPE_CHECKING, Optional

# Each command imports the modules it calls (dofcalc, tridiag, schemes,
# converse, simulator) where it calls them, so the closed-form commands start
# without numpy and the others without dofcalc.
from . import netmodel
from .netmodel import (ASYMMETRIC, SYMMETRIC, CrossGainAssignment,
                       NetworkParams, build_channel, parse_alpha_token)

if TYPE_CHECKING:
    from . import dofcalc

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


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--instance", help="JSON instance file (replaces the other instance flags)")
    p.add_argument("--topology", choices=[ASYMMETRIC, SYMMETRIC])
    p.add_argument("--K", type=int)
    p.add_argument("--tl", type=int, default=0)
    p.add_argument("--tr", type=int, default=0)
    p.add_argument("--rl", type=int, default=0)
    p.add_argument("--rr", type=int, default=0)
    p.add_argument("--alpha", help="equal cross-gain (decimal or root:p:k)")
    p.add_argument("--gains-seed", type=int, help="continuous random gains")


def _resolve(fields) -> tuple:
    """(params, topology, gains) of one instance, from a command's flags
    (`vars(args)`) or from one sweep row; gains are None when neither
    --alpha nor --gains-seed is given.  An --instance file replaces the flags."""
    if fields.get("instance"):
        with open(fields["instance"]) as fh:
            return netmodel.instance_from_json(json.load(fh))
    if fields["K"] is None or fields["topology"] is None:
        raise ValueError("--K and --topology (or --instance) are required")
    for name in ("K", "tl", "tr", "rl", "rr"):
        if type(fields[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {fields[name]!r}")
    params = NetworkParams(K=fields["K"], t_left=fields["tl"], t_right=fields["tr"],
                           r_left=fields["rl"], r_right=fields["rr"])
    alpha, seed = fields.get("alpha"), fields.get("gains_seed")
    if alpha is not None and seed is not None:
        raise ValueError("give --alpha or --gains-seed, not both")
    gains = None
    if seed is not None:
        gains = CrossGainAssignment.random(seed)
    elif alpha is not None:
        gains = CrossGainAssignment.equal(parse_alpha_token(alpha))
    return params, fields["topology"], gains


def _channel(params, topology, gains) -> netmodel.ChannelModel:
    if gains is None:
        raise ValueError("provide --alpha or --gains-seed")
    return build_channel(params, topology, gains)


def _mg(params, topology, gains) -> dofcalc.DofInterval:
    from . import dofcalc
    if topology == ASYMMETRIC:
        v = dofcalc.asym_mg(params)
        return dofcalc.DofInterval(v, v, "chain-silencing", "cooperative-bound")
    if gains is None:
        raise ValueError("symmetric topology needs --alpha or --gains-seed")
    return dofcalc.sym_dof_interval(params, gains)


def _plan(params, topology, gains, bound_label=None):
    from . import schemes
    if topology == ASYMMETRIC:
        return schemes.asym_plan(params)
    if bound_label:
        return schemes.sym_general_plan(params, bound_label)
    if gains is None or gains.kind != "equal":
        raise ValueError("symmetric plans need --alpha (or --bound-label)")
    return schemes.sym_symmetric_si_plan(params, gains.alpha)


_GENIE_BUILDERS = {
    "asym": "build_asym_genie",
    "ub1": "build_sym_genie_ub1",
    "ub2": "build_sym_genie_ub2",
    "offset": "build_offset_genie",
}


def _genie(model, family, mirror=False):
    from . import converse
    alpha = model.equal_alpha
    if alpha is None:
        raise ValueError("converse constructions need equal gains (--alpha)")
    build = getattr(converse, _GENIE_BUILDERS[family])
    if not mirror:
        return build(model.params, alpha)
    if model.topology == ASYMMETRIC:
        raise ValueError("--mirror needs the symmetric topology: the asymmetric channel "
                         "is not reflection-invariant, so a mirrored recipe cannot replay on it")
    return converse.mirror_partition(build(model.params.mirrored(), alpha), model.params)


def _cmd_mg(args) -> int:
    from . import dofcalc
    params, topology, gains = _resolve(vars(args))
    out = _mg(params, topology, gains).to_json()
    if topology == ASYMMETRIC:
        out["per_user_limit"] = str(dofcalc.asym_mg_per_user(params))
    _emit(out)
    return _EXIT_OK


def _cmd_bounds(args) -> int:
    from . import dofcalc
    params, topology, gains = _resolve(vars(args))
    if topology != SYMMETRIC:
        raise ValueError("bounds lists the symmetric topology's bounds; "
                         "use mg for the asymmetric one")
    bounds = [b.to_json() for b in dofcalc.sym_lower_bounds(params)]
    out = {"instance": dataclasses.asdict(params), "bounds": bounds}
    if gains is not None:
        alpha = gains.alpha if gains.kind == "equal" else None
        bounds += [b.to_json() for b in dofcalc.sym_upper_bounds(params, alpha)]
        if args.verbose:
            bounds += [dict(b.to_json(), variant="prose-threshold")
                       for b in dofcalc.sym_upper_bounds(params, alpha,
                                                         theta4_variant="prose")
                       if b.label == "ub-generic"]
        out["interval"] = _mg(params, topology, gains).to_json()
    _emit(out)
    return _EXIT_OK


def _cmd_roots(args) -> int:
    from . import tridiag
    rs = tridiag.critical_roots(args.p)
    _emit(rs.to_json())
    return _EXIT_OK


def _cmd_plan(args) -> int:
    from . import schemes
    _emit(schemes.plan_to_json(_plan(*_resolve(vars(args)), args.bound_label)))
    return _EXIT_OK


def _cmd_certify(args) -> int:
    from . import schemes
    instance = _resolve(vars(args))
    model = _channel(*instance)
    if args.plan == "-":
        plan = schemes.plan_from_json(json.load(sys.stdin))
    elif args.plan:
        with open(args.plan) as fh:
            plan = schemes.plan_from_json(json.load(fh))
    else:
        plan = _plan(*instance, args.bound_label)
    cert = schemes.certify_plan(plan, model)
    _emit(cert.to_json())
    return _EXIT_OK if cert.ok else _EXIT_VERIFY


def _cmd_converse(args) -> int:
    from . import converse
    model = _channel(*_resolve(vars(args)))
    part = _genie(model, args.family, args.mirror)
    rep = converse.verify_reconstruction(part, model, trials=args.trials,
                                         tol=args.tol, seed=args.seed)
    ent = converse.genie_entropy_check(part, model)
    out = rep.to_json()
    out["entropy_ok"] = ent.ok
    out["partition"] = part.to_json()
    _emit(out)
    return _EXIT_OK if (rep.ok and ent.ok) else _EXIT_VERIFY


def _cmd_entropy(args) -> int:
    from . import converse
    model = _channel(*_resolve(vars(args)))
    rep = converse.genie_entropy_check(_genie(model, args.family, args.mirror), model)
    _emit(rep.to_json())
    return _EXIT_OK if rep.ok else _EXIT_VERIFY


def _cmd_simulate(args) -> int:
    from . import simulator
    instance = _resolve(vars(args))
    model = _channel(*instance)
    plan = _plan(*instance, args.bound_label)
    grid = simulator.default_power_grid(args.pmin, args.pmax, args.points)
    curve = simulator.slope_estimate(plan, model, grid)
    _emit(curve.to_csv(plan_id=plan.family))
    _diag(f"slope={curve.slope_estimate:.6f} claimed={curve.claimed_dof}")
    return _EXIT_OK


def _cmd_offset(args) -> int:
    from . import simulator
    alpha_star = parse_alpha_token(args.alpha_star)
    gaps = tuple(2.0 ** (-e) for e in range(args.gap_min_exp, args.gap_max_exp + 1))
    curve = simulator.offset_experiment(args.L, alpha_star, args.K, alpha_gaps=gaps)
    _emit(curve.to_csv())
    _diag(f"fitted_nu={curve.fitted_nu:.6f}")
    return _EXIT_OK


def _cmd_random_check(args) -> int:
    from . import simulator
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
        instance = _resolve({"topology": SYMMETRIC, **inst})
        if "mg" in checks:
            iv = _mg(*instance)
            row["mg_lower"], row["mg_upper"] = iv.lower, iv.upper
        if "certify" in checks or "converse" in checks:
            model = _channel(*instance)
        if "certify" in checks:
            from . import schemes
            cert = schemes.certify_plan(_plan(*instance), model)
            row["certified"] = cert.certified_dof if cert.ok else -1
        if "converse" in checks:
            from . import converse
            part = _genie(model, "asym" if model.topology == ASYMMETRIC else "ub1")
            rep = converse.verify_reconstruction(part, model, trials=20)
            row["converse_bound"] = part.bound
            row["converse_ok"] = rep.ok
    except ValueError as exc:  # schemes.NotApplicableError included
        row["error"] = str(exc)
    return row


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
    keys = ["K", "tl", "tr", "rl", "rr"] + (["alpha"] if "alpha" in spec else [])
    grids = [spec.get(k, None if k == "K" else [0]) for k in keys]
    for k, grid in zip(keys, grids):
        if not isinstance(grid, list):
            raise ValueError(f"sweep spec {k!r} must be a list")
    topology = {"topology": spec["topology"]} if "topology" in spec else {}
    instances = [dict(zip(keys, combo), **topology) for combo in product(*grids)]
    rows = [_sweep_one(i, inst, checks) for i, inst in enumerate(instances)]
    cols = sorted({k for r in rows for k in r}, key=lambda c: (c != "index", c))
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(c, "")) for c in cols))
    _emit("\n".join(lines))
    return _EXIT_OK


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
    p.add_argument("--jobs", type=int, help="accepted and has no effect")
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
    except (ValueError, OSError, KeyError) as exc:
        _diag(f"error: {exc}")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
