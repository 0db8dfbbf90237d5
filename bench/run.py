"""Benchmark of the wynerdof package: four workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
Workloads (BENCHMARK.json says why each exists):

    certify-grid     closed form, plan synthesis and certify_plan per instance
    critical-gains   exact roots and zero tests of u_p at high order
    converse-replay  genie constructions, reconstruction replay, rank trials
    cli-corpus       fixed CLI commands against golden stdout and exit codes

The seed makes one set of ops; a worker runs it in repeated passes, each
as cold as a fresh process. On a shared 2-vCPU VM the same code's speed
drifts by up to 2x in spells of seconds to minutes (in CPU time too, so
not only steal), so every timing is scaled to a reference speed: the
kernel in ``speedref.py`` runs next to each op, and an op's time is
multiplied by REF_S over the median kernel time around it. An op's latency
is then the median of its passes; ``op_p50_ms`` and ``op_p90_ms`` are
Harrell-Davis quantiles of those latencies, ``ops_per_s`` is ops per second
of them summed. Set-up times are scaled the same way, by the kernel's time
on each CPU just before each start.

``--trace 0`` prints the end-to-end metrics. Set-up is timed SETUP_REPEATS
times, each a fresh interpreter from start to ``READY``; the middle one of
them goes on to measure. ``--trace 1`` prints the per-layer metrics from one
worker whose passes alternate untraced and traced: per-layer values are
totals per traced pass, and ``trace.overhead_frac`` compares the op time of
the two kinds of pass. Every op is checked against ``oracle.py`` or the
CLI goldens; a mismatch explained by a known defect of the package counts
against ``ok_frac`` but does not make the run incorrect. The last stdout
line is the JSON result; the lines before it give the environment, the
failure fraction with its base, and the mismatches. Details go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import speedref

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["certify-grid", "critical-gains", "converse-replay", "cli-corpus"]
SETUP_REPEATS = 9
SETUP_REF_REPS = 8
REF_WINDOW = {"cli-corpus": 5}  # ops each side whose kernel times scale an op; else 10
SHOWN_MISMATCHES = 30

SPANS = ["schemes.certify", "schemes.synthesize", "tridiag.critical_roots",
         "tridiag.root_alpha", "tridiag.zero_test", "dofcalc.closed_form", "dofcalc.bounds",
         "netmodel.build_channel", "converse.build", "converse.verify", "converse.entropy",
         "simulator.rank_trials", "simulator.slope", "simulator.offset"]
COUNTS = ["schemes.certify.rejected", "schemes.certify.subnets", "schemes.certify.blocks",
          "converse.verify.steps", "converse.verify.failed", "converse.entropy.failed",
          "simulator.rank_trials.svds"]
SUBCOMMANDS = ["mg", "bounds", "roots", "plan", "certify", "converse", "entropy",
               "simulate", "offset", "sweep", "random-check"]
LAYERS = ["tridiag", "netmodel", "dofcalc", "schemes", "converse", "simulator"]


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def spawn(root, env, workload, seed, budget, *extra):
    """Start a worker; returns (seconds until READY, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", str(budget), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=60 + 3 * budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out")
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}): "
                         f"{(first + out + err).strip()[-800:]}")
    return setup, (json.loads(out.strip().splitlines()[-1]) if "--setup-only" not in extra
                   else None)


def op_latencies(res, window, traced=False):
    """Each op's median latency over the (untraced or traced) passes, each
    latency scaled to the reference speed by the kernel times next to it."""
    passes = [speedref.scale(p, r, window)
              for p, r, t in zip(res["latencies"], res["refs"], res["traced"]) if t == traced]
    return [statistics.median(ts) for ts in zip(*passes)]


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks. One op moving past another shifts it a little, where it would
    make a single order statistic jump to its neighbour."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::64])
    return float(weights @ x / weights.sum())


def timed_setup(*spawn_args):
    """A worker's set-up time, scaled to the reference speed sampled on
    every CPU just before it starts."""
    ref = speedref.sample_cpus(SETUP_REF_REPS)
    setup, res = spawn(*spawn_args)
    return setup * speedref.REF_S / ref, res


def end_to_end(root, env, workload, seed, seconds):
    # Half the set-up-only starts come before the measuring worker and half
    # after it, so the median spans the run rather than one spell of speed.
    setups = [timed_setup(root, env, workload, seed, seconds, "--setup-only")[0]
              for _ in range(SETUP_REPEATS // 2)]
    setup, res = timed_setup(root, env, workload, seed, seconds)
    setups.append(setup)
    setups += [timed_setup(root, env, workload, seed, seconds, "--setup-only")[0]
               for _ in range(SETUP_REPEATS - 1 - SETUP_REPEATS // 2)]
    lat = op_latencies(res, REF_WINDOW.get(workload, 10))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * hd_quantile(lat, 0.9), "ms"),
        "ok_frac": (res["ok"] / res["attempted"], "frac"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    return [res], metrics


def per_layer(root, env, workload, seed, seconds, spans_out):
    _, res = spawn(root, env, workload, seed, seconds, "--trace", "--spans-out", spans_out)
    passes = sum(res["traced"])
    spans = res["spans"]
    metrics = {}
    for name in SPANS:
        s = spans.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (s["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / passes, "s")
    for name in COUNTS:
        metrics[name] = (res["counts"].get(name, 0) / passes, "count")
    imports = res["samples"].get("cli.import_s", [])
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    for sub in SUBCOMMANDS:
        s = spans.get(f"cli.{sub}")
        metrics[f"cli.{sub}.wall_s"] = (s["self_s"] / s["calls"] if s else 0.0, "s")
    total = sum(s["self_s"] for s in spans.values()) or 1.0
    for layer in LAYERS:
        mine = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer)
        metrics[f"trace.share.{layer}"] = (mine / total, "frac")
    cli_wall = sum(s["self_s"] for n, s in spans.items() if n.startswith("cli."))
    startup = min(sum(imports), cli_wall)
    metrics["trace.share.cli_startup_import"] = (startup / total, "frac")
    metrics["trace.share.cli_command"] = ((cli_wall - startup) / total, "frac")
    window = REF_WINDOW.get(workload, 10)
    metrics["trace.overhead_frac"] = (sum(op_latencies(res, window, True))
                                      / sum(op_latencies(res, window)) - 1, "frac")
    return [res], metrics


def measure(root, workload, seed, seconds, trace):
    env = child_env(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}")
    if trace:
        results, metrics = per_layer(root, env, workload, seed, seconds, stem + ".spans.jsonl")
    else:
        results, metrics = end_to_end(root, env, workload, seed, seconds)
    attempted = sum(r["attempted"] for r in results)
    not_ok = attempted - sum(r["ok"] for r in results)
    failed = sum(r["unexpected"] for r in results)
    known = sum(r["known"] for r in results)
    mismatches = [m for r in results for m in r["mismatches"]]
    env_info = results[-1]["env"]
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "env": env_info, "passes": [len(r["latencies"]) for r in results],
                   "metrics": metrics, "mismatches": mismatches}, fh, indent=1)
    print(f"# {workload} env: {json.dumps(env_info, sort_keys=True)}")
    print(f"# {workload} failed_frac = {not_ok}/{attempted} op runs = "
          f"{not_ok / attempted:.4f} (known defects {known}, unexpected {failed}); "
          f"passes {[len(r['latencies']) for r in results]}")
    for m in mismatches[:SHOWN_MISMATCHES]:
        print(f"#   [{m['known'] or 'UNEXPECTED'}] {m['op']}: {m['what']}")
    if len(mismatches) > SHOWN_MISMATCHES:
        print(f"#   ... {len(mismatches) - SHOWN_MISMATCHES} more in {stem}.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wynerdof", "__init__.py")):
        print("error: run from a checkout root; src/wynerdof is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(root, w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, r in results.items():
        print(f"# {w}: {json.dumps(r)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
