"""Measure one workload in a fresh interpreter (started by run.py).

    python3 bench/worker.py --workload W --seed N --budget S
                            [--trace] [--spans-out FILE] [--setup-only]

Imports ``wynerdof`` from ``src/`` of the checkout and builds the seed's ops,
then prints ``READY``: run.py times start-up to that line as set-up. It then
runs every op in as many passes as fit in S seconds (judged by the first;
with ``--trace`` every other pass is traced), emptying the package's caches
before each pass so every pass is as cold as a fresh process. Each op is timed around its calls into the
package only; its checks run outside the timed region. The last line is a
JSON object with the latencies per pass, check outcomes, per-span totals
and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_REF_REPS = 8  # kernel runs per CPU before a CLI op, which lasts about 0.4 s


def clear_caches() -> None:
    """Empty every module-level cache of the package."""
    for name, mod in list(sys.modules.items()):
        if name == "wynerdof" or name.startswith("wynerdof."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def blas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, else the env cap."""
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return os.path.basename(path), int(getattr(lib, sym)())
    return "unknown", int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def environment() -> dict:
    import numpy
    lib, threads = blas_threads()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": lib, "blas_threads": threads,
            "machine": platform.machine()}


def run_passes(ops, T, budget, alternate, children=False):
    """Run every op per pass; returns latencies per pass and check outcomes.

    Before each op the reference kernel runs, untimed as part of the op, on
    every CPU when the ops run in child processes; its time is kept beside
    the op's latency so run.py can scale the latency to the reference speed.

    With ``alternate``, odd passes are traced and even ones are not, so the
    two kinds share the machine's state and their difference is the cost of
    tracing; the pass count is then even.
    """
    import speedref  # after READY: its numpy import is not the package's set-up
    ref = (lambda: speedref.sample_cpus(CLI_REF_REPS)) if children else speedref.sample
    latencies, refs, traced, mismatches, seen = [], [], [], [], set()
    ok = unexpected = known = 0
    step = 2 if alternate else 1
    target = 0
    t_begin = perf_counter()
    while True:
        clear_caches()
        T.on = alternate and len(latencies) % 2 == 1
        traced.append(T.on)
        latencies.append([])
        refs.append([])
        for op in ops:
            T.op += 1
            refs[-1].append(ref())
            t0 = perf_counter()
            try:
                res = op.run(T)
                bad = None
            except Exception as exc:  # one bad op must not end the run
                bad = [(f"raised {exc!r}", None)]
            latencies[-1].append(perf_counter() - t0)
            if bad is None:
                bad = op.check(res)
            if not bad:
                ok += 1
            elif all(tag for _, tag in bad):
                known += 1
            else:
                unexpected += 1
            for what, tag in bad:
                if (op.label, what) not in seen:
                    seen.add((op.label, what))
                    mismatches.append({"op": op.label, "what": what, "known": tag})
        if len(latencies) % step:
            continue
        elapsed = perf_counter() - t_begin
        if not target:
            target = step * max(1, round(budget / elapsed))
        if len(latencies) >= target or elapsed * (1 + step / len(latencies)) > 1.25 * budget:
            break
    return {"latencies": latencies, "refs": refs, "traced": traced,
            "attempted": sum(map(len, latencies)), "ok": ok, "known": known,
            "unexpected": unexpected, "mismatches": mismatches}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import wynerdof  # cold import: part of set-up
    src = os.path.join(ROOT, "src", "wynerdof")
    if os.path.dirname(os.path.abspath(wynerdof.__file__)) != src:
        print(f"wynerdof imported from {wynerdof.__file__}, not {src}", file=sys.stderr)
        return 3
    from tracer import Tracer

    workdir = None
    try:
        if args.workload == "cli-corpus":
            import corpus
            workdir = os.path.join(ROOT, ".bench_out", f"cli-{os.getpid()}")
            corpus.prepare(workdir)
            ops = corpus.ops(args.seed, workdir, dict(os.environ))
        else:
            import workloads
            ops = workloads.WORKLOADS[args.workload](args.seed)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        T = Tracer(False)
        result = run_passes(ops, T, args.budget, args.trace, args.workload == "cli-corpus")
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    if args.spans_out:
        T.dump(args.spans_out)
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(spans=T.layer_totals(), counts=dict(T.counts), samples=dict(T.samples),
                  peak_rss_kb=rss, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
