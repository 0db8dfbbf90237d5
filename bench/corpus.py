"""cli-corpus: a fixed list of CLI commands, each in its own interpreter.

Every command runs as ``python -m wynerdof.cli ...`` with stdin on
/dev/null, one at a time; its stdout and exit code must equal the golden
files in ``golden/``. ``certify`` always gets ``--plan <file>``, written by
the ``plan`` command just before it: without ``--plan`` the CLI reads a
non-TTY stdin as a plan and exits 2.

Re-record the goldens (only when the CLI output is meant to change) with

    python3 bench/corpus.py --record
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

SI = ["--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1"]
SWEEP_SPEC = {"K": [8, 15, 30, 60], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
              "alpha": [0.3, "root:3:1", 1.7, "root:5:2"],
              "checks": ["mg", "certify", "converse"]}

# (name, argv). A name ending in ".plan" saves its stdout as <name>.json in
# the work directory; the certify command after it reads that file.
COMMANDS = [
    ("mg-asym", ["mg", "--topology", "asymmetric", "--K", "7", "--tl", "2", "--tr", "1",
                 "--rl", "2", "--rr", "1"]),
    ("mg-root25", ["mg", "--topology", "symmetric", "--K", "80", "--tl", "12", "--tr", "12",
                   "--rl", "12", "--rr", "12", "--alpha", "root:25:9"]),
    ("mg-random", ["mg", "--topology", "symmetric", "--K", "40", "--tl", "2", "--tr", "1",
                   "--rl", "1", "--rr", "2", "--gains-seed", "5"]),
    ("mg-bad-K", ["mg", "--topology", "symmetric", "--K", "0", *SI, "--alpha", "0.3"]),
    ("bounds-verbose", ["bounds", "--topology", "symmetric", "--K", "31", "--tl", "2",
                        "--tr", "0", "--rl", "1", "--rr", "3", "--alpha", "root:4:2",
                        "--verbose"]),
    ("roots-30", ["roots", "--p", "30"]),
    ("k200.plan", ["plan", "--topology", "symmetric", "--K", "200", *SI,
                   "--alpha", "root:3:1"]),
    ("certify-k200", ["certify", "--topology", "symmetric", "--K", "200", *SI,
                      "--alpha", "root:3:1", "--plan", "k200.plan.json"]),
    ("neg.plan", ["plan", "--topology", "symmetric", "--K", "30", *SI, "--alpha", "0.3"]),
    ("certify-negative", ["certify", "--topology", "symmetric", "--K", "30", *SI,
                          "--alpha", "root:3:1", "--plan", "neg.plan.json"]),
    ("asym.plan", ["plan", "--topology", "asymmetric", "--K", "40", "--tl", "1", "--tr", "2",
                   "--rl", "0", "--rr", "1"]),
    ("certify-asym", ["certify", "--topology", "asymmetric", "--K", "40", "--tl", "1",
                      "--tr", "2", "--rl", "0", "--rr", "1", "--alpha", "0.8",
                      "--plan", "asym.plan.json"]),
    ("converse-ub2", ["converse", "--family", "ub2", "--topology", "symmetric", "--K", "9",
                      "--tl", "0", "--tr", "1", "--rl", "2", "--rr", "1",
                      "--alpha", "root:3:1"]),
    ("converse-ub1", ["converse", "--family", "ub1", "--topology", "symmetric", "--K", "40",
                      "--tl", "1", "--tr", "2", "--rl", "1", "--rr", "1", "--alpha", "0.7",
                      "--trials", "300"]),
    ("converse-asym", ["converse", "--family", "asym", "--topology", "asymmetric", "--K", "30",
                       "--tl", "2", "--tr", "1", "--rl", "1", "--rr", "0", "--alpha", "1.3"]),
    ("entropy-ub1", ["entropy", "--family", "ub1", "--topology", "symmetric", "--K", "12",
                     *SI, "--alpha", "0.9"]),
    ("simulate", ["simulate", "--topology", "symmetric", "--K", "7", *SI, "--alpha", "0.3"]),
    ("offset", ["offset", "--L", "2", "--K", "7", "--alpha-star", "root:3:1"]),
    ("sweep-jobs1", ["sweep", "--spec", "sweep.json", "--jobs", "1"]),
    ("sweep-jobs2", ["sweep", "--spec", "sweep.json", "--jobs", "2"]),
    ("random-check", ["random-check", "--K", "20", "--topology", "symmetric",
                      "--trials", "40", "--seed", "3"]),
    ("random-check-critical", ["random-check", "--K", "20", "--topology", "symmetric",
                               "--trials", "1", "--alpha", "root:3:1"]),
]


def units() -> list:
    """Commands grouped so that a plan stays right before its certify."""
    out = []
    for name, argv in COMMANDS:
        if out and out[-1][-1][0].endswith(".plan"):
            out[-1].append((name, argv))
        else:
            out.append([(name, argv)])
    return out


def prepare(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "sweep.json"), "w") as fh:
        json.dump(SWEEP_SPEC, fh)


def run_command(name, argv, workdir, env, importtime=False):
    """Run one command; returns (stdout bytes, exit code, stderr text)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        ["-m", "wynerdof.cli", *argv]
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    if name.endswith(".plan"):
        with open(os.path.join(workdir, name + ".json"), "wb") as fh:
            fh.write(proc.stdout)
    return proc.stdout, proc.returncode, proc.stderr.decode(errors="replace")


def import_seconds(stderr: str) -> float:
    """Total of the top-level cumulative times in ``-X importtime`` output."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        if not parts[2].startswith("  "):  # nested imports are indented
            total += int(parts[1])
    return total / 1e6


def ops(seed, workdir, env) -> list:
    """Every command once, in an order drawn from the seed, checked against
    its golden stdout and exit code."""
    import random

    from workloads import Op
    goldens = load_goldens()

    def op(name, argv):
        def run(T):
            out, code, err = T(f"cli.{argv[0]}", run_command, name, argv, workdir, env,
                               importtime=T.on)
            if T.on:
                T.sample("cli.import_s", import_seconds(err))
            return out, code, err

        def check(res):
            out, code, err = res
            want_out, want_code = goldens[name]
            bad = []
            if code != want_code:
                bad.append((f"exit {code} vs golden {want_code}: {err.strip()[-200:]}", None))
            if out != want_out:
                bad.append((f"stdout differs from golden ({len(out)} vs {len(want_out)} bytes)",
                            None))
            return bad

        return Op(name, run, check)

    groups = units()
    random.Random(seed).shuffle(groups)
    return [op(name, argv) for group in groups for name, argv in group]


def load_goldens() -> dict:
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        codes = json.load(fh)
    out = {}
    for name, _ in COMMANDS:
        with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
            out[name] = (fh.read(), codes[name])
    return out


def record(root: str) -> None:
    import tempfile
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory(dir=root) as workdir:
        prepare(workdir)
        for name, argv in COMMANDS:
            out, code, _ = run_command(name, argv, workdir, env)
            with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
                fh.write(out)
            codes[name] = code
            print(f"{name}: exit {code}, {len(out)} bytes")
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/corpus.py --record")
    record(os.path.dirname(HERE))
