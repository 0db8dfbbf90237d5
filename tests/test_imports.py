"""Each CLI command loads only the modules it runs.

Every case starts a fresh interpreter, runs ``cli.main`` on one command line
and reports which modules are then loaded.  The closed-form commands (mg,
bounds, roots) and plan synthesis never need numpy, from flags or from an
--instance file; certify, converse, entropy and simulate skip the modules
they do not call.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, io, json, sys
from wynerdof import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

SI = ["--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1"]
SYM = ["--topology", "symmetric", "--K", "12", *SI]
ASYM = ["--topology", "asymmetric", "--K", "12", *SI]
NUMPY_AND_CHECKS = {"numpy", "wynerdof.schemes", "wynerdof.converse", "wynerdof.simulator"}

CASES = {
    "mg-asym": (["mg", *ASYM], NUMPY_AND_CHECKS),
    "mg-asym-root": (["mg", *ASYM, "--alpha", "root:3:1"], NUMPY_AND_CHECKS),
    "mg-asym-gains-seed": (["mg", *ASYM, "--gains-seed", "3"], NUMPY_AND_CHECKS),
    "mg-sym-root": (["mg", *SYM, "--alpha", "root:3:1"], NUMPY_AND_CHECKS),
    "mg-sym-gains-seed": (["mg", *SYM, "--gains-seed", "3"], NUMPY_AND_CHECKS),
    "bounds-root": (["bounds", *SYM, "--alpha", "root:4:2", "--verbose"], NUMPY_AND_CHECKS),
    "bounds-gains-seed": (["bounds", *SYM, "--gains-seed", "3", "--verbose"],
                          NUMPY_AND_CHECKS),
    "roots": (["roots", "--p", "30"], NUMPY_AND_CHECKS),
    "plan-sym": (["plan", *SYM, "--alpha", "root:3:1"],
                 NUMPY_AND_CHECKS - {"wynerdof.schemes"}),
    "plan-asym": (["plan", *ASYM], NUMPY_AND_CHECKS - {"wynerdof.schemes"}),
    "certify": (["certify", *SYM, "--alpha", "0.3"],
                {"wynerdof.converse", "wynerdof.simulator"}),
    "converse": (["converse", "--family", "ub1", *SYM, "--alpha", "0.7", "--trials", "5"],
                 {"wynerdof.schemes", "wynerdof.simulator"}),
    "entropy": (["entropy", "--family", "ub1", *SYM, "--alpha", "0.9"],
                {"wynerdof.schemes", "wynerdof.simulator"}),
    "simulate": (["simulate", *SYM, "--alpha", "0.3"], {"wynerdof.converse"}),
}


INSTANCE = {"K": 12, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
            "topology": "symmetric"}
GAINS = {
    "equal": {"kind": "equal", "alpha": "root:3:1"},
    "explicit": {"kind": "explicit", "sub": [0.5 + k / 100 for k in range(11)],
                 "sup": [-0.7 - k / 100 for k in range(11)]},
}


def loaded_modules(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "wynerdof.cli" in loaded
    return loaded


@pytest.mark.parametrize("name", CASES)
def test_a_command_loads_only_what_it_runs(name):
    argv, must_not_load = CASES[name]
    assert sorted(must_not_load.intersection(loaded_modules(argv))) == []


@pytest.mark.parametrize("kind", GAINS)
@pytest.mark.parametrize("command, must_not_load", [
    (["mg"], NUMPY_AND_CHECKS), (["bounds"], NUMPY_AND_CHECKS),
    (["plan", "--bound-label", "lb-combined"], NUMPY_AND_CHECKS - {"wynerdof.schemes"}),
], ids=["mg", "bounds", "plan"])
def test_an_instance_file_is_read_without_numpy(tmp_path, command, must_not_load, kind):
    f = tmp_path / "instance.json"
    f.write_text(json.dumps(dict(INSTANCE, gains=GAINS[kind])))
    loaded = loaded_modules([*command, "--instance", str(f)])
    assert sorted(must_not_load.intersection(loaded)) == []
