"""Each CLI command loads only the modules it runs.

Every case starts a fresh interpreter, runs ``cli.main`` on one command line
and reports which modules are then loaded.  The closed-form commands (mg,
bounds, roots) and plan synthesis never need numpy, from flags or from an
--instance file.  Neither does certify at equal or explicit gains when every
block is a window (its rank is the zero test's), from flags, from a --plan
file or from an --instance file, nor random-check at a fixed --alpha on
either topology, which loads neither schemes nor dofcalc, nor offset,
whose fit is a closed-form slope.  Only mg, bounds and a sweep's mg check
load dofcalc.  Certify, converse, entropy and simulate skip the modules they
do not call.  Every record is a NamedTuple, so no command loads
`dataclasses`, and a command without numpy loads no `inspect` either.
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
DOFCALC = "wynerdof.dofcalc"
RECORDS = {"dataclasses"}
REFLECTION = RECORDS | {"inspect"}

CASES = {
    "mg-asym": (["mg", *ASYM], NUMPY_AND_CHECKS),
    "mg-asym-root": (["mg", *ASYM, "--alpha", "root:3:1"], NUMPY_AND_CHECKS),
    "mg-asym-gains-seed": (["mg", *ASYM, "--gains-seed", "3"], NUMPY_AND_CHECKS),
    "mg-sym-root": (["mg", *SYM, "--alpha", "root:3:1"], NUMPY_AND_CHECKS),
    "mg-sym-gains-seed": (["mg", *SYM, "--gains-seed", "3"], NUMPY_AND_CHECKS),
    "bounds-root": (["bounds", *SYM, "--alpha", "root:4:2", "--verbose"], NUMPY_AND_CHECKS),
    "bounds-gains-seed": (["bounds", *SYM, "--gains-seed", "3", "--verbose"],
                          NUMPY_AND_CHECKS),
    "roots": (["roots", "--p", "30"], NUMPY_AND_CHECKS | {DOFCALC}),
    "plan-sym": (["plan", *SYM, "--alpha", "root:3:1"],
                 NUMPY_AND_CHECKS - {"wynerdof.schemes"} | {DOFCALC}),
    "plan-asym": (["plan", *ASYM], NUMPY_AND_CHECKS - {"wynerdof.schemes"} | {DOFCALC}),
    "certify": (["certify", *SYM, "--alpha", "0.3"],
                NUMPY_AND_CHECKS - {"wynerdof.schemes"} | {DOFCALC}),
    "converse": (["converse", "--family", "ub1", *SYM, "--alpha", "0.7", "--trials", "5"],
                 {"wynerdof.schemes", "wynerdof.simulator", DOFCALC}),
    "entropy": (["entropy", "--family", "ub1", *SYM, "--alpha", "0.9"],
                {"wynerdof.schemes", "wynerdof.simulator", DOFCALC}),
    "simulate": (["simulate", *SYM, "--alpha", "0.3"], {"wynerdof.converse", DOFCALC}),
    "offset": (["offset", "--L", "2", "--K", "11", "--alpha-star", "root:3:1",
                "--gap-min-exp", "3", "--gap-max-exp", "5"],
               {"numpy", "wynerdof.schemes", "wynerdof.converse", DOFCALC}),
    "random-check-sym-root": (["random-check", "--K", "20", "--topology", "symmetric",
                               "--alpha", "root:3:1"],
                              {"numpy", "wynerdof.schemes", "wynerdof.converse", DOFCALC}),
    "random-check-asym-root": (["random-check", "--K", "20", "--topology", "asymmetric",
                                "--alpha", "root:3:1"],
                               {"numpy", "wynerdof.schemes", "wynerdof.converse", DOFCALC}),
    "random-check": (["random-check", "--K", "8", "--topology", "symmetric", "--trials", "4"],
                     {"wynerdof.converse", DOFCALC}),
}
# root:3:1 zeroes every symmetric window of size 3, 7 and 11
EXIT_CODES = {"random-check-sym-root": 1}


INSTANCE = {"K": 12, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
            "topology": "symmetric"}
GAINS = {
    "equal": {"kind": "equal", "alpha": "root:3:1"},
    "explicit": {"kind": "explicit", "sub": [0.5 + k / 100 for k in range(11)],
                 "sup": [-0.7 - k / 100 for k in range(11)]},
}


def loaded_modules(argv, want_code=0):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == want_code
    assert "wynerdof.cli" in loaded
    return loaded


def forbidden(must_not_load):
    """must_not_load, plus the reflection modules no command needs: all of
    them where numpy is forbidden too, else `dataclasses` (numpy imports
    inspect itself)."""
    return must_not_load | (REFLECTION if "numpy" in must_not_load else RECORDS)


@pytest.mark.parametrize("name", CASES)
def test_a_command_loads_only_what_it_runs(name):
    argv, must_not_load = CASES[name]
    loaded = loaded_modules(argv, EXIT_CODES.get(name, 0))
    assert sorted(forbidden(must_not_load).intersection(loaded)) == []


def test_certify_reads_a_plan_file_without_numpy(tmp_path):
    from wynerdof import netmodel, schemes
    params = netmodel.NetworkParams(12, 1, 1, 1, 1)
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(schemes.plan_to_json(schemes.sym_symmetric_si_plan(params, 0.3))))
    loaded = loaded_modules(["certify", *SYM, "--alpha", "0.3", "--plan", str(f)])
    assert sorted(forbidden(NUMPY_AND_CHECKS).intersection(loaded)) == ["wynerdof.schemes"]


@pytest.mark.parametrize("kind", GAINS)
@pytest.mark.parametrize("command, must_not_load", [
    (["mg"], NUMPY_AND_CHECKS), (["bounds"], NUMPY_AND_CHECKS),
    (["plan", "--bound-label", "lb-combined"], NUMPY_AND_CHECKS - {"wynerdof.schemes"}),
], ids=["mg", "bounds", "plan"])
def test_an_instance_file_is_read_without_numpy(tmp_path, command, must_not_load, kind):
    f = tmp_path / "instance.json"
    f.write_text(json.dumps(dict(INSTANCE, gains=GAINS[kind])))
    loaded = loaded_modules([*command, "--instance", str(f)])
    assert sorted(forbidden(must_not_load).intersection(loaded)) == []


# equal gains certify the sym-si plan, whose blocks are windows; explicit
# ones have no such plan, and the lb-combined plan has scalar steps only
@pytest.mark.parametrize("kind, plan", [("equal", []), ("explicit", ["--bound-label", "lb-combined"])],
                         ids=GAINS)
def test_certify_reads_an_instance_file_without_numpy(tmp_path, kind, plan):
    f = tmp_path / "instance.json"
    f.write_text(json.dumps(dict(INSTANCE, gains=GAINS[kind])))
    loaded = loaded_modules(["certify", *plan, "--instance", str(f)])
    assert sorted(forbidden(NUMPY_AND_CHECKS).intersection(loaded)) == ["wynerdof.schemes"]
