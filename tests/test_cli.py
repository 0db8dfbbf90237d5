import csv
import io
import json
import math

import pytest

from wynerdof import cli, schemes
from wynerdof.netmodel import NetworkParams


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMg:
    def test_asym_worked_example(self, capsys):
        code, out, _ = run(capsys, "mg", "--topology", "asymmetric", "--K", "7",
                           "--tl", "2", "--tr", "1", "--rl", "2", "--rr", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["lower"] == 6 and blob["upper"] == 6 and blob["exact"]

    def test_sym_with_root_token(self, capsys):
        code, out, _ = run(capsys, "mg", "--topology", "symmetric", "--K", "7",
                           "--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1",
                           "--alpha", "root:3:1")
        blob = json.loads(out)
        assert code == 0 and blob["lower"] == blob["upper"] == 5

    def test_missing_topology_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mg", "--K", "5")
        assert code == 2 and "error" in err

    def test_root_index_past_the_last_root_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mg", "--topology", "symmetric", "--K", "40",
                             "--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1",
                             "--alpha", "root:30:16")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "u_30 has 15 positive roots" in err

    @pytest.mark.parametrize("flag, shown", [
        (["--alpha", "nan"], "nan"), (["--alpha", "inf"], "inf"), (["--alpha=-inf"], "-inf"),
    ], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_gain_is_usage_error(self, capsys, flag, shown):
        code, out, err = run(capsys, "mg", "--topology", "symmetric", "--K", "7",
                             "--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1", *flag)
        assert code == 2 and out == ""
        assert err == f"error: cross-gain must be finite, got {shown}\n"


SI = ["--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1"]


class TestOneInstancePath:
    """Every instance command reads one instance: the --instance file, or the flags."""

    INSTANCE = {"K": 7, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
                "topology": "symmetric", "gains": {"kind": "equal", "alpha": "root:3:1"}}

    @pytest.mark.parametrize("extra", [[], ["--topology", "asymmetric", "--K", "9",
                                            "--alpha", "0.3"]], ids=["file", "file-and-flags"])
    @pytest.mark.parametrize("command", ["mg", "plan"])
    def test_an_instance_file_replaces_the_flags(self, capsys, tmp_path, command, extra):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(self.INSTANCE))
        want = run(capsys, command, "--topology", "symmetric", "--K", "7", *SI,
                   "--alpha", "root:3:1")
        assert want[0] == 0
        assert run(capsys, command, "--instance", str(f), *extra) == want

    @pytest.mark.parametrize("command", ["mg", "bounds", "plan", "certify"])
    def test_alpha_and_gains_seed_together_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--topology", "symmetric", "--K", "12", *SI,
                             "--alpha", "root:3:1", "--gains-seed", "3")
        assert (code, out, err) == (2, "", "error: give --alpha or --gains-seed, not both\n")

    def test_a_negative_gains_seed_is_usage_error_without_a_channel(self, capsys):
        code, out, err = run(capsys, "mg", "--topology", "symmetric", "--K", "7",
                             "--gains-seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_bounds_on_the_asymmetric_topology_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--topology", "asymmetric", "--K", "7",
                             "--tl", "1", "--alpha", "0.3")
        assert (code, out, err) == (2, "", "error: bounds lists the symmetric topology's "
                                           "bounds; use mg for the asymmetric one\n")

    def test_a_bad_alpha_is_usage_error_where_the_closed_form_ignores_it(self, capsys):
        code, out, err = run(capsys, "mg", "--topology", "asymmetric", "--K", "7",
                             "--alpha", "banana")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "banana" in err

    def test_entropy_rejects_a_genie_of_the_other_topology(self, capsys):
        code, out, err = run(capsys, "entropy", "--family", "asym", "--topology", "symmetric",
                             "--K", "10", "--tl", "1", "--rl", "1", "--alpha", "0.7")
        assert (code, out, err) == (
            2, "", "error: partition and model describe different instances\n")


class TestBounds:
    @pytest.mark.parametrize("gains", [["--gains-seed", "3"], ["--instance"]],
                             ids=["random", "explicit"])
    def test_unequal_gains_list_the_generic_bound_and_say_why_not_the_others(
            self, capsys, tmp_path, gains):
        if gains == ["--instance"]:
            f = tmp_path / "inst.json"
            f.write_text(json.dumps(dict(TestOneInstancePath.INSTANCE, K=12, gains={
                "kind": "explicit", "sub": [0.3 + 0.1 * i for i in range(11)],
                "sup": [-0.5] * 11})))
            gains = ["--instance", str(f)]
        code, out, err = run(capsys, "bounds", "--topology", "symmetric", "--K", "12", *SI,
                             *gains, "--verbose")
        assert (code, err) == (0, "")
        blob = json.loads(out)
        uppers = [b for b in blob["bounds"] if b["kind"] == "upper"]
        assert [(b["label"], b["applicable"], b.get("variant")) for b in uppers] == [
            ("ub-generic", True, None), ("ub-singular-left", False, None),
            ("ub-singular-right", False, None), ("ub-generic", True, "prose-threshold")]
        assert uppers[0]["value"] == 9
        assert all("equal" in b["reason"] for b in uppers[1:3])
        assert blob["interval"]["upper"] <= uppers[0]["value"]


class TestRoots:
    def test_order_three(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "3")
        blob = json.loads(out)
        assert code == 0
        assert [r["alpha"] for r in blob["roots"]] == pytest.approx(
            [-math.sqrt(2) / 2, math.sqrt(2) / 2], abs=1e-12)
        assert all(r["multiplicity"] == 1 for r in blob["roots"])


class TestConverse:
    def test_asym_family(self, capsys):
        code, out, _ = run(capsys, "converse", "--family", "asym",
                           "--topology", "asymmetric", "--K", "10",
                           "--tl", "1", "--rl", "1", "--alpha", "0.7",
                           "--trials", "100")
        blob = json.loads(out)
        assert code == 0
        assert blob["ok"] and blob["max_abs_error"] < 1e-9
        assert blob["bound"] == 8

    def test_ub2_needs_singular_gain(self, capsys):
        code, _, err = run(capsys, "converse", "--family", "ub2",
                           "--topology", "symmetric", "--K", "9",
                           "--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1",
                           "--alpha", "0.7")
        assert code == 2 and "singular" in err

    def test_entropy_rejects_unequal_gains_in_one_line(self, capsys):
        code, out, err = run(capsys, "entropy", "--family", "ub1",
                             "--topology", "symmetric", "--K", "12", "--tl", "1",
                             "--tr", "1", "--rl", "1", "--rr", "1", "--gains-seed", "3")
        assert code == 2 and out == ""
        assert err == "error: converse constructions need equal gains (--alpha)\n"

    @pytest.mark.parametrize("family", ["ub1", "ub2", "offset"])
    def test_mirror_relabels_every_symmetric_family(self, capsys, family):
        side = ["--tl", "1", "--tr", "0", "--rl", "1", "--rr", "2"]
        code, out, err = run(capsys, "converse", "--family", family, "--topology", "symmetric",
                             "--K", "11", *side, "--alpha", "root:3:1", "--mirror")
        blob = json.loads(out)
        assert code == 0 and err == ""
        assert blob["ok"] and blob["entropy_ok"]
        assert blob["partition"]["family"] == f"{family}-mirrored"

    @pytest.mark.parametrize("command, family", [("converse", "asym"), ("entropy", "ub1")])
    def test_mirror_on_the_asymmetric_channel_is_usage_error(self, capsys, command, family):
        code, out, err = run(capsys, command, "--family", family, "--topology", "asymmetric",
                             "--K", "10", "--tl", "1", "--rl", "1", "--alpha", "0.7", "--mirror")
        assert code == 2 and out == ""
        assert err == ("error: --mirror needs the symmetric topology: the asymmetric channel "
                       "is not reflection-invariant, so a mirrored recipe cannot replay on it\n")

    @pytest.mark.parametrize("q", range(2, 7))
    def test_offset_without_side_information(self, capsys, q):
        code, out, err = run(capsys, "converse", "--family", "offset", "--topology", "symmetric",
                             "--K", str(2 * q - 1), "--alpha", "0.5")
        blob = json.loads(out)
        assert code == 0 and err == ""
        assert blob["ok"] and blob["entropy_ok"] and blob["bound"] == q - 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, what", [
        (["converse", "--family", "ub1", "--K", "6", *SI, "--alpha", "1e-160"],
         "1e-160: the replay error"),
        (["converse", "--family", "asym", "--K", "7", *SI, "--alpha", "1e-160"],
         "1e-160: a geometric noise weight"),
        (["entropy", "--family", "ub1", "--K", "3", "--alpha", "1e-300"],
         "1e-300: the genie noise covariance"),
    ], ids=["converse-ub1", "converse-asym", "entropy-ub1"])
    def test_coefficients_that_overflow_are_usage_error(self, capsys, argv, what):
        code, out, err = run(capsys, *argv, "--topology", "symmetric")
        assert code == 2 and out == ""
        assert err == f"error: arithmetic overflows at alpha={what} is not finite\n"

    def test_a_step_naming_a_missing_genie_is_usage_error(self, capsys, monkeypatch):
        from wynerdof import converse
        ub1 = converse.build_sym_genie_ub1

        def missing_genie(params, alpha):  # step 0 names genie 7, which ub1 does not have
            g = ub1(params, alpha)
            step = g.steps[0]._replace(v_terms=((7, -1.0),))
            return g._replace(steps=(step,) + g.steps[1:])

        monkeypatch.setattr(converse, "build_sym_genie_ub1", missing_genie)
        code, out, err = run(capsys, "converse", "--family", "ub1", "--topology", "symmetric",
                             "--K", "12", *SI, "--alpha", "0.9")
        assert code == 2 and out == ""
        assert err == ("error: the step for output 1 uses genie 7, "
                       "which the partition does not have\n")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fewer_than_one_trial_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "converse", "--family", "ub1", "--topology", "symmetric",
                             "--K", "12", *SI, "--alpha", "0.7", "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: trials must be >= 1\n"

    @pytest.mark.parametrize("tol, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1")])
    def test_a_tolerance_that_is_negative_or_not_finite_is_usage_error(self, capsys, tol, shown):
        # an infinite tol passed any finite replay error; nan and -1 failed every one
        code, out, err = run(capsys, "converse", "--family", "ub1", "--topology", "symmetric",
                             "--K", "7", "--alpha", "0.3", "--tol", tol)
        assert code == 2 and out == ""
        assert err == f"error: tol must be finite and >= 0, got {shown}\n"


class TestPlanCertifyRoundTrip:
    def test_round_trip(self, capsys, tmp_path):
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.3"]
        code, out, _ = run(capsys, "plan", *argv)
        assert code == 0
        f = tmp_path / "plan.json"
        f.write_text(out)
        code2, out2, _ = run(capsys, "certify", *argv, "--plan", str(f))
        blob = json.loads(out2)
        assert code2 == 0 and blob["ok"] and blob["certified_dof"] == 6

    def test_certify_detects_gain_mismatch(self, capsys, tmp_path):
        plan_argv = ["--topology", "symmetric", "--K", "7", "--tl", "1",
                     "--tr", "1", "--rl", "1", "--rr", "1"]
        code, out, _ = run(capsys, "plan", *plan_argv, "--alpha", "0.3")
        f = tmp_path / "plan.json"
        f.write_text(out)
        # certifying the generic-gain pattern at the critical gain fails
        code2, out2, _ = run(capsys, "certify", *plan_argv,
                             "--alpha", "root:3:1", "--plan", str(f))
        assert code2 == 1
        assert not json.loads(out2)["ok"]

    def test_certify_agrees_with_mg_next_to_a_critical_gain(self, capsys, monkeypatch):
        # 0.70710678 is 1.2e-9 from root:3:1, so no window is singular
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.70710678"]
        code, out, _ = run(capsys, "mg", *argv)
        assert code == 0 and json.loads(out)["lower"] == 6
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, "certify", *argv)
        blob = json.loads(out)
        assert code == 0 and blob["ok"] and blob["certified_dof"] == 6

    def test_plan_read_from_stdin_only_with_dash(self, capsys, tmp_path, monkeypatch):
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.3"]
        _, plan, _ = run(capsys, "plan", *argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(plan))
        code, out, _ = run(capsys, "certify", *argv, "--plan", "-")
        assert code == 0 and json.loads(out)["certified_dof"] == 6

    @pytest.mark.parametrize("label", ["lb-combined", "lb-left-chain", "lb-right-chain",
                                       "lb-central-mimo"])
    def test_each_lower_bounds_plan_certifies_its_value(self, capsys, monkeypatch, label):
        # every chain plan here ends in a reduced tail segment; lb-right-chain
        # lays its segments out from antenna K, so its tail sits at the left end
        argv = ["--topology", "symmetric", "--K", "31", "--tl", "2", "--tr", "1",
                "--rl", "0", "--rr", "2", "--alpha", "0.3"]
        _, out, _ = run(capsys, "bounds", *argv)
        value, = [b["value"] for b in json.loads(out)["bounds"] if b["label"] == label]
        code, plan, _ = run(capsys, "plan", *argv, "--bound-label", label)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(plan))
        code, out, _ = run(capsys, "certify", *argv, "--plan", "-")
        blob = json.loads(out)
        assert code == 0 and blob["ok"] is True and blob["certified_dof"] == value

    def test_lb_combined_names_no_plan_that_does_not_apply(self, capsys):
        # it once delegated to lb-right-chain here, which does not apply either
        argv = ["plan", "--topology", "symmetric", "--K", "6", "--rr", "1", "--bound-label"]
        for label, reason in [("lb-combined", "side-information sum <= 2: nothing to prove"),
                              ("lb-right-chain",
                               "t_right+r_right <= 1: nothing to prove (bound <= 0)")]:
            assert run(capsys, *argv, label) == (2, "", f"error: {reason}\n")

    def test_instance_file_with_a_power_key_certifies_a_plan_file(self, capsys, tmp_path):
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.3"]
        _, plan, _ = run(capsys, "plan", *argv)
        (tmp_path / "plan.json").write_text(plan)
        instance = {"K": 7, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
                    "power": 2.0, "topology": "symmetric",
                    "gains": {"kind": "equal", "alpha": 0.3}}
        (tmp_path / "inst.json").write_text(json.dumps(instance))
        code, out, err = run(capsys, "certify", "--instance", str(tmp_path / "inst.json"),
                             "--plan", str(tmp_path / "plan.json"))
        assert code == 0 and err == "" and json.loads(out)["certified_dof"] == 6

    @pytest.mark.parametrize("rotation", [0, 5, -4])
    def test_rotation_outside_one_to_beta_is_usage_error(self, capsys, tmp_path, rotation):
        argv = ["--topology", "asymmetric", "--K", "9", "--tl", "1", "--rl", "1",
                "--alpha", "0.5"]
        blob = schemes.plan_to_json(schemes.asym_plan(NetworkParams(K=9, t_left=1, r_left=1)))
        blob["family"] = f"asym-rotation-{rotation}"  # beta = 4 here
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(blob))
        code, out, err = run(capsys, "certify", *argv, "--plan", str(f))
        assert code == 2 and out == ""
        assert err == f"error: asymmetric rotation {rotation} outside 1..4\n"

    def test_edited_plan_file_is_usage_error(self, capsys, tmp_path):
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.3"]
        _, plan, _ = run(capsys, "plan", *argv)
        blob = json.loads(plan)
        blob["family"] = "sym-si-case9"
        blob["subnets"] = [{"tx": list(range(1, 8)), "rx": list(range(1, 8)), "kind": "generic"}]
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(blob))
        code, out, err = run(capsys, "certify", *argv, "--plan", str(f))
        assert code == 2 and out == ""
        assert err == "error: plan JSON differs from the sym-si-case3 plan in: family, subnets\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: [], "plan JSON must be an object"),
        (lambda blob: None, "plan JSON must be an object"),
        (lambda blob: dict(blob, K=[7]), "plan field 'K' must be an integer"),
        (lambda blob: dict(blob, family=3), "plan field 'family' must be a string"),
    ], ids=["list", "null", "K-list", "family-int"])
    def test_ill_typed_plan_file_is_usage_error(self, capsys, tmp_path, edit, message):
        argv = ["--topology", "symmetric", "--K", "7", "--alpha", "0.3"]
        _, plan, _ = run(capsys, "plan", *argv)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(edit(json.loads(plan))))
        code, out, err = run(capsys, "certify", *argv, "--plan", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: [], "instance JSON must be an object"),
        (lambda blob: None, "instance JSON must be an object"),
        (lambda blob: dict(blob, K=[7]), "instance field 'K' must be an integer"),
        (lambda blob: dict(blob, gains=3),
         "instance field 'gains' must be an object with a string 'kind'"),
        (lambda blob: dict(blob, gains={"kind": "explicit", "sub": 3}),
         "gains field 'sub' must be a list of numbers"),
        (lambda blob: dict(blob, gains={"kind": "random", "seed": [1]}),
         "gains field 'seed' must be an integer"),
    ], ids=["list", "null", "K-list", "gains-int", "sub-int", "seed-list"])
    def test_ill_typed_instance_file_is_usage_error(self, capsys, tmp_path, edit, message):
        instance = {"K": 7, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
                    "topology": "symmetric", "gains": {"kind": "equal", "alpha": 0.3}}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(edit(instance)))
        code, out, err = run(capsys, "certify", "--instance", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["mg", "bounds", "certify"])
    @pytest.mark.parametrize("edit, message", [
        (lambda blob: dict(blob, topology="ring"), "unknown topology 'ring'"),
        (lambda blob: dict(blob, gains={"kind": "explicit", "sub": [0.5] * 3, "sup": [0.4] * 6}),
         "expected 6 sub-diagonal gains, got 3"),
        (lambda blob: dict(blob, gains={"kind": "explicit", "sub": [0.5] * 6}),
         "symmetric topology needs super-diagonal gains"),
        (lambda blob: dict(blob, gains={"kind": "explicit", "sub": [0.5] * 6, "sup": [0.4] * 7}),
         "expected 6 super-diagonal gains, got 7"),
    ], ids=["topology", "sub-count", "no-sup", "sup-count"])
    def test_an_instance_file_that_fits_no_channel_is_usage_error(self, capsys, tmp_path,
                                                                  command, edit, message):
        instance = {"K": 7, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
                    "topology": "symmetric", "gains": {"kind": "equal", "alpha": 0.3}}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(edit(instance)))
        code, out, err = run(capsys, command, "--instance", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_a_bool_gain_in_an_instance_file_is_usage_error(self, capsys, tmp_path):
        instance = {"K": 7, "t_left": 1, "t_right": 1, "r_left": 1, "r_right": 1,
                    "topology": "symmetric", "gains": {"kind": "equal", "alpha": True}}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(instance))
        code, out, err = run(capsys, "certify", "--instance", str(f))
        assert (code, out, err) == (
            2, "", "error: cross-gain must be a number or root token, got True\n")

    def test_certify_without_plan_ignores_a_non_tty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, err = run(capsys, "certify", "--topology", "symmetric", "--K", "7",
                             "--tl", "1", "--tr", "1", "--rl", "1", "--rr", "1",
                             "--alpha", "0.3")
        assert code == 0 and err == ""
        assert json.loads(out)["ok"]


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ("bounds", "--topology", "symmetric", "--K", "12", "--tl", "1",
                "--tr", "1", "--rl", "1", "--rr", "1", "--alpha", "0.3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestSweep:
    def test_rows_in_instance_order(self, capsys, tmp_path):
        spec = {"K": [5, 7], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
                "alpha": [0.3, "root:3:1"], "checks": ["mg", "certify"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "sweep", "--spec", str(f), "--jobs", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3"]

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        spec = {"K": [5, 6, 7], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
                "alpha": [0.4], "checks": ["mg", "certify", "converse"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        _, seq, _ = run(capsys, "sweep", "--spec", str(f), "--jobs", "1")
        _, par, _ = run(capsys, "sweep", "--spec", str(f), "--jobs", "4")
        assert seq == par
        assert "error" not in seq.splitlines()[0]

    def test_a_row_that_does_not_apply_keeps_the_sweep_going(self, capsys, tmp_path):
        spec = {"K": [7], "tl": [1], "tr": [0, 1], "rl": [1], "rr": [1],
                "alpha": [0.3, "root:3"], "checks": ["certify"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["index"], r["tr"], r["alpha"]) for r in rows] == [
            ("0", "0", "0.3"), ("1", "0", "root:3"), ("2", "1", "0.3"), ("3", "1", "root:3")]
        assert rows[0]["error"] == "requires symmetric side-information"
        assert rows[0]["certified"] == ""
        assert rows[1]["error"].startswith("bad root token 'root:3'") and "," in rows[1]["error"]
        assert rows[2]["error"] == "" and rows[2]["certified"] == "6"


    @pytest.mark.filterwarnings("error")
    def test_a_converse_that_overflows_gets_an_error_cell(self, capsys, tmp_path):
        spec = {"topology": "symmetric", "K": [6], "tl": [1], "tr": [1], "rl": [1],
                "rr": [1], "alpha": [0.3, 1e-160], "checks": ["converse"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["converse_ok"], r["error"]) for r in rows] == [
            ("True", ""),
            ("", "arithmetic overflows at alpha=1e-160: the replay error is not finite")]

    def test_a_non_finite_gain_gets_an_error_cell(self, capsys, tmp_path):
        spec = {"K": [7], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
                "alpha": [0.3, "nan"], "checks": ["mg"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["alpha"], r["error"]) for r in rows] == [
            ("0.3", ""), ("nan", "cross-gain must be finite, got nan")]
        assert rows[0]["mg_lower"] != "" and rows[1]["mg_lower"] == ""

    def test_a_bool_gain_gets_an_error_cell(self, capsys, tmp_path):
        spec = {"K": [7], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
                "alpha": [True, 0.3], "checks": ["mg", "certify"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["alpha"], r["error"]) for r in rows] == [
            ("True", "cross-gain must be a number or root token, got True"), ("0.3", "")]
        assert rows[0]["mg_lower"] == rows[0]["certified"] == ""
        assert rows[1]["certified"] == "6"

    @pytest.mark.parametrize("topology", ["asymmetric", "symmetric"])
    def test_a_spec_without_alpha_names_no_gain(self, capsys, tmp_path, topology):
        spec = {"K": [7, 12], "tl": [1], "tr": [1], "rl": [1], "rr": [1],
                "topology": topology, "checks": ["mg"]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 and "alpha" not in rows[0]
        for row in rows:
            code, text, err = run(capsys, "mg", "--topology", topology, "--K", row["K"], *SI)
            if topology == "asymmetric":
                blob = json.loads(text)
                assert code == 0 and row.get("error", "") == ""
                assert (row["mg_lower"], row["mg_upper"]) == (str(blob["lower"]),
                                                              str(blob["upper"]))
            else:
                assert code == 2 and row.get("mg_lower", "") == ""
                assert row["error"] == err.removeprefix("error: ").rstrip("\n")
                assert row["error"] == "symmetric topology needs --alpha or --gains-seed"

    @pytest.mark.parametrize("spec, message", [
        ([], "sweep spec must be a JSON object"),
        ({"tl": [1]}, "sweep spec 'K' must be a list"),
        ({"K": 7}, "sweep spec 'K' must be a list"),
        ({"K": [7], "alpha": 0.3}, "sweep spec 'alpha' must be a list"),
        ({"K": [7], "checks": "mg"}, "sweep spec 'checks' must be a list of mg, certify, converse"),
        ({"K": [7], "checks": ["mg", "rank"]},
         "sweep spec 'checks' must be a list of mg, certify, converse"),
        ({"K": [7], "topology": ["symmetric"]}, "sweep spec 'topology' must be a string"),
    ])
    def test_a_malformed_spec_exits_2_with_one_line(self, capsys, tmp_path, spec, message):
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_non_integer_size_gets_an_error_cell(self, capsys, tmp_path):
        spec = {"K": [7.5, 7, True], "tl": [1], "tr": [1], "rl": [1], "rr": [False],
                "alpha": [0.3]}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "sweep", "--spec", str(f))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["error"] for r in rows] == [
            "K must be an integer, got 7.5", "rr must be an integer, got False",
            "K must be an integer, got True"]

    @pytest.mark.parametrize("topology", ["asymmetric", "symmetric"])
    def test_each_row_equals_the_commands(self, capsys, tmp_path, topology):
        spec = {"K": [6, 9], "tl": [0, 1], "tr": [1], "rl": [1], "rr": [0, 1],
                "alpha": [0.4, "root:3:1"], "checks": ["mg", "certify", "converse"],
                "topology": topology}
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "sweep", "--spec", str(f))
        assert code == 0
        family = "asym" if topology == "asymmetric" else "ub1"
        steps = [
            ("mg", [], lambda b: {"mg_lower": b["lower"], "mg_upper": b["upper"]}),
            ("certify", [], lambda b: {"certified": b["certified_dof"] if b["ok"] else -1}),
            ("converse", ["--family", family, "--trials", "20"],
             lambda b: {"converse_bound": b["bound"], "converse_ok": b["ok"]}),
        ]
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            argv = ["--topology", topology, "--alpha", row["alpha"],
                    *(x for k in ("K", "tl", "tr", "rl", "rr") for x in (f"--{k}", row[k]))]
            want = dict.fromkeys(["mg_lower", "mg_upper", "certified", "converse_bound",
                                  "converse_ok", "error"], "")
            for command, extra, cells in steps:
                code, text, err = run(capsys, command, *argv, *extra)
                if code == 2:
                    want["error"] = err.removeprefix("error: ").rstrip("\n")
                    break
                want.update((k, str(v)) for k, v in cells(json.loads(text)).items())
            assert {k: row.get(k, "") for k in want} == want, row["index"]
        assert len(rows) == 16 and any(row.get("error") for row in rows) == (family == "ub1")


class TestSimulateAndOffset:
    def test_simulate_csv(self, capsys):
        code, out, err = run(capsys, "simulate", "--topology", "symmetric",
                             "--K", "7", "--tl", "1", "--tr", "1", "--rl", "1",
                             "--rr", "1", "--alpha", "0.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "P,sum_rate_nats,plan_id"
        assert "slope=6.0" in err

    def test_offset_csv(self, capsys):
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7",
                             "--alpha-star", "root:3:1")
        assert code == 0
        assert out.splitlines()[0] == "alpha,offset_proxy"
        assert "fitted_nu=" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, shown", [
        (["--pmin", "-5"], "-5 and 1e+14"), (["--pmax", "1e400"], "1000 and inf"),
        (["--pmin", "nan"], "nan and 1e+14"),
    ], ids=["negative", "inf", "nan"])
    def test_a_non_positive_or_non_finite_power_is_usage_error(self, capsys, flag, shown):
        code, out, err = run(capsys, "simulate", "--topology", "symmetric", "--K", "7", *SI,
                             "--alpha", "0.3", *flag)
        assert code == 2 and out == ""
        assert err == f"error: powers must be positive and finite, got {shown}\n"

    def test_a_negative_l_is_usage_error(self, capsys):
        code, out, err = run(capsys, "offset", "--L", "-1", "--K", "7", "--alpha-star", "0.5")
        assert code == 2 and out == ""
        assert err == "error: L must be >= 0, got -1\n"

    @pytest.mark.parametrize("alpha_star, shown", [("0", "0.0"), ("0.3", "0.3"),
                                                    ("root:2:1", "root:2:1")])
    def test_an_alpha_star_that_is_no_root_is_usage_error(self, capsys, alpha_star, shown):
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7",
                             "--alpha-star", alpha_star)
        assert code == 2 and out == ""
        assert err == f"error: alpha* must be a root of u_3, got {shown}\n"

    @pytest.mark.parametrize("lo, hi, n", [("5", "4", 0), ("4", "4", 1)],
                             ids=["no-gap", "one-gap"])
    def test_fewer_than_two_gaps_is_usage_error(self, capsys, lo, hi, n):
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7", "--alpha-star",
                             "root:3:1", "--gap-min-exp", lo, "--gap-max-exp", hi)
        assert code == 2 and out == ""
        assert err == f"error: the alpha grid needs at least two gaps, got {n}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, msg", [
        ("-1100", "--gap-min-exp -1100 makes a gap 2^1100, which overflows a float"),
        ("-1000", "arithmetic overflows at alpha=1.0715086071862673e+301: "
                  "the offset proxy is not finite"),
    ], ids=["gap-overflows", "proxy-overflows"])
    def test_a_gap_too_large_for_a_float_is_usage_error(self, capsys, lo, msg):
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7", "--alpha-star",
                             "root:3:1", "--gap-min-exp", lo)
        assert code == 2 and out == ""
        assert err == f"error: {msg}\n"

    # 2^-1070 underflows to no gap at all, and 2^-55 is below half a float
    # step of alpha* = 0.7071..., so alpha* + 2^-55 == alpha*
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, gone", [("1070", "1080", 1070), ("50", "60", 55)],
                             ids=["underflows", "absorbed"])
    def test_a_gap_too_small_to_move_alpha_star_is_usage_error(self, capsys, lo, hi, gone):
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7", "--alpha-star",
                             "root:3:1", "--gap-min-exp", lo, "--gap-max-exp", hi)
        assert code == 2 and out == ""
        assert err == (f"error: --gap-max-exp {hi} reaches the gap 2^-{gone}, which vanishes "
                       f"next to alpha*=0.7071067811865476 in floats\n")

    def test_gaps_that_round_to_one_gain_are_usage_error(self, capsys):
        # alpha* + 2^-54 rounds to alpha* + 2^-53, one float step
        code, out, err = run(capsys, "offset", "--L", "2", "--K", "7", "--alpha-star",
                             "root:3:1", "--gap-min-exp", "53", "--gap-max-exp", "54")
        assert code == 2 and out == ""
        assert err == "error: the alpha grid needs two gaps that give distinct gains\n"


class TestRandomCheck:
    def test_random_gains_pass(self, capsys):
        code, out, _ = run(capsys, "random-check", "--K", "10",
                           "--topology", "symmetric", "--trials", "10",
                           "--seed", "2")
        assert code == 0 and json.loads(out)["failures"] == 0

    def test_negative_control_exits_one(self, capsys):
        code, out, _ = run(capsys, "random-check", "--K", "10",
                           "--topology", "symmetric", "--trials", "1",
                           "--seed", "0", "--alpha", "root:3:1")
        assert code == 1 and json.loads(out)["failures"] > 0

    @pytest.mark.parametrize("K, topology, alpha", [
        ("7", "symmetric", "0.70710678"),  # 1.2e-9 from root:3:1, which is no root
        ("12", "asymmetric", "10"),        # every window is unit lower-triangular
    ])
    def test_a_gain_that_is_no_root_loses_no_window(self, capsys, K, topology, alpha):
        code, out, err = run(capsys, "random-check", "--K", K, "--topology", topology,
                             "--alpha", alpha)
        assert code == 0 and err == "" and json.loads(out)["failures"] == 0

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "random-check", "--K", "10",
                             "--topology", "symmetric", "--seed", "-3")
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, got -3\n"
