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


    @pytest.mark.parametrize("q", range(2, 7))
    def test_offset_without_side_information(self, capsys, q):
        code, out, err = run(capsys, "converse", "--family", "offset", "--topology", "symmetric",
                             "--K", str(2 * q - 1), "--alpha", "0.5")
        blob = json.loads(out)
        assert code == 0 and err == ""
        assert blob["ok"] and blob["entropy_ok"] and blob["bound"] == q - 1


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

    def test_plan_read_from_stdin_only_with_dash(self, capsys, tmp_path, monkeypatch):
        argv = ["--topology", "symmetric", "--K", "7", "--tl", "1", "--tr", "1",
                "--rl", "1", "--rr", "1", "--alpha", "0.3"]
        _, plan, _ = run(capsys, "plan", *argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(plan))
        code, out, _ = run(capsys, "certify", *argv, "--plan", "-")
        assert code == 0 and json.loads(out)["certified_dof"] == 6

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
