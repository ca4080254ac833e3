"""End-to-end tests of the command-line interface via run_cli."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerfan
from eulerfan import parse_region_map_csv
from eulerfan.cli import run_cli

CLASSIFY_TWO_SHOCKS = ["classify", "--rho-minus", "1", "--rho-plus", "4",
                       "--v-minus2", "3.5", "--v-plus2", "0", "--gamma", "2"]
FEASIBLE = ["feasibility", "--rho-minus", "1", "--rho-plus", "4",
            "--v-minus2", "3.3", "--v-plus2", "0", "--gamma", "2"]
REGION = ["region-map", "--rho-minus", "1", "--v-minus2", "3.3", "--gamma", "2",
          "--rho-plus-range", "3.8", "4.2", "4",
          "--v-plus2-range", "-0.1", "0.1", "3"]


def child(argv):
    """Run a fresh interpreter that imports this eulerfan, installed or not."""
    src = str(Path(eulerfan.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_two_shock_datum(self, capsys):
        code, out, _ = run(capsys, CLASSIFY_TWO_SHOCKS)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "Case3_TwoShocks"
        assert doc["middle"]["rho"] == pytest.approx(4.08399517)

    def test_vacuum_datum(self, capsys):
        code, out, _ = run(capsys, [
            "classify", "--rho-minus", "1", "--rho-plus", "1",
            "--v-minus2", "0", "--v-plus2", "9", "--gamma", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "Vacuum"
        assert doc["middle"] is None

    def test_bad_gamma_is_an_input_error(self, capsys):
        code, _, err = run(capsys, [
            "classify", "--rho-minus", "1", "--rho-plus", "4",
            "--v-minus2", "3.5", "--v-plus2", "0", "--gamma", "0.5"])
        assert code == 2
        assert "error:" in err


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert run(capsys, CLASSIFY_TWO_SHOCKS + ["--frobnicate"])[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, ["classify", "--rho-minus", "1"])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, ["transmogrify"])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "classify" in out and "threshold" in out

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, eulerfan.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_is_installed(self):
        proc = child(["-m", "eulerfan.cli", "--help"])
        assert proc.returncode == 0
        assert "region-map" in proc.stdout


class TestThresholdCommands:
    def test_threshold_value(self, capsys):
        code, out, _ = run(capsys, [
            "threshold", "--rho-minus", "1", "--rho-plus", "4",
            "--v-plus2", "0", "--gamma", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["V"] == pytest.approx(2.69, abs=0.05)
        assert doc["sqrtT"] == pytest.approx(3.35410197)
        assert doc["note"] is None

    def test_table_exit_zero_when_clean(self, capsys):
        code, out, _ = run(capsys, [
            "threshold-table", "--rho-minus", "1", "--rho-plus", "4",
            "--gamma", "2", "--v-plus2", "-1", "0", "1"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["V_nondecreasing_in_v_plus2"] is True

    def test_table_exit_one_on_row_errors(self, capsys):
        code, out, _ = run(capsys, [
            "threshold-table", "--rho-minus", "2", "--rho-plus", "2",
            "--gamma", "2", "--v-plus2", "0"])
        assert code == 1
        doc = json.loads(out)
        assert "equal densities" in doc["rows"][0]["error"]


class TestFeasibilityCommand:
    def test_feasible_datum(self, capsys):
        code, out, _ = run(capsys, FEASIBLE)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["intervals"]
        assert doc["witness"]["rho_1"] is not None

    def test_infeasible_datum_exits_one(self, capsys):
        code, out, _ = run(capsys, [
            "feasibility", "--rho-minus", "1", "--rho-plus", "4",
            "--v-minus2", "0.5", "--v-plus2", "0", "--gamma", "2"])
        assert code == 1
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["witness"] is None

    def test_grid_below_two_nodes_is_an_input_error(self, capsys):
        code, _, err = run(capsys, FEASIBLE + ["--grid", "0"])
        assert code == 2
        assert "at least 2" in err

    def test_gap_beyond_bound_is_an_input_error(self, capsys):
        code, _, err = run(capsys, [
            "feasibility", "--rho-minus", "1", "--rho-plus", "4",
            "--v-minus2", "3.5", "--v-plus2", "0", "--gamma", "2"])
        assert code == 2
        assert "two-shock bound" in err


class TestWitnessWorkflow:
    def test_emit_then_verify(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, _, _ = run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        assert code == 0
        assert path.exists()
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_equality_residual"] <= 1e-9

    def test_tampered_witness_fails(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["beta"] += 1e-3
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_corrupt_json_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert "invalid witness JSON" in err

    @pytest.mark.parametrize("rho_1", [-1.0, float("nan")])
    def test_invalid_middle_density_is_an_input_error(self, capsys, tmp_path, rho_1):
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["rho_1"] = rho_1
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert "must be positive and finite" in err

    @pytest.mark.parametrize("name", ["gamma_2", "alpha"])
    def test_nan_parameter_is_an_input_error(self, capsys, tmp_path, name):
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[name] = float("nan")
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["verify", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in err


class TestRegionMapCommand:
    def test_stdout_csv_parses(self, capsys):
        code, out, err = run(capsys, REGION)
        assert code == 0
        assert err == ""
        cells = parse_region_map_csv(out)
        assert len(cells) == 12
        assert cells[0].rho_plus == pytest.approx(3.8)
        assert cells[0].v_plus2 == pytest.approx(-0.1)
        assert cells[3].rho_plus > cells[2].rho_plus

    def test_runs_are_deterministic(self, capsys):
        _, first, _ = run(capsys, REGION)
        _, second, _ = run(capsys, REGION)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, out, _ = run(capsys, REGION + ["--out", str(path)])
        assert code == 0
        assert out == ""
        cells = parse_region_map_csv(path.read_text(encoding="utf-8"))
        assert len(cells) == 12

    def test_cell_errors_go_to_stderr(self, capsys):
        code, out, err = run(capsys, [
            "region-map", "--rho-minus", "1", "--v-minus2", "0", "--gamma", "1",
            "--rho-plus-range", "1", "2", "2",
            "--v-plus2-range", "0", "80", "2"])
        assert code == 0
        assert "cells recorded errors" in err
        assert parse_region_map_csv(out)

    @pytest.mark.parametrize("flag, values", [
        ("--rho-plus-range", ["nan", "6", "3"]),
        ("--v-plus2-range", ["0", "nan", "3"]),
    ])
    def test_nan_grid_bound_is_an_input_error(self, capsys, flag, values):
        argv = ["region-map", "--rho-minus", "1", "--v-minus2", "0", "--gamma", "2",
                "--rho-plus-range", "1", "6", "3", "--v-plus2-range", "0", "1", "3"]
        i = argv.index(flag)
        argv[i + 1:i + 4] = values
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "finite" in err
