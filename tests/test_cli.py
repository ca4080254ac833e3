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
    def test_overflowing_pressure_is_an_input_error(self, capsys):
        code, out, err = run(capsys, [
            "classify", "--rho-minus", "1e200", "--rho-plus", "4",
            "--v-minus2", "3.3", "--v-plus2", "0", "--gamma", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: rho_minus = 1e+200 has no finite pressure")

    @pytest.mark.parametrize("argv, message", [
        (["region-map", "--rho-minus", "-1", "--v-minus2", "3.3"],
         "rho_minus must be positive and finite, got -1.0"),
        (["region-map", "--rho-minus", "1", "--v-minus2", "nan"],
         "v_minus2 must be finite with a finite momentum flux rho_minus*v_minus2**2, "
         "got nan with rho_minus = 1.0"),
        (["region-map", "--rho-minus", "1", "--v-minus2", "3.3", "--v1", "1e200"],
         "v1 must be finite with a finite momentum flux rho_minus*v1**2, "
         "got 1e+200 with rho_minus = 1.0"),
        (["threshold-table", "--rho-minus", "1", "--rho-plus", "1", "--v-plus2", "0"],
         "equal densities 1.0 leave no middle-density interval"),
        (["threshold-table", "--rho-minus", "1", "--rho-plus", "1.00000001",
          "--v-plus2", "0", "1"],
         "densities 1.0 and 1.00000001 are too close to place a grid of 2048 middle "
         "densities strictly between them"),
        (["threshold-table", "--rho-minus", "1", "--rho-plus", "1e-320", "--v-plus2", "0"],
         "densities rho_minus = 1.0 and rho_plus = 1e-320 have no positive normal float "
         "product rho_minus*rho_plus"),
        (["feasibility", "--rho-minus", "1", "--rho-plus", "1", "--v-minus2", "3.3",
          "--v-plus2", "0"],
         "equal densities 1.0 leave no middle-density interval"),
    ], ids=["region_map_density", "region_map_v_minus2", "region_map_v1",
            "table_equal_densities", "table_close_densities", "table_density_pair",
            "feasibility_equal_densities"])
    def test_input_every_row_or_cell_shares_is_an_input_error(self, capsys, argv, message):
        """What every cell of a map, every row of a table or every node
        of a scan shares is checked once: exit 2, one error line and
        nothing on stdout."""
        region = ["--rho-plus-range", "1.5", "6", "2", "--v-plus2-range", "-2", "2", "2"]
        extra = region if argv[0] == "region-map" else []
        code, out, err = run(capsys, [*argv, "--gamma", "2", *extra])
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_overflowing_momentum_flux_is_an_input_error(self, capsys):
        # The flag sets the downstream velocity, so the error names v_plus.
        code, out, err = run(capsys, [
            "threshold", "--rho-minus", "1", "--rho-plus", "4",
            "--v-plus2", "1e200", "--gamma", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: v_plus = (0.0, 1e+200) has no finite momentum flux "
                              "rho_plus*v_plus2**2")
        assert "v_minus" not in err

    def test_close_densities_are_an_input_error(self, capsys):
        code, out, err = run(capsys, [
            "threshold", "--rho-minus", "1", "--rho-plus", "1.00000001",
            "--v-plus2", "0", "--gamma", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: densities 1.0 and 1.00000001 are too close to place "
                       "a grid of 2048 middle densities strictly between them\n")

    def test_failed_self_check_exits_one(self, capsys):
        # At a density ratio of 1e4 and gamma = 5 the right continuity
        # self-check fails: a valid run with a negative finding, not an
        # input error.
        code, out, err = run(capsys, [
            "threshold", "--rho-minus", "1", "--rho-plus", "1e4",
            "--v-plus2", "0", "--gamma", "5"])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: right continuity self-check failed")

    def test_no_threshold_exits_one_with_the_note(self, capsys):
        # No start-grid node is feasible at the first scan gap.
        code, out, _ = run(capsys, [
            "threshold", "--rho-minus", "0.1237000021836671",
            "--rho-plus", "0.12579593614113987", "--v-plus2", "9.49385062351988",
            "--gamma", "2"])
        assert code == 1
        doc = json.loads(out)
        assert doc["V"] is None and doc["probes"] == 1
        assert doc["note"].startswith("no start-grid node is feasible at the first scan gap")

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
            "threshold-table", "--rho-minus", "1", "--rho-plus", "4",
            "--gamma", "2", "--v-plus2", "nan", "0"])
        assert code == 1
        doc = json.loads(out)
        assert doc["rows"][0]["error"] == "v_plus must be a finite velocity pair, got (0.0, nan)"
        assert doc["rows"][1]["error"] is None and doc["rows"][1]["V"] is not None


class TestFeasibilityCommand:
    def test_feasible_datum(self, capsys):
        code, out, _ = run(capsys, FEASIBLE)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["intervals"]
        assert doc["witness"]["rho_1"] is not None

    @pytest.mark.parametrize("datum, feasible", [
        (["1", "4", "0.5", "0", "2"], False),
        (["0.06912508235544329", "13107.946808096181", "5707940.237114986",
          "9.60470760494541", "3"], True),
    ], ids=["infeasible", "unverified_witness"])
    def test_no_verified_witness_exits_one_and_writes_no_file(
            self, capsys, tmp_path, datum, feasible):
        """Without a verified witness the command exits 1 and writes no
        file, also when it found feasible intervals: the witness at the
        density ratio 1.9e5 fails verification."""
        path = tmp_path / "witness.json"
        options = ["--rho-minus", "--rho-plus", "--v-minus2", "--v-plus2", "--gamma"]
        code, out, err = run(capsys, [
            "feasibility", *(arg for pair in zip(options, datum) for arg in pair),
            "--emit-witness", str(path)])
        assert code == 1
        assert "no witness to emit" in err
        assert not path.exists()
        doc = json.loads(out)
        assert doc["feasible"] is feasible and bool(doc["intervals"]) is feasible
        assert doc["witness"] is None

    def test_grid_below_two_nodes_is_an_input_error(self, capsys):
        code, _, err = run(capsys, FEASIBLE + ["--grid", "0"])
        assert code == 2
        assert "at least 2" in err

    def test_overflowing_first_component_is_an_input_error(self, capsys):
        code, out, err = run(capsys, FEASIBLE + ["--v1", "1e200"])
        assert (code, out) == (2, "")
        assert err.startswith("error: v_minus = (1e+200, 3.3) has no finite momentum flux "
                              "rho_minus*v_minus1**2")

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

    def test_witness_is_written_when_stdout_is_closed(self, capsys, monkeypatch, tmp_path):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        path = tmp_path / "witness.json"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run_cli(FEASIBLE + ["--emit-witness", str(path)])
        monkeypatch.undo()
        assert code == 2
        assert "Broken pipe" in capsys.readouterr().err
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0
        assert json.loads(out)["passed"] is True

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

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma_2"])
    def test_parameter_without_a_finite_square_is_an_input_error(self, capsys, tmp_path,
                                                                 name):
        """The verifier squares these; 1e200 is named as an input error
        (exit 2), not an OverflowError traceback."""
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[name] = 1e200
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert f"{name} must have a finite square, got 1e+200" in err

    @pytest.mark.parametrize("name", ["v_minus", "v_plus"])
    @pytest.mark.parametrize("value", [["a", 3.3], 3.3, [1, 2, 3]])
    def test_malformed_velocity_is_an_input_error(self, capsys, tmp_path, name, value):
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[name] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    def test_overflowing_first_component_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run(capsys, FEASIBLE + ["--emit-witness", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["v_minus"][0] = doc["v_plus"][0] = doc["alpha"] = 1e200
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: v_minus = (1e+200, 3.3) has no finite momentum flux")

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
            "--v-plus2-range", "0", "1500", "2"])
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

    def test_non_integer_grid_size_is_an_input_error(self, capsys):
        code, out, err = run(capsys, [
            "region-map", "--rho-minus", "1", "--v-minus2", "0", "--gamma", "2",
            "--rho-plus-range", "1", "4", "2.9", "--v-plus2-range", "0", "1", "3"])
        assert code == 2
        assert out == ""
        assert "whole numbers" in err
