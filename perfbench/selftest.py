"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs each workload at a tiny size (one golden threshold column, an 8x8
map, one classify and one verify process) and checks that every metric
named in BENCHMARK.json is emitted with its unit, that a corrupted
program output is counted as a failed op, that tracing leaves the
package as it found it, and that the command prints the result line from
a checkout but fails without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import workloads
from workloads import ROOT, WORKLOADS, import_program

ef = import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
        self.addCleanup(shutil.rmtree, self.workdir)

    def tiny(self, name):
        return WORKLOADS[name](ef, 7, self.workdir, tiny=True)

    def assert_metrics(self, metrics, kind):
        got = {name: unit for name, (_, unit, _) in metrics.items()}
        self.assertEqual(got, units(kind))

    def test_end_to_end_metrics_named_with_units(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                ops, metrics = run.end_to_end(self.tiny(name), 0, setup_s=1.0)
                self.assert_metrics(metrics, "end_to_end")
                self.assertEqual([op.error for op in ops if op.error], [])

    def test_per_layer_metrics_named_with_units(self):
        pressure = ef.eos.pressure
        for name in WORKLOADS:
            with self.subTest(workload=name):
                ops, metrics = run.per_layer(ef, self.tiny(name), 0, 7, self.workdir)
                self.assert_metrics(metrics, "per_layer")
                self.assertEqual([op.error for op in ops if op.error], [])
        self.assertIs(ef.eos.pressure, pressure)
        self.assertIs(ef.classifier.pressure, pressure)

    def test_corrupt_threshold_counts_as_failed(self):
        real = ef.threshold_V

        def off_by_tenth(*args):
            result = real(*args)
            return dataclasses.replace(result, V=result.V + 0.1)

        with mock.patch.object(ef, "threshold_V", off_by_tenth):
            ops, _ = run.end_to_end(self.tiny("threshold_table"), 0, setup_s=1.0)
        self.assertEqual(sum(op.error is not None for op in ops), len(ops))

    def test_corrupt_region_cell_counts_as_failed(self):
        real = ef.region_map_sweep

        def one_wrong_kind(*args, **kwargs):
            cells = real(*args, **kwargs)
            wrong = (ef.WaveKind.VACUUM if cells[3].wave_kind is not ef.WaveKind.VACUUM
                     else ef.WaveKind.TWO_SHOCKS)
            cells[3] = dataclasses.replace(cells[3], wave_kind=wrong)
            return cells

        with mock.patch.object(ef, "region_map_sweep", one_wrong_kind):
            ops, _ = run.end_to_end(self.tiny("region_map"), 0, setup_s=1.0)
        self.assertEqual([i for i, op in enumerate(ops) if op.error is not None], [3])

    def test_corrupt_cli_output_counts_as_failed(self):
        cli = self.tiny("cli_cold")
        real = workloads.spawn

        def wrong_middle(*args, **kwargs):
            child = real(*args, **kwargs)
            return dataclasses.replace(child, stdout=child.stdout.replace(
                '"rho": 3.96', '"rho": 3.97'))

        with mock.patch.object(workloads, "spawn", wrong_middle):
            ops, _ = run.end_to_end(cli, 0, setup_s=1.0)
        self.assertEqual(sum(op.error is not None for op in ops), 1)

    def test_command_prints_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             "threshold_table", "--seed", "3", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         units("end_to_end"))

    def test_command_fails_without_package_source(self):
        bare = Path(self.workdir) / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "region_map", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
