"""Record a benchmark baseline, BENCH_<n>.json, from the unchanged harness.

It runs every workload of BENCHMARK.json untraced, at its run_seconds,
for seeds 1 to 3, and keeps each run's environment record and its last
stdout line, parsed as strict JSON as .github/bench_smoke.py parses it.
It then adds the end-to-end rows that perfbench/run.py does not time,
each the median of three wall times: the threshold-table command on the
seven reference columns, the 40x40 region map at (rho_minus, v_minus2)
= (1, 3.3) with and without --with-threshold, and the tier-1 suite.

Run from the repository root, on a clean checkout, for about ten
minutes:

    python3 .github/bench_record.py BENCH_1.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
REPEATS = 3
COLUMNS = ["0.1", "1", "2", "0", "-0.1", "-1", "-2"]
MAP = ["region-map", "--rho-minus", "1", "--v-minus2", "3.3", "--gamma", "2",
       "--rho-plus-range", "1.5", "6", "40", "--v-plus2-range", "-2", "2", "40",
       "--out", "map.csv"]
#: Wall-time rows: argv after the interpreter, run with src on the path.
WALL = {
    "threshold_table_cli": ["-m", "eulerfan.cli", "threshold-table", "--rho-minus", "1",
                            "--rho-plus", "4", "--gamma", "2", "--v-plus2", *COLUMNS],
    "region_map_cli": ["-m", "eulerfan.cli", *MAP],
    "region_map_with_threshold_cli": ["-m", "eulerfan.cli", *MAP, "--with-threshold"],
    "tier1_suite": ["-m", "pytest", "-q", "--continue-on-collection-errors",
                    str(ROOT / "tests")],
}
#: ROADMAP item 9's harness faults, which these figures carry.
HARNESS_FAULTS = [
    "region_map keeps one Op record per cell, so its peak_rss_mb grows with ops_per_s",
    "children inherit PYTHONDONTWRITEBYTECODE and compile the package, so peak_rss_mb "
    "moves with the source text",
    "cli_cold peak_rss_mb is the harness's own high-water mark, carried into the child",
    "the reference child imports scipy, which the package does not use, and "
    "cli.import.scipy_share is always 0",
    "per-layer metrics pin internals (probes_per_column counts feasible_for_gap calls)",
    "traced runs can write NaN for a span that never occurs (not these untraced runs)",
]


def reject(constant):
    raise ValueError(f"non-finite number {constant} in the record")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def workload_run(name, seed, seconds):
    """The environment record and the strict-JSON result of one untraced run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr}")
    env = next(line for line in lines if line.startswith("environment "))
    return {"seed": seed,
            "environment": json.loads(env.partition(" ")[2], parse_constant=reject),
            "result": json.loads(lines[-1], parse_constant=reject)}


def wall_seconds(argv):
    """Median of REPEATS wall times of one command, each in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as workdir:
            start = time.perf_counter()
            run = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                                 capture_output=True, text=True)
            samples.append(time.perf_counter() - start)
        if run.returncode != 0:
            raise SystemExit(f"{argv}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
    return {"median_s": statistics.median(samples), "samples_s": samples, "argv": argv}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the BENCH_<n>.json file to write")
    out = parser.parse_args().out
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "run_seconds": bench["run_seconds"],
        "workloads": {w["name"]: [workload_run(w["name"], seed, bench["run_seconds"])
                                  for seed in SEEDS]
                      for w in bench["workloads"]},
        "wall": {row: wall_seconds(argv) for row, argv in WALL.items()},
        "harness_faults": HARNESS_FAULTS,
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
