"""Benchmark smoke test: every workload, untraced and traced, for one second.

Each run's last stdout line is the machine-readable record.  It must be
strict JSON: a NaN or Infinity (which json.dumps writes for a metric
whose span or count never occurred) is rejected, because a strict parser
refuses the whole line.  A run must also report no failed op.

Run from the repository root:

    python3 .github/bench_smoke.py
"""

import json
import subprocess
import sys

WORKLOADS = ("threshold_table", "region_map", "cli_cold")


def reject(constant):
    raise ValueError(f"non-finite number {constant} in the record")


def main():
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", trace]
            run = subprocess.run(argv, capture_output=True, text=True)
            label = f"{workload} trace={trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{label}: exit {run.returncode}\n{run.stderr}")
                continue
            try:
                record = json.loads(lines[-1], parse_constant=reject)
            except ValueError as exc:
                problems.append(f"{label}: last line is not strict JSON: {exc}")
                continue
            if record["failed"]:
                problems.append(f"{label}: {record['failed']} failed ops")
                continue
            print(f"{label}: ok, {record['attempted']} ops")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
