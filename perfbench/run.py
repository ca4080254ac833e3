"""eulerfan benchmark: one workload per process, closed loop, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold_table --seed 1 --seconds 20 --trace 0

Workloads: threshold_table, region_map, cli_cold (see perfbench/README.md).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_CHILD_S, REFERENCE_S
from tracing import Tracer, own_metrics, region_metrics, threshold_metrics
from workloads import ROOT, WORKLOADS, CliCold, RegionMap, ThresholdTable, child_env, \
    child_speed, import_program, spawn

#: Set-ups timed per untraced run; set-up time is their median.
SETUP_REPEATS = 3
#: Array size of the EOS kernel timings: 512 KiB per float64 array, so
#: the arrays sit in cache (2 MiB L2, 300 MiB shared L3 on the reference
#: machine).  No bandwidth figure is reported: an array 4x the L3 would
#: need 1.2 GiB, too much for a shared 8 GiB machine.
KERNEL_NODES = 65536
#: Grid sizes between which the feasible_for_gap slope is taken.
GRID_SMALL, GRID_LARGE = 1024, 65536

SPANS_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed seconds; whole units are run until they are reached")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate inputs, then exit (times set-up)")
    return p.parse_args(argv)


def environment(ef):
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            key = f"L{(index / 'level').read_text().strip()}-{(index / 'type').read_text().strip()}"
            caches[key] = (index / "size").read_text().strip()
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit, dirty = "not a git checkout", None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip()
        dirty = bool(subprocess.run([*git, "status", "--porcelain"], capture_output=True,
                                    text=True).stdout.strip())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "eulerfan": ef.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "git_commit": commit, "git_dirty": dirty}


def setup_seconds(name, seed, workdir):
    """Median time, at the reference speed, from a fresh interpreter to inputs ready."""
    samples, raw = [], []
    speed = child_speed(workdir, child_env())
    for _ in range(SETUP_REPEATS):
        child = spawn([__file__, "--setup-only", "--workload", name, "--seed", str(seed)],
                      workdir, child_env())
        if child.code != 0:
            raise SystemExit(f"perfbench: set-up failed with exit {child.code}: "
                             f"{child.stderr.strip()}")
        samples.append(child.seconds * speed.factor())
        raw.append(child.seconds)
    return statistics.median(samples), statistics.median(raw)


def end_to_end(workload, seconds, setup_s, setup_raw_s=math.nan):
    """Timed units until `seconds` of timed work, then the end-to-end metrics.

    Times are at the reference speed (``speed.py``): each op's time
    scaled by the calibration probes taken around it.  The figures as
    timed, unscaled, are printed alongside.
    """
    ops, wall, scaled, rss = [], 0.0, 0.0, []
    while True:
        unit = workload.run_unit()
        ops += unit.ops
        wall += unit.wall
        scaled += unit.scaled
        rss += unit.child_rss_kib
        if wall >= seconds:
            break
    ok = [op for op in ops if op.error is None]
    p50, p90 = _percentiles(sorted(op.scaled for op in ok))
    raw50, raw90 = _percentiles(sorted(op.seconds for op in ok))
    n = f"{len(ok)} ops"
    peak_kib = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups; as timed "
                                  f"{setup_raw_s:.4g} s"),
        "ops_per_s": (len(ok) / scaled if scaled else math.nan, "1/s",
                      f"{n} in {scaled:.3f} s at the reference speed, closed loop, one "
                      f"caller; as timed {len(ok)} in {wall:.3f} s = {len(ok) / wall:.4g}/s"
                      if wall else n),
        "op_ms.p50": (p50 * 1e3, "ms", f"{n}; as timed {raw50 * 1e3:.4g} ms"),
        "op_ms.p90": (p90 * 1e3, "ms",
                      f"{n}, {sum(1 for op in ok if op.scaled > p90)} beyond; as timed "
                      f"{raw90 * 1e3:.4g} ms"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB",
                        "max over child processes" if rss else "benchmark process"),
    }
    return ops, metrics


def _percentiles(values):
    """(p50, p90) of sorted values, interpolated within their range."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def per_call(fn, calls, repeats=5):
    """Median over repeats of the mean seconds per call."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples)


def kernel_metrics(ef):
    """Fixed-cost and per-node timings of the in-cache kernels."""
    import numpy as np
    eos = ef.Eos(2.0)
    data = ef.RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), eos)
    rho = np.linspace(1.5, 4.0, KERNEL_NODES)
    size = f"{KERNEL_NODES} nodes, {KERNEL_NODES * 8 // 1024} KiB per array, in-cache"

    def feasible(grid):
        return per_call(lambda: ef.feasible_for_gap(1.0, 4.0, 0.0, eos, 3.3, grid=grid), 3)

    slope = (feasible(GRID_LARGE) - feasible(GRID_SMALL)) / (GRID_LARGE - GRID_SMALL)
    return {
        "eos.pressure.us_scalar": (per_call(lambda: ef.pressure(eos, 2.0), 2000) * 1e6, "us",
                                   "scalar call"),
        "eos.pressure.ns_per_node": (
            per_call(lambda: ef.pressure(eos, rho), 20) / KERNEL_NODES * 1e9, "ns/node", size),
        "eos.p_dissipation.ns_per_node": (
            per_call(lambda: ef.p_dissipation(eos, rho, 1.0), 20) / KERNEL_NODES * 1e9,
            "ns/node", size),
        "subsolution.eps2_window.us": (per_call(lambda: ef.eps2_window(data, 2.0), 100) * 1e6,
                                       "us", "scalar call, golden datum"),
        "subsolution.grid_ns_per_node": (
            slope * 1e9, "ns/node",
            f"feasible_for_gap slope between grid={GRID_SMALL} and {GRID_LARGE}, in-cache"),
        "functionals.data_functionals.us": (
            per_call(lambda: ef.data_functionals(data), 2000) * 1e6, "us", "golden datum"),
    }


def cli_metrics(ef, cli):
    """Import split from the traced children, in-process run time, interpreter floor."""
    samples = []
    for _ in range(5):
        for argv in cli.argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                ef.cli.run_cli(argv)
                samples.append(perf_counter() - start)
    floor = statistics.median(spawn(["-c", "pass"], cli.workdir, child_env()).seconds
                              for _ in range(5))
    imports = f"-X importtime, {len(cli.imports)} children"
    return {
        "cli.import_s": (statistics.median(total for total, _ in cli.imports), "s", imports),
        "cli.import.scipy_share": (
            statistics.median(scipy / total if total else math.nan
                              for total, scipy in cli.imports), "share", imports),
        "cli.run_ms": (statistics.median(samples) * 1e3, "ms", "in-process run_cli, same argv"),
        "cli.interpreter_s": (floor, "s", "bare python -c pass"),
    }


def per_layer(ef, workload, seconds, seed, workdir):
    """Traced run: untraced and traced units in pairs, then the layer metrics.

    Metrics of the layers this workload does not load come from a traced
    miniature of the workload that does: one golden threshold column, an
    8x8 region map, or one classify and one verify process.
    """
    tracer = Tracer()
    ops, untraced, traced, traced_ops = [], 0.0, 0.0, 0
    while True:
        plain = workload.run_unit()
        timed = workload.run_unit(tracer)
        ops += plain.ops + timed.ops
        untraced += plain.wall
        traced += timed.wall
        traced_ops += len(timed.ops)
        if untraced + traced >= seconds:
            break

    tracers = {workload.name: tracer}

    def source(cls):
        if isinstance(workload, cls):
            return tracer, workload
        mini, mini_tracer = cls(ef, seed, workdir, tiny=True), Tracer()
        ops.extend(mini.run_unit(mini_tracer).ops)
        tracers[f"{cls.name}-mini"] = mini_tracer
        return mini_tracer, mini

    metrics = own_metrics(tracer, traced_ops)
    metrics.update(threshold_metrics(*source(ThresholdTable)))
    r_tracer, r_work = source(RegionMap)
    metrics.update(region_metrics(r_tracer, r_work.found))
    metrics.update(cli_metrics(ef, source(CliCold)[1]))
    metrics.update(kernel_metrics(ef))
    metrics["trace.overhead_s"] = (traced - untraced, "s",
                                   f"traced {traced:.3f} s - untraced {untraced:.3f} s")
    metrics["trace.overhead_share"] = (
        (traced - untraced) / untraced, "share", "relative to the untraced units")

    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source,op,span,name,parent,start_us,end_us\n")
        for label, t in tracers.items():
            t.write_csv(fh, label)
    print(f"spans written to {path.relative_to(ROOT)}")
    return ops, metrics


def main(argv=None):
    args = parse_args(argv)
    ef = import_program()
    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_only:
            cls(ef, args.seed, workdir)
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("environment " + json.dumps(environment(ef), sort_keys=True))
        print(f"times at the reference speed: calibration kernel {REFERENCE_S * 1e3:g} ms, "
              f"reference child {REFERENCE_CHILD_S:g} s")
        if args.trace:
            ops, metrics = per_layer(ef, cls(ef, args.seed, workdir), args.seconds,
                                     args.seed, workdir)
        else:
            setup_s, setup_raw_s = setup_seconds(args.workload, args.seed, workdir)
            ops, metrics = end_to_end(cls(ef, args.seed, workdir), args.seconds, setup_s,
                                      setup_raw_s)

    failed = [op.error for op in ops if op.error is not None]
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  fail_share = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.6g}")
    for error in failed[:5]:
        print(f"  failed: {error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
