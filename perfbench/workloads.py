"""Workload inputs, timed units and output checks.

Each workload runs in whole units, so every run covers its inputs in the
same proportions whatever its length:

* threshold_table: one unit is one pass over the seven reference columns
  (one op per column);
* region_map: one unit is one map, swept and written as CSV (one op per
  cell);
* cli_cold: one unit is one ``classify`` and one ``verify`` process
  (one op per process).

Checks run outside the timed region; an op whose output fails a check
counts as failed. Every op also carries its time at the reference speed
(see ``speed.py``), from calibration probes taken between ops and
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_CHILD, REFERENCE_CHILD_S, Speed
from tracing import instrument, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GAMMA = 2.0
RHO_MINUS, RHO_PLUS = 1.0, 4.0
#: The paper's threshold table for densities (1, 4) and gamma = 2:
#: reference V per downstream transverse velocity v_plus2.
THRESHOLD_REFERENCES = {0.1: 2.75, 1.0: 2.955, 2.0: 3.05, 0.0: 2.7,
                        -0.1: 2.65, -1.0: 1.8, -2.0: 1.02}
V_TOL = 0.05
SQRT_T = math.sqrt(45.0) / 2.0

#: Region-map grid against the left state rho = 1, v2 = 0.
MAP_RHO_PLUS = (0.25, 4.0)
MAP_V_PLUS2 = (-6.0, 10.0)
MAP_CELLS_PER_AXIS = 40
TINY_CELLS_PER_AXIS = 8
#: Region-map cells between two calibration probes in an untraced sweep
#: (about 70 ms of cells).
CELLS_PER_PROBE = 40

#: Non-uniqueness tags a region-map cell of each kind may carry.
TAGS = {"Case3_TwoShocks": ("TwoShockKnown",),
        "Case1_ShockRarefaction": ("SubsolutionFound", "NotFound"),
        "Case4_RarefactionShock": ("SubsolutionFound", "NotFound")}

GOLDEN_FLAGS = ["--rho-minus", "1", "--rho-plus", "4", "--v-minus2", "3.3",
                "--v-plus2", "0", "--gamma", "2"]


def import_program():
    """Import eulerfan from this checkout's ``src`` and nowhere else."""
    init = SRC / "eulerfan" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of "
                         "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eulerfan
    import eulerfan.cli  # noqa: F401  (the CLI layer is not imported by the package)
    if Path(eulerfan.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: eulerfan imported from {eulerfan.__file__}, "
                         f"not from {init}")
    return eulerfan


@dataclass
class Op:
    key: object  # identifies the input; the same input recurs in every unit
    seconds: float
    scaled: float  # seconds at the reference speed
    error: str | None  # None when the output passed every check


@dataclass
class Unit:
    ops: list
    wall: float  # timed seconds of the whole unit
    scaled: float  # the same at the reference speed
    child_rss_kib: list = field(default_factory=list)


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_kib: int


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, cwd, env) -> Child:
    """Run one Python child to completion, timed from spawn to reaping.

    stderr goes to a file because ``-X importtime`` output can exceed a
    pipe buffer; the child is reaped with wait4 to read its peak RSS.
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(proc.returncode, out.decode("utf-8", "replace"), stderr,
                 seconds, usage.ru_maxrss)


def child_speed(cwd, env) -> Speed:
    """Speed calibrated by the reference child, for timing child processes."""

    def probe():
        child = spawn(REFERENCE_CHILD, cwd, env)
        if child.code != 0:
            raise SystemExit(f"perfbench: reference child exited {child.code}: "
                             f"{child.stderr.strip()}")
        return child.seconds

    return Speed(probe, REFERENCE_CHILD_S)


def _section(ef, tracer):
    return contextlib.nullcontext() if tracer is None else instrument(ef, tracer)


class ThresholdTable:
    """threshold_V over the reference columns, column order shuffled per pass."""

    name = "threshold_table"

    def __init__(self, ef, seed, workdir, tiny=False):
        self.ef = ef
        self.eos = ef.Eos(GAMMA)
        self.columns = [0.0] if tiny else list(THRESHOLD_REFERENCES)
        self.rng = random.Random(seed)
        self.probes = 0
        self.feasible_probes = 0

    def run_unit(self, tracer=None) -> Unit:
        columns = self.rng.sample(self.columns, len(self.columns))
        ops = []
        speed = Speed()
        for v_plus2 in columns:
            if tracer is not None:
                tracer.next_op()
            result, error = None, None
            with _section(self.ef, tracer):
                start = perf_counter()
                try:
                    result = self.ef.threshold_V(RHO_MINUS, RHO_PLUS, v_plus2, self.eos)
                except Exception as exc:  # a raising op is a failed op
                    error = describe(exc)
                seconds = perf_counter() - start
            scaled = seconds * speed.factor()
            if result is None:
                ops.append(Op(v_plus2, seconds, scaled, error))
                continue
            ops.append(Op(v_plus2, seconds, scaled, self.check(v_plus2, result)))
            if tracer is not None:
                self.probes += len(result.feasible_probe)
                self.feasible_probes += sum(1 for _, intervals in result.feasible_probe
                                            if intervals)
        return Unit(ops, sum(op.seconds for op in ops), sum(op.scaled for op in ops))

    @staticmethod
    def check(v_plus2, result) -> str | None:
        ref = THRESHOLD_REFERENCES[v_plus2]
        if result.V is None or not abs(result.V - ref) <= V_TOL:
            return f"V({v_plus2}) = {result.V}, reference {ref} +- {V_TOL}"
        if not result.V < result.sqrtT:
            return f"V({v_plus2}) = {result.V} is not below sqrtT = {result.sqrtT}"
        if not abs(result.sqrtT - SQRT_T) <= 1e-12 * SQRT_T:
            return f"sqrtT = {result.sqrtT!r}, expected sqrt(45)/2 = {SQRT_T!r}"
        return None


def expected_kind(rho_minus, v_minus2, rho_plus, v_plus2, gamma) -> str:
    """Wave kind from the closed-form wave-curve tests at the initial densities."""
    w = v_minus2 - v_plus2
    T = ((rho_plus - rho_minus) * (rho_plus ** gamma - rho_minus ** gamma)
         / (rho_plus * rho_minus))

    def F(rho):
        return 2.0 * math.sqrt(gamma) / (gamma - 1.0) * rho ** (0.5 * (gamma - 1.0))

    if w > math.sqrt(T):
        return "Case3_TwoShocks"
    if -w >= F(rho_minus) + F(rho_plus):
        return "Vacuum"
    if -w > abs(F(rho_minus) - F(rho_plus)):
        return "Case2_TwoRarefactions"
    return "Case1_ShockRarefaction" if rho_minus < rho_plus else "Case4_RarefactionShock"


class RegionMap:
    """region_map_sweep then region_map_csv on a seed-jittered grid.

    The seed shifts both axes by less than half a cell.  Cell latencies
    are the gaps between successive RegionCell constructions inside the
    sweep, stamped by rebinding ``eulerfan.reporting.RegionCell``.  In an
    untraced sweep the rebound constructor also runs a calibration probe
    after every ``CELLS_PER_PROBE`` cells; probe time is in no gap and
    is taken out of the unit's wall time.
    """

    name = "region_map"

    def __init__(self, ef, seed, workdir, tiny=False):
        self.ef = ef
        self.eos = ef.Eos(GAMMA)
        n = TINY_CELLS_PER_AXIS if tiny else MAP_CELLS_PER_AXIS
        rng = random.Random(seed)
        ranges = []
        for lo, hi in (MAP_RHO_PLUS, MAP_V_PLUS2):
            shift = (rng.random() - 0.5) * (hi - lo) / (n - 1)
            ranges.append((lo + shift, hi + shift, n))
        self.rho_plus_range, self.v_plus2_range = ranges
        self.cells = n * n
        self.reference = None  # first map of the run, witnesses re-verified
        self.found = 0  # SubsolutionFound cells in traced maps

    def run_unit(self, tracer=None) -> Unit:
        reporting = self.ef.reporting
        region_cell = reporting.RegionCell
        speed = Speed()
        times, factors = [], []

        def stamped(*args, **kwargs):
            nonlocal last
            cell = region_cell(*args, **kwargs)
            now = perf_counter()
            times.append(now - last)
            if tracer is not None:
                tracer.next_op()
            elif len(times) % CELLS_PER_PROBE == 0:
                factors.extend([speed.factor()] * (len(times) - len(factors)))
                now = perf_counter()
            last = now
            return cell

        if tracer is not None:
            tracer.next_op()
        reporting.RegionCell = stamped
        try:
            with _section(self.ef, tracer):
                start = last = perf_counter()
                try:
                    cells = self.ef.region_map_sweep(RHO_MINUS, 0.0, self.eos,
                                                     self.rho_plus_range, self.v_plus2_range)
                    text = self.ef.region_map_csv(cells)
                except Exception as exc:  # the whole map failed
                    cells, error = None, describe(exc)
                wall = perf_counter() - start - speed.probed
        finally:
            reporting.RegionCell = region_cell
        factor = speed.factor()  # for the cells since the last probe, and the CSV
        scaled = sum(t * f for t, f in zip(times, factors))
        scaled += (wall - sum(times[:len(factors)])) * factor
        if cells is None:
            return Unit([Op(i, wall / self.cells, scaled / self.cells, error)
                         for i in range(self.cells)], wall, scaled)

        factors += [factor] * (len(times) - len(factors))
        errors = self.check(cells, text)
        if tracer is not None:
            self.found += sum(1 for c in cells if c.nonuniq.value == "SubsolutionFound")
        ops = [Op(i, t, t * f, e) for i, (t, f, e) in enumerate(zip(times, factors, errors))]
        ops += [Op(i, wall / self.cells, scaled / self.cells, "cell missing from the sweep")
                for i in range(len(ops), self.cells)]
        return Unit(ops, wall, scaled)

    def check(self, cells, text) -> list:
        ef = self.ef
        try:
            parsed = ef.parse_region_map_csv(text)
        except Exception as exc:
            parsed, csv_error = [], f"CSV does not parse: {describe(exc)}"
        else:
            csv_error = (None if len(parsed) == len(cells) else
                         f"CSV has {len(parsed)} rows for {len(cells)} cells")
        errors = []
        for i, cell in enumerate(cells):
            error = csv_error or self._check_cell(cell, parsed[i])
            if (error is None and self.reference is not None
                    and (i >= len(self.reference) or cell != self.reference[i])):
                error = f"cell differs from the verified first map: {cell}"
            errors.append(error)
        if self.reference is None:
            for i, cell in enumerate(cells):
                if errors[i] is None and cell.nonuniq.value == "SubsolutionFound":
                    errors[i] = self._check_witness(cell)
            if not any(errors):
                self.reference = cells
        return errors

    def _check_cell(self, cell, row) -> str | None:
        if cell.error is not None:
            return f"cell error: {cell.error}"
        want = expected_kind(RHO_MINUS, 0.0, cell.rho_plus, cell.v_plus2, GAMMA)
        got = None if cell.wave_kind is None else cell.wave_kind.value
        if got != want:
            return f"kind {got} at ({cell.rho_plus}, {cell.v_plus2}), closed form gives {want}"
        if cell.nonuniq.value not in TAGS.get(want, ("NotApplicable",)):
            return f"tag {cell.nonuniq.value} for kind {want}"
        quantize = self.ef.reporting.quantize
        if (row.rho_plus, row.v_plus2, row.wave_kind, row.nonuniq, row.V_local) != (
                quantize(cell.rho_plus), quantize(cell.v_plus2), cell.wave_kind,
                cell.nonuniq, None):
            return f"CSV row {row} does not round-trip cell {cell}"
        return None

    def _check_witness(self, cell) -> str | None:
        ef = self.ef
        data = ef.RiemannData(RHO_MINUS, cell.rho_plus, (0.0, 0.0), (0.0, cell.v_plus2), self.eos)
        try:
            sub = ef.subsolution_witness(data)
            if sub is None:
                return "SubsolutionFound but no witness on re-search"
            if not ef.verify_subsolution(data, sub).passed:
                return "SubsolutionFound but the witness fails verification"
        except Exception as exc:
            return f"witness re-check raised {describe(exc)}"
        return None


def _same9(a, b) -> bool:
    """Equal to 9 significant digits (the CLI's console precision)."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return format(float(a), ".9g") == format(float(b), ".9g")
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same9(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same9(x, y) for x, y in zip(a, b))
    return a == b


class CliCold:
    """One fresh ``python -m eulerfan.cli`` per op, classify and verify in turn.

    Set-up writes the witness once with ``feasibility --emit-witness``.
    A traced unit runs the children under ``-X importtime`` and then the
    same argv in-process through ``run_cli`` for the span counts.
    """

    name = "cli_cold"

    def __init__(self, ef, seed, workdir, tiny=False):
        self.ef = ef
        self.workdir = workdir
        self.env = child_env()
        witness = Path(workdir) / "witness.json"
        child = spawn(["-m", "eulerfan.cli", "feasibility", *GOLDEN_FLAGS,
                       "--emit-witness", str(witness)], workdir, self.env)
        if child.code != 0 or not witness.is_file():
            raise SystemExit(f"perfbench: witness emit failed with exit {child.code}: "
                             f"{child.stderr.strip()}")
        self.argvs = [["classify", *GOLDEN_FLAGS], ["verify", str(witness)]]
        if random.Random(seed).random() < 0.5:
            self.argvs.reverse()

        data = ef.RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), ef.Eos(2.0))
        fan = ef.classify(data)
        report = ef.verify_subsolution(*ef.read_witness(witness))
        self.expected = {
            "classify": {"kind": fan.kind.value,
                         "middle": {"rho": fan.middle[0], "v2": fan.middle[1]},
                         "speeds": {k: list(v) for k, v in fan.speeds.items()}},
            "verify": {"passed": report.passed,
                       "max_equality_residual": report.max_equality_residual,
                       "min_inequality_margin": report.min_inequality_margin,
                       "equality_residuals": report.equality_residuals,
                       "inequality_margins": report.inequality_margins},
        }
        self.imports = []  # (import seconds, scipy seconds) per traced child
        self.speed = None  # made at the first unit, so set-up time does not include it

    def run_unit(self, tracer=None) -> Unit:
        if self.speed is None:
            self.speed = child_speed(self.workdir, self.env)
        children = []
        for argv in self.argvs:
            flags = ["-X", "importtime"] if tracer is not None else []
            children.append(spawn([*flags, "-m", "eulerfan.cli", *argv], self.workdir,
                                  self.env))
        factor = self.speed.factor()  # one reference child per unit, for both ops
        ops, rss = [], []
        for argv, child in zip(self.argvs, children):
            ops.append(Op(argv[0], child.seconds, child.seconds * factor,
                          self.check(argv[0], child)))
            rss.append(child.rss_kib)
            if tracer is not None:
                self.imports.append(parse_importtime(child.stderr))
        if tracer is not None:
            with instrument(self.ef, tracer), contextlib.redirect_stdout(io.StringIO()):
                for argv in self.argvs:
                    tracer.next_op()
                    self.ef.cli.run_cli(argv)
        return Unit(ops, sum(op.seconds for op in ops), sum(op.scaled for op in ops), rss)

    def check(self, command, child) -> str | None:
        if child.code != 0:
            return f"{command} exited {child.code}: {child.stderr.strip()[-200:]}"
        try:
            record = json.loads(child.stdout)
        except json.JSONDecodeError as exc:
            return f"{command} printed no JSON: {exc}"
        want = self.expected[command]
        got = {k: record.get(k) for k in want}
        if not _same9(got, want):
            return f"{command} output {got} differs from the library result {want}"
        return None


WORKLOADS = {w.name: w for w in (ThresholdTable, RegionMap, CliCold)}
