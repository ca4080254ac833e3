"""Machine-readable output: region maps, witness documents, records.

Console-facing numbers are formatted with 9 significant digits.  The
witness JSON files are the one exception: they keep full double
precision, because a verifier run on a reloaded witness must reproduce
the residuals of the original (quantizing to 9 digits would push the
interface balances right up against the 1e-9 acceptance line).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classifier import WaveFan, WaveKind, classify
from .eos import Eos
from .errors import DomainError, EulerFanError
from .functionals import RiemannData
from .subsolution import FanSubsolution, VerificationReport, verify_subsolution
from .threshold import ThresholdResult, ThresholdRow, subsolution_witness, threshold_V

WITNESS_KEYS = ("rho_minus", "rho_plus", "v_minus", "v_plus", "gamma",
                "nu_minus", "nu_plus", "rho_1", "alpha", "beta",
                "gamma_1", "gamma_2", "C")

CSV_COLUMNS = ("rho_plus", "v_plus2", "wave_kind", "nonuniq", "V_local")


class Nonuniq(str, Enum):
    """Non-uniqueness status of one region-map cell."""

    TWO_SHOCK_KNOWN = "TwoShockKnown"
    SUBSOLUTION_FOUND = "SubsolutionFound"
    NOT_FOUND = "NotFound"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class RegionCell:
    """One grid cell of the (rho_plus, v_plus2) sweep.

    V_local is filled only when the sweep was asked to compute
    thresholds; error carries a per-cell failure message (such cells
    have wave_kind None and nonuniq NOT_APPLICABLE).
    """

    rho_plus: float
    v_plus2: float
    wave_kind: WaveKind | None
    nonuniq: Nonuniq
    V_local: float | None
    error: str | None = None


def fmt(x: float) -> str:
    """Format a float with 9 significant digits."""
    return format(float(x), ".9g")


def quantize(x: float) -> float:
    """Round a float to the 9-significant-digit console grid."""
    return float(fmt(x))


def _jsonable(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return quantize(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_record(record: dict) -> str:
    """Serialize a record for the console: JSON, floats at 9 digits."""
    return json.dumps(_jsonable(record), indent=2)


def classification_record(data: RiemannData, fan: WaveFan) -> dict:
    record = {
        "rho_minus": data.rho_minus, "rho_plus": data.rho_plus,
        "v_minus": list(data.v_minus), "v_plus": list(data.v_plus),
        "gamma": data.eos.gamma,
        "kind": fan.kind,
        "middle": None, "speeds": None,
    }
    if fan.middle is not None:
        record["middle"] = {"rho": fan.middle[0], "v2": fan.middle[1]}
    if fan.speeds is not None:
        record["speeds"] = {side: list(pair) for side, pair in fan.speeds.items()}
    return record


def threshold_record(result: ThresholdResult) -> dict:
    return {
        "V": result.V,
        "sqrtT": result.sqrtT,
        "bisection_tol": result.bisection_tol,
        "probes": len(result.feasible_probe),
        "note": result.note,
    }


def threshold_table_record(rows: list[ThresholdRow]) -> dict:
    """Table record plus the (unenforced) monotonicity observation."""
    values = [(r.v_plus2, r.result.V) for r in rows
              if r.result is not None and r.result.V is not None]
    values.sort()
    nondecreasing = None
    if len(values) >= 2:
        nondecreasing = all(b[1] >= a[1] for a, b in zip(values, values[1:]))
    return {
        "rows": [
            {"v_plus2": r.v_plus2,
             "V": None if r.result is None else r.result.V,
             "sqrtT": None if r.result is None else r.result.sqrtT,
             "error": r.error if r.error is not None else
                      (r.result.note if r.result is not None else None)}
            for r in rows
        ],
        "V_nondecreasing_in_v_plus2": nondecreasing,
    }


def verification_record(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "equality_tol": report.equality_tol,
        "max_equality_residual": report.max_equality_residual,
        "min_inequality_margin": report.min_inequality_margin,
        "equality_residuals": dict(report.equality_residuals),
        "inequality_margins": dict(report.inequality_margins),
    }


def witness_document(data: RiemannData, sub: FanSubsolution) -> dict:
    """Flat JSON document pinning one subsolution at full precision."""
    return {
        "rho_minus": data.rho_minus, "rho_plus": data.rho_plus,
        "v_minus": list(data.v_minus), "v_plus": list(data.v_plus),
        "gamma": data.eos.gamma,
        "nu_minus": sub.nu_minus, "nu_plus": sub.nu_plus,
        "rho_1": sub.rho_1, "alpha": sub.alpha, "beta": sub.beta,
        "gamma_1": sub.gamma_1, "gamma_2": sub.gamma_2, "C": sub.C,
    }


def parse_witness(doc: dict):
    """Rebuild (RiemannData, FanSubsolution) from a witness document.

    The two slack variables are recomputed from their defining
    identities, so a hand-edited document is verified exactly as
    written.  A field (or velocity component) that is not a finite
    number, or a velocity that is not a list, raises DomainError.
    """
    missing = [k for k in WITNESS_KEYS if k not in doc]
    if missing:
        raise DomainError(f"witness document lacks keys: {', '.join(missing)}")

    def read(name, raw, positive=False):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise DomainError(f"witness field {name} must be a number, got {raw!r}") from None
        if not math.isfinite(value) or (positive and not value > 0.0):
            kind = "positive and finite" if positive else "finite"
            raise DomainError(f"witness field {name} must be {kind}, got {value}")
        return value

    def number(key, positive=False):
        return read(key, doc[key], positive)

    def velocity(key):
        # The pair length is RiemannData's check.
        if not isinstance(doc[key], (list, tuple)):
            raise DomainError(f"witness field {key} must be a list, got {doc[key]!r}")
        return tuple(read(f"{key}[{i}]", c) for i, c in enumerate(doc[key]))

    data = RiemannData(rho_minus=number("rho_minus", positive=True),
                       rho_plus=number("rho_plus", positive=True),
                       v_minus=velocity("v_minus"), v_plus=velocity("v_plus"),
                       eos=Eos(gamma=number("gamma")))
    alpha, beta = number("alpha"), number("beta")
    gamma_1, C = number("gamma_1"), number("C")
    eps_1 = C / 2.0 - gamma_1 - beta ** 2
    eps_2 = C - alpha ** 2 - beta ** 2 - eps_1
    sub = FanSubsolution(nu_minus=number("nu_minus"), nu_plus=number("nu_plus"),
                         rho_1=number("rho_1", positive=True), alpha=alpha, beta=beta,
                         gamma_1=gamma_1, gamma_2=number("gamma_2"), C=C,
                         eps_1=eps_1, eps_2=eps_2)
    return data, sub


def write_witness(path, data: RiemannData, sub: FanSubsolution) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(witness_document(data, sub), fh, indent=2)
        fh.write("\n")


def read_witness(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("witness document must be a JSON object")
    return parse_witness(doc)


def _cell_nonuniq(data: RiemannData, kind: WaveKind):
    """Decide the non-uniqueness tag for one classified cell."""
    if kind is WaveKind.TWO_SHOCKS:
        return Nonuniq.TWO_SHOCK_KNOWN, None
    if kind not in (WaveKind.SHOCK_RAREFACTION, WaveKind.RAREFACTION_SHOCK):
        return Nonuniq.NOT_APPLICABLE, None
    sub = subsolution_witness(data)
    if sub is None:
        return Nonuniq.NOT_FOUND, None
    if not verify_subsolution(data, sub).passed:
        return Nonuniq.NOT_FOUND, "witness found but failed verification"
    return Nonuniq.SUBSOLUTION_FOUND, None


def region_map_sweep(rho_minus: float, v_minus2: float, eos: Eos,
                     rho_plus_range, v_plus2_range, *,
                     v1: float = 0.0, with_threshold: bool = False) -> list[RegionCell]:
    """
    Classify every cell of a (rho_plus, v_plus2) grid against a fixed
    left state and decide non-uniqueness where the machinery applies.

    Parameters
    ----------
    rho_minus, v_minus2 : float
        Fixed left state (first velocity component v1 on both sides).
    eos : Eos
    rho_plus_range, v_plus2_range : (min, max, n)
        Inclusive linear grids of finite numbers, n a whole number >= 2;
        rho_plus bounds must be positive.
    v1 : float, optional
        Common first velocity component.
    with_threshold : bool, optional
        Also compute the gap threshold for each cell (slow).

    Returns
    -------
    cells : list of RegionCell
        Row-major, rho_plus outer, v_plus2 inner.  Two-shock cells are
        tagged TwoShockKnown without a search; one-shock-one-rarefaction
        cells get a subsolution search whose witness is re-verified
        before SubsolutionFound is claimed; everything else is
        NotApplicable.  Per-cell failures land in the cell's error
        field and the sweep keeps going.
    """
    r_lo, r_hi, r_n = rho_plus_range
    v_lo, v_hi, v_n = v_plus2_range
    if not all(math.isfinite(x) for x in (*rho_plus_range, *v_plus2_range)):
        raise DomainError("grid bounds and sizes must be finite")
    if r_n != int(r_n) or v_n != int(v_n):
        raise DomainError(f"grid sizes must be whole numbers, got {r_n} and {v_n}")
    if int(r_n) < 2 or int(v_n) < 2:
        raise DomainError("grid needs at least 2 points per axis")
    if r_lo <= 0.0 or r_hi <= 0.0:
        raise DomainError("rho_plus grid bounds must be positive")

    cells = []
    for rho_plus in np.linspace(r_lo, r_hi, int(r_n)):
        for v_plus2 in np.linspace(v_lo, v_hi, int(v_n)):
            kind = None
            nonuniq = Nonuniq.NOT_APPLICABLE
            v_local = None
            error = None
            try:
                data = RiemannData(rho_minus=rho_minus, rho_plus=float(rho_plus),
                                   v_minus=(v1, v_minus2), v_plus=(v1, float(v_plus2)),
                                   eos=eos)
                kind = classify(data).kind
                nonuniq, error = _cell_nonuniq(data, kind)
            except EulerFanError as exc:
                error = str(exc)
            if with_threshold and rho_plus != rho_minus:
                try:
                    v_local = threshold_V(rho_minus, float(rho_plus),
                                          float(v_plus2), eos).V
                except EulerFanError as exc:
                    error = str(exc) if error is None else f"{error}; {exc}"
            cells.append(RegionCell(rho_plus=float(rho_plus), v_plus2=float(v_plus2),
                                    wave_kind=kind, nonuniq=nonuniq,
                                    V_local=v_local, error=error))
    return cells


def region_map_csv(cells: list[RegionCell]) -> str:
    """Serialize cells as CSV: header row, 9-digit floats, '\\n' endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in cells:
        writer.writerow([
            fmt(cell.rho_plus),
            fmt(cell.v_plus2),
            "" if cell.wave_kind is None else cell.wave_kind.value,
            cell.nonuniq.value,
            "" if cell.V_local is None else fmt(cell.V_local),
        ])
    return buf.getvalue()


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# The parser of each CSV column; an empty optional field reads as None.
_CSV_PARSERS = (_finite, _finite, lambda s: WaveKind(s) if s else None,
                Nonuniq, lambda s: _finite(s) if s else None)


def parse_region_map_csv(text: str) -> list[RegionCell]:
    """Inverse of region_map_csv (the error field is not serialized).

    A data row with the wrong number of fields, a number that is not
    finite, or an unknown wave kind or tag raises DomainError naming
    the data row (counted from 1) and the column.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise DomainError(f"region-map CSV must start with header {','.join(CSV_COLUMNS)}")
    cells = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_COLUMNS):
            raise DomainError(f"malformed region-map CSV row {number}: {row}")
        fields = {}
        for column, raw, parse in zip(CSV_COLUMNS, row, _CSV_PARSERS):
            try:
                fields[column] = parse(raw)
            except ValueError:
                raise DomainError(f"region-map CSV row {number}, column {column}: "
                                  f"invalid value {raw!r}") from None
        cells.append(RegionCell(**fields))
    return cells
