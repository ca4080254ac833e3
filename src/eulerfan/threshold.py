"""Non-uniqueness threshold for the velocity gap.

For a fixed pair of densities, downstream transverse velocity and
pressure law, subsolutions exist for every gap w = v_minus2 - v_plus2
sufficiently close to (but below) sqrt(T), the two-shock bound.  The
threshold V reported here is defined operationally: the infimum of the
feasible gap interval abutting sqrt(T), located by a descending scan
followed by bisection.  The full probe trace is retained so a
non-monotone feasibility pattern, if one ever shows up, is visible in
the result rather than silently flattened into a single number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eos import Eos
from .errors import DegenerateDensityError, DomainError, EulerFanError
from .functionals import RiemannData
from .subsolution import FanSubsolution, _window_arrays, reconstruct

#: Termination width for the bisection phase of threshold_V.
BISECTION_TOL = 1e-6
#: Number of scan steps between sqrt(T) and 0 during the descent.
SCAN_STEPS = 200
#: Relative standoff of the first probe below sqrt(T).
SCAN_OFFSET = 1e-6

_ENDPOINT_MARGIN = 1e-9
_REFINE_POINTS = 64
_REFINE_PASSES = 2


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search.

    V is None only in the no-threshold case (no feasible gap even just
    below sqrtT), which contradicts the existence guarantee for
    gamma > 1 and therefore signals a bug rather than a finding; the
    note says so.  feasible_probe lists every probed gap with its
    feasible middle-density intervals, scan order first, bisection
    probes after.
    """

    V: float | None
    sqrtT: float
    feasible_probe: list = field(repr=False)
    bisection_tol: float
    note: str | None = None


@dataclass(frozen=True)
class ThresholdRow:
    """One row of a threshold table; error carries a per-row failure."""

    v_plus2: float
    result: ThresholdResult | None
    error: str | None


def _feasibility_grid(data: RiemannData, grid: int):
    """Evaluate the feasibility mask on an adaptive middle-density grid.

    Starts from `grid` equispaced nodes strictly inside the density
    interval and twice inserts _REFINE_POINTS extra nodes into every
    subinterval where the mask flips, sharpening the interval edges.
    """
    lo = min(data.rho_minus, data.rho_plus)
    hi = max(data.rho_minus, data.rho_plus)
    delta = _ENDPOINT_MARGIN * (hi - lo)
    nodes = np.linspace(lo + delta, hi - delta, grid)
    window = _window_arrays(data, nodes)
    for _ in range(_REFINE_PASSES):
        mask = window.feasible
        flips = np.nonzero(mask[:-1] != mask[1:])[0]
        if flips.size == 0:
            break
        extra = [np.linspace(nodes[i], nodes[i + 1], _REFINE_POINTS + 2)[1:-1] for i in flips]
        nodes = np.unique(np.concatenate([nodes, *extra]))
        window = _window_arrays(data, nodes)
    return nodes, window


def _feasible_runs(mask: np.ndarray):
    """Maximal runs of True in mask as (first_index, last_index) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def feasible_for_gap(rho_minus: float, rho_plus: float, v_plus2: float,
                     eos: Eos, w: float, *, grid: int = 2048):
    """
    Decide whether any middle density admits a subsolution at gap w.

    Parameters
    ----------
    rho_minus, rho_plus : float
        Distinct positive densities.
    v_plus2 : float
        Downstream transverse velocity; the upstream one is v_plus2 + w.
    eos : Eos
    w : float
        Velocity gap v_minus2 - v_plus2, required to lie in
        (0, sqrt(T)) so the two interface speeds are real.
    grid : int, optional
        Initial number of middle-density nodes.

    Returns
    -------
    feasible : bool
    intervals : list of (rho_lo, rho_hi)
        Feasible middle-density intervals, resolved to the refined grid.
    """
    if rho_minus == rho_plus:
        raise DegenerateDensityError(
            f"equal densities {rho_minus} leave no middle-density interval")
    data = RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                       v_minus=(0.0, v_plus2 + w), v_plus=(0.0, v_plus2), eos=eos)
    bound = math.sqrt(eos._two_shock_T(rho_minus, rho_plus))
    if not 0.0 < w < bound:
        raise DomainError(
            f"gap w={w} outside the subsolution regime (0, sqrt(T)={bound})")

    nodes, window = _feasibility_grid(data, grid)
    runs = _feasible_runs(window.feasible)
    return bool(runs), [(float(nodes[i]), float(nodes[j])) for i, j in runs]


def feasibility_scan(data: RiemannData, *, grid: int = 2048):
    """
    Scan the middle-density interval once for feasible intervals and a
    witness.

    Returns
    -------
    intervals : list of (rho_lo, rho_hi)
        Feasible middle-density intervals, resolved to the refined grid
        (as in feasible_for_gap).
    witness : FanSubsolution or None
        Built at the feasible node nearest the center of the widest
        feasible run, with the free slack at the midpoint of its
        admissible window (or just above the lower edge when the window
        is unbounded) and the common first velocity component.  None
        when no node is feasible.
    """
    nodes, window = _feasibility_grid(data, grid)
    runs = _feasible_runs(window.feasible)
    intervals = [(float(nodes[i]), float(nodes[j])) for i, j in runs]
    if not runs:
        return intervals, None
    first, last = max(runs, key=lambda r: nodes[r[1]] - nodes[r[0]])
    center = 0.5 * (nodes[first] + nodes[last])
    idx = first + int(np.argmin(np.abs(nodes[first:last + 1] - center)))

    eff_lower = max(float(window.lower[idx]), 0.0)
    upper = float(window.upper[idx])
    eps_2 = 0.5 * (eff_lower + upper) if math.isfinite(upper) else eff_lower + 1.0
    return intervals, reconstruct(data, float(nodes[idx]), eps_2, alpha=data.v_plus[0])


def subsolution_witness(data: RiemannData, *, grid: int = 2048) -> FanSubsolution | None:
    """
    Search the middle-density interval and build one concrete
    subsolution: the witness of feasibility_scan, or None when no node
    is feasible.
    """
    return feasibility_scan(data, grid=grid)[1]


def threshold_V(rho_minus: float, rho_plus: float, v_plus2: float,
                eos: Eos) -> ThresholdResult:
    """
    Locate the lower edge of the feasible gap interval abutting sqrt(T).

    Scans w downward from (1 - 1e-6)*sqrt(T) in steps of sqrt(T)/200
    until the first infeasible probe, then bisects the bracketing pair
    to BISECTION_TOL.  The returned V is the lowest gap probed feasible,
    so V < sqrt(T) always, and the probe just below V failed.

    For gamma = 1 the existence guarantee does not apply; the search
    still runs, with a warning.
    """
    if rho_minus == rho_plus:
        raise DegenerateDensityError(
            f"equal densities {rho_minus} admit no threshold search")
    if eos.gamma == 1.0:
        warnings.warn("threshold existence is only guaranteed for gamma > 1; "
                      "searching anyway", stacklevel=2)

    # RiemannData validates the inputs; T does not depend on the gap.
    RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                v_minus=(0.0, v_plus2), v_plus=(0.0, v_plus2), eos=eos)
    sqrtT = math.sqrt(eos._two_shock_T(rho_minus, rho_plus))
    step = sqrtT / SCAN_STEPS
    probes = []

    w = (1.0 - SCAN_OFFSET) * sqrtT
    hi = None
    lo = None
    while w > 0.0:
        ok, intervals = feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w)
        probes.append((w, intervals))
        if ok:
            hi = w
            w -= step
        else:
            lo = w
            break

    if hi is None:
        return ThresholdResult(
            V=None, sqrtT=sqrtT, feasible_probe=probes, bisection_tol=BISECTION_TOL,
            note="no feasible gap found even just below sqrt(T); for gamma > 1 "
                 "this contradicts the existence guarantee and indicates a bug")

    note = None
    if lo is None:
        lo = 0.0
        note = ("feasible at every probed gap; the reported V is the bisection "
                "resolution above 0, not a detected feasibility edge")

    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        ok, intervals = feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, mid)
        probes.append((mid, intervals))
        if ok:
            hi = mid
        else:
            lo = mid

    return ThresholdResult(V=float(hi), sqrtT=sqrtT, feasible_probe=probes,
                           bisection_tol=BISECTION_TOL, note=note)


def threshold_table(rho_minus: float, rho_plus: float, eos: Eos,
                    v_plus2_list) -> list[ThresholdRow]:
    """
    One threshold search per downstream velocity, errors kept per row.

    Rows are computed independently; a failing row carries the error
    message and a None result so the rest of the table still comes out.
    """
    rows = []
    for v_plus2 in v_plus2_list:
        try:
            rows.append(ThresholdRow(v_plus2=float(v_plus2),
                                     result=threshold_V(rho_minus, rho_plus, v_plus2, eos),
                                     error=None))
        except EulerFanError as exc:
            rows.append(ThresholdRow(v_plus2=float(v_plus2), result=None, error=str(exc)))
    return rows
