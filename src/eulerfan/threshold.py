"""Non-uniqueness threshold for the velocity gap.

For a fixed pair of densities, downstream transverse velocity and
pressure law, subsolutions exist for every gap w = v_minus2 - v_plus2
sufficiently close to (but below) sqrt(T), the two-shock bound.  The
threshold V reported here is defined operationally: the infimum of the
feasible gap interval abutting sqrt(T), located by a descending scan
followed by bisection.  The scan stops at the first infeasible gap and
evaluates no gap past it.  Every probe, scan and bisection alike, is
one feasible_for_gap call.  The full probe trace is retained so a
non-monotone feasibility pattern, if one ever shows up, is visible in
the result rather than silently flattened into a single number.

Every probe starts from the same GRID middle densities, whose node
terms (subsolution.middle_nodes) _initial_nodes builds once per density
pair and pressure law and caches.  A probe is decided on that start
grid alone, and its intervals are the runs of feasible start-grid
nodes.  The README section "What a threshold search costs" holds the
cost model, with the counts that tests pin.

feasibility_scan, whose intervals and witness the feasibility command
and the region map read, is the one search that refines, for its one
datum: _REFINE_PASSES times it inserts _REFINE_POINTS nodes between
each two neighbouring nodes whose masks differ, and evaluates all the
nodes of a pass in one kernel call, so a self-check names the worst
inserted node of the pass.  It is also the one place that decides
which witness counts: one that subsolution.verify_subsolution passes.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eos import Eos
from .errors import DegenerateDensityError, DomainError, EulerFanError
from .functionals import RiemannData
from .subsolution import (FanSubsolution, MiddleNodes, middle_nodes, verify_subsolution,
                          window_grid, witness_at)

#: Termination width for the bisection phase of threshold_V.
BISECTION_TOL = 1e-6
#: Number of scan steps between sqrt(T) and 0 during the descent.
SCAN_STEPS = 200
#: Relative standoff of the first probe below sqrt(T).
SCAN_OFFSET = 1e-6
#: Default number of initial middle-density nodes.
GRID = 2048

_ENDPOINT_MARGIN = 1e-9
_REFINE_POINTS = 64
_REFINE_PASSES = 2
_REFINE_STEPS = np.arange(1.0, _REFINE_POINTS + 1)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search.

    V is None only when no start-grid node is feasible at the first
    scan gap, (1 - SCAN_OFFSET)*sqrtT.  For gamma > 1 gaps just below
    sqrtT are feasible, so the feasible middle densities there are
    narrower than the grid spacing, or the feasible gaps all lie closer
    to sqrtT than the first scan gap; the note says so.  feasible_probe
    lists every probed gap with its feasible middle-density intervals
    on the start grid, scan order first, bisection probes after.
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


@functools.lru_cache(maxsize=1)
def _initial_nodes(rho_minus: float, rho_plus: float, eos: Eos, grid: int) -> MiddleNodes:
    """The start grid of a feasibility search with its node terms.

    Returns the middle_nodes of the `grid` equispaced nodes strictly
    inside the density interval; its read-only rho_1 is the start grid.
    The cache keeps the last density pair, law and grid only: 16
    node-stage arrays of `grid` floats, so the start-grid calls of every
    probe of a threshold_V call, scan and bisection alike, share them.

    Raises DegenerateDensityError on equal densities, DomainError when
    the densities are too close for the endpoint margin to keep every
    node off the interval's ends (closer than about 1e-7 relative), and
    through middle_nodes when they leave the float range of the
    dissipation terms.  Every search calls it before its first kernel
    call.
    """
    if rho_minus == rho_plus:
        raise DegenerateDensityError(
            f"equal densities {rho_minus} leave no middle-density interval")
    lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
    delta = _ENDPOINT_MARGIN * (hi - lo)
    datum = RiemannData(rho_minus, rho_plus, (0.0, 0.0), (0.0, 0.0), eos)
    # linspace keeps its end values, and its nodes between them.
    nodes = np.linspace(lo + delta, hi - delta, grid)
    if not (lo < nodes[0] and nodes[-1] < hi):
        raise DomainError(
            f"densities {rho_minus} and {rho_plus} are too close to place a grid "
            f"of {grid} middle densities strictly between them")
    return middle_nodes(datum, nodes)


def _runs(nodes, mask) -> list:
    """(first, last) node of each run of feasible nodes, as floats.  A
    single run is read off the feasible nodes' indices directly."""
    on = np.flatnonzero(mask)
    if on.size and on[-1] - on[0] == on.size - 1:
        return [(float(nodes[on[0]]), float(nodes[on[-1]]))]
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(nodes[edges[::2]].tolist(), nodes[edges[1::2] - 1].tolist()))


def _check_grid(grid: int) -> None:
    if not isinstance(grid, numbers.Integral):
        raise DomainError(f"grid must be an integer number of nodes, got {grid!r}")
    if not grid >= 2:
        raise DomainError(f"grid must have at least 2 nodes, got {grid}")


def feasible_for_gap(rho_minus: float, rho_plus: float, v_plus2: float,
                     eos: Eos, w: float, *, grid: int = GRID):
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
        Initial number of middle-density nodes, at least 2.

    Returns
    -------
    feasible : bool
    intervals : list of (rho_lo, rho_hi)
        Feasible middle-density intervals on the start grid: the first
        and last node of each run of feasible nodes.  feasibility_scan
        refines their ends.
    """
    _check_grid(grid)
    data = RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                       v_minus=(0.0, v_plus2 + w), v_plus=(0.0, v_plus2), eos=eos)
    # Equal densities raise here, before their sqrt(T) = 0 leaves no gap.
    start = _initial_nodes(rho_minus, rho_plus, eos, grid)
    bound = data.functionals.sqrt_T
    if not 0.0 < w < bound:
        raise DomainError(f"gap w={w} outside the subsolution regime (0, sqrt(T)={bound})")
    intervals = _runs(start.rho_1, window_grid(data, start).feasible)
    return bool(intervals), intervals


def feasibility_scan(data: RiemannData, *, grid: int = GRID):
    """
    Scan the middle-density interval once for feasible intervals and a
    witness.

    Parameters
    ----------
    data : RiemannData
    grid : int, optional
        Initial number of middle-density nodes, at least 2.

    Returns
    -------
    intervals : list of (rho_lo, rho_hi)
        Feasible middle-density intervals on the refined grid: the start
        grid with _REFINE_POINTS nodes inserted, _REFINE_PASSES times,
        between each two neighbouring nodes whose masks differ.
    witness : FanSubsolution or None
        subsolution.witness_at the refined-grid node nearest the center
        of the widest feasible interval (the lower one of two equally
        near), when verify_subsolution passes it.  None when no node is
        feasible, or when that witness fails verification; the intervals
        are the same either way.

    Each pass evaluates all its inserted nodes in one kernel call, so a
    pass that fails a self-check raises the error of its worst node.
    """
    _check_grid(grid)
    start = _initial_nodes(data.rho_minus, data.rho_plus, data.eos, grid)
    nodes, mask = start.rho_1, window_grid(data, start).feasible
    for _ in range(_REFINE_PASSES):
        flip = np.flatnonzero(mask[1:] != mask[:-1])
        if not flip.size:
            break
        # The arithmetic of np.linspace(a, b, _REFINE_POINTS + 2)[1:-1]
        # for every flip at once.
        a = nodes[flip, None]
        inserted = _REFINE_STEPS * ((nodes[flip + 1, None] - a) / (_REFINE_POINTS + 1)) + a
        inserted = inserted.ravel()
        window = window_grid(data, middle_nodes(data, inserted))
        # A node's mask depends on its value only, so a repeated value
        # may keep either copy's.
        nodes, first = np.unique(np.concatenate((nodes, inserted)), return_index=True)
        mask = np.concatenate((mask, window.feasible))[first]
    intervals = _runs(nodes, mask)
    if not intervals:
        return intervals, None
    lo, hi = max(intervals, key=lambda interval: interval[1] - interval[0])
    nodes = nodes[(nodes >= lo) & (nodes <= hi)]
    # argmin takes the first, lower, of two equally near nodes.
    rho_1 = float(nodes[np.argmin(np.abs(nodes - 0.5 * (lo + hi)))])
    witness = witness_at(data, rho_1)
    return intervals, (witness if verify_subsolution(data, witness).passed else None)


def subsolution_witness(data: RiemannData) -> FanSubsolution | None:
    """
    Search the middle-density interval and build one concrete
    subsolution: the witness of feasibility_scan on the default grid,
    verified, or None when no node is feasible or its witness fails
    verification.
    """
    return feasibility_scan(data)[1]


def _column_datum(rho_minus: float, rho_plus: float, v_plus2: float, eos: Eos) -> RiemannData:
    """The datum of one threshold column at gap 0.  Raises
    DegenerateDensityError on equal densities, whose sqrt(T) = 0 leaves
    the scan no gap to probe, then RiemannData's DomainError on the
    densities, their pair and v_plus2, read as the v_plus it is."""
    if rho_minus == rho_plus:
        raise DegenerateDensityError(
            f"equal densities {rho_minus} admit no threshold search")
    return RiemannData(rho_minus=rho_minus, rho_plus=rho_plus, v_minus=(0.0, 0.0),
                       v_plus=(0.0, v_plus2), eos=eos)


def threshold_V(rho_minus: float, rho_plus: float, v_plus2: float,
                eos: Eos) -> ThresholdResult:
    """
    Locate the lower edge of the feasible gap interval abutting sqrt(T).

    Scans w downward from (1 - 1e-6)*sqrt(T) in steps of sqrt(T)/200
    until the first infeasible probe, then bisects the bracketing pair
    to BISECTION_TOL.  The returned V is the lowest gap probed feasible,
    so V < sqrt(T) always, and the probe just below V failed.

    Both phases probe through the same closure: one feasible_for_gap
    call per gap, on the cached start grid.  The scan stops at its first
    infeasible gap, so no gap past it is evaluated.  No probe is
    refined: refinement moves interval ends but decides no gap, so every
    probe's intervals are start-grid runs.

    For gamma = 1 the existence guarantee does not apply; the search
    still runs, with a warning.
    """
    datum = _column_datum(rho_minus, rho_plus, v_plus2, eos)
    if eos.gamma == 1.0:
        warnings.warn("threshold existence is only guaranteed for gamma > 1; "
                      "searching anyway", stacklevel=2)
    # T does not depend on the gap.
    sqrtT = datum.functionals.sqrt_T
    probes = []

    def feasible(w):
        # The module global, looked up at each call, so a wrapper of
        # feasible_for_gap sees every probe.
        ok, intervals = feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w)
        probes.append((w, intervals))
        return ok

    hi, w = None, (1.0 - SCAN_OFFSET) * sqrtT
    while w > 0.0 and feasible(w):
        hi, w = w, w - sqrtT / SCAN_STEPS
    if hi is None:
        return ThresholdResult(
            V=None, sqrtT=sqrtT, feasible_probe=probes, bisection_tol=BISECTION_TOL,
            note="no start-grid node is feasible at the first scan gap "
                 f"(1 - {SCAN_OFFSET!r})*sqrt(T): the feasible middle densities there, "
                 "if any, are narrower than the grid spacing, so the search has no "
                 "feasible gap to bisect from")

    lo, note = w, None
    if w <= 0.0:
        lo, note = 0.0, ("feasible at every probed gap; the reported V is the bisection "
                         "resolution above 0, not a detected feasibility edge")

    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid

    return ThresholdResult(V=float(hi), sqrtT=sqrtT, feasible_probe=probes,
                           bisection_tol=BISECTION_TOL, note=note)


def threshold_table(rho_minus: float, rho_plus: float, eos: Eos,
                    v_plus2_list) -> list[ThresholdRow]:
    """
    One threshold search per downstream velocity, errors kept per row.

    What every row shares is checked once, before the first row: equal
    densities raise DegenerateDensityError, and densities or a density
    pair that RiemannData rejects raise its DomainError.  Rows are then
    computed independently; a failing row, through its own v_plus2 or
    its search, carries the error message and a None result so the
    rest of the table still comes out.
    """
    _column_datum(rho_minus, rho_plus, 0.0, eos)
    rows = []
    for v_plus2 in v_plus2_list:
        try:
            rows.append(ThresholdRow(v_plus2=float(v_plus2),
                                     result=threshold_V(rho_minus, rho_plus, v_plus2, eos),
                                     error=None))
        except EulerFanError as exc:
            rows.append(ThresholdRow(v_plus2=float(v_plus2), result=None, error=str(exc)))
    return rows
