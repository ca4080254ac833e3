"""Non-uniqueness threshold for the velocity gap.

For a fixed pair of densities, downstream transverse velocity and
pressure law, subsolutions exist for every gap w = v_minus2 - v_plus2
sufficiently close to (but below) sqrt(T), the two-shock bound.  The
threshold V reported here is defined operationally: the infimum of the
feasible gap interval abutting sqrt(T), located by a descending scan
followed by bisection.  The scan evaluates its gaps in blocks of up to
_SCAN_BLOCK (8), each block as one (gap x middle density) call of the
window kernel, and stops at the first infeasible gap; every probe comes
out as it would from a one-gap evaluation.  Bisection probes one gap at
a time through feasible_for_gap, about 15 times per search.  The full
probe trace is retained so a non-monotone feasibility pattern, if one
ever shows up, is visible in the result rather than silently flattened
into a single number.

Cost model.  Every probe starts from the same GRID middle densities.
Their node terms (subsolution.middle_nodes: every log, power and square
root that does not depend on the gap) are built once per density pair
and pressure law and cached by _initial_nodes, so a scan block or a
bisection probe pays only the row stage of the kernel on the start grid
plus the refinement passes around its feasibility edges.  The cache
keeps one start grid alive, about 0.2 MB at GRID.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eos import Eos
from .errors import DegenerateDensityError, DomainError, EulerFanError
from .functionals import RiemannData
from .subsolution import (FanSubsolution, eps2_window, middle_nodes, reconstruct,
                          window_grid)

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
# Gaps per kernel call in the descending scan, so at most 8 x GRID nodes.
# With the start grid's node terms cached, a block costs only the row
# stage.  Blocks of 8 and the cache put the peak RSS of a threshold_table
# run at 36.8 MB, against 35.1 MB for blocks of 4 without the cache
# (medians of 10 benchmark runs, 2-vCPU x86-64 host); blocks of 16 added
# 4.2 MB to blocks of 4 before the cache.
_SCAN_BLOCK = 8


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


@functools.lru_cache(maxsize=1)
def _initial_nodes(rho_minus: float, rho_plus: float, eos: Eos, grid: int):
    """The start grid of a feasibility search and its node terms.

    Returns the `grid` equispaced nodes strictly inside the density
    interval, read-only, and their middle_nodes.  The cache keeps the
    last density pair, law and grid only: the nodes and their 13
    node-stage arrays of `grid` floats (0.2 MB at GRID), so every scan
    block and every bisection probe of a threshold_V call shares them.
    An interval too narrow for the endpoint margin puts nodes on its
    ends; the nodes then stand in for their terms, and window_grid
    raises as for any plain densities outside the interval, a row's own
    error first.
    """
    lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
    delta = _ENDPOINT_MARGIN * (hi - lo)
    nodes = np.linspace(lo + delta, hi - delta, grid)
    nodes.flags.writeable = False
    datum = RiemannData(rho_minus, rho_plus, (0.0, 0.0), (0.0, 0.0), eos)
    try:
        return nodes, middle_nodes(datum, nodes)
    except DomainError:
        return nodes, nodes


def _feasibility_grids(rows, grid: int):
    """Feasibility masks on adaptive middle-density grids for the gap
    rows, in order, up to and including the first row with no feasible
    node.

    rows are RiemannData that differ in the gap only (see window_grid).
    Each row starts from `grid` equispaced nodes strictly inside the
    density interval and twice inserts _REFINE_POINTS extra nodes into
    every subinterval where its mask flips, sharpening the interval
    edges.  A pass evaluates only the inserted nodes, of all rows in one
    kernel call.  Rows past the first infeasible one are dropped
    unrefined, and the first error among the kept rows is raised, so the
    outcome is that of evaluating the rows one by one until the first
    infeasible one.

    Returns a list of (nodes, mask) pairs.
    """
    first = rows[0]
    nodes, start = _initial_nodes(first.rho_minus, first.rho_plus, first.eos, grid)
    window = window_grid(rows, start)
    errors = list(window.errors)
    stop = next((i for i, mask in enumerate(window.feasible)
                 if errors[i] is not None or not mask.any()), len(rows))
    grids = [(nodes, mask) for mask in window.feasible[:stop + 1]]
    refining = range(stop)
    for _ in range(_REFINE_PASSES):
        inserted = {}
        for i in refining:
            nodes, mask = grids[i]
            flips = np.flatnonzero(mask[:-1] != mask[1:])
            if flips.size:
                # The arithmetic of np.linspace(a, b, _REFINE_POINTS + 2)[1:-1]
                # for every flip at once.
                a, b = nodes[flips, None], nodes[flips + 1, None]
                inserted[i] = (_REFINE_STEPS * ((b - a) / (_REFINE_POINTS + 1)) + a).ravel()
        if not inserted:
            break
        # Rows insert different numbers of nodes: pad each row with
        # copies of its last node, which move none of its checks.
        width = max(new.size for new in inserted.values())
        window = window_grid(
            [rows[i] for i in inserted],
            [np.concatenate([new, np.full(width - new.size, new[-1])])
             for new in inserted.values()])
        for (i, new), new_mask, error in zip(inserted.items(), window.feasible,
                                             window.errors):
            if error is not None:
                errors[i] = error
                continue
            nodes, mask = grids[i]
            merged, first_seen = np.unique(np.concatenate([nodes, new]),
                                           return_index=True)
            grids[i] = (merged, np.concatenate([mask, new_mask[:new.size]])[first_seen])
        refining = [i for i in inserted if errors[i] is None]
    failed = next((e for e in errors[:stop + 1] if e is not None), None)
    if failed is not None:
        raise failed
    return grids


def _feasible_runs(mask: np.ndarray):
    """Maximal runs of True in mask as (first_index, last_index) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def _intervals(nodes: np.ndarray, runs):
    """Feasible runs of a grid as middle-density intervals (rho_lo, rho_hi)."""
    return [(float(nodes[i]), float(nodes[j])) for i, j in runs]


def _check_grid(grid: int) -> None:
    if not isinstance(grid, numbers.Integral):
        raise DomainError(f"grid must be an integer number of nodes, got {grid!r}")
    if not grid >= 2:
        raise DomainError(f"grid must have at least 2 nodes, got {grid}")


def _gap_datum(rho_minus, rho_plus, v_plus2, eos: Eos, w: float) -> RiemannData:
    """The datum of gap w, which must lie in (0, sqrt(T))."""
    data = RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                       v_minus=(0.0, v_plus2 + w), v_plus=(0.0, v_plus2), eos=eos)
    bound = math.sqrt(eos._two_shock_T(rho_minus, rho_plus))
    if not 0.0 < w < bound:
        raise DomainError(
            f"gap w={w} outside the subsolution regime (0, sqrt(T)={bound})")
    return data


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
        Feasible middle-density intervals, resolved to the refined grid.
    """
    _check_grid(grid)
    if rho_minus == rho_plus:
        raise DegenerateDensityError(
            f"equal densities {rho_minus} leave no middle-density interval")
    data = _gap_datum(rho_minus, rho_plus, v_plus2, eos, w)
    nodes, mask = _feasibility_grids([data], grid)[0]
    intervals = _intervals(nodes, _feasible_runs(mask))
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
        Feasible middle-density intervals, resolved to the refined grid
        (as in feasible_for_gap).
    witness : FanSubsolution or None
        Built at the feasible node nearest the center of the widest
        feasible run, with the free slack at the midpoint of its
        admissible window (or just above the lower edge when the window
        is unbounded) and the common first velocity component.  None
        when no node is feasible.
    """
    _check_grid(grid)
    nodes, mask = _feasibility_grids([data], grid)[0]
    runs = _feasible_runs(mask)
    intervals = _intervals(nodes, runs)
    if not runs:
        return intervals, None
    first, last = max(runs, key=lambda r: nodes[r[1]] - nodes[r[0]])
    center = 0.5 * (nodes[first] + nodes[last])
    rho_1 = float(nodes[first + int(np.argmin(np.abs(nodes[first:last + 1] - center)))])

    window = eps2_window(data, rho_1)
    eff_lower = max(window.eps2_lower, 0.0)
    upper = window.eps2_upper
    eps_2 = 0.5 * (eff_lower + upper) if math.isfinite(upper) else eff_lower + 1.0
    return intervals, reconstruct(data, rho_1, eps_2, alpha=data.v_plus[0])


def subsolution_witness(data: RiemannData) -> FanSubsolution | None:
    """
    Search the middle-density interval and build one concrete
    subsolution: the witness of feasibility_scan on the default grid,
    or None when no node is feasible.
    """
    return feasibility_scan(data)[1]


def threshold_V(rho_minus: float, rho_plus: float, v_plus2: float,
                eos: Eos) -> ThresholdResult:
    """
    Locate the lower edge of the feasible gap interval abutting sqrt(T).

    Scans w downward from (1 - 1e-6)*sqrt(T) in steps of sqrt(T)/200
    until the first infeasible probe, then bisects the bracketing pair
    to BISECTION_TOL.  The returned V is the lowest gap probed feasible,
    so V < sqrt(T) always, and the probe just below V failed.

    The scan takes its gaps _SCAN_BLOCK at a time into one kernel call;
    gaps of a block past its first infeasible one are discarded
    unrecorded, so the probe trace, V and any error raised are those of
    probing one gap at a time.  Bisection probes go through
    feasible_for_gap one by one.

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
    while w > 0.0 and lo is None:
        gaps = []
        while w > 0.0 and len(gaps) < _SCAN_BLOCK:
            gaps.append(w)
            w -= step
        # Only the first gap of the scan can fail _gap_datum: later ones
        # are smaller and still positive.
        rows = [_gap_datum(rho_minus, rho_plus, v_plus2, eos, gap) for gap in gaps]
        for gap, (nodes, mask) in zip(gaps, _feasibility_grids(rows, GRID)):
            intervals = _intervals(nodes, _feasible_runs(mask))
            probes.append((gap, intervals))
            if intervals:
                hi = gap
            else:
                lo = gap

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
