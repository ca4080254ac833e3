"""Non-uniqueness threshold for the velocity gap.

For a fixed pair of densities, downstream transverse velocity and
pressure law, subsolutions exist for every gap w = v_minus2 - v_plus2
sufficiently close to (but below) sqrt(T), the two-shock bound.  The
threshold V reported here is defined operationally: the infimum of the
feasible gap interval abutting sqrt(T), located by a descending scan
followed by bisection.  The scan stops at the first infeasible gap, and
every probe comes out as it would from a one-gap evaluation.  Bisection
probes one gap at a time through feasible_for_gap, about 15 times per
search.  The full probe trace is retained so a non-monotone feasibility
pattern, if one ever shows up, is visible in the result rather than
silently flattened into a single number.

Cost model.  Every probe starts from the same GRID middle densities.
Their node terms (subsolution.middle_nodes: every log, power and square
root that does not depend on the gap) are built once per density pair
and pressure law and cached by _initial_nodes.  Whether a probe is
feasible is decided on that start grid alone.  The scan evaluates two
gaps per window_grid call, 2 x GRID nodes, the next gap speculatively:
when the first gap of a call is infeasible, the second is dropped
unread, so the scan reads no gap past the first infeasible one.
Refinement then only moves the ends of the feasible intervals, so it
runs once, after the whole scan: two passes that each evaluate the
nodes inserted around the interval edges of every kept gap (about 128
per gap).  A segment is the 64 nodes inserted between two neighbouring
nodes whose masks differ, and a pass evaluates one kernel row per
segment, up to 32 segments (GRID nodes) per window_grid call.  A call
mixes the segments of several gaps and builds their node terms with
middle_nodes, the one form in which window_grid takes nodes.  Each
gap's datum forms its data_functionals once, on its start-grid call,
and both passes reuse them (RiemannData.functionals): on the seven
reference columns a search builds one DataFunctionals per evaluated
datum, 511 for 519 RiemannData and 452 window_grid calls (1393 when
every call formed its own).  A gap that fails in a pass raises the
error of all its inserted nodes of that pass evaluated together in one
kernel row, as a self-check names the worst node of its row.  The intervals
are read off the transitions inside the last pass's segments; no
refined grid is merged or sorted.  The segments of every kept gap are
held at once, about 1 KiB per gap and pass.  Calls of at most
2 x GRID nodes keep every temporary at or below 32 KiB, small enough
that the allocator reuses it from call to call instead of returning it
to the OS (see window_grid).  The cache keeps one start grid alive,
about 0.3 MB at GRID.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eos import Eos
from .errors import DegenerateDensityError, DomainError, EulerFanError
from .functionals import RiemannData
from .subsolution import FanSubsolution, MiddleNodes, middle_nodes, window_grid, witness_at

#: Termination width for the bisection phase of threshold_V.
BISECTION_TOL = 1e-6
#: Number of scan steps between sqrt(T) and 0 during the descent.
SCAN_STEPS = 200
#: Relative standoff of the first probe below sqrt(T).
SCAN_OFFSET = 1e-6
#: Default number of initial middle-density nodes.
GRID = 2048

_ENDPOINT_MARGIN = 1e-9
# Start-grid nodes per scan call: two gaps at GRID.  Three per call ran
# no faster and raised the peak memory; calls of 8192 nodes fault their
# temporaries in anew each time (see window_grid).
_SCAN_NODES = 4096
_REFINE_POINTS = 64
# Segments per refinement call: GRID nodes.
_REFINE_SEGMENTS = GRID // _REFINE_POINTS
_REFINE_PASSES = 2
_REFINE_STEPS = np.arange(1.0, _REFINE_POINTS + 1)


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
def _initial_nodes(rho_minus: float, rho_plus: float, eos: Eos, grid: int) -> MiddleNodes:
    """The start grid of a feasibility search with its node terms.

    Returns the middle_nodes of the `grid` equispaced nodes strictly
    inside the density interval; its read-only rho_1[0] is the start
    grid.  The cache keeps the last density pair, law and grid only:
    17 node-stage arrays of `grid` floats (0.3 MB at GRID), so the
    start-grid calls of every probe of a threshold_V call, scan and
    bisection alike, share them.

    Raises DomainError when the densities are too close for the
    endpoint margin to keep every node off the interval's ends (closer
    than about 1e-7 relative).
    """
    lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
    delta = _ENDPOINT_MARGIN * (hi - lo)
    datum = RiemannData(rho_minus, rho_plus, (0.0, 0.0), (0.0, 0.0), eos)
    try:
        return middle_nodes(datum, np.linspace(lo + delta, hi - delta, grid))
    except DomainError:
        raise DomainError(
            f"densities {rho_minus} and {rho_plus} are too close to place a grid "
            f"of {grid} middle densities strictly between them") from None


class _Refinement(NamedTuple):
    """The outcome of _feasibility_grids for the rows it evaluated.

    intervals[i] lists row i's feasible middle-density intervals on its
    twice-refined grid, and nodes is the shared start grid (the cached,
    read-only one).  passes holds one (row, values, masks) triple per
    refinement pass: segment j of the pass belongs to row[j], and
    values[j] are the two neighbouring nodes it refines with the
    _REFINE_POINTS nodes inserted between them, masks[j] their
    feasibility.  The pass evaluated values[j] without its two ends as
    one kernel row; row is nondecreasing.
    """

    intervals: list
    nodes: np.ndarray
    passes: list


def _start_grid_rows(rows, grid: int):
    """Each row with its mask on the cached start grid and its error, in
    row order.

    rows is an iterable of RiemannData that differ in the gap only (see
    window_grid).  Up to _SCAN_NODES // grid rows share a kernel call,
    so a caller that stops at a row may leave later rows evaluated but
    unread.  Nothing of those rows shows: not their masks or errors, not
    an error raised while a row is built (it is raised when that row's
    turn comes), and not a floating-point warning (a call of several
    rows that would warn is redone one row at a time).
    """
    rows, per = iter(rows), max(1, _SCAN_NODES // grid)
    start = late = None
    while late is None:
        block = []
        try:
            block.extend(itertools.islice(rows, per))
        except EulerFanError as exc:
            late = exc
        if not block:
            break
        if start is None:
            first = block[0]
            start = _initial_nodes(first.rho_minus, first.rho_plus, first.eos, grid)
        if len(block) > 1:
            try:
                with np.errstate(all="raise"):
                    window = window_grid(block, start)
            except FloatingPointError:
                pass
            else:
                yield from zip(block, window.feasible, window.errors)
                continue
        for data in block:
            window = window_grid([data], start)
            yield data, window.feasible[0], window.errors[0]
    if late is not None:
        raise late


def _feasibility_grids(rows, grid: int) -> _Refinement:
    """Feasible middle-density intervals of the gap rows, in order, up to
    and including the first row with an error or no feasible node.

    rows is an iterable of RiemannData that differ in the gap only (see
    window_grid).  Each row is decided on `grid` equispaced nodes
    strictly inside the density interval, on the cached start grid
    (_start_grid_rows), and no row past the first infeasible one is
    read.  Then every kept row twice inserts _REFINE_POINTS extra
    nodes into each subinterval where its mask flips, sharpening the
    interval edges.  Such a segment of inserted nodes is one kernel row,
    and a pass evaluates the segments of all kept rows in row order,
    _REFINE_SEGMENTS per call.  The first error in row order is raised,
    for a pass the error of the row's inserted nodes evaluated together,
    so the outcome is that of evaluating the rows one by one until the
    first infeasible one.
    """
    kept, flips, lows, ends, error = [], [], [], [], None
    for data, mask, error in _start_grid_rows(rows, grid):
        if error is not None:
            break
        # A row keeps where its mask flips, not the mask: a scan can keep
        # well over a hundred rows.
        flip = np.flatnonzero(mask[1:] != mask[:-1])
        kept.append(data)
        flips.append(flip)
        lows.append(mask[flip])
        ends.append((bool(mask[0]), bool(mask[-1])))
        if not (flip.size or mask[0]):
            break
    if not kept:
        raise error
    # The cached start grid of the rows.
    nodes = _initial_nodes(data.rho_minus, data.rho_plus, data.eos, grid).rho_1[0]
    # Refine between neighbouring nodes a < b whose masks differ, low
    # being the mask at a, seg_row their row: first on the start grid,
    # then inside the segments each pass inserts.
    seg_row = np.repeat(np.arange(len(kept)), [flip.size for flip in flips])
    k = np.concatenate(flips)
    a, b, low = nodes[k], nodes[k + 1], np.concatenate(lows)
    passes = []
    for _ in range(_REFINE_PASSES):
        if not seg_row.size:
            break
        # The arithmetic of np.linspace(a, b, _REFINE_POINTS + 2) for
        # every flip at once.
        values = np.concatenate(
            (a[:, None], _REFINE_STEPS * ((b - a) / (_REFINE_POINTS + 1))[:, None] + a[:, None],
             b[:, None]), axis=1)
        # One kernel row per segment, _REFINE_SEGMENTS segments per call;
        # consecutive segments of a row share its datum.
        owners = seg_row.tolist()
        new, errors = [], []
        for i in range(0, len(owners), _REFINE_SEGMENTS):
            window = window_grid([kept[r] for r in owners[i:i + _REFINE_SEGMENTS]],
                                 middle_nodes(data, values[i:i + _REFINE_SEGMENTS, 1:-1]))
            new.append(window.feasible)
            errors += window.errors
        seg_masks = np.concatenate((low[:, None], np.concatenate(new), ~low[:, None]), axis=1)
        failing = [r for r, e in zip(owners, errors) if e is not None]
        if failing:
            # The first failing row raises the error of all its inserted
            # nodes evaluated together: a check names the worst node of
            # the row, not of one segment.
            failed = failing[0]
            error = window_grid([kept[failed]], middle_nodes(
                data, values[seg_row == failed, 1:-1].reshape(1, -1))).errors[0]
            keep = seg_row < failed
            seg_row, values, seg_masks = seg_row[keep], values[keep], seg_masks[keep]
        passes.append((seg_row, values, seg_masks))
        seg, k = np.nonzero(seg_masks[:, 1:] != seg_masks[:, :-1])
        seg_row, a, b, low = seg_row[seg], values[seg, k], values[seg, k + 1], seg_masks[seg, k]
    if error is not None:
        raise error
    return _Refinement(_edge_intervals(ends, nodes, seg_row, a, b, low), nodes, passes)


def _edge_intervals(ends, nodes, row, a, b, low):
    """Feasible intervals of each row from the mask transitions of its
    refined grid: between neighbouring nodes a < b of row `row`, where
    `low` is the mask at a.  Transitions come in grid order per row; a
    row's first interval starts at the first node when its start mask
    does, and its last ends at the last node when its mask does there
    (ends holds the two per row)."""
    first, last = float(nodes[0]), float(nodes[-1])
    opened = [first if start else None for start, _ in ends]
    intervals = [[] for _ in ends]
    for r, lo, hi, fall in zip(row.tolist(), a.tolist(), b.tolist(), low.tolist()):
        if fall:
            intervals[r].append((opened[r], lo))
        else:
            opened[r] = hi
    for r, (_, end) in enumerate(ends):
        if end:
            intervals[r].append((opened[r], last))
    return intervals


def _check_grid(grid: int) -> None:
    if not isinstance(grid, numbers.Integral):
        raise DomainError(f"grid must be an integer number of nodes, got {grid!r}")
    if not grid >= 2:
        raise DomainError(f"grid must have at least 2 nodes, got {grid}")


def _gap_datum(rho_minus, rho_plus, v_plus2, eos: Eos, w: float, bound=None) -> RiemannData:
    """The datum of gap w, which must lie in (0, sqrt(T)); bound is
    sqrt(T), formed here when the caller does not hold it."""
    data = RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                       v_minus=(0.0, v_plus2 + w), v_plus=(0.0, v_plus2), eos=eos)
    bound = math.sqrt(eos._two_shock_T(rho_minus, rho_plus)) if bound is None else bound
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
    intervals = _feasibility_grids([data], grid).intervals[0]
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
        subsolution.witness_at the refined-grid node nearest the center
        of the widest feasible interval (the lower one of two equally
        near).  None when no node is feasible.
    """
    _check_grid(grid)
    found = _feasibility_grids([data], grid)
    intervals = found.intervals[0]
    if not intervals:
        return intervals, None
    lo, hi = max(intervals, key=lambda interval: interval[1] - interval[0])
    center = 0.5 * (lo + hi)
    # Every node of the refined grid, some more than once.
    nodes = np.concatenate([found.nodes, *(values.ravel() for _, values, _ in found.passes)])
    nodes = nodes[(nodes >= lo) & (nodes <= hi)]
    distance = np.abs(nodes - center)
    rho_1 = float(nodes[distance == distance.min()].min())
    return intervals, witness_at(data, rho_1)


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

    The scan decides its gaps on the cached start grid, two per kernel
    call, and stops at its first infeasible gap.  A gap evaluated after
    it in the same call is dropped unread, with its mask, its error and
    any floating-point warning, so the probe trace, V and any error
    raised are those of probing one gap at a time.  The kept gaps are
    refined together after the scan, since refinement moves interval
    ends but decides no gap.  Bisection probes go through
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

    # RiemannData validates the inputs, v_plus2 as the v_plus it is; T
    # does not depend on the gap.
    RiemannData(rho_minus=rho_minus, rho_plus=rho_plus,
                v_minus=(0.0, 0.0), v_plus=(0.0, v_plus2), eos=eos)
    sqrtT = math.sqrt(eos._two_shock_T(rho_minus, rho_plus))
    step = sqrtT / SCAN_STEPS
    gaps = []
    w = (1.0 - SCAN_OFFSET) * sqrtT
    while w > 0.0:
        gaps.append(w)
        w -= step

    # Only the first gap can fail _gap_datum: later ones are smaller and
    # still positive.
    rows = (_gap_datum(rho_minus, rho_plus, v_plus2, eos, gap, sqrtT) for gap in gaps)
    probes = list(zip(gaps, _feasibility_grids(rows, GRID).intervals)) if gaps else []
    hi = lo = None
    for gap, intervals in probes:
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
