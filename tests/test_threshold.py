"""Tests for the feasibility decision at a fixed velocity gap and the
threshold search over gaps."""

import dataclasses
import functools
import hashlib
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

import eulerfan.subsolution
import eulerfan.threshold
from eulerfan import (DataFunctionals, DegenerateDensityError, DomainError, Eos,
                      EulerFanError, NumericalError, RiemannData, ThresholdResult,
                      ThresholdRow, data_functionals, eps2_window,
                      epsilon1_sign_change, feasibility_scan, feasible_for_gap,
                      reconstruct, subsolution_witness, threshold_V,
                      threshold_table, two_shock_T, verify_subsolution,
                      witness_at)
from eulerfan.subsolution import middle_nodes
from eulerfan.threshold import (_REFINE_PASSES, BISECTION_TOL, GRID, SCAN_OFFSET,
                                SCAN_STEPS, _initial_nodes, _runs)
from kernel_helpers import window_row


GAMMA2 = Eos(2.0)
SQRT_T = math.sqrt(45.0 / 4.0)
COLUMNS = [0.1, 1.0, 2.0, 0.0, -0.1, -1.0, -2.0]


def feasible_runs(mask):
    """Maximal runs of True in mask as (first_index, last_index) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def reference_grid(data, grid=2048, passes=2):
    """Sequential reference grid: every refinement pass recomputes all
    nodes; passes=0 gives the start grid."""
    lo, hi = sorted((data.rho_minus, data.rho_plus))
    nodes = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), grid)
    mask = window_row(data, nodes).feasible
    for _ in range(passes):
        flips = np.nonzero(mask[:-1] != mask[1:])[0]
        if flips.size == 0:
            break
        extra = [np.linspace(nodes[i], nodes[i + 1], 66)[1:-1] for i in flips]
        nodes = np.unique(np.concatenate([nodes, *extra]))
        mask = window_row(data, nodes).feasible
    return nodes, mask


def reference_intervals(nodes, mask):
    return [(float(nodes[i]), float(nodes[j])) for i, j in feasible_runs(mask)]


def start_spacing(rho_minus, rho_plus):
    """Node spacing of the gamma = 2 start grid."""
    return np.diff(_initial_nodes(rho_minus, rho_plus, GAMMA2, GRID).rho_1[:2]).item()


def sha16(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@functools.cache
def refined_column(rho_minus, rho_plus, v_plus2):
    """threshold_V on a gamma = 2 column, with feasibility_scan's refined
    intervals at each of its probes ([] where no start-grid node is
    feasible, as the scan then refines nothing).  Cached: two tests read
    it, and the scans take about 2 s over the fourteen columns."""
    result = threshold_V(rho_minus, rho_plus, v_plus2, GAMMA2)
    refined = [feasibility_scan(RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w),
                                            (0.0, v_plus2), GAMMA2))[0] if intervals else []
               for w, intervals in result.feasible_probe]
    return result, refined


def reference_threshold(rho_minus, rho_plus, v_plus2, eos):
    """Sequential reference for threshold_V, one gap per probe decided on
    the start grid, on data whose scan finds a feasibility edge."""
    sqrtT = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
    probes = []

    def feasible(w):
        data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
        probes.append((w, reference_intervals(*reference_grid(data, passes=0))))
        return bool(probes[-1][1])

    hi, w = None, (1.0 - SCAN_OFFSET) * sqrtT
    while w > 0.0 and feasible(w):
        hi, w = w, w - sqrtT / SCAN_STEPS
    assert hi is not None and w > 0.0, "the reference models an edge only"
    lo = w
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(V=float(hi), sqrtT=sqrtT, feasible_probe=probes,
                           bisection_tol=BISECTION_TOL, note=None)


class TestFeasibleForGap:
    """feasible_for_gap decides on the start grid, so its interval ends
    are start-grid nodes; TestFeasibilityScan checks where the refined
    ends lie."""

    def test_golden_gap_is_feasible(self):
        ok, intervals = feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3)
        assert ok
        assert len(intervals) == 1

    def test_small_gap_is_infeasible(self):
        ok, intervals = feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 0.5)
        assert not ok
        assert intervals == []

    def test_swapped_ordering_run_ends_at_slack_zero(self):
        """The last run ends on the start-grid node just below the zero
        of eps_1."""
        ok, intervals = feasible_for_gap(4.0, 1.0, 0.0, GAMMA2, 3.3)
        assert ok
        data = RiemannData(4.0, 1.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
        assert 0.0 <= epsilon1_sign_change(data) - intervals[-1][1] < start_spacing(4.0, 1.0)

    def test_near_bound_gap_is_feasible_both_orderings(self):
        w = 0.999 * SQRT_T
        assert feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, w)[0]
        assert feasible_for_gap(4.0, 1.0, 0.0, GAMMA2, w)[0]

    @pytest.mark.parametrize("w", [0.0, -1.0, SQRT_T, 5.0])
    def test_gap_outside_regime_rejected(self, w):
        with pytest.raises(DomainError, match="outside the subsolution regime"):
            feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, w)

    def test_equal_densities_rejected(self):
        with pytest.raises(DegenerateDensityError):
            feasible_for_gap(2.0, 2.0, 0.0, GAMMA2, 0.5)

    def test_data_beyond_the_float_range_rejected(self):
        # Every field is finite, but A*A and R*H overflow, so B is NaN.
        eos = Eos(1.0)
        data = RiemannData(1e150, 1.0, (0.0, 1e70), (0.0, 0.0), eos)
        message = "B = A[*]A - R[*]H = nan is not a finite float"
        with pytest.raises(DomainError, match=message):
            feasible_for_gap(1e150, 1.0, 0.0, eos, 1e70)
        with pytest.raises(DomainError, match=message):
            feasibility_scan(data)
        with pytest.raises(DomainError, match=message), pytest.warns(UserWarning):
            threshold_V(1e150, 1.0, 1e70, eos)

    def test_coarse_grid_same_verdict(self):
        ok_fine, _ = feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3)
        ok_coarse, _ = feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=128)
        assert ok_fine == ok_coarse


@pytest.mark.parametrize("mask, runs", [
    ([False, False, False, False], []),
    ([True, True, True, True], [(0, 3)]),
    ([True, False, False, False], [(0, 0)]),
    ([False, False, False, True], [(3, 3)]),
    ([True, True, False, False, True], [(0, 1), (4, 4)]),
    ([False, True, False, True, False, True], [(1, 1), (3, 3), (5, 5)]),
    ([True], [(0, 0)]),
    ([False], []),
])
def test_feasible_runs(mask, runs):
    assert feasible_runs(np.array(mask)) == runs


def test_feasible_runs_match_a_loop_reference():
    def loop_runs(mask):
        runs, start = [], None
        for i, ok in enumerate(mask):
            if ok and start is None:
                start = i
            elif not ok and start is not None:
                runs.append((start, i - 1))
                start = None
        if start is not None:
            runs.append((start, len(mask) - 1))
        return runs

    rng = np.random.default_rng(43)
    for _ in range(200):
        mask = rng.uniform(size=int(rng.integers(1, 60))) < rng.uniform()
        assert feasible_runs(mask) == loop_runs(mask)


def test_runs_match_feasible_runs():
    """The intervals of a mask are its runs, as Python floats: a single
    run (the fast path) in the interior, touching either end, of one
    node or of the whole grid; two or more runs; runs touching either
    end of the grid and one-node grids included."""
    rng = np.random.default_rng(47)
    nodes = np.linspace(1.0, 2.0, 40)
    masks = rng.uniform(size=(40, nodes.size)) < rng.uniform(size=(40, 1))
    masks[0], masks[1] = True, False
    shaped = np.zeros((6, nodes.size), dtype=bool)
    for mask, runs in zip(shaped, ([(5, 9)], [(0, 7)], [(30, 40)], [(12, 13)],
                                   [(2, 5), (10, 20)], [(0, 3), (8, 9), (37, 40)])):
        for start, stop in runs:
            mask[start:stop] = True
    masks = np.concatenate((masks, shaped))
    got = [_runs(nodes, mask) for mask in masks]
    assert got == [reference_intervals(nodes, mask) for mask in masks]
    assert [len(runs) for runs in got[-6:]] == [1, 1, 1, 1, 2, 3]
    assert {type(end) for runs in got for run in runs for end in run} == {float}
    assert any(mask[0] and not mask.all() for mask in masks[2:])
    assert any(mask[-1] and not mask.all() for mask in masks[2:])
    for mask in (np.array([True]), np.array([False])):
        assert _runs(nodes[:1], mask) == reference_intervals(nodes[:1], mask)


class TestFeasibilityScan:
    GOLDEN = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)

    def test_equal_densities_rejected(self):
        """As feasible_for_gap: the start grid rejects equal densities,
        before it is placed."""
        data = RiemannData(1.0, 1.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
        with pytest.raises(DegenerateDensityError,
                           match="^equal densities 1.0 leave no middle-density interval$"):
            feasibility_scan(data)

    def test_intervals_match_feasible_for_gap(self):
        """The refined run contains feasible_for_gap's start-grid run and
        reaches past it by less than one start-grid spacing."""
        (lo, hi), = feasibility_scan(self.GOLDEN)[0]
        ok, [(start_lo, start_hi)] = feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3)
        spacing = start_spacing(1.0, 4.0)
        assert ok
        assert start_lo - spacing < lo <= start_lo and start_hi <= hi < start_hi + spacing

    def test_golden_run_ends_at_rho_T(self):
        (lo, hi), = feasibility_scan(self.GOLDEN)[0]
        assert 1.09 < lo < 1.10
        # The feasible run ends where the downstream-velocity sign
        # flips, at rho_T = 45 / 12.33.
        assert hi == pytest.approx(data_functionals(self.GOLDEN).rho_T, abs=1e-5)

    def test_swapped_ordering_run_ends_at_slack_zero(self):
        data = RiemannData(4.0, 1.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
        intervals, _ = feasibility_scan(data)
        assert intervals[-1][1] == pytest.approx(epsilon1_sign_change(data), abs=1e-5)

    def test_deciding_never_refines(self, monkeypatch):
        """threshold_V and feasible_for_gap evaluate the cached start grid
        only, one datum per kernel call; feasibility_scan adds at most one
        kernel call of its datum per refinement pass."""
        kernel = eulerfan.threshold.window_grid
        calls = []

        def window_grid(data, nodes):
            calls.append((data, nodes))
            return kernel(data, nodes)

        monkeypatch.setattr(eulerfan.threshold, "window_grid", window_grid)
        for rho_minus, rho_plus in ((1.0, 4.0), (4.0, 1.0)):
            threshold_V(rho_minus, rho_plus, 0.0, GAMMA2)
            feasible_for_gap(rho_minus, rho_plus, 0.0, GAMMA2, 3.3)
            start = _initial_nodes(rho_minus, rho_plus, GAMMA2, GRID)
            assert calls and all(isinstance(data, RiemannData) and nodes is start
                                 for data, nodes in calls)
            calls.clear()
        feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=128)
        start = _initial_nodes(1.0, 4.0, GAMMA2, 128)
        (data, nodes), = calls
        assert data.v_minus == (0.0, 3.3) and nodes is start
        calls.clear()
        feasibility_scan(self.GOLDEN)
        (data, nodes), *refined = calls
        assert data is self.GOLDEN and nodes is _initial_nodes(1.0, 4.0, GAMMA2, GRID)
        assert 0 < len(refined) <= _REFINE_PASSES
        assert all(data is self.GOLDEN and nodes.rho_1.ndim == 1 for data, nodes in refined)

    def test_witness_matches_subsolution_witness(self):
        _, witness = feasibility_scan(self.GOLDEN)
        assert witness is not None
        assert witness == subsolution_witness(self.GOLDEN)

    def test_infeasible_datum(self):
        data = RiemannData(1.0, 4.0, (0.0, 0.5), (0.0, 0.0), GAMMA2)
        assert feasibility_scan(data) == ([], None)

    def test_witness_node_matches_the_reference_grid(self):
        """The witness sits on the node of the refined grid nearest the
        center of the widest run, the lower of two equally near; on
        coarse grids that is often an inserted node."""
        rng = np.random.default_rng(71)
        found = inserted = 0
        for trial in range(24):
            lo = float(10.0 ** rng.uniform(-1, 1))
            hi = lo * float(10.0 ** rng.uniform(0.1, 1.0))
            rho_minus, rho_plus = (hi, lo) if trial % 2 else (lo, hi)
            eos = Eos((1.4, 2.0, 3.0, 5.0)[trial // 2 % 4])
            v_plus2 = float(rng.uniform(-3.0, 3.0))
            w = float(rng.uniform(0.6, 0.999)) * math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            data = RiemannData(rho_minus, rho_plus, (0.5, v_plus2 + w), (0.5, v_plus2), eos)
            grid = int(rng.choice([5, 17, 64]))
            nodes, mask = reference_grid(data, grid)
            runs = feasible_runs(mask)
            intervals, witness = feasibility_scan(data, grid=grid)
            assert intervals == reference_intervals(nodes, mask)
            if not runs:
                assert witness is None
                continue
            first, last = max(runs, key=lambda run: nodes[run[1]] - nodes[run[0]])
            center = 0.5 * (nodes[first] + nodes[last])
            rho_1 = nodes[first + int(np.argmin(np.abs(nodes[first:last + 1] - center)))]
            assert witness.rho_1 == rho_1
            found += 1
            inserted += rho_1 not in np.linspace(nodes[0], nodes[-1], grid)
        assert found >= 8 and inserted >= 2, (found, inserted)

    def test_one_kernel_call_per_witness(self, monkeypatch):
        """The witness comes from one one-node window; the search itself
        calls the kernel through the threshold module."""
        calls = []
        kernel = eulerfan.subsolution.window_grid

        def window_grid(data, nodes):
            calls.append(nodes.rho_1.size)
            return kernel(data, nodes)

        monkeypatch.setattr(eulerfan.subsolution, "window_grid", window_grid)
        _, witness = feasibility_scan(self.GOLDEN)
        assert witness is not None and calls == [1]
        calls.clear()
        infeasible = RiemannData(1.0, 4.0, (0.0, 0.5), (0.0, 0.0), GAMMA2)
        assert feasibility_scan(infeasible) == ([], None) and calls == []

    def test_witness_is_the_midpoint_reconstruction(self):
        """witness_at places eps_2 at the midpoint of the eps2_window
        bounds, the lower one raised to 0, cut to a width of
        max(lower, eps_1), and matches reconstruct.  The cut decides
        here: eps_1 = 3.75 is below the window's width of 4.34."""
        _, witness = feasibility_scan(self.GOLDEN)
        window = eps2_window(self.GOLDEN, witness.rho_1)
        lower = max(window.eps2_lower, 0.0)
        assert window.eps_1 < window.eps2_upper - lower
        eps_2 = lower + 0.5 * max(lower, window.eps_1)
        assert witness == witness_at(self.GOLDEN, witness.rho_1)
        assert witness == reconstruct(self.GOLDEN, witness.rho_1, eps_2)


class TestSubsolutionWitness:
    def test_golden_witness_verifies(self):
        data = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
        sub = subsolution_witness(data)
        assert sub is not None
        assert 1.0 < sub.rho_1 < 4.0
        report = verify_subsolution(data, sub)
        assert report.passed, report

    def test_infeasible_data_gives_none(self):
        data = RiemannData(1.0, 4.0, (0.0, 0.5), (0.0, 0.0), GAMMA2)
        assert subsolution_witness(data) is None

    def test_random_witnesses_verify(self):
        """Every witness the search produces must survive the
        independent verifier, including with a nonzero common first
        velocity component."""
        rng = np.random.default_rng(37)
        found = 0
        for _ in range(40):
            rho_lo = float(10.0 ** rng.uniform(-1, 1))
            rho_hi = rho_lo * float(10.0 ** rng.uniform(0.1, 1.0))
            rho_minus, rho_plus = ((rho_hi, rho_lo) if rng.uniform() < 0.5
                                   else (rho_lo, rho_hi))
            eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
            t_val = ((rho_plus - rho_minus)
                     * (rho_plus**eos.gamma - rho_minus**eos.gamma)
                     / (rho_plus * rho_minus))
            w = float(rng.uniform(0.6, 0.999)) * math.sqrt(t_val)
            v1 = float(rng.uniform(-2.0, 2.0))
            v2 = float(rng.uniform(-3.0, 3.0))
            data = RiemannData(rho_minus, rho_plus, (v1, v2 + w),
                               (v1, v2), eos)
            sub = feasibility_scan(data, grid=512)[1]
            if sub is None:
                continue
            found += 1
            assert sub.alpha == v1
            report = verify_subsolution(data, sub)
            assert report.passed, f"witness failed for {data}: {report}"
        assert found >= 20, f"only {found} witnesses found; seeds too stingy"


class TestOnlyVerifiedWitnesses:
    """feasibility_scan returns its witness only when verify_subsolution
    passes it, so subsolution_witness, the region map and the
    feasibility command share one rule."""

    # A density ratio of 1.9e5 at gamma = 3: the witness has a
    # mom2_right residual of 1.8e-8, above the verifier's 1e-9 gate.
    RHO = (0.06912508235544329, 13107.946808096181)
    V2 = (5707940.237114986, 9.60470760494541)
    UNVERIFIED = RiemannData(*RHO, (0.0, V2[0]), (0.0, V2[1]), Eos(3.0))

    def test_unverified_witness_is_dropped_and_intervals_kept(self, monkeypatch):
        reports = []

        def verify(data, sub):
            reports.append(verify_subsolution(data, sub))
            return reports[-1]

        monkeypatch.setattr(eulerfan.threshold, "verify_subsolution", verify)
        intervals, witness = feasibility_scan(self.UNVERIFIED)
        assert intervals and witness is None
        (report,) = reports
        assert not report.passed
        assert report.equality_residuals["mom2_right"] > report.equality_tol
        assert subsolution_witness(self.UNVERIFIED) is None

    def test_reflected_datum_keeps_its_witness(self):
        """The densities swapped, at the same velocities: the witness
        verifies to about 1.5e-15."""
        reflected = RiemannData(*self.RHO[::-1], (0.0, self.V2[0]), (0.0, self.V2[1]),
                                Eos(3.0))
        intervals, witness = feasibility_scan(reflected)
        assert intervals and witness is not None
        report = verify_subsolution(reflected, witness)
        assert report.passed and report.max_equality_residual < 1e-14

    def test_witness_on_the_scale_of_eps_1_verifies(self):
        """A density ratio of 1e4 at a gap of 0.999999 sqrt(T).  The
        midpoint of the whole window would put eps_2 at 3200 times eps_1,
        so that eps_1 cancels in C and mom2_right fails at 4.7e-9; at
        eps_2 = eps_1/2 the witness verifies to about 7e-13."""
        data = RiemannData(1.0, 1e4, (0.0, 9999.489938001936), (0.0, 0.0), GAMMA2)
        intervals, witness = feasibility_scan(data)
        assert intervals and witness.eps_2 == 0.5 * witness.eps_1
        assert verify_subsolution(data, witness).max_equality_residual < 1e-12


class TestThresholdV:
    def test_golden_threshold_value(self):
        result = threshold_V(1.0, 4.0, 0.0, GAMMA2)
        assert result.V == pytest.approx(2.69, abs=0.05)
        assert result.note is None

    def test_result_invariants(self):
        result = threshold_V(1.0, 4.0, 1.0, GAMMA2)
        assert 0.0 < result.V < result.sqrtT
        assert result.sqrtT == pytest.approx(SQRT_T, rel=1e-12)
        assert result.bisection_tol == BISECTION_TOL
        probes = result.feasible_probe
        assert probes[0][0] == pytest.approx((1.0 - 1e-6) * SQRT_T, rel=1e-12)
        assert all(0.0 < w < SQRT_T for w, _ in probes)
        feasible_ws = [w for w, intervals in probes if intervals]
        assert result.V == min(feasible_ws)

    @pytest.mark.parametrize("v_plus2", [0.0, 1.0])
    def test_threshold_sandwich(self, v_plus2):
        """Halfway between V and the bound is feasible; just below V,
        past the bisection gap, is not."""
        result = threshold_V(1.0, 4.0, v_plus2, GAMMA2)
        mid = 0.5 * (result.V + result.sqrtT)
        assert feasible_for_gap(1.0, 4.0, v_plus2, GAMMA2, mid)[0]
        assert not feasible_for_gap(1.0, 4.0, v_plus2, GAMMA2,
                                    result.V - 1e-4)[0]

    def test_swapped_ordering_has_lower_threshold(self):
        swap = threshold_V(4.0, 1.0, 0.0, GAMMA2)
        base = threshold_V(1.0, 4.0, 0.0, GAMMA2)
        assert 0.0 < swap.V < base.V
        mid = 0.5 * (swap.V + swap.sqrtT)
        assert feasible_for_gap(4.0, 1.0, 0.0, GAMMA2, mid)[0]

    def test_equal_densities_rejected(self):
        with pytest.raises(DegenerateDensityError):
            threshold_V(3.0, 3.0, 0.0, GAMMA2)

    def test_no_start_grid_node_feasible_at_the_first_gap(self):
        """V is None when no start-grid node is feasible at the first
        scan gap.  Here a feasible set exists there, narrower than the
        start-grid spacing: a 65536-node grid finds one node."""
        data = (0.1237000021836671, 0.12579593614113987, 9.49385062351988, GAMMA2)
        result = threshold_V(*data)
        assert result.V is None and len(result.feasible_probe) == 1
        assert result.note == (
            "no start-grid node is feasible at the first scan gap (1 - 1e-06)*sqrt(T): "
            "the feasible middle densities there, if any, are narrower than the grid "
            "spacing, so the search has no feasible gap to bisect from")
        (w, intervals), = result.feasible_probe
        assert intervals == [] and w == (1.0 - SCAN_OFFSET) * result.sqrtT
        assert feasible_for_gap(*data, w, grid=65536)[0]

    def test_gamma1_warns_but_searches(self):
        with pytest.warns(UserWarning, match="gamma > 1"):
            result = threshold_V(1.0, 4.0, 0.0, Eos(1.0))
        assert result.sqrtT == pytest.approx(1.5)
        if result.V is not None:
            assert 0.0 < result.V < result.sqrtT


class TestThresholdTable:
    def test_rows_come_back_in_order(self):
        rows = threshold_table(1.0, 4.0, GAMMA2, [1.0, 0.0])
        assert [row.v_plus2 for row in rows] == [1.0, 0.0]
        for row in rows:
            assert isinstance(row, ThresholdRow)
            assert row.error is None
            assert 0.0 < row.result.V < row.result.sqrtT

    def test_failing_rows_keep_the_table_alive(self):
        """A row's own v_plus2 fails that row only."""
        rows = threshold_table(1.0, 4.0, GAMMA2, [math.nan, 0.0])
        assert [row.v_plus2 for row in rows[1:]] == [0.0]
        assert rows[0].result is None
        assert rows[0].error == "v_plus must be a finite velocity pair, got (0.0, nan)"
        assert rows[1].error is None and 0.0 < rows[1].result.V < rows[1].result.sqrtT

    @pytest.mark.parametrize("rho_plus, error, message", [
        (1.0, DegenerateDensityError, "equal densities 1.0 admit no threshold search"),
        (1e-320, DomainError, "densities rho_minus = 1.0 and rho_plus = 1e-320 have no "
                              "positive normal float product rho_minus*rho_plus"),
        (-4.0, DomainError, "rho_plus must be positive and finite, got -4.0"),
    ], ids=["equal", "underflowing_product", "negative"])
    def test_shared_density_error_raises_before_the_first_row(
            self, monkeypatch, rho_plus, error, message):
        """Every row shares the densities, so an invalid pair is an
        input error of the table, raised before any row's search."""
        searched = []
        monkeypatch.setattr(eulerfan.threshold, "threshold_V",
                            lambda *args: searched.append(args))
        with pytest.raises(error) as got:
            threshold_table(1.0, rho_plus, GAMMA2, [0.0, 1.0])
        assert type(got.value) is error and str(got.value) == message
        assert searched == []


class TestSearchMatchesSequential:
    """threshold_V decides every probe on the start grid, one gap per
    kernel call, and refines none; its results and errors must be those
    of the sequential reference, bit for bit.  feasibility_scan
    refines its one datum by evaluating only the inserted nodes, and
    must give the reference's refined grid."""

    @pytest.mark.parametrize("rho_minus, rho_plus", [(1.0, 4.0), (4.0, 1.0)])
    @pytest.mark.parametrize("v_plus2", COLUMNS)
    def test_reference_columns(self, rho_minus, rho_plus, v_plus2):
        assert (threshold_V(rho_minus, rho_plus, v_plus2, GAMMA2)
                == reference_threshold(rho_minus, rho_plus, v_plus2, GAMMA2))

    @pytest.mark.parametrize("gamma", [1.4, 3.0])
    def test_other_pressure_laws(self, gamma):
        eos = Eos(gamma)
        assert threshold_V(1.0, 4.0, 0.0, eos) == reference_threshold(1.0, 4.0, 0.0, eos)

    def test_isothermal_law_warns_and_matches(self):
        eos = Eos(1.0)
        with pytest.warns(UserWarning, match="gamma > 1"):
            result = threshold_V(1.0, 4.0, 0.0, eos)
        assert result == reference_threshold(1.0, 4.0, 0.0, eos)

    # The first two, found by seeded search, fail a continuity check at
    # their first gap, at the start grid's node next to the near
    # density (the second reflected).  (1, 1e4) and (1, 3e3) fail the
    # right continuity check on the start grid of a bisection probe.
    @pytest.mark.parametrize("rho_minus, rho_plus, v_plus2, gamma", [
        (5.9764400876459165, 167.05824823203272, 104509.1475935661, 5.0),
        (408.91036895391915, 1.7478103667023688, 1667744.2998162538, 5.0),
        (1.0, 1e4, 0.0, 5.0),
        (1.0, 3e3, 0.0, 5.0),
    ])
    def test_same_error(self, rho_minus, rho_plus, v_plus2, gamma):
        eos = Eos(gamma)
        with pytest.raises(NumericalError) as expected:
            reference_threshold(rho_minus, rho_plus, v_plus2, eos)
        with pytest.raises(NumericalError) as got:
            threshold_V(rho_minus, rho_plus, v_plus2, eos)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    # Reflected data of large density ratio whose self-checks failed in
    # the user's frame, at the first gap, the third scan gap and a
    # bisection probe.  In the kernel's frame they find an edge.
    @pytest.mark.parametrize("rho_minus, rho_plus, v_plus2, gamma", [
        (1e3, 1.0, 0.0, 1.4),
        (3385.7655500690385, 2.0417847885199363, 0.0789653286814147, 1.4),
        (5324.923042880178, 3.1179765826340806, 0.3094044075830693, 1.4),
    ])
    def test_same_result_where_a_check_failed(self, rho_minus, rho_plus, v_plus2, gamma):
        eos = Eos(gamma)
        assert (threshold_V(rho_minus, rho_plus, v_plus2, eos)
                == reference_threshold(rho_minus, rho_plus, v_plus2, eos))

    def test_same_result_where_only_an_inserted_node_failed(self):
        """A continuity check failed only at a node that refinement
        inserted for a scan gap, when scan probes were refined; no probe
        refines, so the search returns the reference's result."""
        eos = Eos(3.0)
        result = threshold_V(4.218419597877375, 16556.273726555977, -0.9475973097609343, eos)
        assert result == reference_threshold(4.218419597877375, 16556.273726555977,
                                             -0.9475973097609343, eos)
        assert repr(result.V) == "840822.9253259017" and len(result.feasible_probe) == 72

    def test_start_grid_cache_follows_the_density_pair(self):
        """The cached start grid serves one density pair and law at a
        time; switching pairs in one process changes no result."""
        for rho_minus, rho_plus, gamma in ((1.0, 4.0, 2.0), (4.0, 1.0, 2.0),
                                           (1.0, 4.0, 3.0), (1.0, 4.0, 2.0)):
            eos = Eos(gamma)
            assert (threshold_V(rho_minus, rho_plus, 0.0, eos)
                    == reference_threshold(rho_minus, rho_plus, 0.0, eos))
            assert _initial_nodes.cache_info().currsize == 1
            start = _initial_nodes(rho_minus, rho_plus, eos, GRID)
            assert (start.rho_minus, start.rho_plus, start.eos) == (rho_minus, rho_plus, eos)

    def test_cached_start_grid_is_read_only(self):
        start = _initial_nodes(1.0, 4.0, GAMMA2, GRID)
        assert start.rho_1.shape == (GRID,)
        for field in dataclasses.fields(start):
            value = getattr(start, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name
        with pytest.raises(ValueError, match="read-only"):
            start.rho_1[0] = 2.0

    def test_incremental_grid_matches_full_recompute(self, monkeypatch):
        """feasibility_scan's start grid with the nodes of its refinement
        passes merged in is the reference's refined grid, masks included."""
        kernel = eulerfan.threshold.window_grid
        evaluated = []

        def window_grid(data, nodes):
            window = kernel(data, nodes)
            evaluated.append((nodes.rho_1, window.feasible))
            return window

        monkeypatch.setattr(eulerfan.threshold, "window_grid", window_grid)
        rng = np.random.default_rng(53)
        flipped = 0
        for trial in range(30):
            lo = float(10.0 ** rng.uniform(-1, 1))
            hi = lo * float(10.0 ** rng.uniform(0.1, 1.5))
            rho_minus, rho_plus = (hi, lo) if trial % 2 else (lo, hi)
            eos = Eos(float(rng.choice([1.4, 2.0, 3.0])))
            v_plus2 = float(rng.uniform(-3.0, 3.0))
            w = float(rng.uniform(0.5, 0.999)) * math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
            evaluated.clear()
            intervals, _ = feasibility_scan(data, grid=512)
            nodes, masks = zip(*evaluated)
            nodes, first = np.unique(np.concatenate(nodes), return_index=True)
            ref_nodes, ref_mask = reference_grid(data, 512)
            np.testing.assert_array_equal(nodes, ref_nodes)
            np.testing.assert_array_equal(np.concatenate(masks)[first], ref_mask)
            assert intervals == reference_intervals(ref_nodes, ref_mask)
            flipped += nodes.size > 512
        assert flipped >= 10, f"only {flipped} data refined their grid"

    def test_random_data_match_the_reference(self):
        """Seeded data of both orderings, gamma 1.4, 2, 3 and 5 and
        density ratios up to about 300 give the reference's result, or
        its error (one datum fails a self-check); data whose reference
        scan finds no feasibility edge are skipped."""
        rng = np.random.default_rng(61)
        compared = 0
        for trial in range(12):
            lo = float(10.0 ** rng.uniform(-1, 1))
            hi = lo * float(10.0 ** rng.uniform(0.1, 2.5))
            rho_minus, rho_plus = (hi, lo) if trial % 2 else (lo, hi)
            eos = Eos((1.4, 2.0, 3.0, 5.0)[trial // 2 % 4])
            v_plus2 = float(rng.uniform(-3.0, 3.0))
            try:
                expected = reference_threshold(rho_minus, rho_plus, v_plus2, eos)
            except AssertionError:
                continue
            except NumericalError as error:
                with pytest.raises(NumericalError) as got:
                    threshold_V(rho_minus, rho_plus, v_plus2, eos)
                assert str(got.value) == str(error)
            else:
                assert threshold_V(rho_minus, rho_plus, v_plus2, eos) == expected
            compared += 1
        assert compared >= 8, f"only {compared} data compared"


class TestPinnedReferenceColumns:
    """Exact results of the seven reference columns in both density
    orderings: V, the number of probes and three digests.  `digest`
    pins feasibility_scan's refined intervals at every probe; it is the
    digest feasible_probe had when every probe was refined, so the
    single-datum refinement gives every bit the batched one gave.
    DIGESTS pins feasible_probe, whose intervals are start-grid runs,
    and its verdicts [(gap, bool(intervals))], recorded while probes
    were still refined.  The sequential reference evaluates the same
    kernel, so only pinned values show a drift that both share.
    Recorded on x86-64 with numpy 2.4 and glibc 2.36; a platform whose
    libm rounds a log or a power differently may move the last bits."""

    # (feasible_probe, verdicts) digests per (rho_minus, rho_plus, v_plus2).
    DIGESTS = {
        (1.0, 4.0, 0.1): ("8732114468c750a0", "c805f748b9f52f3e"),
        (1.0, 4.0, 1.0): ("1ce4ca936ce51ab8", "27fef802e60c86e3"),
        (1.0, 4.0, 2.0): ("892f504b6a3143a7", "06e1d780ea12ff66"),
        (1.0, 4.0, 0.0): ("f2b001ea281be482", "b9c96041573e7834"),
        (1.0, 4.0, -0.1): ("62efa97a92bfc482", "3c9139e54cbb50ad"),
        (1.0, 4.0, -1.0): ("d4d6e6f63c828c62", "14fc9e6b689a030e"),
        (1.0, 4.0, -2.0): ("aa389072aa8916b6", "02e3d8d2a04db83e"),
        (4.0, 1.0, 0.1): ("b5974fbe38b67e38", "23acc978041c99ef"),
        (4.0, 1.0, 1.0): ("63b49544140a388e", "0968813488379fee"),
        (4.0, 1.0, 2.0): ("a345de5ec2c14f17", "951ff7d65de93e4f"),
        (4.0, 1.0, 0.0): ("e6605fc147b5d943", "91b3a01b7f15734b"),
        (4.0, 1.0, -0.1): ("b6cfaebb42fc1968", "cc46f020ddb621e8"),
        (4.0, 1.0, -1.0): ("855cf56b2fa8ab50", "c6fbef7bf1555211"),
        (4.0, 1.0, -2.0): ("dad0ae51e0fc60c0", "99f6cc678d15753b"),
    }

    @pytest.mark.parametrize("rho_minus, rho_plus, v_plus2, V, probes, digest", [
        (1.0, 4.0, 0.1, 2.737203535315304, 53, "6373ee26d564b720"),
        (1.0, 4.0, 1.0, 2.9549391874776947, 40, "0a160f59614640f8"),
        (1.0, 4.0, 2.0, 3.047610994001249, 35, "f924c6b02015e97e"),
        (1.0, 4.0, 0.0, 2.691268367807856, 56, "cc684aac4f8b25ea"),
        (1.0, 4.0, -0.1, 2.63994245994236, 59, "bf232d7294b57fea"),
        (1.0, 4.0, -1.0, 1.7997014303869434, 109, "6dc1872dd6b95a0e"),
        (1.0, 4.0, -2.0, 1.0047189748942449, 157, "aa0d895f014d63dc"),
        (4.0, 1.0, 0.1, 1.314384330331431, 138, "def462433cc65ccf"),
        (4.0, 1.0, 1.0, 1.0020724811705697, 157, "5ed9f1818bb5716e"),
        (4.0, 1.0, 2.0, 0.8147021585613363, 168, "98ddc22d5f129bde"),
        (4.0, 1.0, 0.0, 1.3613354115966618, 135, "28e46804928672c2"),
        (4.0, 1.0, -0.1, 1.4094789760133448, 132, "df0744e7582024af"),
        (4.0, 1.0, -1.0, 1.9166098172195982, 102, "54e2d8a2c60dcabf"),
        (4.0, 1.0, -2.0, 2.428335045228681, 72, "d7476178444e470a"),
    ])
    def test_column(self, rho_minus, rho_plus, v_plus2, V, probes, digest):
        result, refined = refined_column(rho_minus, rho_plus, v_plus2)
        assert repr(result.V) == repr(V)
        assert len(result.feasible_probe) == probes
        start_grid, verdicts = self.DIGESTS[rho_minus, rho_plus, v_plus2]
        assert sha16(result.feasible_probe) == start_grid
        assert sha16([(w, bool(intervals)) for w, intervals in result.feasible_probe]) == verdicts
        assert sha16([(w, r) for (w, _), r in zip(result.feasible_probe, refined)]) == digest

    def test_refined_intervals_contain_the_start_grid_runs(self):
        """Over every probe of the fourteen columns, each start-grid
        interval lies inside one refined interval, each end within one
        start-grid spacing of it."""
        compared = 0
        for rho_minus, rho_plus, v_plus2 in self.DIGESTS:
            spacing = start_spacing(rho_minus, rho_plus)
            result, refined = refined_column(rho_minus, rho_plus, v_plus2)
            for (_, intervals), ref in zip(result.feasible_probe, refined):
                for lo, hi in intervals:
                    (ref_lo, ref_hi), = [(a, b) for a, b in ref if a <= lo and hi <= b]
                    assert lo - ref_lo < spacing and ref_hi - hi < spacing
                    compared += 1
        assert compared > 1000, compared


class TestRefinementErrors:
    """feasibility_scan evaluates all nodes a refinement pass inserts in
    one kernel call.  A pass that fails raises the error of that call,
    whose checks read the worst node of the pass, not of its first
    failing segment."""

    def test_error_names_the_worst_node_of_the_row(self, monkeypatch):
        """The patched kernel fails every refinement call and, like the
        kernel's self-checks, names that call's worst node.  The golden
        datum's first pass inserts two segments of 64 nodes whose worst
        nodes differ; the raised error names the worst of both, and no
        second pass runs."""
        kernel = eulerfan.threshold.window_grid
        start = _initial_nodes(1.0, 4.0, GAMMA2, GRID)
        refined = []

        def window_grid(data, nodes):
            if nodes is start:
                return kernel(data, nodes)
            row = nodes.rho_1
            refined.append(row)
            raise NumericalError(f"check failed at rho_1 = {row.max()!r} of {row.size} nodes")

        monkeypatch.setattr(eulerfan.threshold, "window_grid", window_grid)
        with pytest.raises(NumericalError) as got:
            feasibility_scan(TestFeasibilityScan.GOLDEN)
        (row,) = refined
        assert row.size == 128 and row[:64].max() != row.max()
        assert str(got.value) == f"check failed at rho_1 = {row.max()!r} of 128 nodes"

    def test_inserted_node_failure_raises_from_the_scan_only(self):
        """At this gap, found by seeded search, the start grid passes
        every check and a node of the first refinement pass fails one:
        feasible_for_gap decides the gap, feasibility_scan raises."""
        eos, w = Eos(5.0), 27485.66831940487
        rho_minus, rho_plus, v_plus2 = 4.98487042373068, 83.27945354538721, -26154.818646524312
        assert feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w)[0]
        data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
        with pytest.raises(NumericalError,
                           match=r"^first-slack cross-check failed: square-root form and "
                                 r"interface-speed form disagree by 2\.739e-09 \(relative\) "
                                 r"at rho_1 = 83\.27894650535085$"):
            feasibility_scan(data)

    def test_former_inserted_node_failure_answers(self):
        """At this datum and gap a node of the first refinement pass
        failed the right continuity check while the transverse velocity
        terms cancelled in the user's frame.  In the kernel's frame
        feasibility_scan answers, with a witness that verifies."""
        eos, w = Eos(3.0), 865963.5852184686
        rho_minus, rho_plus, v_plus2 = 4.218419597877375, 16556.273726555977, -0.9475973097609343
        data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
        intervals, witness = feasibility_scan(data)
        assert intervals and verify_subsolution(data, witness).passed


class TestFailedCheckRaisesWithoutWarning:
    """A datum whose energy coefficients would overflow raises the
    float-range guard's DomainError, naming the datum, before the kernel
    computes anything: no RuntimeWarning, and no answer read off inf or
    NaN coefficients.  The first datum was found by a seeded fuzz of
    feasibility_scan; its self-checks failed in the user's frame and
    pass in the kernel's.  feasibility_scan answered the other two with
    ([], None) after overflow warnings."""

    RHO_MINUS, RHO_PLUS = 1.0132051002458683e+42, 1.423891837266978e+47
    V_PLUS2, GAP = -4.973063621100822e+96, 3.8002509514590836e+96
    MESSAGE = "exceeds the float range of the energy coefficients"

    def test_every_search_raises_the_check_error(self):
        eos = Eos(5.0)
        data = RiemannData(self.RHO_MINUS, self.RHO_PLUS, (0.0, self.V_PLUS2 + self.GAP),
                           (0.0, self.V_PLUS2), eos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(repr(data))} {self.MESSAGE}"):
                feasible_for_gap(self.RHO_MINUS, self.RHO_PLUS, self.V_PLUS2, eos, self.GAP)
            with pytest.raises(DomainError, match=self.MESSAGE):
                feasibility_scan(data)
            with pytest.raises(DomainError, match=self.MESSAGE):
                threshold_V(self.RHO_MINUS, self.RHO_PLUS, self.V_PLUS2, eos)

    @pytest.mark.parametrize("rho_minus, rho_plus, v_minus2, v_plus2", [
        (3.5936374140510095e+47, 2.1500325290329943e+46, 2.828827549686538e+95,
         -3.4899987297539986e+94),
        (7.311967233379713e+45, 1.7504497627686846e+42, -3.1145384863678646e+92,
         -2.9870100517358766e+93),
    ])
    def test_overflowing_energy_rule_raises(self, rho_minus, rho_plus, v_minus2, v_plus2):
        eos = Eos(5.0)
        data = RiemannData(rho_minus, rho_plus, (0.0, v_minus2), (0.0, v_plus2), eos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for search in (feasibility_scan,
                           lambda data: feasible_for_gap(rho_minus, rho_plus, v_plus2, eos,
                                                         data.gap),
                           lambda data: threshold_V(rho_minus, rho_plus, v_plus2, eos)):
                with pytest.raises(DomainError, match=self.MESSAGE):
                    search(data)


class TestOneKernelFrame:
    """The window kernel computes with the far state at rest and the
    near state moving at the gap, so neither a transverse velocity far
    above sqrt(T) nor the reflection of the data forms terms that
    cancel.  Each search here raised an error while the kernel computed
    in the user's frame."""

    def test_large_transverse_velocities_raise_no_numerical_error(self):
        """Seeded: density ratios up to 30 in both orderings, gamma 1.4,
        2 or 3, gaps of 0.3 to 0.999 sqrt(T) and |v_plus2| log-uniform
        in 1e3 to 1e7 sqrt(T).  The user's frame raised on 163 of the
        300."""
        rng = np.random.default_rng(17)
        for k in range(300):
            lo = float(10.0 ** rng.uniform(-2.0, 2.0))
            hi = lo * float(10.0 ** rng.uniform(0.01, math.log10(30.0)))
            rho_minus, rho_plus = (hi, lo) if k % 2 else (lo, hi)
            eos = Eos(float(rng.choice([1.4, 2.0, 3.0])))
            sqrt_T = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            w = float(rng.uniform(0.3, 0.999)) * sqrt_T
            v_plus2 = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3.0, 7.0)) * sqrt_T
            feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w)

    def test_golden_gap_at_a_large_boost(self):
        """V rises towards sqrt(T) with v_plus2, so the golden gap 3.3 is
        infeasible at v_plus2 = 1e6; the user's frame failed the
        first-slack cross-check there."""
        assert feasible_for_gap(1.0, 4.0, 1e6, GAMMA2, 3.3) == (False, [])

    def test_reflected_large_ratio_finds_an_edge(self):
        """The user's frame failed the first-slack cross-check at the
        first gap."""
        result = threshold_V(1e3, 1.0, 0.0, Eos(1.4))
        assert result.V / result.sqrtT == pytest.approx(0.30496, abs=1e-5)
        assert len(result.feasible_probe) == 161

    def test_B_near_the_two_shock_bound(self):
        """At the gap (1 - 1e-6)*sqrt(T), B = rho_minus*rho_plus*w**2 -
        R*(p(rho_minus) - p(rho_plus)) is 1e-6 of its terms; in the
        user's frame they were larger still by (v_plus2/sqrt(T))**2 and
        B came out 0.0, so threshold_V raised VelocityGapError."""
        rho_minus, rho_plus = 0.012381421188429125, 0.0031864549482161224
        v_plus2, eos = -32.229540576805036, Eos(5.0)
        w = (1.0 - 1e-6) * math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
        data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
        with mp.workdps(60):
            r, s = mp.mpf(rho_minus), mp.mpf(rho_plus)
            gap = mp.mpf(data.v_minus[1]) - mp.mpf(data.v_plus[1])
            oracle = r * s * gap ** 2 - (r - s) * (r ** 5 - s ** 5)
            assert abs(data.functionals.B - oracle) <= 1e-9 * abs(oracle)
        assert oracle < 0 and threshold_V(rho_minus, rho_plus, v_plus2, eos).V is not None

    def test_data_near_the_float_range_raise_without_warning(self):
        """Seeded data over the whole float range: densities up to
        1e300**(1/gamma), ratios up to 1e12 in both orderings,
        |v_plus2| up to 1e8 sqrt(T).  Each search answers or raises a
        package error, with no RuntimeWarning: the float-range guard
        refuses the data whose energy coefficients or dissipation terms
        would overflow, before the kernel forms them."""
        rng = np.random.default_rng(1)
        guarded = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(2000):
                gamma = float(rng.choice([1.0, 1.4, 2.0, 3.0, 5.0]))
                near = float(10.0 ** rng.uniform(-300.0 / gamma, 300.0 / gamma))
                far = near * float(10.0 ** rng.uniform(0.001, 12.0))
                rho_minus, rho_plus = (far, near) if k % 2 else (near, far)
                eos = Eos(gamma)
                try:
                    sqrt_T = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
                    v_plus2 = float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3, 8)) * sqrt_T
                    w = float(rng.uniform(0.3, 0.999)) * sqrt_T
                    feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w, grid=64)
                except EulerFanError as exc:
                    guarded += "float range of the energy coefficients" in str(exc)
        assert guarded >= 20, guarded


class TestEqualNodesGetEqualMasks:
    """A node's mask is an elementwise function of its datum's scalars
    and its middle density, whichever call evaluates it.  So nodes of
    equal value get equal masks wherever they sit, and a refined grid,
    where an inserted node can repeat a value, needs no rule for which
    copy it keeps."""

    def test_repeated_values_in_every_path(self):
        """Each pool value sits at many positions: of a call on nodes
        built for it and, for start-grid nodes, of the cached start
        grid."""
        rng = np.random.default_rng(89)
        mixed = 0
        for trial in range(20):
            lo = float(10.0 ** rng.uniform(-1, 1))
            hi = lo * float(10.0 ** rng.uniform(0.1, 1.5))
            rho_minus, rho_plus = (hi, lo) if trial % 2 else (lo, hi)
            eos = Eos((1.0, 1.4, 2.0, 3.0, 5.0)[trial // 2 % 5])
            v_plus2 = float(rng.uniform(-3.0, 3.0))
            sqrtT = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            rows = [RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + f * sqrtT),
                                (0.0, v_plus2), eos)
                    for f in rng.uniform(0.5, 0.999, size=4)]
            start = _initial_nodes(rho_minus, rho_plus, eos, 256)
            nodes = start.rho_1
            pool = np.concatenate((nodes[::8], rng.uniform(nodes[0], nodes[-1], size=32)))
            values = pool[rng.integers(0, pool.size, size=(len(rows), 256))]
            for i, data in enumerate(rows):
                try:
                    one = eulerfan.subsolution.window_grid(data, middle_nodes(data, values[i]))
                    on_start = eulerfan.subsolution.window_grid(data, start)
                except EulerFanError:
                    continue
                value = np.concatenate((values[i], nodes))
                mask = np.concatenate((one.feasible, on_start.feasible))
                order = np.lexsort((mask, value))
                value, mask = value[order], mask[order]
                same = value[1:] == value[:-1]
                assert not (mask[1:] != mask[:-1])[same].any(), (trial, i)
                mixed += bool(mask.any() and not mask.all())
        assert mixed >= 20, f"only {mixed} rows mix feasible and infeasible nodes"


class TestCloseDensities:
    """Densities closer than about 1e-7 relative leave no room for the
    start grid strictly inside their interval; that is an input error
    that names the densities, not the internal grid."""

    RHO_PLUS = 1.0 + 1e-8
    MESSAGE = "densities 1.0 and 1.00000001 are too close to place a grid of 2048"

    def test_every_search_names_the_densities(self):
        data = RiemannData(1.0, self.RHO_PLUS, (0.0, 1e-9), (0.0, 0.0), GAMMA2)
        with pytest.raises(DomainError, match=self.MESSAGE):
            threshold_V(1.0, self.RHO_PLUS, 0.0, GAMMA2)
        with pytest.raises(DomainError, match=self.MESSAGE):
            feasible_for_gap(1.0, self.RHO_PLUS, 0.0, GAMMA2, 1e-9)
        with pytest.raises(DomainError, match=self.MESSAGE):
            feasibility_scan(data)
        with pytest.raises(DomainError, match="too close to place a grid of 64 "):
            feasibility_scan(data, grid=64)


class TestFunctionalsFormedOncePerDatum:
    """A datum forms its DataFunctionals on its first kernel call, and
    every later call that evaluates it (start grid, refinement passes,
    the one-node wrappers, each root step) reuses them."""

    @staticmethod
    def built(monkeypatch, cls):
        """A list that grows by one for each instance of cls built."""
        instances, init = [], cls.__init__

        def counted(self, *args, **kwargs):
            instances.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
        return instances

    def test_threshold_columns_build_at_most_one_per_datum(self, monkeypatch):
        """T is formed once per DataFunctionals: the search reads sqrt(T)
        off its data, one per probe and one per column."""
        _initial_nodes.cache_clear()
        data = self.built(monkeypatch, RiemannData)
        functionals = self.built(monkeypatch, DataFunctionals)
        calls, two_shock_T = [], Eos._two_shock_T

        def counted(self, r, s):
            calls.append((r, s))
            return two_shock_T(self, r, s)

        monkeypatch.setattr(Eos, "_two_shock_T", counted)
        for v_plus2 in COLUMNS:
            threshold_V(1.0, 4.0, v_plus2, GAMMA2)
        assert 0 < len(functionals) <= len(data)
        assert len(calls) == len(functionals) == 516

    @pytest.mark.parametrize("search", [
        epsilon1_sign_change,
        subsolution_witness,
        lambda data: (eps2_window(data, 2.0), witness_at(data, 2.0),
                      reconstruct(data, 2.0, 0.1)),
    ], ids=["epsilon1_sign_change", "subsolution_witness", "one_node_wrappers"])
    def test_one_datum_builds_one(self, monkeypatch, search):
        data = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
        functionals = self.built(monkeypatch, DataFunctionals)
        search(data)
        assert len(functionals) == 1


class TestUnderflowingDensityProduct:
    """Densities whose product underflows raise DomainError naming both,
    where the division by rho_minus*rho_plus in T raised
    ZeroDivisionError."""

    def test_every_search_names_the_densities(self):
        eos = Eos(1.4)
        message = "rho_minus = 5e-324 and rho_plus = 1e-08 have no positive normal"
        with pytest.raises(DomainError, match=message):
            feasible_for_gap(5e-324, 1e-8, 2.0, eos, 1e-3)
        with pytest.raises(DomainError, match=message):
            threshold_V(5e-324, 1e-8, 2.0, eos)


class TestScanEvaluatesOnlyProbedGaps:
    """Every probe of the search, scan and bisection alike, is one
    feasible_for_gap call, made in feasible_probe's order, and one
    start-grid kernel call; no gap past the scan's first infeasible one
    is evaluated."""

    @pytest.mark.parametrize("rho_minus, rho_plus", [(1.0, 4.0), (4.0, 1.0)])
    @pytest.mark.parametrize("v_plus2", COLUMNS)
    def test_reference_columns(self, monkeypatch, rho_minus, rho_plus, v_plus2):
        start_calls, probed = [], []
        kernel = eulerfan.threshold.window_grid
        probe = eulerfan.threshold.feasible_for_gap
        start = _initial_nodes(rho_minus, rho_plus, GAMMA2, GRID)

        def window_grid(data, nodes):
            if nodes is start:
                assert isinstance(data, RiemannData)
                start_calls.append(data.v_minus[1])
            return kernel(data, nodes)

        def feasible_for_gap(*args, **kwargs):
            probed.append(args[4])
            return probe(*args, **kwargs)

        monkeypatch.setattr(eulerfan.threshold, "window_grid", window_grid)
        monkeypatch.setattr(eulerfan.threshold, "feasible_for_gap", feasible_for_gap)
        result = threshold_V(rho_minus, rho_plus, v_plus2, GAMMA2)
        gaps = [w for w, _ in result.feasible_probe]

        assert probed == gaps
        assert start_calls == [v_plus2 + w for w in gaps]
        scanned = 1 + next(i for i, (_, intervals) in enumerate(result.feasible_probe)
                           if not intervals)
        assert 1 < scanned < len(gaps)
        assert gaps[:scanned] == sorted(gaps[:scanned], reverse=True)
        lo, hi = gaps[scanned - 1], gaps[scanned - 2]
        assert all(lo < w < hi for w in gaps[scanned:])

    def test_feasible_at_every_probed_gap(self, monkeypatch):
        """A search feasible at every scan gap bisects down from the last
        one towards 0 and says that V is no detected edge."""
        monkeypatch.setattr(eulerfan.threshold, "feasible_for_gap",
                            lambda *args, **kwargs: (True, [(1.5, 2.5)]))
        result = threshold_V(1.0, 4.0, 0.0, GAMMA2)
        gaps = [w for w, _ in result.feasible_probe]
        scan = [(1.0 - SCAN_OFFSET) * result.sqrtT]
        while scan[-1] - result.sqrtT / SCAN_STEPS > 0.0:
            scan.append(scan[-1] - result.sqrtT / SCAN_STEPS)
        assert len(scan) == SCAN_STEPS < len(gaps)
        assert gaps[:SCAN_STEPS] == scan
        assert all(0.0 < w < gaps[SCAN_STEPS - 1] for w in gaps[SCAN_STEPS:])
        assert 0.0 < result.V <= BISECTION_TOL
        assert result.V == min(gaps)
        assert result.note == ("feasible at every probed gap; the reported V is the "
                               "bisection resolution above 0, not a detected feasibility edge")


@pytest.mark.parametrize("grid", [0, 1])
def test_grid_below_two_nodes_rejected(grid):
    with pytest.raises(DomainError, match="at least 2"):
        feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=grid)
    with pytest.raises(DomainError, match="at least 2"):
        feasibility_scan(TestFeasibilityScan.GOLDEN, grid=grid)


@pytest.mark.parametrize("grid", [2.5, 256.0, "256", None])
def test_non_integer_grid_rejected(grid):
    with pytest.raises(DomainError, match="integer"):
        feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=grid)
    with pytest.raises(DomainError, match="integer"):
        feasibility_scan(TestFeasibilityScan.GOLDEN, grid=grid)


def test_numpy_integer_grid_accepted():
    assert (feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=np.int64(256))
            == feasible_for_gap(1.0, 4.0, 0.0, GAMMA2, 3.3, grid=256))
    assert (feasibility_scan(TestFeasibilityScan.GOLDEN, grid=np.int32(256))
            == feasibility_scan(TestFeasibilityScan.GOLDEN, grid=256))
