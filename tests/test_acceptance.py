"""Acceptance suite: one test per contract item, run with -v to get a
pass/fail line for each.

Frozen expectations come from three kinds of oracle: published
reference values (threshold table), hand-evaluated closed forms
(gap bound, limit quantities), and 50-digit mpmath evaluations of the
defining formulas (worked-example window edge).  Nothing here asserts a
value that was read off the implementation itself.
"""

import math
import time

import numpy as np
import pytest

from eulerfan import (Eos, RiemannData, WaveKind, classify, data_functionals,
                      epsilon1_sign_change, eps2_window, feasible_for_gap,
                      limit_quantities, pressure, reconstruct,
                      subsolution_witness, threshold_V, verify_subsolution)
from kernel_helpers import unchecked_subsolution, window_row


GAMMA2 = Eos(2.0)
GOLDEN = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)

# (v_plus2, V) reference pairs for densities (1, 4) and gamma = 2.
THRESHOLD_REFERENCES = [
    (0.1, 2.75),
    (1.0, 2.955),
    (2.0, 3.05),
    (0.0, 2.7),
    (-0.1, 2.65),
    (-1.0, 1.8),
    (-2.0, 1.02),
]


def gap_bound(rho_minus, rho_plus, eos):
    t_val = ((rho_plus - rho_minus)
             * (pressure(eos, rho_plus) - pressure(eos, rho_minus))
             / (rho_plus * rho_minus))
    return math.sqrt(t_val)


def random_density_pair(rng, ordered=None):
    rho_lo = float(10.0 ** rng.uniform(-1, 1))
    rho_hi = rho_lo * float(10.0 ** rng.uniform(0.08, 1.0))
    if ordered is None:
        ordered = rng.uniform() < 0.5
    return (rho_lo, rho_hi) if ordered else (rho_hi, rho_lo)


def approaching(rho_minus, rho_plus, v_plus2, w, eos, v1=0.0):
    return RiemannData(rho_minus, rho_plus, (v1, v_plus2 + w),
                       (v1, v_plus2), eos)


def test_threshold_table_reference_values():
    """Thresholds for the seven reference columns, within 0.05 each."""
    for v_plus2, expected in THRESHOLD_REFERENCES:
        started = time.monotonic()
        result = threshold_V(1.0, 4.0, v_plus2, GAMMA2)
        elapsed = time.monotonic() - started
        assert result.V == pytest.approx(expected, abs=0.05), (
            f"V({v_plus2}) = {result.V}, reference {expected}")
        assert elapsed < 5.0, f"threshold for {v_plus2} took {elapsed:.1f} s"


def test_gap_bound_exact_value():
    f = data_functionals(GOLDEN)
    assert f.T == pytest.approx(45.0 / 4.0, rel=1e-12)
    assert f.sqrt_T == pytest.approx(math.sqrt(45.0) / 2.0, rel=1e-12)
    assert round(f.sqrt_T, 4) == 3.3541


def test_worked_example_golden_values():
    rec = eps2_window(GOLDEN, 2.0)
    assert rec.nu_minus == pytest.approx(-1.665685, abs=1e-5)
    assert rec.nu_plus == pytest.approx(-0.817157, abs=1e-5)
    assert rec.beta == pytest.approx(0.817157, abs=1e-5)
    assert rec.eps_1 == pytest.approx(4.664508, abs=1e-5)
    assert rec.feasible
    assert max(rec.eps2_lower, 0.0) == 0.0
    # Upper edge frozen from a 50-digit evaluation of the closed-form
    # window at this probe.
    assert rec.eps2_upper == pytest.approx(3.5703810858, abs=1e-5)

    sub = reconstruct(GOLDEN, 2.0, 1.0)
    report = verify_subsolution(GOLDEN, sub)
    assert report.passed
    assert report.max_equality_residual < 1e-9


def test_first_slack_shape_suite():
    """Over 200 random data in both density orderings: one sign change
    of the first slack on a 10^4 grid, the square-root zero below it,
    concavity of the density-weighted slack up to that zero, and
    convergence of the sign change to the far density as the gap
    approaches the bound."""
    rng = np.random.default_rng(101)
    for trial in range(200):
        rho_minus, rho_plus = random_density_pair(rng, ordered=trial % 2 == 0)
        eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
        bound = gap_bound(rho_minus, rho_plus, eos)
        w = float(rng.uniform(0.05, 0.95)) * bound
        v_plus2 = float(rng.uniform(-3.0, 3.0))
        data = approaching(rho_minus, rho_plus, v_plus2, w, eos)
        lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
        grid = np.linspace(lo, hi, 10_002)[1:-1]
        eps_1 = window_row(data, grid).eps_1
        flips = int(np.sum(np.sign(eps_1[:-1]) != np.sign(eps_1[1:])))
        assert flips == 1, f"{flips} slack sign changes for {data}"

        f = data_functionals(data)
        assert f.B < 0.0
        rho_bar = epsilon1_sign_change(data)
        assert f.rho_tilde < rho_bar

        nodes = np.linspace(lo + 1e-6 * (hi - lo), f.rho_tilde, 64)
        weighted = nodes * window_row(data, nodes).eps_1
        h = nodes[1] - nodes[0]
        second = (weighted[:-2] - 2.0 * weighted[1:-1] + weighted[2:]) / h**2
        assert np.all(second <= 1e-9), f"convexity spike for {data}"

        far = hi
        distances = []
        for du in (1e-4, 1e-5, 1e-6):
            tight = approaching(rho_minus, rho_plus, v_plus2, bound - du, eos)
            distances.append(abs(epsilon1_sign_change(tight) - far) / far)
        assert distances[0] > distances[1] > distances[2], (
            f"sign change not converging monotonically for {data}")
        assert distances[2] < 1e-3


def test_limit_quantity_suite():
    """Limiting slack vanishes at both density endpoints and the
    limiting window stays ordered on a 10^3 grid, for 100 random data."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        rho_minus, rho_plus = random_density_pair(rng)
        eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
        v_plus2 = float(rng.uniform(-3.0, 3.0))
        for endpoint in (rho_minus, rho_plus):
            eps1_bar = limit_quantities(rho_minus, rho_plus, v_plus2, eos,
                                        endpoint)[1]
            assert abs(eps1_bar) < 1e-10, (
                f"slack limit {eps1_bar} at endpoint {endpoint}")
        lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
        for rho_1 in np.linspace(lo, hi, 1000):
            _, _, m1, m2 = limit_quantities(rho_minus, rho_plus, v_plus2,
                                            eos, float(rho_1))
            assert m1 > m2, f"window collapsed at {rho_1}"


def test_feasibility_near_gap_bound():
    """Gaps at 0.999 of the bound admit a verified subsolution for 50
    random data across the pinned pressure exponents."""
    rng = np.random.default_rng(107)
    for _ in range(50):
        rho_minus, rho_plus = random_density_pair(rng)
        eos = Eos(float(rng.choice([1.2, 1.4, 2.0, 2.5])))
        v_plus2 = float(rng.uniform(-3.0, 3.0))
        w = 0.999 * gap_bound(rho_minus, rho_plus, eos)
        ok, intervals = feasible_for_gap(rho_minus, rho_plus, v_plus2, eos, w)
        assert ok, f"infeasible near the bound: {rho_minus}, {rho_plus}, {eos}"
        assert intervals
        data = approaching(rho_minus, rho_plus, v_plus2, w, eos)
        sub = subsolution_witness(data)
        assert sub is not None
        report = verify_subsolution(data, sub)
        assert report.passed, f"witness failed for {data}: {report}"


def test_classifier_two_shock_boundary():
    """The classification flips between the two-shock kind and the
    mixed kinds across the gap bound, and data exactly on the bound
    come back as one admissible shock satisfying the jump relations."""
    rng = np.random.default_rng(109)
    for _ in range(100):
        rho_minus, rho_plus = random_density_pair(rng)
        eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
        v_plus2 = float(rng.uniform(-3.0, 3.0))
        bound = gap_bound(rho_minus, rho_plus, eos)

        above = classify(approaching(rho_minus, rho_plus, v_plus2,
                                     bound + 1e-6, eos))
        below = classify(approaching(rho_minus, rho_plus, v_plus2,
                                     bound - 1e-6, eos))
        assert above.kind is WaveKind.TWO_SHOCKS
        expected_below = (WaveKind.SHOCK_RAREFACTION if rho_minus < rho_plus
                          else WaveKind.RAREFACTION_SHOCK)
        assert below.kind is expected_below

        data = approaching(rho_minus, rho_plus, v_plus2, bound, eos)
        fan = classify(data)
        expected_kind = (WaveKind.SINGLE_SHOCK_1 if rho_minus < rho_plus
                         else WaveKind.SINGLE_SHOCK_3)
        assert fan.kind is expected_kind
        (side,) = fan.speeds
        sigma = fan.speeds[side][0]
        vm2, vp2 = data.v_minus[1], data.v_plus[1]
        mass_lhs = sigma * (rho_plus - rho_minus)
        mass_rhs = rho_plus * vp2 - rho_minus * vm2
        mom_lhs = sigma * (rho_plus * vp2 - rho_minus * vm2)
        mom_rhs = (rho_plus * vp2**2 + pressure(eos, rho_plus)
                   - rho_minus * vm2**2 - pressure(eos, rho_minus))
        scale = max(1.0, abs(mass_rhs))
        assert abs(mass_lhs - mass_rhs) / scale < 1e-8
        scale = max(1.0, abs(mom_rhs))
        assert abs(mom_lhs - mom_rhs) / scale < 1e-8


def test_sign_regime_zero_downstream_velocity():
    """With zero downstream transverse velocity nothing is feasible
    above the crossover density, and below it the production mask
    equals the raw two-inequality window, for 20 random data."""
    rng = np.random.default_rng(113)
    for _ in range(20):
        rho_minus, rho_plus = random_density_pair(rng, ordered=True)
        eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
        bound = gap_bound(rho_minus, rho_plus, eos)
        w = float(rng.uniform(0.5, 0.999)) * bound
        data = approaching(rho_minus, rho_plus, 0.0, w, eos)
        f = data_functionals(data)
        assert rho_minus < f.rho_T < rho_plus

        grid = np.linspace(rho_minus, rho_plus, 10_002)[1:-1]
        window = window_row(data, grid)
        above = grid > f.rho_T
        assert not np.any(window.feasible & above), (
            f"feasible node above the crossover for {data}")

        below = ~above
        assert np.all(window.a_left[below] > 0.0)
        assert np.all(window.a_right[below] < 0.0)
        raw_upper = window.b_left[below] / window.a_left[below]
        raw_lower = window.b_right[below] / window.a_right[below]
        raw_mask = (window.eps_1[below] > 0.0) & (
            np.maximum(raw_lower, 0.0) < raw_upper)
        assert np.array_equal(window.feasible[below], raw_mask)


def _pick_mutant(rng, window, i):
    """Choose one single-violation slack value at a feasible node.

    Returns (eps_2, intended_margin_name) or None when no isolating
    move exists at this node.
    """
    uppers = []
    lowers = []
    for side, a, b in (("energy_left", window.a_left[i], window.b_left[i]),
                       ("energy_right", window.a_right[i], window.b_right[i])):
        if a > 0.0:
            uppers.append((b / a, side))
        elif a < 0.0:
            lowers.append((b / a, side))
    uppers.sort()
    lowers.sort()
    eps_1 = window.eps_1[i]

    options = []
    if uppers:
        binding, side = uppers[0]
        other = uppers[1][0] if len(uppers) > 1 else math.inf
        room = other - binding
        if room > 1e-9 * max(1.0, abs(binding)):
            eps_2 = binding + 1.0 if math.isinf(other) else binding + 0.25 * room
            options.append((eps_2, side))
    if lowers:
        binding, side = lowers[-1]
        other = lowers[0][0] if len(lowers) > 1 else -math.inf
        if binding > 0.0 and 0.5 * binding > other:
            options.append((0.5 * binding, side))
    raw_lower = lowers[-1][0] if lowers else -math.inf
    if raw_lower < 0.0:
        options.append((0.5 * max(raw_lower, -0.9 * eps_1), "determinant"))

    if not options:
        return None
    return options[int(rng.integers(len(options)))]


def test_reconstruction_verifier_equivalence():
    """1000 feasible reconstructions pass the independent verifier and
    1000 single-violation slack choices fail on exactly the intended
    condition, inside the one-minute budget."""
    started = time.monotonic()
    rng = np.random.default_rng(23)
    passed = 0
    mutants = {"energy_left": 0, "energy_right": 0, "determinant": 0}
    built = 0

    while passed < 1000 or built < 1000:
        rho_minus, rho_plus = random_density_pair(rng)
        eos = Eos(float(rng.choice([1.4, 2.0, 2.5])))
        bound = gap_bound(rho_minus, rho_plus, eos)
        w = float(rng.uniform(0.3, 0.999)) * bound
        v1 = float(rng.uniform(-2.0, 2.0))
        v_plus2 = float(rng.uniform(-3.0, 3.0))
        data = approaching(rho_minus, rho_plus, v_plus2, w, eos, v1=v1)

        lo, hi = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
        grid = np.linspace(lo, hi, 194)[1:-1]
        window = window_row(data, grid)
        candidates = np.nonzero(window.feasible)[0]
        if candidates.size == 0:
            continue
        rng.shuffle(candidates)

        for i in candidates[:8]:
            if passed < 1000:
                eff_lo = max(float(window.lower[i]), 0.0)
                upper = float(window.upper[i])
                if math.isinf(upper):
                    eps_2 = eff_lo + float(rng.uniform(0.1, 5.0))
                else:
                    eps_2 = eff_lo + float(rng.uniform(0.05, 0.95)) * (upper - eff_lo)
                sub = reconstruct(data, float(grid[i]), eps_2)
                assert verify_subsolution(data, sub).passed, (
                    f"feasible reconstruction failed at {grid[i]} for {data}")
                passed += 1
            elif built < 1000:
                choice = _pick_mutant(rng, window, i)
                if choice is None:
                    continue
                eps_2, intended = choice
                sub = unchecked_subsolution(data, float(grid[i]), float(eps_2))
                report = verify_subsolution(data, sub)
                assert not report.passed
                assert report.max_equality_residual <= report.equality_tol
                failing = {name for name, margin in
                           report.inequality_margins.items() if margin <= 0.0}
                assert failing == {intended}, (
                    f"wanted only {intended}, got {failing} at rho_1="
                    f"{grid[i]} for {data}")
                mutants[intended] += 1
                built += 1
            else:
                break

    assert passed == 1000 and built == 1000
    assert all(count >= 50 for count in mutants.values()), mutants
    assert time.monotonic() - started < 60.0
