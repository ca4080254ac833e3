"""Tests for the middle-wedge kinematics, the feasibility window, the
reconstruction of full subsolution parameter sets and the independent
interface verifier."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerfan import (ConstraintError, DegenerateDensityError, DomainError,
                      Eos, RiemannData, VelocityGapError, data_functionals,
                      eps2_window, epsilon1_sign_change, feasibility_scan,
                      kinematics, limit_quantities, reconstruct,
                      verify_subsolution)
from eulerfan.subsolution import (EQUALITY_TOL, MiddleNodes, _window_arrays,
                                  middle_nodes, window_grid)

GAMMA2 = Eos(2.0)

# Worked example used throughout: densities (1, 4), velocity drop 3.3,
# quadratic pressure.  The probed middle density 2 sits in the feasible
# part of its window.
GOLDEN = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
GOLDEN_SWAP = RiemannData(4.0, 1.0, (0.0, 3.3), (0.0, 0.0), GAMMA2)
SQRT_T = math.sqrt(45.0 / 4.0)

# Found by seeded search: a feasible probe whose raw lower window bound
# is strictly positive, so crossing it isolates the other interface.
POSITIVE_LOWER_DATA = RiemannData(
    3.1025328928102573, 23.029317395202835,
    (0.0, 10.73028506766137), (0.0, 0.535385157383427), GAMMA2)
POSITIVE_LOWER_RHO1 = 6.346428044362538


def random_subsonic_data(rng, gammas=(1.0, 1.4, 2.0)):
    """Data with distinct densities and a drop strictly below the
    two-shock bound, the regime the window analysis targets."""
    rho_lo = float(10.0 ** rng.uniform(-1, 1))
    rho_hi = rho_lo * float(10.0 ** rng.uniform(0.05, 1.0))
    rho_minus, rho_plus = (rho_hi, rho_lo) if rng.uniform() < 0.5 else (rho_lo, rho_hi)
    eos = Eos(float(rng.choice(gammas)))
    t_val = ((rho_plus - rho_minus)
             * (rho_plus**eos.gamma - rho_minus**eos.gamma)
             / (rho_plus * rho_minus))
    w = float(rng.uniform(0.05, 0.95)) * math.sqrt(t_val)
    v2 = float(rng.uniform(-3.0, 3.0))
    return RiemannData(rho_minus, rho_plus, (0.0, v2 + w), (0.0, v2), eos)


def reflect(data):
    """The same problem under x2 -> -x2: the states swap and the normal
    velocities change sign."""
    return RiemannData(data.rho_plus, data.rho_minus,
                       (data.v_plus[0], -data.v_plus[1]),
                       (data.v_minus[0], -data.v_minus[1]), data.eos)


def close(got, want, tol):
    """Elementwise |got - want| <= tol * max(1, |got|, |want|); equal
    infinities count as close."""
    got, want = np.asarray(got), np.asarray(want)
    same = got == want
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
        return bool(np.all(same | (np.abs(got - want) <= tol * scale)))


class TestKinematics:
    def test_golden_values(self):
        nu_minus, nu_plus, beta, eps_1 = kinematics(GOLDEN, 2.0)
        assert nu_minus == pytest.approx(-1.6656854249, abs=1e-10)
        assert nu_plus == pytest.approx(-0.8171572875, abs=1e-10)
        assert beta == pytest.approx(0.8171572875, abs=1e-10)
        assert eps_1 == pytest.approx(4.6645079349, abs=1e-10)

    def test_interface_ordering_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data = random_subsonic_data(rng)
            lo = min(data.rho_minus, data.rho_plus)
            hi = max(data.rho_minus, data.rho_plus)
            for rho_1 in np.linspace(lo, hi, 30)[1:-1]:
                nu_minus, nu_plus, _, _ = kinematics(data, float(rho_1))
                assert nu_minus < nu_plus

    def test_slack_signs_at_endpoints(self):
        # Limits of the first slack at the ends of the density interval
        # for the worked example: 15 - 4 * 1.1^2 * 3 = 0.48 on the near
        # side and -(0.4 * sqrt(3)/2)^2 = -0.12 on the far side.  The
        # approach is O(sqrt(delta)), so delta = 1e-9 leaves ~2e-4.
        near = kinematics(GOLDEN, 1.0 + 1e-9)[3]
        far = kinematics(GOLDEN, 4.0 - 1e-9)[3]
        assert near == pytest.approx(0.48, rel=1e-3)
        assert far == pytest.approx(-0.12, rel=1e-3)

    def test_requires_distinct_densities(self):
        data = RiemannData(2.0, 2.0, (0.0, 1.0), (0.0, 0.0), GAMMA2)
        with pytest.raises(DegenerateDensityError):
            kinematics(data, 2.0)

    def test_requires_equal_first_components(self):
        data = RiemannData(1.0, 4.0, (0.5, 3.3), (0.0, 0.0), GAMMA2)
        with pytest.raises(DomainError, match="first velocity"):
            kinematics(data, 2.0)

    @pytest.mark.parametrize("w", [SQRT_T, 3.5, 4.0])
    def test_rejects_gap_at_or_beyond_bound(self, w):
        data = RiemannData(1.0, 4.0, (0.0, w), (0.0, 0.0), GAMMA2)
        with pytest.raises(VelocityGapError):
            kinematics(data, 2.0)

    @pytest.mark.parametrize("rho_1", [0.5, 1.0, 4.0, 4.5, float("nan")])
    def test_rejects_density_outside_open_interval(self, rho_1):
        with pytest.raises(DomainError, match="strictly inside"):
            kinematics(GOLDEN, rho_1)

    def test_shift_covariance(self):
        """Adding a common constant to both second velocity components
        shifts the interface speeds and the middle velocity by the same
        constant, leaves the first slack and both window slopes alone,
        and moves the window intercepts by -/+ 2 c rho_1 eps_1."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            data = random_subsonic_data(rng)
            c = float(rng.uniform(-5.0, 5.0))
            shifted = RiemannData(
                data.rho_minus, data.rho_plus,
                (data.v_minus[0], data.v_minus[1] + c),
                (data.v_plus[0], data.v_plus[1] + c), data.eos)
            lo = min(data.rho_minus, data.rho_plus)
            hi = max(data.rho_minus, data.rho_plus)
            grid = np.linspace(lo, hi, 34)[1:-1]
            base = _window_arrays(data, grid)
            moved = _window_arrays(shifted, grid)

            def close(got, want):
                scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
                return np.all(np.abs(got - want) <= 1e-10 * scale)

            assert close(moved.nu_minus, base.nu_minus + c)
            assert close(moved.nu_plus, base.nu_plus + c)
            assert close(moved.beta, base.beta + c)
            assert close(moved.eps_1, base.eps_1)
            assert close(moved.a_left, base.a_left)
            assert close(moved.a_right, base.a_right)
            assert close(moved.b_left, base.b_left + 2.0 * c * grid * base.eps_1)
            assert close(moved.b_right, base.b_right - 2.0 * c * grid * base.eps_1)


class TestReflection:
    def test_reflected_data_map_back(self):
        """Reflecting the data maps nu+/- to -nu-/+ and beta to -beta and
        leaves the first slack, the feasibility mask, the second-slack
        window and the sign-change density alone, on either density
        ordering."""
        rng = np.random.default_rng(41)
        orderings = set()
        for _ in range(100):
            data = random_subsonic_data(rng)
            mirror = reflect(data)
            orderings.add(data.rho_minus < data.rho_plus)
            lo = min(data.rho_minus, data.rho_plus)
            hi = max(data.rho_minus, data.rho_plus)
            grid = np.linspace(lo, hi, 34)[1:-1]
            base = _window_arrays(data, grid)
            refl = _window_arrays(mirror, grid)
            assert close(refl.nu_minus, -base.nu_plus, 1e-12)
            assert close(refl.nu_plus, -base.nu_minus, 1e-12)
            assert close(refl.beta, -base.beta, 1e-12)
            assert close(refl.eps_1, base.eps_1, 1e-12)
            assert np.array_equal(refl.feasible, base.feasible)
            assert close(refl.lower, base.lower, 1e-11)
            assert close(refl.upper, base.upper, 1e-11)
            assert epsilon1_sign_change(mirror) == pytest.approx(
                epsilon1_sign_change(data), rel=1e-9)
        assert orderings == {True, False}

    def test_reflected_witness_is_the_mapped_witness(self):
        """gamma_2 = alpha*beta changes sign with beta; gamma_1, C and
        both slacks stay, and both witnesses verify."""
        rng = np.random.default_rng(47)
        for _ in range(10):
            base = random_subsonic_data(rng)
            v1 = float(rng.uniform(-2.0, 2.0))
            data = RiemannData(base.rho_minus, base.rho_plus, (v1, base.v_minus[1]),
                               (v1, base.v_plus[1]), base.eos)
            sub = feasibility_scan(data, grid=256)[1]
            refl = feasibility_scan(reflect(data), grid=256)[1]
            assert (sub is None) == (refl is None)
            if sub is None:
                continue
            assert close([refl.nu_minus, refl.nu_plus, refl.beta, refl.gamma_2],
                         [-sub.nu_plus, -sub.nu_minus, -sub.beta, -sub.gamma_2], 1e-11)
            assert close([refl.rho_1, refl.alpha, refl.gamma_1, refl.C, refl.eps_1, refl.eps_2],
                         [sub.rho_1, sub.alpha, sub.gamma_1, sub.C, sub.eps_1, sub.eps_2], 1e-11)
            assert verify_subsolution(data, sub).passed
            assert verify_subsolution(reflect(data), refl).passed


class TestEps2Window:
    def test_golden_window(self):
        rec = eps2_window(GOLDEN, 2.0)
        assert rec.feasible
        assert rec.eps2_lower == pytest.approx(-3.3322539674, abs=1e-9)
        assert rec.eps2_upper == pytest.approx(3.5703810858, abs=1e-9)
        assert (rec.sign_beta_minus, rec.sign_plus_beta) == (-1, -1)

    def test_downstream_sign_flips_past_crossover_density(self):
        # rho_T = 45 / 12.33 for the worked example; the sign of
        # v_plus2 - beta flips there when the left density is smaller.
        f = data_functionals(GOLDEN)
        assert f.rho_T == pytest.approx(45.0 / 12.33, rel=1e-12)
        below = eps2_window(GOLDEN, f.rho_T - 0.05)
        above = eps2_window(GOLDEN, f.rho_T + 0.05)
        assert below.sign_plus_beta == -1
        assert above.sign_plus_beta == 1
        assert below.sign_beta_minus == above.sign_beta_minus == -1
        assert kinematics(GOLDEN, 3.8)[2] == pytest.approx(-0.0208769976,
                                                           abs=1e-9)

    def test_upstream_sign_flips_for_swapped_ordering(self):
        f = data_functionals(GOLDEN_SWAP)
        below = eps2_window(GOLDEN_SWAP, f.rho_T - 0.05)
        above = eps2_window(GOLDEN_SWAP, f.rho_T + 0.05)
        assert below.sign_beta_minus == -1
        assert above.sign_beta_minus == 1
        assert below.sign_plus_beta == above.sign_plus_beta == -1

    def test_infeasible_when_first_slack_negative(self):
        rec = eps2_window(GOLDEN, 3.99)
        assert rec.eps_1 < 0.0
        assert not rec.feasible

    def test_first_component_does_not_enter_the_window(self):
        """The window is computed from (rho, v2) data only, so changing
        the common first velocity component must not move a single bit."""
        grid = np.linspace(1.0, 4.0, 34)[1:-1]
        base = _window_arrays(GOLDEN, grid)
        for v1 in (1.0, -2.5, 10.0):
            data = RiemannData(1.0, 4.0, (v1, 3.3), (v1, 0.0), GAMMA2)
            other = _window_arrays(data, grid)
            np.testing.assert_array_equal(other.lower, base.lower)
            np.testing.assert_array_equal(other.upper, base.upper)
            np.testing.assert_array_equal(other.eps_1, base.eps_1)
            np.testing.assert_array_equal(other.feasible, base.feasible)


class TestReconstructAndVerify:
    def test_golden_roundtrip(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        assert sub.alpha == 0.0
        assert sub.gamma_2 == 0.0
        assert sub.C == pytest.approx(sub.alpha**2 + sub.beta**2
                                      + sub.eps_1 + sub.eps_2, rel=1e-14)
        report = verify_subsolution(GOLDEN, sub)
        assert report.passed
        assert report.max_equality_residual <= 1e-12
        assert report.min_inequality_margin > 0.0

    def test_verifier_margin_identities(self):
        # By construction the trace margin is eps_1 + eps_2 and the
        # determinant margin is eps_1 * eps_2.
        sub = reconstruct(GOLDEN, 2.0, 1.5, 0.0)
        report = verify_subsolution(GOLDEN, sub)
        margins = report.inequality_margins
        assert margins["trace"] == pytest.approx(sub.eps_1 + sub.eps_2, rel=1e-12)
        assert margins["determinant"] == pytest.approx(sub.eps_1 * sub.eps_2,
                                                       rel=1e-12)
        assert margins["speed_order"] == pytest.approx(sub.nu_plus - sub.nu_minus)

    def test_verifier_honours_equality_tolerance(self):
        """A residual of ~1e-8 fails the fixed 1e-9 gate even though
        every inequality margin is positive."""
        assert EQUALITY_TOL == 1e-9
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        bent = dataclasses.replace(sub, beta=sub.beta + 1e-8)
        report = verify_subsolution(GOLDEN, bent)
        assert report.equality_tol == 1e-9
        assert 1e-9 < report.max_equality_residual < 1e-6
        assert report.min_inequality_margin > 0.0
        assert not report.passed
        assert verify_subsolution(GOLDEN, sub).passed

    def test_alpha_must_match_data(self):
        with pytest.raises(DomainError, match="alpha"):
            reconstruct(GOLDEN, 2.0, 1.0, 0.5)

    def test_checked_reconstruction_names_the_violation(self):
        with pytest.raises(ConstraintError, match="second slack"):
            reconstruct(GOLDEN, 2.0, -1.0, 0.0)
        with pytest.raises(ConstraintError, match="first slack"):
            reconstruct(GOLDEN, 3.99, 1.0, 0.0)
        upper = eps2_window(GOLDEN, 2.0).eps2_upper
        with pytest.raises(ConstraintError, match="energy inequality"):
            reconstruct(GOLDEN, 2.0, upper + 0.1, 0.0)

    def test_checked_reconstruction_names_the_right_interface(self):
        # The golden datum reflected by x2 -> -x2: above eps2_upper the
        # left interface inequality holds and the right one fails.
        data = RiemannData(4.0, 1.0, (0.0, 0.0), (0.0, -3.3), GAMMA2)
        upper = eps2_window(data, 2.0).eps2_upper
        with pytest.raises(ConstraintError,
                           match="right interface energy inequality violated"):
            reconstruct(data, 2.0, 1.05 * upper, 0.0)

    @given(rho_1=st.floats(min_value=1.2, max_value=3.4),
           frac=st.floats(min_value=0.05, max_value=0.95))
    def test_feasible_reconstructions_verify(self, rho_1, frac):
        rec = eps2_window(GOLDEN, rho_1)
        if not rec.feasible:
            return
        lo = max(rec.eps2_lower, 0.0)
        eps_2 = lo + frac * (rec.eps2_upper - lo)
        sub = reconstruct(GOLDEN, rho_1, eps_2, 0.0)
        assert verify_subsolution(GOLDEN, sub).passed

    def test_energy_margins_are_half_the_window_margins(self):
        """Each interface rule of the window, a*eps_2 <= b, pinned by value
        against the verifier's from-scratch energy balance: the verifier's
        margin is (b - a*eps_2)/2 on both interfaces, at any eps_2."""
        rng = np.random.default_rng(2024)
        gammas = (1.0, 1.4, 2.0, 3.0)
        orderings, checked = set(), 0
        for k in range(240):
            data = random_subsonic_data(rng, gammas=(gammas[k % 4],))
            lo, hi = sorted((data.rho_minus, data.rho_plus))
            rho_1 = lo + (hi - lo) * float(rng.uniform(0.01, 0.99))
            eps_2 = float(rng.uniform(-1.0, 5.0))
            w = window_grid([data], [rho_1])
            if w.errors[0] is not None:
                continue
            sub = reconstruct(data, rho_1, eps_2, 0.0, check=False)
            margins = verify_subsolution(data, sub).inequality_margins
            for side in ("left", "right"):
                a = float(getattr(w, "a_" + side)[0, 0])
                b = float(getattr(w, "b_" + side)[0, 0])
                assert margins["energy_" + side] == pytest.approx(
                    0.5 * (b - a * eps_2), rel=1e-9), (side, data, rho_1, eps_2)
            orderings.add(data.rho_minus < data.rho_plus)
            checked += 1
        assert checked >= 200 and orderings == {True, False}

    @pytest.mark.parametrize("name", ["gamma_2", "alpha"])
    def test_nan_parameter_fails_verification(self, name):
        sub = dataclasses.replace(reconstruct(GOLDEN, 2.0, 1.0, 0.0),
                                  **{name: math.nan})
        report = verify_subsolution(GOLDEN, sub)
        assert not report.passed
        assert math.isnan(report.max_equality_residual)
        assert math.isnan(report.min_inequality_margin)


class TestWindowGrid:
    NODES = np.linspace(1.0, 4.0, 34)[1:-1]

    @staticmethod
    def gap_rows(data, fractions):
        bound = math.sqrt(data_functionals(data).T)
        return [RiemannData(data.rho_minus, data.rho_plus,
                            (data.v_plus[0], data.v_plus[1] + f * bound),
                            data.v_plus, data.eos) for f in fractions]

    def test_rows_equal_one_row_calls(self):
        """Each row of a many-gap call is bit for bit the one-gap result,
        for shared and for per-row middle densities."""
        rng = np.random.default_rng(59)
        for _ in range(40):
            data = random_subsonic_data(rng, gammas=(1.4, 2.0, 3.0))
            rows = self.gap_rows(data, rng.uniform(0.5, 0.999, size=3))
            lo, hi = sorted((data.rho_minus, data.rho_plus))
            shared = np.linspace(lo, hi, 34)[1:-1]
            own = np.sort(rng.uniform(lo, hi, size=(3, 20)), axis=1)
            for nodes in (shared, own):
                grid = window_grid(rows, nodes)
                assert grid.errors == (None, None, None)
                for i, row in enumerate(rows):
                    one = _window_arrays(row, nodes if nodes.ndim == 1 else nodes[i])
                    for field in dataclasses.fields(one):
                        if field.name != "errors":
                            np.testing.assert_array_equal(
                                getattr(grid, field.name)[i], getattr(one, field.name))

    def test_row_errors_are_recorded_not_raised(self):
        beyond = RiemannData(1.0, 4.0, (0.0, SQRT_T), (0.0, 0.0), GAMMA2)
        grid = window_grid([GOLDEN, beyond, GOLDEN], self.NODES)
        assert grid.errors[0] is None and grid.errors[2] is None
        assert isinstance(grid.errors[1], VelocityGapError)
        np.testing.assert_array_equal(grid.feasible[2], grid.feasible[0])

    def test_rows_must_differ_in_the_gap_only(self):
        with pytest.raises(DomainError, match="v_minus only"):
            window_grid([GOLDEN, GOLDEN_SWAP], self.NODES)
        with pytest.raises(DomainError, match="at least one"):
            window_grid([], self.NODES)

    def test_density_outside_interval_raises_the_first_rows_error(self):
        beyond = RiemannData(1.0, 4.0, (0.0, SQRT_T), (0.0, 0.0), GAMMA2)
        with pytest.raises(VelocityGapError):
            window_grid([beyond, GOLDEN], [0.5])
        with pytest.raises(DomainError, match="strictly inside"):
            window_grid([GOLDEN, beyond], [0.5])


class TestMiddleNodes:
    """The node stage built once gives the row stage the same bits as
    plain densities, which window_grid passes through middle_nodes."""

    @staticmethod
    def assert_same_grid(got, want):
        assert [type(e) for e in got.errors] == [type(e) for e in want.errors]
        assert [str(e) for e in got.errors] == [str(e) for e in want.errors]
        for field in dataclasses.fields(got):
            if field.name != "errors":
                assert (getattr(got, field.name).tobytes()
                        == getattr(want, field.name).tobytes()), field.name

    def test_prebuilt_nodes_match_plain_densities(self):
        rng = np.random.default_rng(61)
        for trial in range(120):
            data = random_subsonic_data(rng, gammas=(1.0, 1.4, 2.0, 3.0))
            if (data.rho_minus > data.rho_plus) != bool(trial % 2):
                data = reflect(data)
            rows = TestWindowGrid.gap_rows(data, rng.uniform(0.05, 1.05, size=3))
            lo, hi = sorted((data.rho_minus, data.rho_plus))
            shared = np.linspace(lo, hi, 34)[1:-1]
            own = np.sort(rng.uniform(lo, hi, size=(3, 20)), axis=1)
            for x in (shared, own):
                nodes = middle_nodes(rows[0], x)
                self.assert_same_grid(window_grid(rows, nodes), window_grid(rows, x))

    def test_terms_are_read_only_copies(self):
        x = np.linspace(1.5, 3.5, 5)
        nodes = middle_nodes(GOLDEN, x)
        x[0] = 2.0
        assert nodes.rho_1[0, 0] == 1.5
        for field in dataclasses.fields(MiddleNodes):
            value = getattr(nodes, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name

    @pytest.mark.parametrize("other", [
        GOLDEN_SWAP,
        RiemannData(1.0, 5.0, (0.0, 3.3), (0.0, 0.0), GAMMA2),
        RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), Eos(1.4)),
    ])
    def test_nodes_of_other_data_rejected(self, other):
        nodes = middle_nodes(other, [2.0, 3.0])
        with pytest.raises(DomainError, match="other densities or another pressure law"):
            window_grid([GOLDEN], nodes)

    def test_density_outside_interval_raises_before_any_term(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="strictly inside"):
                middle_nodes(GOLDEN, [2.0, 0.5])
            with pytest.raises(DomainError, match="strictly inside"):
                window_grid([GOLDEN], [[-1.0, 2.0]])


class TestDeliberateViolations:
    """Feeding the verifier parameter sets that break exactly one
    condition, to show nothing else absorbs the failure."""

    def assert_single_violation(self, data, sub, name):
        report = verify_subsolution(data, sub)
        assert not report.passed
        assert report.max_equality_residual <= report.equality_tol
        bad = {k for k, v in report.inequality_margins.items() if v <= 0.0}
        assert bad == {name}, f"expected only {name}, got {bad}"

    def test_crossing_the_upper_bound_breaks_one_energy_inequality(self):
        rec = eps2_window(GOLDEN, 2.0)
        win = _window_arrays(GOLDEN, np.asarray([2.0]))
        # The finite upper bound comes from the positive-slope side,
        # here the left interface.
        assert win.a_left[0] > 0.0 and win.a_right[0] < 0.0
        sub = reconstruct(GOLDEN, 2.0, rec.eps2_upper * 1.05, 0.0, check=False)
        self.assert_single_violation(GOLDEN, sub, "energy_left")

    def test_undershooting_a_positive_lower_bound_breaks_the_other(self):
        data, rho_1 = POSITIVE_LOWER_DATA, POSITIVE_LOWER_RHO1
        rec = eps2_window(data, rho_1)
        assert rec.feasible and rec.eps2_lower > 0.0
        win = _window_arrays(data, np.asarray([rho_1]))
        assert win.a_right[0] < 0.0, "lower bound should come from the right"
        sub = reconstruct(data, rho_1, rec.eps2_lower * 0.5, 0.0, check=False)
        self.assert_single_violation(data, sub, "energy_right")

    def test_negative_second_slack_breaks_only_the_determinant(self):
        rec = eps2_window(GOLDEN, 2.0)
        eps_2 = 0.5 * max(rec.eps2_lower, -rec.eps_1)
        assert eps_2 < 0.0
        sub = reconstruct(GOLDEN, 2.0, eps_2, 0.0, check=False)
        self.assert_single_violation(GOLDEN, sub, "determinant")

    def test_perturbed_middle_velocity_breaks_balances(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        bent = dataclasses.replace(sub, beta=sub.beta + 1e-3)
        report = verify_subsolution(GOLDEN, bent)
        assert not report.passed
        assert report.equality_residuals["cont_left"] > report.equality_tol
        assert report.equality_residuals["cont_right"] > report.equality_tol

    def test_shrunken_energy_bound_breaks_the_trace(self):
        # C is shared by the balances, so this violation is not
        # isolated; the trace margin must fail regardless.
        sub = reconstruct(GOLDEN, 2.0, 1.0, 0.0)
        squeezed = dataclasses.replace(
            sub, C=sub.alpha**2 + sub.beta**2 - 0.1)
        report = verify_subsolution(GOLDEN, squeezed)
        assert not report.passed
        assert report.inequality_margins["trace"] <= 0.0


def _golden_slack_50digit(rho_1):
    """First slack of the worked example at 50 digits, rebuilt from the
    square-root form with none of the production code."""
    with mp.workdps(50):
        rm, rp = mp.mpf(1), mp.mpf(4)
        u = -mp.mpf("3.3")
        R = rm - rp
        T = (rp - rm) * (rp**2 - rm**2) / (rp * rm)
        B = rm * rp * (u**2 - T)
        K = rm * u / R
        L = mp.sqrt(-B) / (-R)
        r1 = mp.mpf(rho_1)
        return ((rp**2 - r1**2) / r1
                - (rp / r1) * (L * mp.sqrt(1 - rm / r1)
                               - K * mp.sqrt(rp / r1 - 1)) ** 2)


class TestSlackShape:
    def test_sign_change_location_golden(self):
        rho_bar = epsilon1_sign_change(GOLDEN)
        assert rho_bar == pytest.approx(3.9689590204, abs=1e-8)
        assert kinematics(GOLDEN, rho_bar - 1e-4)[3] > 0.0
        assert kinematics(GOLDEN, rho_bar + 1e-4)[3] < 0.0

    def test_swapped_ordering_same_location(self):
        assert epsilon1_sign_change(GOLDEN_SWAP) == pytest.approx(
            epsilon1_sign_change(GOLDEN), rel=1e-9)

    def test_single_sign_change_on_fine_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            data = random_subsonic_data(rng)
            lo = min(data.rho_minus, data.rho_plus)
            hi = max(data.rho_minus, data.rho_plus)
            grid = np.linspace(lo, hi, 10_002)[1:-1]
            eps_1 = _window_arrays(data, grid).eps_1
            flips = int(np.sum(np.sign(eps_1[:-1]) != np.sign(eps_1[1:])))
            assert flips == 1, f"{flips} sign changes for {data}"
            rho_bar = epsilon1_sign_change(data)
            i = int(np.argmax(np.sign(eps_1[:-1]) != np.sign(eps_1[1:])))
            assert grid[i] <= rho_bar <= grid[i + 1]

    def test_square_root_zero_sits_below_sign_change(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            data = random_subsonic_data(rng)
            f = data_functionals(data)
            assert f.rho_tilde < epsilon1_sign_change(data)

    def test_weighted_slack_concavity_golden(self):
        f = data_functionals(GOLDEN)
        grid = np.linspace(1.0 + 3e-6, f.rho_tilde, 64)
        weighted = grid * _window_arrays(GOLDEN, grid).eps_1
        h = grid[1] - grid[0]
        second = (weighted[:-2] - 2.0 * weighted[1:-1] + weighted[2:]) / h**2
        assert np.all(second <= 1e-9)

    def test_weighted_slack_concavity_50digit_oracle(self):
        """The high-precision rebuild shows the second differences are
        truly nonpositive, not merely small in double precision."""
        f = data_functionals(GOLDEN)
        grid = np.linspace(1.0 + 3e-6, f.rho_tilde, 64)
        with mp.workdps(50):
            weighted = [mp.mpf(r) * _golden_slack_50digit(r) for r in grid]
            second = [weighted[i - 1] - 2 * weighted[i] + weighted[i + 1]
                      for i in range(1, len(weighted) - 1)]
            assert all(d <= mp.mpf("1e-40") for d in second)

    def test_production_slack_matches_oracle(self):
        grid = np.linspace(1.3, 3.9, 9)
        eps_1 = _window_arrays(GOLDEN, grid).eps_1
        for r, got in zip(grid, eps_1):
            assert got == pytest.approx(float(_golden_slack_50digit(r)),
                                        rel=1e-12, abs=1e-12)

    def test_rejects_receding_data(self):
        data = RiemannData(1.0, 4.0, (0.0, 0.0), (0.0, 3.3), GAMMA2)
        with pytest.raises(DomainError, match="v_plus2 < v_minus2"):
            epsilon1_sign_change(data)


class TestLimitQuantities:
    def test_golden_interior_values(self):
        beta_bar, eps1_bar, m1, m2 = limit_quantities(1.0, 4.0, 0.0, GAMMA2, 2.0)
        assert beta_bar == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-12)
        assert eps1_bar == pytest.approx(3.5, rel=1e-12)
        assert m1 == pytest.approx(4.0, rel=1e-12)
        assert m2 == pytest.approx(-2.75, rel=1e-12)

    def test_endpoint_values(self):
        beta_bar, eps1_bar, m1, m2 = limit_quantities(1.0, 4.0, 0.0, GAMMA2, 1.0)
        assert beta_bar == pytest.approx(SQRT_T, rel=1e-12)
        assert eps1_bar == pytest.approx(0.0, abs=1e-12)
        assert (m1, m2) == (0.0, -6.75)
        beta_bar, eps1_bar, m1, m2 = limit_quantities(1.0, 4.0, 0.0, GAMMA2, 4.0)
        assert eps1_bar == pytest.approx(0.0, abs=1e-12)
        assert (m1, m2) == (6.75, 0.0)

    def test_sign_facts_inside_the_interval(self):
        # In the limit the middle velocity sits strictly below the
        # upstream value and strictly above the downstream one.
        for rho_1 in np.linspace(1.0, 4.0, 42)[1:-1]:
            beta_bar, _, m1, m2 = limit_quantities(1.0, 4.0, 0.0, GAMMA2,
                                                   float(rho_1))
            assert beta_bar - SQRT_T < 0.0
            assert 0.0 - beta_bar < 0.0
            assert m1 > m2

    def test_ordering_swap_mirrors_the_bounds(self):
        m1_lo, m2_lo = limit_quantities(1.0, 4.0, 0.0, GAMMA2, 2.0)[2:]
        m1_hi, m2_hi = limit_quantities(4.0, 1.0, 0.0, GAMMA2, 2.0)[2:]
        assert m1_lo > m2_lo
        assert m1_hi > m2_hi

    def test_returns_python_floats(self):
        for rho_1 in (1.0, 2.0, 4.0):
            for values in (limit_quantities(1.0, 4.0, 0.0, GAMMA2, rho_1),
                           limit_quantities(4.0, 1.0, 0.0, GAMMA2, rho_1)):
                assert [type(x) for x in values] == [float] * 4

    @pytest.mark.parametrize("v_plus2", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_velocity(self, v_plus2):
        with pytest.raises(DomainError, match="v_plus2 must be finite"):
            limit_quantities(1.0, 4.0, v_plus2, GAMMA2, 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            limit_quantities(1.0, 4.0, 0.0, GAMMA2, 0.999)
        with pytest.raises(DomainError):
            limit_quantities(1.0, 4.0, 0.0, GAMMA2, 4.001)
        with pytest.raises(DegenerateDensityError):
            limit_quantities(2.0, 2.0, 0.0, GAMMA2, 2.0)
        with pytest.raises(DomainError):
            limit_quantities(-1.0, 4.0, 0.0, GAMMA2, 2.0)
