"""Tests for the middle-wedge kinematics, the feasibility window, the
reconstruction of full subsolution parameter sets and the independent
interface verifier."""

import dataclasses
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eulerfan.subsolution
from eulerfan import (ConstraintError, DegenerateDensityError, DomainError,
                      Eos, EulerFanError, NumericalError, RiemannData,
                      VelocityGapError, data_functionals, eps2_window,
                      epsilon1_sign_change, feasibility_scan, limit_quantities,
                      reconstruct, two_shock_T, verify_subsolution, witness_at)
from eulerfan.subsolution import (CONTINUITY_TOL, CROSS_CHECK_TOL, EQUALITY_TOL,
                                  MiddleNodes, WindowGrid, middle_nodes, window_grid)
from kernel_helpers import (WINDOW_VALUES, NumpyCallCounter, counted_nodes,
                            reference_window_grid, unchecked_subsolution, window_row)


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

# Found by seeded search: (data, rho_1) where one energy coefficient
# vanishes exactly and every other condition holds, so the sign test
# b >= 0 alone decides the node: b < 0 for the first and the third
# (the third reflected, its left coefficient vanishing), b >= 0 for the
# second.
VANISHING_COEFFICIENT = [
    (RiemannData(0.9675957627426317, 10.473706752295747,
                 (0.0, 5.588970513587585), (0.0, 0.8325790827489667), Eos(1.4)),
     6.322706005656887),
    (RiemannData(5.073009515875978, 20.823783705878835,
                 (0.0, 1.7992252203600434), (0.0, -0.9596102090511072), Eos(1.4)),
     14.0508120293856),
    (RiemannData(0.6075571139838246, 0.2275850638214265,
                 (0.0, -1.3388428660124747), (0.0, -1.9767016195680762), Eos(1.4)),
     0.3030434061342602),
]


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
        rec = eps2_window(GOLDEN, 2.0)
        assert rec.nu_minus == pytest.approx(-1.6656854249, abs=1e-10)
        assert rec.nu_plus == pytest.approx(-0.8171572875, abs=1e-10)
        assert rec.beta == pytest.approx(0.8171572875, abs=1e-10)
        assert rec.eps_1 == pytest.approx(4.6645079349, abs=1e-10)

    def test_interface_ordering_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data = random_subsonic_data(rng)
            lo = min(data.rho_minus, data.rho_plus)
            hi = max(data.rho_minus, data.rho_plus)
            for rho_1 in np.linspace(lo, hi, 30)[1:-1]:
                rec = eps2_window(data, float(rho_1))
                assert rec.nu_minus < rec.nu_plus

    def test_slack_signs_at_endpoints(self):
        # Limits of the first slack at the ends of the density interval
        # for the worked example: 15 - 4 * 1.1^2 * 3 = 0.48 on the near
        # side and -(0.4 * sqrt(3)/2)^2 = -0.12 on the far side.  The
        # approach is O(sqrt(delta)), so delta = 1e-9 leaves ~2e-4.
        near = eps2_window(GOLDEN, 1.0 + 1e-9).eps_1
        far = eps2_window(GOLDEN, 4.0 - 1e-9).eps_1
        assert near == pytest.approx(0.48, rel=1e-3)
        assert far == pytest.approx(-0.12, rel=1e-3)

    def test_requires_distinct_densities(self):
        data = RiemannData(2.0, 2.0, (0.0, 1.0), (0.0, 0.0), GAMMA2)
        with pytest.raises(DegenerateDensityError):
            eps2_window(data, 2.0)

    def test_requires_equal_first_components(self):
        data = RiemannData(1.0, 4.0, (0.5, 3.3), (0.0, 0.0), GAMMA2)
        with pytest.raises(DomainError, match="first velocity"):
            eps2_window(data, 2.0)

    @pytest.mark.parametrize("w", [SQRT_T, 3.5, 4.0])
    def test_rejects_gap_at_or_beyond_bound(self, w):
        data = RiemannData(1.0, 4.0, (0.0, w), (0.0, 0.0), GAMMA2)
        with pytest.raises(VelocityGapError):
            eps2_window(data, 2.0)

    @pytest.mark.parametrize("rho_1", [0.5, 1.0, 4.0, 4.5, float("nan")])
    def test_rejects_density_outside_open_interval(self, rho_1):
        with pytest.raises(DomainError, match="strictly inside"):
            eps2_window(GOLDEN, rho_1)

    @pytest.mark.parametrize("wrapper", [
        eps2_window, witness_at,
        lambda data, rho_1: reconstruct(data, rho_1, 1.0),
    ], ids=["eps2_window", "witness_at", "reconstruct"])
    def test_bad_gap_raises_before_bad_density(self, wrapper):
        """A datum that fails its preconditions raises that error, not
        the one of a middle density outside the interval."""
        beyond = RiemannData(1.0, 4.0, (0.0, SQRT_T), (0.0, 0.0), GAMMA2)
        with pytest.raises(VelocityGapError):
            wrapper(beyond, 0.5)

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
            base = window_row(data, grid)
            moved = window_row(shifted, grid)

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
            base = window_row(data, grid)
            refl = window_row(mirror, grid)
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


def signs(data, rec):
    """The signs of beta - v_minus2 and v_plus2 - beta at the record's
    middle density."""
    return int(np.sign(rec.beta - data.v_minus[1])), int(np.sign(data.v_plus[1] - rec.beta))


class TestEps2Window:
    def test_golden_window(self):
        rec = eps2_window(GOLDEN, 2.0)
        assert rec.feasible
        assert rec.eps2_lower == pytest.approx(-3.3322539674, abs=1e-9)
        assert rec.eps2_upper == pytest.approx(3.5703810858, abs=1e-9)
        assert signs(GOLDEN, rec) == (-1, -1)

    def test_downstream_sign_flips_past_crossover_density(self):
        # rho_T = 45 / 12.33 for the worked example; the sign of
        # v_plus2 - beta flips there when the left density is smaller.
        f = data_functionals(GOLDEN)
        assert f.rho_T == pytest.approx(45.0 / 12.33, rel=1e-12)
        below = eps2_window(GOLDEN, f.rho_T - 0.05)
        above = eps2_window(GOLDEN, f.rho_T + 0.05)
        assert signs(GOLDEN, below) == (-1, -1)
        assert signs(GOLDEN, above) == (-1, 1)
        assert eps2_window(GOLDEN, 3.8).beta == pytest.approx(-0.0208769976,
                                                              abs=1e-9)

    def test_upstream_sign_flips_for_swapped_ordering(self):
        f = data_functionals(GOLDEN_SWAP)
        below = eps2_window(GOLDEN_SWAP, f.rho_T - 0.05)
        above = eps2_window(GOLDEN_SWAP, f.rho_T + 0.05)
        assert signs(GOLDEN_SWAP, below) == (-1, -1)
        assert signs(GOLDEN_SWAP, above) == (1, -1)

    def test_infeasible_when_first_slack_negative(self):
        rec = eps2_window(GOLDEN, 3.99)
        assert rec.eps_1 < 0.0
        assert not rec.feasible

    def test_first_component_does_not_enter_the_window(self):
        """The window is computed from (rho, v2) data only, so changing
        the common first velocity component must not move a single bit."""
        grid = np.linspace(1.0, 4.0, 34)[1:-1]
        base = window_row(GOLDEN, grid)
        for v1 in (1.0, -2.5, 10.0):
            data = RiemannData(1.0, 4.0, (v1, 3.3), (v1, 0.0), GAMMA2)
            other = window_row(data, grid)
            np.testing.assert_array_equal(other.lower, base.lower)
            np.testing.assert_array_equal(other.upper, base.upper)
            np.testing.assert_array_equal(other.eps_1, base.eps_1)
            np.testing.assert_array_equal(other.feasible, base.feasible)


class TestReconstructAndVerify:
    def test_golden_roundtrip(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0)
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
        sub = reconstruct(GOLDEN, 2.0, 1.5)
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
        sub = reconstruct(GOLDEN, 2.0, 1.0)
        bent = dataclasses.replace(sub, beta=sub.beta + 1e-8)
        report = verify_subsolution(GOLDEN, bent)
        assert report.equality_tol == 1e-9
        assert 1e-9 < report.max_equality_residual < 1e-6
        assert report.min_inequality_margin > 0.0
        assert not report.passed
        assert verify_subsolution(GOLDEN, sub).passed

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma_2"])
    def test_fields_beyond_the_float_range_fail_without_raising(self, name):
        """A field whose square overflows gives a failing report: the
        verifier squares by products, which give inf where a float power
        raises OverflowError."""
        sub = dataclasses.replace(reconstruct(GOLDEN, 2.0, 1.0), **{name: 1e200})
        report = verify_subsolution(GOLDEN, sub)
        assert not report.passed
        assert report.min_inequality_margin == -math.inf

    def test_middle_density_without_a_finite_pressure_raises(self):
        """rho_1 is the one density the verifier checks; RiemannData has
        checked the datum's."""
        sub = dataclasses.replace(reconstruct(GOLDEN, 2.0, 1.0), rho_1=1e200)
        with pytest.raises(DomainError, match="rho_1 = 1e[+]200 has no finite pressure"):
            verify_subsolution(GOLDEN, sub)

    def test_checked_reconstruction_names_the_violation(self):
        with pytest.raises(ConstraintError, match="second slack"):
            reconstruct(GOLDEN, 2.0, -1.0)
        with pytest.raises(ConstraintError, match="first slack"):
            reconstruct(GOLDEN, 3.99, 1.0)
        upper = eps2_window(GOLDEN, 2.0).eps2_upper
        with pytest.raises(ConstraintError, match="energy inequality"):
            reconstruct(GOLDEN, 2.0, upper + 0.1)

    def test_checked_reconstruction_names_the_right_interface(self):
        # The golden datum reflected by x2 -> -x2: above eps2_upper the
        # left interface inequality holds and the right one fails.
        data = RiemannData(4.0, 1.0, (0.0, 0.0), (0.0, -3.3), GAMMA2)
        upper = eps2_window(data, 2.0).eps2_upper
        with pytest.raises(ConstraintError,
                           match="right interface energy inequality violated"):
            reconstruct(data, 2.0, 1.05 * upper)

    @given(rho_1=st.floats(min_value=1.2, max_value=3.4),
           frac=st.floats(min_value=0.05, max_value=0.95))
    def test_feasible_reconstructions_verify(self, rho_1, frac):
        rec = eps2_window(GOLDEN, rho_1)
        if not rec.feasible:
            return
        lo = max(rec.eps2_lower, 0.0)
        eps_2 = lo + frac * (rec.eps2_upper - lo)
        sub = reconstruct(GOLDEN, rho_1, eps_2)
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
            try:
                w = window_row(data, [rho_1])
            except EulerFanError:
                continue
            sub = unchecked_subsolution(data, rho_1, eps_2)
            margins = verify_subsolution(data, sub).inequality_margins
            for side in ("left", "right"):
                a = float(getattr(w, "a_" + side)[0])
                b = float(getattr(w, "b_" + side)[0])
                assert margins["energy_" + side] == pytest.approx(
                    0.5 * (b - a * eps_2), rel=1e-9), (side, data, rho_1, eps_2)
            orderings.add(data.rho_minus < data.rho_plus)
            checked += 1
        assert checked >= 200 and orderings == {True, False}

    @pytest.mark.parametrize("name", ["gamma_2", "alpha"])
    def test_nan_parameter_fails_verification(self, name):
        sub = dataclasses.replace(reconstruct(GOLDEN, 2.0, 1.0),
                                  **{name: math.nan})
        report = verify_subsolution(GOLDEN, sub)
        assert not report.passed
        assert math.isnan(report.max_equality_residual)
        assert math.isnan(report.min_inequality_margin)


class TestOneNodeWrapperContract:
    """The one-node wrappers on seeded data over density ratios up to
    1e6, gamma in [1, 5] and gaps up to (1 - 1e-6)*sqrt(T)."""

    #: Draws whose witness fails verify_subsolution, ROADMAP item 1's
    #: kinematics at density ratios of 2.8e4 to 7e5: mom2_right
    #: residuals of 1.3e-9 to 3.5e-9 against the 1e-9 gate.
    ITEM_1_DRAWS = (94, 404, 478)

    def test_seeded_data_answer_and_feasible_nodes_build(self):
        """eps2_window returns finite kinematics or raises an
        EulerFanError, with no RuntimeWarning; at every feasible node
        witness_at builds a subsolution that verify_subsolution passes,
        and reconstruct(data, rho_1, eps_2) builds the same one at the
        midpoint of the window cut to a width of max(lower, eps_1).

        One draw per datum, in this order: the density ratio 10^U(0, 6),
        reflected on odd draws; gamma; the near density 10^U(-3, 3);
        v_plus2 = U(-10, 10); the gap as a fraction of sqrt(T); rho_1
        uniform inside the density interval.  On the first 3000 data of
        these draws, 6 of the 897 feasible nodes build a witness that
        verify_subsolution rejects; ITEM_1_DRAWS are those among the
        first 500."""
        rng = np.random.default_rng(29)
        feasible = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(500):
                ratio = float(10.0 ** rng.uniform(0.0, 6.0))
                eos = Eos(float(rng.choice([1.0, 1.4, 2.0, 3.0, 5.0])))
                near = float(10.0 ** rng.uniform(-3.0, 3.0))
                v_plus2 = float(rng.uniform(-10.0, 10.0))
                frac = float(rng.choice([0.3, 0.9, 0.999, 1.0 - 1e-6]))
                far = near * ratio
                rho_minus, rho_plus = (far, near) if k % 2 else (near, far)
                w = frac * math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
                rho_1 = float(rng.uniform(near, far))
                data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w),
                                   (0.0, v_plus2), eos)
                try:
                    rec = eps2_window(data, rho_1)
                except EulerFanError:
                    continue
                assert all(map(math.isfinite, (rec.nu_minus, rec.nu_plus, rec.beta,
                                               rec.eps_1))), (data, rho_1)
                if not rec.feasible:
                    continue
                lower = max(rec.eps2_lower, 0.0)
                eps_2 = lower + 0.5 * min(rec.eps2_upper - lower, max(lower, rec.eps_1))
                sub = witness_at(data, rho_1)
                assert sub == reconstruct(data, rho_1, eps_2)
                passed = verify_subsolution(data, sub).passed
                assert passed is (k not in self.ITEM_1_DRAWS), (k, data, rho_1)
                feasible += 1
        assert feasible >= 100


class TestWindowGrid:
    NODES = np.linspace(1.0, 4.0, 34)[1:-1]

    def test_row_errors_are_recorded_not_raised(self):
        """window_grid raises the datum's own error, after refusing nodes
        of the wrong type or of other data."""
        beyond = RiemannData(1.0, 4.0, (0.0, SQRT_T), (0.0, 0.0), GAMMA2)
        with pytest.raises(VelocityGapError, match="B = .* >= 0"):
            window_grid(beyond, middle_nodes(GOLDEN, self.NODES))
        with pytest.raises(DomainError, match="MiddleNodes of middle_nodes"):
            window_grid(beyond, self.NODES)
        with pytest.raises(DomainError, match="other densities"):
            window_grid(beyond, middle_nodes(GOLDEN_SWAP, self.NODES))

    @pytest.mark.parametrize("nodes", [NODES, NODES.tolist(), [[2.0]], 2.0],
                             ids=["array", "list", "nested_list", "float"])
    def test_plain_densities_rejected(self, nodes):
        with pytest.raises(DomainError, match="MiddleNodes of middle_nodes"):
            window_grid(GOLDEN, nodes)

    @pytest.mark.parametrize("data", [GOLDEN, GOLDEN_SWAP], ids=["1_4", "4_1"])
    def test_numpy_calls_per_passing_call(self, data):
        """The kernel's cost per call is its count of numpy calls, fixed
        whatever the number of nodes.  A call whose self-checks all pass
        on their absolute residuals and whose energy coefficients are all
        nonzero makes 68 of them on either density ordering, 30 of which
        allocate their result.  Its speeds and middle velocity come back
        to the user's frame only when read: one allocating call each, on
        the first read only.  Counting changes no bit."""
        nodes = middle_nodes(data, np.linspace(1.0, 4.0, 2050)[1:-1])
        plain = window_grid(data, nodes)
        NumpyCallCounter.calls = NumpyCallCounter.allocations = 0
        counted = window_grid(data, counted_nodes(nodes))
        kernel = (NumpyCallCounter.calls, NumpyCallCounter.allocations)
        for name in ("nu_minus", "nu_plus", "beta") * 2:
            getattr(counted, name)
        assert kernel == (68, 30)
        assert (NumpyCallCounter.calls, NumpyCallCounter.allocations) == (71, 33)
        for name in WINDOW_VALUES:
            np.testing.assert_array_equal(getattr(counted, name), getattr(plain, name))


class TestBoundFirstSelfChecks:
    """Each self-check tests its absolute residual first and forms the
    relative residual only when that bound does not decide.  It decides
    and raises exactly as the full relative residuals do, computed here
    from the kernel's own speeds, middle velocity and first slack in its
    frame (_kinematics_arrays with every check let through)."""

    CROSS_CHECK = ("first-slack cross-check failed: square-root form and "
                   "interface-speed form disagree by {:.3e} (relative) at rho_1 = {}")
    CONTINUITY = "{} continuity self-check failed: residual {:.3e} at rho_1 = {}"

    def reference_error(self, data, nodes):
        """(path, message) of the datum's full relative residuals: the
        message of its first failing self-check or None, and the path
        that decided it, "raised", "exact" when a passing check's
        absolute residual exceeds its tolerance, else "bound"."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eulerfan.subsolution, "_check_residual", lambda *args: None)
            *_, nu_near, nu_far, beta, eps_1 = eulerfan.subsolution._kinematics_arrays(data, nodes)
        flip = data.rho_minus > data.rho_plus
        near = data.rho_plus if flip else data.rho_minus
        eps_1_alt = nodes.pressure_term - nodes.far_weight * nu_far ** 2
        checks = [(np.abs(eps_1 - eps_1_alt), np.maximum(1.0, np.abs(eps_1)),
                   CROSS_CHECK_TOL, self.CROSS_CHECK.format)]
        rho_beta = nodes.rho_1 * beta
        sides = ("right", "left") if flip else ("left", "right")
        for name, nu, d, mom in zip(sides, (nu_near, nu_far), (nodes.d_near, nodes.d_far),
                                    (near * data.gap, 0.0)):
            lhs, lhs_mom = nu * d, mom - rho_beta
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(lhs_mom)))
            checks.append((np.abs(lhs - lhs_mom), scale, CONTINUITY_TOL,
                           functools.partial(self.CONTINUITY.format, name)))
        path = "bound"
        for diff, scale, tol, message in checks:
            rel = diff / scale
            if not rel.max() <= tol:
                return "raised", message(rel.max(), nodes.rho_1[np.argmax(rel)])
            if not diff.max() <= tol:
                path = "exact"
        return path, None

    def test_decisions_and_messages_match_the_full_residuals(self):
        """Seeded data: densities lambda*(1, ratio) in both orderings and
        transverse velocities up to about 3e5 sqrt(T).  A third of them
        have ratios of 1e2 to 1e6 and the gap (1 - 1e-9)*sqrt(T), with a
        node 1e-9 of the interval from the near density, where the terms
        cancel to residuals beyond the tolerances."""
        rng = np.random.default_rng(2024)
        paths = {"bound": 0, "exact": 0, "raised": 0}
        for k in range(300):
            near_bound = k % 3 == 2
            lo = float(10.0 ** rng.uniform(0.0, 5.0))
            ratio = rng.uniform(2.0, 6.0) if near_bound else rng.uniform(0.1, 1.5)
            hi = lo * float(10.0 ** ratio)
            rho_minus, rho_plus = (hi, lo) if k % 2 else (lo, hi)
            eos = Eos((1.4, 2.0, 3.0, 5.0)[k % 4])
            sqrt_T = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            v_plus2 = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 5.5)) * sqrt_T
            gap = (1.0 - 1e-9 if near_bound else float(rng.uniform(0.01, 0.999))) * sqrt_T
            data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + gap), (0.0, v_plus2), eos)
            delta = 1e-9 * (hi - lo) if near_bound else (hi - lo) / 65
            nodes = middle_nodes(data, np.linspace(lo + delta, hi - delta, 64))
            path, message = self.reference_error(data, nodes)
            # The transverse velocity cancels nothing in the kernel's frame.
            assert near_bound or message is None, data
            paths[path] += 1
            if message is None:
                window_grid(data, nodes)
            else:
                with pytest.raises(NumericalError) as got:
                    window_grid(data, nodes)
                assert str(got.value) == message
        assert min(paths.values()) >= 20, paths


class TestRowStageMatchesReference:
    """window_grid sends the partial results of its kinematics and of
    its energy rule to scratch arrays, maps its speeds and middle
    velocity to the user's frame only when they are read, and forms the
    sign test of a vanishing energy coefficient only when one vanishes.
    The plain allocating row stage of kernel_helpers is its oracle:
    every value of a WindowGrid in the user's frame byte for byte, NaN
    included, and every error by type and message."""

    @staticmethod
    def same_outcome(data, nodes):
        """window_grid(data, nodes), after checking it against the
        reference; the error's type when both raise it."""
        try:
            want = reference_window_grid(data, nodes)
        except EulerFanError as exc:
            with pytest.raises(EulerFanError) as got:
                window_grid(data, nodes)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return type(exc)
        got = window_grid(data, nodes)
        for name in WINDOW_VALUES:
            g, w = getattr(got, name), getattr(want, name)
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
        return got

    def test_seeded_data(self):
        """Both density orderings on every gamma of (1, 1.4, 2, 3, 5), on
        1 to 2048 nodes, with gaps that pass, transverse velocities up to
        about 1e8 sqrt(T) that pass too, gaps beyond the two-shock bound,
        and density ratios of 1e2 to 1e6 at the gap (1 - 1e-9)*sqrt(T),
        whose self-checks fail at the node 1e-9 of the interval from the
        near density for gamma of 2 and more."""
        rng = np.random.default_rng(2025)
        outcomes = {}
        for k in range(440):
            eos = Eos((1.0, 1.4, 2.0, 3.0, 5.0)[k % 5])
            regime = k % 4
            lo = float(10.0 ** rng.uniform(-1.0, 2.0))
            ratio = rng.uniform(2.0, 6.0) if regime == 3 else rng.uniform(0.05, 1.5)
            hi = lo * float(10.0 ** ratio)
            rho_minus, rho_plus = (hi, lo) if k % 2 else (lo, hi)
            sqrt_T = math.sqrt(two_shock_T(eos, rho_minus, rho_plus))
            scale = 10.0 ** rng.uniform(4.0, 8.0) if regime == 1 else rng.uniform(0.0, 3.0)
            v_plus2 = float(rng.choice((-1.0, 1.0)) * scale) * sqrt_T
            gap = {2: rng.uniform(1.0, 1.5), 3: 1.0 - 1e-9}.get(regime, rng.uniform(0.01, 0.999))
            gap = float(gap) * sqrt_T
            data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + gap), (0.0, v_plus2), eos)
            size = int(rng.choice((1, 2, 64, 2048)))
            delta = 1e-9 * (hi - lo)
            rho_1 = (np.linspace(lo + delta, hi - delta, size) if regime == 3
                     else np.linspace(lo, hi, size + 2)[1:-1])
            outcome = self.same_outcome(data, middle_nodes(data, rho_1))
            kind = outcome if isinstance(outcome, type) else WindowGrid
            # The kernel's frame leaves the transverse velocity nothing
            # to cancel.
            assert regime != 1 or kind is WindowGrid, data
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert outcomes.keys() == {WindowGrid, NumericalError, VelocityGapError}, outcomes
        assert min(outcomes.values()) >= 30, outcomes

    @pytest.mark.parametrize("data, rho_1", VANISHING_COEFFICIENT)
    def test_vanishing_coefficient_decides_by_its_sign_test(self, data, rho_1):
        lo, hi = sorted((data.rho_minus, data.rho_plus))
        nodes = middle_nodes(data, np.sort(np.append(np.linspace(lo, hi, 66)[1:-1], rho_1)))
        w = self.same_outcome(data, nodes)
        i = np.searchsorted(nodes.rho_1, rho_1)
        (b,) = [b[i] for a, b in ((w.a_left, w.b_left), (w.a_right, w.b_right)) if a[i] == 0.0]
        assert w.eps_1[i] > 0.0 and max(w.lower[i], 0.0) < w.upper[i]
        assert w.feasible[i] == (b >= 0.0)
        assert eps2_window(data, rho_1).feasible == (b >= 0.0)


class TestMiddleNodes:
    """The node stage, the only form in which window_grid takes middle
    densities."""

    def test_terms_are_read_only_copies(self):
        x = np.linspace(1.5, 3.5, 5)
        nodes = middle_nodes(GOLDEN, x)
        x[0] = 2.0
        assert nodes.rho_1[0] == 1.5
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
            window_grid(GOLDEN, nodes)

    def test_density_outside_interval_raises_before_any_term(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="strictly inside"):
                middle_nodes(GOLDEN, [2.0, 0.5])
            with pytest.raises(DomainError, match="strictly inside"):
                middle_nodes(GOLDEN, [[-1.0, 2.0]])


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
        win = window_row(GOLDEN, np.asarray([2.0]))
        # The finite upper bound comes from the positive-slope side,
        # here the left interface.
        assert win.a_left[0] > 0.0 and win.a_right[0] < 0.0
        sub = unchecked_subsolution(GOLDEN, 2.0, rec.eps2_upper * 1.05)
        self.assert_single_violation(GOLDEN, sub, "energy_left")

    def test_undershooting_a_positive_lower_bound_breaks_the_other(self):
        data, rho_1 = POSITIVE_LOWER_DATA, POSITIVE_LOWER_RHO1
        rec = eps2_window(data, rho_1)
        assert rec.feasible and rec.eps2_lower > 0.0
        win = window_row(data, np.asarray([rho_1]))
        assert win.a_right[0] < 0.0, "lower bound should come from the right"
        sub = unchecked_subsolution(data, rho_1, rec.eps2_lower * 0.5)
        self.assert_single_violation(data, sub, "energy_right")

    def test_negative_second_slack_breaks_only_the_determinant(self):
        rec = eps2_window(GOLDEN, 2.0)
        eps_2 = 0.5 * max(rec.eps2_lower, -rec.eps_1)
        assert eps_2 < 0.0
        sub = unchecked_subsolution(GOLDEN, 2.0, eps_2)
        self.assert_single_violation(GOLDEN, sub, "determinant")

    def test_perturbed_middle_velocity_breaks_balances(self):
        sub = reconstruct(GOLDEN, 2.0, 1.0)
        bent = dataclasses.replace(sub, beta=sub.beta + 1e-3)
        report = verify_subsolution(GOLDEN, bent)
        assert not report.passed
        assert report.equality_residuals["cont_left"] > report.equality_tol
        assert report.equality_residuals["cont_right"] > report.equality_tol

    def test_shrunken_energy_bound_breaks_the_trace(self):
        # C is shared by the balances, so this violation is not
        # isolated; the trace margin must fail regardless.
        sub = reconstruct(GOLDEN, 2.0, 1.0)
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
        assert eps2_window(GOLDEN, rho_bar - 1e-4).eps_1 > 0.0
        assert eps2_window(GOLDEN, rho_bar + 1e-4).eps_1 < 0.0

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
            eps_1 = window_row(data, grid).eps_1
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
        weighted = grid * window_row(GOLDEN, grid).eps_1
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
        eps_1 = window_row(GOLDEN, grid).eps_1
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

    def test_rejects_an_underflowing_density_product(self):
        """The limits divide by rho_minus*rho_plus, which underflows to 0
        here: a DomainError naming both densities, not a
        ZeroDivisionError."""
        with pytest.raises(DomainError, match="rho_minus = 5e-324 and rho_plus = 1.0"):
            limit_quantities(5e-324, 1.0, 0.0, GAMMA2, 0.5)

    @pytest.mark.parametrize("args, message", [
        ((50.70995612439288, 1e200, -3.4611057362201936, Eos(1.0), 8.227962439278364e199),
         "rho_1 = 8.227962439278364e[+]199 and rho_plus = 1e[+]200 have no positive normal"),
        ((1e150, 5e-324, 1e-300, GAMMA2, 1e-8),
         "rho_1 = 1e-08 and rho_plus = 5e-324 have no positive normal"),
        ((1e200, 1e-100, 0.0, Eos(1.0), 1.0),
         "rho_minus - rho_plus = 1e[+]200 has no finite float square"),
        ((1e150, 1e-150, 0.0, Eos(3.0), 1.0),
         "rho_minus = 1e[+]150 has no finite pressure"),
        ((1e-150, math.nextafter(1e-150, 1.0), 0.0, GAMMA2, 1e-150),
         "are too close at rho_1 = 1e-150"),
        ((1e150, 1e-150, 0.0, GAMMA2, 1.0),
         r"rho_minus = 1e\+150 and rho_plus = 1e-150 give non-finite limits"),
    ], ids=["rho_1_times_rho_plus_overflows", "rho_1_times_rho_plus_underflows",
            "density_gap_squared_overflows", "pressure_overflows", "T_underflows",
            "limits_overflow"])
    def test_float_range_failures_are_domain_errors(self, args, message):
        """Each of these raised OverflowError or ZeroDivisionError, or
        returned (inf, -inf, inf, inf) without a warning."""
        with pytest.raises(DomainError, match=message):
            limit_quantities(*args)

    def test_seeded_data_raise_only_package_errors(self):
        """Densities log-uniform over the float range, near and far
        apart.  About a sixth of them crashed with OverflowError or
        ZeroDivisionError, and 200 more returned non-finite limits
        without an error; every returned limit is now finite (468 of the
        2000).  The RuntimeWarnings that the dissipation term P still
        gives on some of them are not asserted here."""
        rng = np.random.default_rng(5)
        returned = 0
        for k in range(2000):
            a = float(10.0 ** rng.uniform(-300, 300))
            b = (a * float(10.0 ** rng.uniform(-20, 20)) if k % 2
                 else a * (1.0 + float(10.0 ** rng.uniform(-16, -1))))
            lo, hi = sorted((a, b))
            rho_1 = float(rng.choice([lo, hi, lo + rng.uniform() * (hi - lo)]))
            v_plus2 = float(rng.choice([0.0, rng.uniform(-5, 5), 10.0 ** rng.uniform(-300, 300)]))
            eos = Eos(float(rng.choice([1.0, 1.4, 2.0, 3.0, 5.0])))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    limits = limit_quantities(a, b, v_plus2, eos, rho_1)
                except EulerFanError:
                    continue
            assert all(map(math.isfinite, limits)), (a, b, v_plus2, eos, rho_1, limits)
            returned += 1
        assert returned >= 468
