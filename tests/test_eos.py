"""Tests for the pressure law, derived thermodynamic helpers and the
scalar functionals of two-state data."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from eulerfan import (DomainError, Eos, RiemannData, data_functionals,
                      internal_energy, p_dissipation, pressure, two_shock_T)

# densities away from over/underflow and from the removable diagonal
density = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
gamma_any = st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=3.0,
                                              allow_nan=False))


class TestEos:
    def test_gamma_one_allowed(self):
        assert Eos(gamma=1.0).gamma == 1.0

    @pytest.mark.parametrize("bad", [0.99, 0.0, -2.0, float("nan"), float("inf")])
    def test_invalid_gamma_rejected(self, bad):
        with pytest.raises(DomainError):
            Eos(gamma=bad)


class TestPressure:
    def test_quadratic_law(self):
        assert pressure(Eos(2.0), 2.0) == 4.0

    def test_linear_law(self):
        assert pressure(Eos(1.0), 3.0) == 3.0

    def test_array_input(self):
        out = pressure(Eos(2.0), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, np.array([1.0, 4.0, 9.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_density_rejected(self, bad):
        with pytest.raises(DomainError):
            pressure(Eos(2.0), bad)

    def test_pressure_beyond_float_range_rejected(self):
        # 1e308**2 overflows: a DomainError naming the density, not the
        # OverflowError of a Python float power.
        with pytest.raises(DomainError, match="rho = 1e[+]308 has no finite pressure"):
            pressure(Eos(2.0), 1e308)
        with pytest.raises(DomainError, match="finite pressure"):
            pressure(Eos(2.0), np.array([1.0, 1e308]))
        with pytest.raises(DomainError, match="s = 1e[+]200"):
            p_dissipation(Eos(2.0), 1.0, 1e200)
        assert pressure(Eos(1.0), 1e308) == 1e308


class TestTwoShockT:
    def test_quadratic_law_value(self):
        assert two_shock_T(Eos(2.0), 1.0, 4.0) == 11.25

    @given(r=density, s=density, gamma=gamma_any)
    def test_symmetric_and_equal_to_data_functionals(self, r, s, gamma):
        eos = Eos(gamma)
        T = two_shock_T(eos, r, s)
        assert T == two_shock_T(eos, s, r)
        d = RiemannData(r, s, (0.0, 0.0), (0.0, 0.0), eos)
        assert data_functionals(d).T == T

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_density_rejected(self, bad):
        with pytest.raises(DomainError):
            two_shock_T(Eos(2.0), bad, 1.0)
        with pytest.raises(DomainError):
            two_shock_T(Eos(2.0), 1.0, bad)

    def test_density_product_outside_the_normal_range_rejected(self):
        """T divides by r*s: a product that underflows to 0 or to a
        subnormal, or overflows, is a DomainError naming both densities,
        not a ZeroDivisionError or a meaningless T."""
        with pytest.raises(DomainError, match="r = 1e-200 and s = 1e-200"):
            two_shock_T(Eos(2.0), 1e-200, 1e-200)
        with pytest.raises(DomainError, match="r = 1e[+]200 and s = 1e[+]200"):
            two_shock_T(Eos(1.0), 1e200, 1e200)
        with pytest.raises(DomainError, match="no positive normal float product"):
            two_shock_T(Eos(2.0), np.array([1.0, 2.0 ** -1023]), 1.0)
        tiny = sys.float_info.min
        with pytest.raises(DomainError):
            two_shock_T(Eos(2.0), tiny / 2.0, 1.0)
        # The smallest normal product still has a T.
        assert math.isfinite(two_shock_T(Eos(2.0), tiny, 1.0))
        assert np.all(np.isfinite(two_shock_T(Eos(2.0), np.array([tiny, 1.0]), 1.0)))

    def test_only_checked_functions_are_public(self):
        """The unchecked formulas are private Eos methods, so no public
        path skips the density check."""
        public = {name for name in dir(Eos(2.0)) if not name.startswith("_")}
        assert public == {"gamma"}


class TestInternalEnergy:
    def test_gamma_two_is_identity(self):
        """At gamma = 2, e is the identity shifted to vanish at rho = 1."""
        assert internal_energy(Eos(2.0), 1.7) == 1.7 - 1.0

    def test_vanishes_at_unit_density(self):
        for gamma in (1.0, 1.0 + 2.0 ** -52, 1.4, 3.0):
            assert internal_energy(Eos(gamma), 1.0) == 0.0

    def test_continuous_as_gamma_tends_to_one(self):
        rho = 3.7
        near = internal_energy(Eos(1.0 + 1e-12), rho)
        assert near == pytest.approx(math.log(rho), rel=1e-11)

    def test_gamma_one_is_log(self):
        assert internal_energy(Eos(1.0), math.e) == pytest.approx(1.0, rel=1e-15)

    @given(rho=density, gamma=gamma_any)
    def test_pressure_energy_relation(self, rho, gamma):
        """p(r) = r**2 * e'(r), checked by central differences."""
        eos = Eos(gamma)
        h = 1e-6 * rho
        deriv = (internal_energy(eos, rho + h) - internal_energy(eos, rho - h)) / (2 * h)
        lhs = pressure(eos, rho)
        rhs = rho ** 2 * deriv
        assert lhs == pytest.approx(rhs, rel=1e-5), \
            f"p({rho}) = {lhs} but r^2 e'(r) = {rhs} at gamma={gamma}"


class TestPDissipation:
    def test_gamma_two_closed_form(self):
        eos = Eos(2.0)
        for r, s in [(1.0, 2.0), (0.3, 5.0), (4.0, 1.0)]:
            assert p_dissipation(eos, r, s) == pytest.approx((r - s) ** 2, rel=1e-12)

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            p_dissipation(Eos(2.0), 1.5, 1.5)

    def test_beyond_the_float_range_of_P_rejected(self):
        """2*r*s overflows here: the scalar form returned -inf without a
        warning, and the array form warned."""
        eos = Eos(1.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r, s in [(1e155, 5e154), (np.array([1e155, 1.0]), np.array([5e154, 2.0]))]:
                with pytest.raises(DomainError, match="exceed the float range of P"):
                    p_dissipation(eos, r, s)
            assert math.isfinite(p_dissipation(eos, 1e128, 5e127))

    @given(r=density, s=density, gamma=gamma_any)
    def test_positive_off_diagonal(self, r, s, gamma):
        assume(abs(r - s) > 1e-3 * max(r, s))
        val = p_dissipation(Eos(gamma), r, s)
        assert val > 0.0, f"P({r}, {s}) = {val} <= 0 at gamma={gamma}"

    @given(r=density, s=density, gamma=gamma_any)
    def test_symmetric(self, r, s, gamma):
        assume(abs(r - s) > 1e-3 * max(r, s))
        eos = Eos(gamma)
        a, b = p_dissipation(eos, r, s), p_dissipation(eos, s, r)
        assert a == pytest.approx(b, rel=1e-12)


class TestSoundSpeed:
    """The unchecked wave-speed kernels the classifier calls."""

    def test_gamma_one_unit_speed(self):
        assert Eos(1.0)._sound_speed(0.37) == 1.0

    def test_gamma_two(self):
        assert Eos(2.0)._sound_speed(4.0) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_gamma_one_integral_is_log(self):
        assert Eos(1.0)._rarefaction_integral(2.0) == math.log(2.0)

    @given(rho=density, gamma=gamma_any)
    def test_matches_rarefaction_difference_derivative(self, rho, gamma):
        """The rarefaction difference integrates c(s)/s, including for
        gamma so close to 1 that the raw antiderivative loses all
        precision to its 2/(gamma-1) prefactor."""
        eos = Eos(gamma)
        h = 1e-6 * rho
        deriv = eos._rarefaction_difference(rho + h, rho - h) / (2 * h)
        assert deriv == pytest.approx(eos._sound_speed(rho) / rho, rel=1e-5)

    @given(rho_a=density, rho_b=density,
           gamma=st.floats(min_value=1.01, max_value=3.0, allow_nan=False))
    def test_difference_matches_raw_integrals(self, rho_a, rho_b, gamma):
        eos = Eos(gamma)
        raw = eos._rarefaction_integral(rho_a) - eos._rarefaction_integral(rho_b)
        stable = eos._rarefaction_difference(rho_a, rho_b)
        assert stable == pytest.approx(raw, rel=1e-9, abs=1e-9)


class TestRiemannData:
    def test_gap(self):
        d = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), Eos(2.0))
        assert d.gap == 3.3

    def test_validation(self):
        eos = Eos(2.0)
        with pytest.raises(DomainError):
            RiemannData(0.0, 4.0, (0.0, 1.0), (0.0, 0.0), eos)
        with pytest.raises(DomainError):
            RiemannData(1.0, -4.0, (0.0, 1.0), (0.0, 0.0), eos)
        with pytest.raises(DomainError):
            RiemannData(1.0, 4.0, (0.0,), (0.0, 0.0), eos)
        with pytest.raises(DomainError):
            RiemannData(1.0, 4.0, (0.0, float("nan")), (0.0, 0.0), eos)

    def test_overflowing_pressure_and_momentum_flux_rejected(self):
        eos = Eos(2.0)
        with pytest.raises(DomainError, match="rho_minus = 1e[+]200 has no finite pressure"):
            RiemannData(1e200, 4.0, (0.0, 3.3), (0.0, 0.0), eos)
        with pytest.raises(DomainError, match="no finite momentum flux rho_plus[*]v_plus2"):
            RiemannData(1.0, 4.0, (0.0, 0.0), (0.0, 1e200), eos)
        # The flux, not the velocity alone, decides.
        with pytest.raises(DomainError, match="rho_minus[*]v_minus2"):
            RiemannData(1e300, 1.0, (0.0, 1e5), (0.0, 0.0), Eos(1.0))
        RiemannData(1e-300, 1.0, (0.0, 1e150), (0.0, 0.0), Eos(1.0))
        # The first component is checked the same way.
        with pytest.raises(DomainError, match="no finite momentum flux rho_minus[*]v_minus1"):
            RiemannData(1.0, 4.0, (1e200, 3.3), (1e200, 0.0), eos)
        with pytest.raises(DomainError, match="no finite momentum flux rho_plus[*]v_plus1"):
            RiemannData(1.0, 4.0, (0.0, 3.3), (1e200, 0.0), eos)
        RiemannData(1e-300, 1.0, (1e150, 0.0), (0.0, 0.0), Eos(1.0))

    def test_underflowing_density_product_rejected(self):
        """A fuzz of the window path reached the division by
        rho_minus*rho_plus in T from every public function with these
        data; the datum itself now refuses them."""
        with pytest.raises(DomainError,
                           match="rho_minus = 5e-324 and rho_plus = 1e-08 have no positive"):
            RiemannData(5e-324, 1e-8, (0.0, -1.848591058941392), (0.0, 2.0), Eos(1.4))
        # A velocity error found first keeps its message.
        with pytest.raises(DomainError, match="v_minus must be a finite velocity pair"):
            RiemannData(5e-324, 1e-8, (0.0, math.nan), (0.0, 2.0), Eos(1.4))


class TestDataFunctionals:
    def test_worked_example(self):
        d = RiemannData(1.0, 4.0, (0.0, 3.3), (0.0, 0.0), Eos(2.0))
        f = data_functionals(d)
        assert f.R == pytest.approx(-3.0, rel=1e-12)
        assert f.A == pytest.approx(3.3, rel=1e-12)
        assert f.H == pytest.approx(-4.11, rel=1e-12)
        assert f.u == pytest.approx(-3.3, rel=1e-12)
        assert f.B == pytest.approx(-1.44, rel=1e-12)
        assert f.T == pytest.approx(45.0 / 4.0, rel=1e-12)
        assert f.sqrt_T == pytest.approx(math.sqrt(45.0) / 2.0, rel=1e-12)
        assert f.K == pytest.approx(1.1, rel=1e-12)
        assert f.L == pytest.approx(0.4, rel=1e-12)
        assert f.rho_T == pytest.approx(45.0 / 12.33, rel=1e-12)
        assert f.rho_tilde == pytest.approx(f.rho_T, rel=1e-12)

    def test_worked_example_swapped_ordering(self):
        """The mirrored branch produces the same K, L, rho_T, rho_tilde."""
        d = RiemannData(4.0, 1.0, (0.0, 3.3), (0.0, 0.0), Eos(2.0))
        f = data_functionals(d)
        assert f.R == pytest.approx(3.0, rel=1e-12)
        assert f.B == pytest.approx(-1.44, rel=1e-12)
        assert f.K == pytest.approx(1.1, rel=1e-12)
        assert f.L == pytest.approx(0.4, rel=1e-12)
        assert f.rho_T == pytest.approx(45.0 / 12.33, rel=1e-12)
        assert f.rho_tilde == pytest.approx(45.0 / 12.33, rel=1e-12)

    def test_branch_fields_none_when_unavailable(self):
        eos = Eos(2.0)
        # w > sqrt(T) puts B above 0: no K, L, rho_tilde
        f = data_functionals(RiemannData(1.0, 4.0, (0.0, 4.0), (0.0, 0.0), eos))
        assert f.B > 0 and f.K is None and f.L is None and f.rho_tilde is None
        # equal densities: no rho_T either
        f = data_functionals(RiemannData(2.0, 2.0, (0.0, 1.0), (0.0, 0.0), eos))
        assert f.rho_T is None and f.K is None

    def test_squares_are_products(self):
        """H squares the velocities by products.  Python's x ** 2 calls
        libm pow, which glibc 2.36 does not round correctly for every x;
        the x tried here are those where the two forms of H differ.  The
        pressure terms are integers, which x*x (about 1e6) absorbs
        exactly, so a one-ulp difference in the square reaches H."""
        eos = Eos(2.0)
        rng = np.random.default_rng(20261019)

        def product_form(x):
            return 1.0 * (x * x) - 4.0 * (0.0 * 0.0) + pressure(eos, 1.0) - pressure(eos, 4.0)

        def power_form(x):
            return 1.0 * x ** 2 - 4.0 * 0.0 ** 2 + pressure(eos, 1.0) - pressure(eos, 4.0)

        xs = [x for x in rng.uniform(1e3, 2e3, 100_000).tolist()
              if product_form(x) != power_form(x)][:20]
        if not xs:
            pytest.skip("x ** 2 equals x * x on every sample: pow is correctly rounded here")
        for x in xs:
            f = data_functionals(RiemannData(1.0, 4.0, (0.0, x), (0.0, 0.0), eos))
            assert f.H == product_form(x), x

    @given(
        rho_minus=density, ratio=st.floats(min_value=1.05, max_value=20.0),
        frac=st.floats(min_value=-0.99, max_value=0.99),
        v_plus2=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        gamma=gamma_any, swap=st.booleans(),
    )
    def test_discriminant_product_form(self, rho_minus, ratio, frac, v_plus2,
                                       gamma, swap):
        """B = A**2 - R*H equals rho- * rho+ * (u**2 - T)."""
        rho_plus = rho_minus * ratio
        if swap:
            rho_minus, rho_plus = rho_plus, rho_minus
        eos = Eos(gamma)
        d = RiemannData(rho_minus, rho_plus, (0.0, v_plus2), (0.0, v_plus2), eos)
        T = data_functionals(d).T
        w = frac * math.sqrt(T)
        d = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w), (0.0, v_plus2), eos)
        f = data_functionals(d)
        product_form = rho_minus * rho_plus * (f.u ** 2 - f.T)
        assert f.B == pytest.approx(product_form, rel=1e-9, abs=1e-9 * max(1.0, f.T)), \
            f"B={f.B} but rho-rho+(u^2-T)={product_form}"
