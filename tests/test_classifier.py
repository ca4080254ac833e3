"""Tests for the self-similar wave-fan classifier."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfan import (DomainError, Eos, NumericalError, RiemannData,
                      WaveKind, classify, pressure, solve_middle_state,
                      two_shock_T, wave_curve)

density = st.floats(min_value=5e-2, max_value=2e1)
velocity = st.floats(min_value=-5.0, max_value=5.0)
gamma_any = st.just(1.0) | st.floats(min_value=1.0, max_value=3.0,
                                     exclude_min=True, allow_nan=False)

GAMMA2 = Eos(2.0)
# sqrt(T) for the (rho-, rho+) = (1, 4), gamma = 2 pair: the shock jump
# (rho+ - rho-) * (p+ - p-) / (rho+ rho-) = 3 * 15 / 4 evaluated exactly.
SQRT_T_1_4 = math.sqrt(45.0 / 4.0)


def approaching(rho_minus, rho_plus, w, eos, v1=0.0):
    """Data whose second velocity component drops by w from left to right."""
    return RiemannData(rho_minus, rho_plus, (v1, w), (v1, 0.0), eos)


class TestWaveCurve:
    @given(rho_a=density, v_a2=velocity, gamma=gamma_any,
           family=st.sampled_from([1, 3]))
    def test_passes_through_anchor(self, rho_a, v_a2, gamma, family):
        eos = Eos(gamma)
        assert wave_curve(family, (rho_a, v_a2), rho_a, eos) == v_a2

    def test_shock_branch_reaches_gap_bound(self):
        # Shock branch of the 1-family curve through (1, sqrt(T)) lands
        # on exactly v2 = 0 at rho = 4: the jump term equals sqrt(T).
        got = wave_curve(1, (1.0, SQRT_T_1_4), 4.0, GAMMA2)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_rarefaction_branch_closed_form(self):
        # F(4) - F(1) = 2*sqrt(2) * (2 - 1) for gamma = 2.
        got = wave_curve(1, (4.0, 0.0), 1.0, GAMMA2)
        assert got == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)

    @given(rho_a=density, v_a2=velocity, rho=density, gamma=gamma_any)
    def test_family3_mirrors_family1(self, rho_a, v_a2, rho, gamma):
        eos = Eos(gamma)
        one = wave_curve(1, (rho_a, v_a2), rho, eos)
        three = wave_curve(3, (rho_a, v_a2), rho, eos)
        assert three == pytest.approx(2.0 * v_a2 - one, rel=1e-12, abs=1e-12)

    @given(rho_a=density, v_a2=velocity, gamma=gamma_any,
           lo=density, hi=density)
    def test_family1_strictly_decreasing(self, rho_a, v_a2, gamma, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        # Strictness is only observable once the densities are further
        # apart than the curve's own rounding floor.
        if hi - lo <= 1e-9 * hi:
            return
        eos = Eos(gamma)
        assert wave_curve(1, (rho_a, v_a2), lo, eos) > wave_curve(
            1, (rho_a, v_a2), hi, eos)

    def test_monotone_over_many_anchors(self):
        """Family 1 decreases and family 3 increases across the anchor."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rho_a = float(10.0 ** rng.uniform(-2, 2))
            v_a2 = float(rng.uniform(-5, 5))
            gamma = float(rng.choice([1.0, 1.4, 2.0, 2.66]))
            eos = Eos(gamma)
            grid = rho_a * np.geomspace(0.05, 20.0, 64)
            one = wave_curve(1, (rho_a, v_a2), grid, eos)
            three = wave_curve(3, (rho_a, v_a2), grid, eos)
            assert np.all(np.diff(one) < 0), f"anchor {rho_a}, gamma {gamma}"
            assert np.all(np.diff(three) > 0), f"anchor {rho_a}, gamma {gamma}"

    def test_vectorized_matches_scalar(self):
        grid = np.array([0.25, 1.0, 2.0, 4.0, 9.0])
        out = wave_curve(3, (2.0, 0.5), grid, GAMMA2)
        scalar = [wave_curve(3, (2.0, 0.5), r, GAMMA2) for r in grid]
        assert out.shape == grid.shape
        np.testing.assert_array_equal(out, scalar)

    def test_rejects_bad_family_and_density(self):
        with pytest.raises(DomainError):
            wave_curve(2, (1.0, 0.0), 1.0, GAMMA2)
        with pytest.raises(DomainError):
            wave_curve(1, (1.0, 0.0), -1.0, GAMMA2)
        with pytest.raises(DomainError, match="anchor density"):
            wave_curve(1, (0.0, 0.0), 1.0, GAMMA2)


class TestSolveMiddleState:
    def test_identical_states_short_circuit(self):
        data = RiemannData(2.0, 2.0, (1.0, 3.0), (1.0, 3.0), GAMMA2)
        assert solve_middle_state(data) == (2.0, 3.0)

    def test_exact_single_shock(self):
        data = approaching(1.0, 4.0, SQRT_T_1_4, GAMMA2)
        rho_m, v_m2 = solve_middle_state(data)
        assert rho_m == pytest.approx(4.0, rel=1e-11)
        assert v_m2 == pytest.approx(0.0, abs=1e-11)

    def test_shock_rarefaction_middle(self):
        # Frozen from a 50-digit bisection of the curve intersection.
        data = approaching(1.0, 4.0, 3.3, GAMMA2)
        rho_m, v_m2 = solve_middle_state(data)
        assert rho_m == pytest.approx(3.9689589486876449, rel=1e-12)
        assert v_m2 == pytest.approx(-0.021992087069845939, rel=1e-9)

    def test_two_shock_middle(self):
        # Frozen from a 50-digit bisection of the curve intersection.
        data = approaching(1.0, 4.0, 3.5, GAMMA2)
        rho_m, v_m2 = solve_middle_state(data)
        assert rho_m == pytest.approx(4.0839951708833789, rel=1e-12)
        assert v_m2 == pytest.approx(0.059087380240858392, rel=1e-9)

    def test_two_rarefaction_middle_closed_form(self):
        # For gamma = 2 the fan curves are affine in sqrt(rho), so the
        # receding datum has sqrt(rho_m) = 1.5 - 3.3 / (4 sqrt(2)).
        data = RiemannData(1.0, 4.0, (0.0, 0.0), (0.0, 3.3), GAMMA2)
        rho_m, v_m2 = solve_middle_state(data)
        root = 1.5 - 3.3 / (4.0 * math.sqrt(2.0))
        assert rho_m == pytest.approx(root**2, rel=1e-12)
        assert v_m2 == pytest.approx(2.0 * math.sqrt(2.0) * (1.0 - root), rel=1e-12)

    def test_vacuum_returns_none(self):
        eos = GAMMA2
        reach = eos._rarefaction_integral(1.0) + eos._rarefaction_integral(1.0)
        data = RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, reach), eos)
        assert solve_middle_state(data) is None

    @given(rho_minus=density, rho_plus=density, v_plus2=velocity,
           gamma=gamma_any,
           w=st.floats(min_value=0.0, max_value=8.0))
    @settings(deadline=None)
    def test_curves_agree_at_middle(self, rho_minus, rho_plus, v_plus2,
                                    gamma, w):
        """Both wave curves pass through the returned middle state."""
        eos = Eos(gamma)
        data = RiemannData(rho_minus, rho_plus, (0.0, v_plus2 + w),
                           (0.0, v_plus2), eos)
        rho_m, v_m2 = solve_middle_state(data)
        left = wave_curve(1, (rho_minus, v_plus2 + w), rho_m, eos)
        right = wave_curve(3, (rho_plus, v_plus2), rho_m, eos)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(v_m2))
        assert v_m2 == pytest.approx(0.5 * (left + right))

    def test_near_vacuum_bracket_failure(self):
        """Just inside the vacuum boundary the intersection sits far
        below 1e-12 but above the bracket floor 1e-288.  For gamma = 2
        the fan curves are affine in sqrt(rho), so
        4*sqrt(2)*sqrt(rho_m) = 1e-8 and rho_m = 3.125e-18.  The curve
        gap cancels to about 1e-15 of its O(1) terms, which leaves rho_m
        good to about 1e-7 relative."""
        eos = GAMMA2
        reach = 2.0 * eos._rarefaction_integral(1.0)
        data = RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, reach - 1e-8), eos)
        rho_m, _ = solve_middle_state(data)
        assert rho_m == pytest.approx((1e-8 / (4.0 * math.sqrt(2.0))) ** 2, rel=1e-6)


class TestClassify:
    def test_no_lower_bracket_below_the_vacuum_reach(self):
        """A receding datum whose gap, 10.0704, is just below the vacuum
        reach 10.0744: the middle density, 4.3e-18, lies above the
        bracket floor 1e-288.  The answer agrees with the sign rule of
        ROADMAP item 18: the curve gap is negative just above both
        densities, so both waves are rarefactions."""
        data = RiemannData(1.0, 0.1715628635374797, (0.0, 0.0),
                           (0.0, 10.070427313811948), Eos(1.4))
        fan = classify(data)
        assert fan.kind is WaveKind.TWO_RAREFACTIONS
        assert fan.middle[0] == pytest.approx(4.3e-18, rel=0.01)

    def test_no_lower_bracket_above_the_floor(self):
        """Two isothermal rarefactions: at a receding gap of 1300 the
        middle density is 1.0e-282, above the bracket floor 1e-288; at
        1500 it lies below the floor and classify raises."""
        fan = classify(RiemannData(1.0, 4.0, (0.0, 0.0), (0.0, 1300.0), Eos(1.0)))
        assert fan.kind is WaveKind.TWO_RAREFACTIONS
        assert fan.middle[0] == pytest.approx(1.0e-282, rel=0.05)
        data = RiemannData(1.0, 4.0, (0.0, 0.0), (0.0, 1500.0), Eos(1.0))
        with pytest.raises(NumericalError, match="no lower bracket above rho=1e-288 "):
            classify(data)

    def test_no_upper_bracket_above_the_ceiling(self):
        """Two isothermal shocks at a gap of 1e7 meet at a middle density
        of about 4.4e13, far below the upper bracket's ceiling.  The
        ceiling keeps both curves' shock terms finite floats, so data
        whose middle density lies above it raise a typed "no upper
        bracket" and no overflow warning (the suite turns a
        RuntimeWarning into a failure)."""
        eos = Eos(1.0)
        fan = classify(RiemannData(1.0, 4.0, (0.0, 1e7), (0.0, 0.0), eos))
        assert fan.kind is WaveKind.TWO_SHOCKS
        rho_m = fan.middle[0]
        assert rho_m == pytest.approx(4.444e13, rel=1e-3)
        jumps = math.sqrt(two_shock_T(eos, 1.0, rho_m)) + math.sqrt(two_shock_T(eos, 4.0, rho_m))
        assert jumps == pytest.approx(1e7, rel=1e-12)
        for rm, gamma, ceiling in ((1e-150, 2.0, "1.68e+78"), (1e-100, 5.0, "5.6e+40")):
            data = RiemannData(rm, 10.0 * rm, (0.0, 1.3e154), (0.0, 0.0), Eos(gamma))
            with pytest.raises(NumericalError,
                               match=re.escape(f"no upper bracket below rho={ceiling} ")):
                classify(data)

    @pytest.mark.parametrize("rho_plus, v_minus2, v_plus2, gamma", [
        (1e4, 9999.489938001936, -1.0, 2.0),
        (7524.91441345997, 686167.7878494697, 0.0, 3.0),
        (768811.558786433, 15332.824017167712, 0.0, 1.4),
    ])
    def test_curve_residual_gate_on_a_large_density_ratio(self, rho_plus, v_minus2,
                                                          v_plus2, gamma):
        """Each gap exceeds sqrt(T), so the fan is two shocks.  Had the
        root solve stopped at 1e-12 relative in rho, the curves would
        differ by 6.0e-10, 9.3e-8 and 7.8e-10, above the gate
        1e-10*(1 + |v_m2|), and classify would raise "curve residual".
        Brent's own tolerance, 8.9e-16 relative, resolves rho_m."""
        eos = Eos(gamma)
        data = RiemannData(1.0, rho_plus, (0.0, v_minus2), (0.0, v_plus2), eos)
        assert v_minus2 - v_plus2 > math.sqrt(two_shock_T(eos, 1.0, rho_plus))
        assert classify(data).kind is WaveKind.TWO_SHOCKS

    def test_constant(self):
        data = RiemannData(2.0, 2.0, (0.5, 1.0), (0.5, 1.0), GAMMA2)
        fan = classify(data)
        assert fan.kind is WaveKind.CONSTANT
        assert fan.middle == (2.0, 1.0)
        assert fan.speeds is None

    def test_jump_in_v1_only_is_constant(self):
        fan = classify(RiemannData(1, 1, (0.5, 0), (0, 0), GAMMA2))
        assert fan.kind is WaveKind.CONSTANT
        assert fan.middle == (1.0, 0.0)
        assert fan.speeds is None

    def test_sonic_edge_is_positive_zero(self):
        # gamma = 1 has c = 1, so the 3-fan tail v_plus2 + c is exactly 0.
        # The right wave is the reflected left wave; the reflection must
        # not turn that 0.0 into -0.0.
        fan = classify(RiemannData(1.0, 2.0, (0.0, -1.0), (0.0, -1.0), Eos(1.0)))
        assert fan.kind is WaveKind.SHOCK_RAREFACTION
        tail = fan.speeds["right"][1]
        assert tail == 0.0 and math.copysign(1.0, tail) == 1.0

    def test_kind_values_are_stable(self):
        assert WaveKind.TWO_SHOCKS.value == "Case3_TwoShocks"
        assert WaveKind.SHOCK_RAREFACTION.value == "Case1_ShockRarefaction"
        assert WaveKind.RAREFACTION_SHOCK.value == "Case4_RarefactionShock"
        assert WaveKind.TWO_RAREFACTIONS.value == "Case2_TwoRarefactions"
        assert WaveKind.VACUUM.value == "Vacuum"

    def test_shock_rarefaction_example(self):
        fan = classify(approaching(1.0, 4.0, 3.3, GAMMA2))
        assert fan.kind is WaveKind.SHOCK_RAREFACTION
        assert set(fan.speeds) == {"left", "right"}
        left, right = fan.speeds["left"], fan.speeds["right"]
        assert left[0] == left[1], "1-shock should have a degenerate pair"
        assert right[0] < right[1], "3-fan edges should be ordered"

    def test_two_shock_example(self):
        fan = classify(approaching(1.0, 4.0, 3.5, GAMMA2))
        assert fan.kind is WaveKind.TWO_SHOCKS
        assert fan.middle[0] > 4.0

    def test_speeds_are_ordered_left_to_right(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho_minus = float(10.0 ** rng.uniform(-1, 1))
            rho_plus = float(10.0 ** rng.uniform(-1, 1))
            w = float(rng.uniform(0.0, 3.0))
            fan = classify(approaching(rho_minus, rho_plus, w, GAMMA2))
            if fan.speeds is None or set(fan.speeds) != {"left", "right"}:
                continue
            left, right = fan.speeds["left"], fan.speeds["right"]
            assert left[0] <= left[1] <= right[0] <= right[1], (
                f"speeds out of order for rho=({rho_minus}, {rho_plus}), w={w}")

    def test_two_shock_momentum_balance(self):
        """Each shock of a two-shock fan satisfies the jump relation
        sigma * [rho v] = [rho v^2 + p] to near machine accuracy."""
        rng = np.random.default_rng(13)
        eos = Eos(1.4)
        for _ in range(100):
            rho_minus = float(10.0 ** rng.uniform(-1, 1))
            rho_plus = rho_minus * float(10.0 ** rng.uniform(0.05, 1.0))
            if rng.uniform() < 0.5:
                rho_minus, rho_plus = rho_plus, rho_minus
            t_val = ((rho_plus - rho_minus)
                     * (pressure(eos, rho_plus) - pressure(eos, rho_minus))
                     / (rho_plus * rho_minus))
            w = float(rng.uniform(1.05, 3.0)) * math.sqrt(t_val)
            data = approaching(rho_minus, rho_plus, w, eos)
            fan = classify(data)
            assert fan.kind is WaveKind.TWO_SHOCKS, f"w={w} not two shocks"
            rho_m, v_m2 = fan.middle
            for side, (rho_a, v_a2) in (("left", (rho_minus, w)),
                                        ("right", (rho_plus, 0.0))):
                sigma = fan.speeds[side][0]
                mom_flux = (rho_m * v_m2**2 + pressure(eos, rho_m)
                            - rho_a * v_a2**2 - pressure(eos, rho_a))
                jump = rho_m * v_m2 - rho_a * v_a2
                assert sigma * jump == pytest.approx(mom_flux, rel=1e-9), (
                    f"{side} shock violates momentum balance at "
                    f"rho=({rho_minus}, {rho_plus}), w={w}")

    def test_gap_below_bound_gives_mixed_fan(self):
        """Approaching data below the two-shock bound produce a shock
        paired with a rarefaction, ordered by the density jump."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            rho_lo = float(10.0 ** rng.uniform(-1, 0.5))
            rho_hi = rho_lo * float(10.0 ** rng.uniform(0.1, 1.0))
            t_val = ((rho_hi - rho_lo)
                     * (pressure(GAMMA2, rho_hi) - pressure(GAMMA2, rho_lo))
                     / (rho_hi * rho_lo))
            w = float(rng.uniform(0.01, 0.99)) * math.sqrt(t_val)
            up = classify(approaching(rho_lo, rho_hi, w, GAMMA2))
            down = classify(approaching(rho_hi, rho_lo, w, GAMMA2))
            assert up.kind is WaveKind.SHOCK_RAREFACTION, f"w={w}"
            assert down.kind is WaveKind.RAREFACTION_SHOCK, f"w={w}"
            assert rho_lo < up.middle[0] < rho_hi
            assert rho_lo < down.middle[0] < rho_hi

    def test_two_shock_flip_at_gap_bound(self):
        below = classify(approaching(1.0, 4.0, SQRT_T_1_4 - 1e-6, GAMMA2))
        above = classify(approaching(1.0, 4.0, SQRT_T_1_4 + 1e-6, GAMMA2))
        assert below.kind is WaveKind.SHOCK_RAREFACTION
        assert above.kind is WaveKind.TWO_SHOCKS

    def test_single_shock_both_families(self):
        one = classify(approaching(1.0, 4.0, SQRT_T_1_4, GAMMA2))
        assert one.kind is WaveKind.SINGLE_SHOCK_1
        assert one.middle == pytest.approx((4.0, 0.0), abs=1e-9)
        assert set(one.speeds) == {"left"}

        three = classify(approaching(4.0, 1.0, SQRT_T_1_4, GAMMA2))
        assert three.kind is WaveKind.SINGLE_SHOCK_3
        assert three.middle == pytest.approx((4.0, SQRT_T_1_4), rel=1e-9)
        assert set(three.speeds) == {"right"}

    def test_single_rarefaction_both_families(self):
        lift = 2.0 * math.sqrt(2.0)  # F(4) - F(1) for gamma = 2
        one = classify(RiemannData(4.0, 1.0, (0.0, 0.0), (0.0, lift), GAMMA2))
        assert one.kind is WaveKind.SINGLE_RAREFACTION_1
        assert one.middle == pytest.approx((1.0, lift), rel=1e-9)
        head, tail = one.speeds["left"]
        assert head == pytest.approx(-2.0 * math.sqrt(2.0), rel=1e-9)
        assert tail == pytest.approx(math.sqrt(2.0), rel=1e-9)

        three = classify(RiemannData(1.0, 4.0, (0.0, -lift), (0.0, 0.0), GAMMA2))
        assert three.kind is WaveKind.SINGLE_RAREFACTION_3
        assert three.middle == pytest.approx((1.0, -lift), rel=1e-9)
        head, tail = three.speeds["right"]
        assert head == pytest.approx(-math.sqrt(2.0), rel=1e-9)
        assert tail == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)

    def test_vacuum_fan_extents(self):
        eos = GAMMA2
        reach = 2.0 * eos._rarefaction_integral(1.0)
        fan = classify(RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, reach), eos))
        assert fan.kind is WaveKind.VACUUM
        assert fan.middle is None
        c = eos._sound_speed(1.0)
        assert fan.speeds["left"] == pytest.approx((-c, reach / 2.0))
        assert fan.speeds["right"] == pytest.approx((reach / 2.0, reach + c))
        # The vacuum fronts coincide exactly at the boundary datum.
        assert fan.speeds["left"][1] <= fan.speeds["right"][0]

    # One datum of each kind that has waves, from the examples above.
    LIFT = 2.0 * math.sqrt(2.0)  # F(4) - F(1) for gamma = 2
    EVERY_KIND = {
        WaveKind.SINGLE_SHOCK_1: approaching(1.0, 4.0, SQRT_T_1_4, GAMMA2),
        WaveKind.SINGLE_SHOCK_3: approaching(4.0, 1.0, SQRT_T_1_4, GAMMA2),
        WaveKind.SINGLE_RAREFACTION_1: RiemannData(4.0, 1.0, (0.0, 0.0), (0.0, LIFT), GAMMA2),
        WaveKind.SINGLE_RAREFACTION_3: RiemannData(1.0, 4.0, (0.0, -LIFT), (0.0, 0.0), GAMMA2),
        WaveKind.SHOCK_RAREFACTION: approaching(1.0, 4.0, 3.3, GAMMA2),
        WaveKind.RAREFACTION_SHOCK: approaching(4.0, 1.0, 3.3, GAMMA2),
        WaveKind.TWO_SHOCKS: approaching(1.0, 4.0, 3.5, GAMMA2),
        WaveKind.TWO_RAREFACTIONS: RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, 20.0), Eos(1.0)),
        WaveKind.VACUUM: RiemannData(1.0, 2.0, (0.0, 0.0), (0.0, 30.0), Eos(1.4)),
    }

    @pytest.mark.parametrize("kind", list(EVERY_KIND))
    def test_speeds_are_python_floats(self, kind):
        """Every speed is a float, with the value of its closed form: the
        shock speed, or the fan edge v2 -+ c (the vacuum edge moves at
        v2 -+ the rarefaction integral, where c = 0)."""
        data = self.EVERY_KIND[kind]
        fan = classify(data)
        assert fan.kind is kind
        eos = data.eos
        rm, rp = data.rho_minus, data.rho_plus
        vm2, vp2 = data.v_minus[1], data.v_plus[1]
        if fan.middle is None:
            expected = {"left": (vm2 - eos._sound_speed(rm),
                                 vm2 + eos._rarefaction_integral(rm)),
                        "right": (vp2 - eos._rarefaction_integral(rp),
                                  vp2 + eos._sound_speed(rp))}
        else:
            rho, v2 = fan.middle

            def shock(rho_a, v_a2):
                sigma = (rho * v2 - rho_a * v_a2) / (rho - rho_a)
                return (sigma, sigma)

            expected = {
                "left": (shock(rm, vm2) if rho > rm else
                         (vm2 - eos._sound_speed(rm), v2 - eos._sound_speed(rho))),
                "right": (shock(rp, vp2) if rho > rp else
                          (v2 + eos._sound_speed(rho), vp2 + eos._sound_speed(rp))),
            }
        for side, pair in fan.speeds.items():
            assert [type(speed) for speed in pair] == [float, float], (side, pair)
            assert pair == expected[side], side

    def test_gamma1_never_vacuum(self):
        # For gamma = 1 the fan curves are affine in log(rho) and always
        # intersect; a receding gap of 20 puts the middle at exp(-10).
        eos = Eos(1.0)
        fan = classify(RiemannData(1.0, 1.0, (0.0, 0.0), (0.0, 20.0), eos))
        assert fan.kind is WaveKind.TWO_RAREFACTIONS
        assert fan.middle[0] == pytest.approx(math.exp(-10.0), rel=1e-9)
        assert fan.middle[1] == pytest.approx(10.0, rel=1e-9)

    def test_reflection_symmetry(self):
        """Swapping the states and negating v2 mirrors the fan exactly."""
        mirror = {
            WaveKind.CONSTANT: WaveKind.CONSTANT,
            WaveKind.SINGLE_SHOCK_1: WaveKind.SINGLE_SHOCK_3,
            WaveKind.SINGLE_SHOCK_3: WaveKind.SINGLE_SHOCK_1,
            WaveKind.SINGLE_RAREFACTION_1: WaveKind.SINGLE_RAREFACTION_3,
            WaveKind.SINGLE_RAREFACTION_3: WaveKind.SINGLE_RAREFACTION_1,
            WaveKind.SHOCK_RAREFACTION: WaveKind.RAREFACTION_SHOCK,
            WaveKind.RAREFACTION_SHOCK: WaveKind.SHOCK_RAREFACTION,
            WaveKind.TWO_RAREFACTIONS: WaveKind.TWO_RAREFACTIONS,
            WaveKind.TWO_SHOCKS: WaveKind.TWO_SHOCKS,
            WaveKind.VACUUM: WaveKind.VACUUM,
        }
        rng = np.random.default_rng(19)
        flip = {"left": "right", "right": "left"}
        for _ in range(200):
            rho_minus = float(10.0 ** rng.uniform(-1, 1))
            rho_plus = float(10.0 ** rng.uniform(-1, 1))
            v_minus2 = float(rng.uniform(-4, 4))
            v_plus2 = float(rng.uniform(-4, 4))
            gamma = float(rng.choice([1.0, 1.4, 2.0]))
            eos = Eos(gamma)
            data = RiemannData(rho_minus, rho_plus, (0.0, v_minus2),
                               (0.0, v_plus2), eos)
            twin = RiemannData(rho_plus, rho_minus, (0.0, -v_plus2),
                               (0.0, -v_minus2), eos)
            try:
                fan = classify(data)
            except NumericalError:
                continue
            twin_fan = classify(twin)
            assert twin_fan.kind is mirror[fan.kind]
            if fan.middle is not None:
                assert twin_fan.middle[0] == fan.middle[0]
                assert twin_fan.middle[1] == -fan.middle[1]
            if fan.speeds is not None:
                for side, (head, tail) in fan.speeds.items():
                    assert twin_fan.speeds[flip[side]] == (-tail, -head)
