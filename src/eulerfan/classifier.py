"""Classical self-similar solver for the two-state interface problem.

The admissible wave curves of both characteristic families are monotone
in density, so the middle state is the unique intersection of the
1-family curve through the left state with the 3-family curve through
the right state.  Classification then reads off where the middle
density sits relative to the two initial densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# pressure is not called here.  It stays a name of this module because
# perfbench/selftest.py checks that its tracer restores it here.
from .eos import Eos, _check_positive, pressure  # noqa: F401
from .errors import DomainError, NumericalError
from .functionals import RiemannData
from .roots import brent

#: Relative slack on the middle density below which a wave is treated
#: as zero-strength and a boundary (simple-wave or constant) kind wins.
BOUNDARY_RTOL = 1e-9

_BRACKET_FLOOR = 1e-12
_BRACKET_CEIL = 1e12


class WaveKind(str, Enum):
    """Wave-fan kinds emitted by :func:`classify`.

    The values are the stable serialization strings used in CLI output
    and region-map CSV files.
    """

    CONSTANT = "Constant"
    SINGLE_SHOCK_1 = "SingleShock1"
    SINGLE_SHOCK_3 = "SingleShock3"
    SINGLE_RAREFACTION_1 = "SingleRarefaction1"
    SINGLE_RAREFACTION_3 = "SingleRarefaction3"
    SHOCK_RAREFACTION = "Case1_ShockRarefaction"
    TWO_RAREFACTIONS = "Case2_TwoRarefactions"
    TWO_SHOCKS = "Case3_TwoShocks"
    RAREFACTION_SHOCK = "Case4_RarefactionShock"
    VACUUM = "Vacuum"


@dataclass(frozen=True)
class WaveFan:
    """Classification result.

    middle is the intermediate state (rho_m, v_m2); it is present for
    every kind except VACUUM (no intermediate state exists) and the
    exactly-constant datum, where it simply repeats the common state.
    speeds maps "left"/"right" to (head, tail) self-similar speeds
    x2/t; a shock contributes a degenerate pair (sigma, sigma), a
    rarefaction its fan edges, and zero-strength sides are omitted.
    For VACUUM the two entries are the full fan extents, tail being
    the vacuum front.
    """

    kind: WaveKind
    middle: tuple | None
    speeds: dict | None


def wave_curve(family: int, anchor: tuple, rho, eos: Eos):
    """
    Second velocity component on the admissible wave curve of the given
    family through the anchor state, parameterized by density.

    Parameters
    ----------
    family : int
        1 or 3.
    anchor : (rho_a, v_a2)
        State the curve passes through.
    rho : float or ndarray
        Density at which to evaluate the curve, > 0.
    eos : Eos

    Returns
    -------
    v2 : float or ndarray
        For family 1: the shock root v_a2 - sqrt((rho-rho_a)*(p(rho)-
        p(rho_a))/(rho*rho_a)) when rho > rho_a, the rarefaction value
        v_a2 + F(rho_a) - F(rho) otherwise, where F is the closed-form
        antiderivative of c(s)/s.  Family 3 mirrors both signs.  The
        curve is continuous, equals v_a2 at rho = rho_a, and is
        strictly decreasing (family 1) or increasing (family 3).
    """
    if family not in (1, 3):
        raise DomainError(f"family must be 1 or 3, got {family}")
    rho_a, v_a2 = anchor
    _check_positive(rho_a, "anchor density")
    _check_positive(rho)
    rho = np.asarray(rho, dtype=float)
    # T(rho_a, rho) >= 0 on both sides of rho_a, so the shock expression
    # is well defined on the rarefaction side too and np.where never
    # sees an invalid operand.
    jump = np.sqrt(eos._two_shock_T(rho_a, rho))
    fan = eos._rarefaction_difference(rho_a, rho)
    if family == 1:
        out = np.where(rho > rho_a, v_a2 - jump, v_a2 + fan)
    else:
        out = np.where(rho > rho_a, v_a2 + jump, v_a2 - fan)
    return float(out) if out.ndim == 0 else out


def _vacuum_forms(data: RiemannData) -> bool:
    """True when the two rarefaction curves fail to meet at positive density."""
    eos = data.eos
    if eos.gamma == 1.0:
        return False
    reach = eos._rarefaction_integral(data.rho_minus) + eos._rarefaction_integral(data.rho_plus)
    return data.v_plus[1] - data.v_minus[1] >= reach


def solve_middle_state(data: RiemannData):
    """
    Intersect the 1-family curve through the left state with the
    3-family curve through the right state.

    Returns
    -------
    (rho_m, v_m2) or None
        None exactly when the vacuum condition holds (the curves meet
        only as rho -> 0).  Otherwise the unique intersection, located
        by a bracketed root solve to 1e-12 relative accuracy in rho,
        with the residual of the two curve values checked against
        1e-10 * (1 + |v_m2|).

    Raises
    ------
    NumericalError
        If no sign change is found after expanding the bracket to
        [1e-12, 1e12], or the residual check fails.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm2, vp2 = data.v_minus[1], data.v_plus[1]
    if rm == rp and vm2 == vp2:
        return (rm, vm2)
    if _vacuum_forms(data):
        return None

    eos = data.eos

    def curve_gap(rho):
        return wave_curve(1, (rm, vm2), rho, eos) - wave_curve(3, (rp, vp2), rho, eos)

    # curve_gap is strictly decreasing: positive left of the root,
    # negative right of it.
    lo, hi = min(rm, rp), max(rm, rp)
    while curve_gap(lo) < 0.0:
        lo *= 0.125
        if lo < _BRACKET_FLOOR:
            raise NumericalError(
                f"no lower bracket above rho={_BRACKET_FLOOR} for data "
                f"(rho={rm}, {rp}; v2={vm2}, {vp2}; gamma={eos.gamma}); "
                "the intersection is indistinguishable from vacuum"
            )
    while curve_gap(hi) > 0.0:
        hi *= 8.0
        if hi > _BRACKET_CEIL:
            raise NumericalError(
                f"no upper bracket below rho={_BRACKET_CEIL} for data "
                f"(rho={rm}, {rp}; v2={vm2}, {vp2}; gamma={eos.gamma})"
            )
    rho_mid = brent(curve_gap, lo, hi, rtol=1e-12, maxiter=200)

    v_left = wave_curve(1, (rm, vm2), rho_mid, eos)
    v_right = wave_curve(3, (rp, vp2), rho_mid, eos)
    v_mid = 0.5 * (v_left + v_right)
    if abs(v_left - v_right) > 1e-10 * (1.0 + abs(v_mid)):
        raise NumericalError(
            f"curve residual {abs(v_left - v_right):.3e} at rho_m={rho_mid} "
            f"exceeds tolerance for data (rho={rm}, {rp}; v2={vm2}, {vp2})"
        )
    return (float(rho_mid), float(v_mid))


def _shock_speed(rho_a, v_a2, rho_b, v_b2):
    return (rho_b * v_b2 - rho_a * v_a2) / (rho_b - rho_a)


def _left_wave_speeds(data: RiemannData, rho_mid, v_mid2):
    rm, vm2 = data.rho_minus, data.v_minus[1]
    if rho_mid > rm:
        sigma = _shock_speed(rm, vm2, rho_mid, v_mid2)
        return (sigma, sigma)
    return (vm2 - data.eos._sound_speed(rm), v_mid2 - data.eos._sound_speed(rho_mid))


def _right_wave_speeds(data: RiemannData, rho_mid, v_mid2):
    rp, vp2 = data.rho_plus, data.v_plus[1]
    if rho_mid > rp:
        sigma = _shock_speed(rho_mid, v_mid2, rp, vp2)
        return (sigma, sigma)
    return (v_mid2 + data.eos._sound_speed(rho_mid), vp2 + data.eos._sound_speed(rp))


def classify(data: RiemannData) -> WaveFan:
    """
    Classify the admissible self-similar solution for the given data.

    The first velocity components ride along passively (they jump only
    across the waves the (rho, v2) profile already has), so the kind is
    decided entirely by (rho-, v-2, rho+, v+2) except for the exact
    constant state, which requires the full states to coincide.

    A wave whose density jump is below BOUNDARY_RTOL relative is
    treated as zero-strength, so data on (or within slack of) a single
    wave curve come back as the matching simple-wave kind, and data
    within slack of constant come back CONSTANT.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm2, vp2 = data.v_minus[1], data.v_plus[1]
    if rm == rp and data.v_minus == data.v_plus:
        return WaveFan(kind=WaveKind.CONSTANT, middle=(rm, vm2), speeds=None)

    mid = solve_middle_state(data)
    if mid is None:
        eos = data.eos
        speeds = {
            "left": (vm2 - eos._sound_speed(rm), vm2 + eos._rarefaction_integral(rm)),
            "right": (vp2 - eos._rarefaction_integral(rp), vp2 + eos._sound_speed(rp)),
        }
        return WaveFan(kind=WaveKind.VACUUM, middle=None, speeds=speeds)

    rho_mid, v_mid2 = mid
    near_minus = abs(rho_mid - rm) <= BOUNDARY_RTOL * rm
    near_plus = abs(rho_mid - rp) <= BOUNDARY_RTOL * rp

    if near_minus and near_plus:
        return WaveFan(kind=WaveKind.CONSTANT, middle=mid, speeds=None)
    if near_plus:
        kind = WaveKind.SINGLE_SHOCK_1 if rho_mid > rm else WaveKind.SINGLE_RAREFACTION_1
        return WaveFan(kind=kind, middle=mid,
                       speeds={"left": _left_wave_speeds(data, rho_mid, v_mid2)})
    if near_minus:
        kind = WaveKind.SINGLE_SHOCK_3 if rho_mid > rp else WaveKind.SINGLE_RAREFACTION_3
        return WaveFan(kind=kind, middle=mid,
                       speeds={"right": _right_wave_speeds(data, rho_mid, v_mid2)})

    if rho_mid > max(rm, rp):
        kind = WaveKind.TWO_SHOCKS
    elif rho_mid < min(rm, rp):
        kind = WaveKind.TWO_RAREFACTIONS
    elif rm < rho_mid < rp:
        kind = WaveKind.SHOCK_RAREFACTION
    else:
        kind = WaveKind.RAREFACTION_SHOCK
    speeds = {
        "left": _left_wave_speeds(data, rho_mid, v_mid2),
        "right": _right_wave_speeds(data, rho_mid, v_mid2),
    }
    return WaveFan(kind=kind, middle=mid, speeds=speeds)
