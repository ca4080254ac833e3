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
from .eos import Eos, pressure  # noqa: F401
from .errors import DomainError, NumericalError, check_positive
from .functionals import RiemannData
from .roots import brent

#: Relative slack on the middle density below which a wave is treated
#: as zero-strength and a boundary (simple-wave or constant) kind wins.
BOUNDARY_RTOL = 1e-9

#: The smallest density to which the lower bracket expands.  Down to
#: it, brent's stopping rule 1e-300 + 8.9e-16*|x| still resolves rho_m
#: to 1e-12 relative or better.  It is not the point 1.1e-285 where the
#: two parts of that rule are equal: stopping there would refuse
#: near-vacuum data whose rho_m lies between the two.
_BRACKET_FLOOR = 1e-288


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
    check_positive(rho_a, "anchor density")
    check_positive(rho)
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
        by brent to its own tolerance, 1e-300 + 8.9e-16*rho, with the
        residual of the two curve values checked against
        1e-10 * (1 + |v_m2|).

    Raises
    ------
    NumericalError
        If no sign change is found after expanding the bracket down to
        1e-288 and up to the largest density at which the curves'
        shock terms stay finite floats, or the residual check fails.
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
    # Above both densities each curve forms T(r, rho) = (rho - r)*(p(rho)
    # - p(r))/(rho*r), with r no smaller than the smaller density.  Its
    # numerator stays below rho*p(rho), and T below p(rho)/r.  The ceiling
    # keeps both finite floats, with one expansion step (8x) to spare for
    # the rounding of log, exp and the power.
    top, g = np.log(np.finfo(float).max), eos.gamma
    ceil = float(np.exp(min(top / (g + 1.0), (top + np.log(min(rm, rp))) / g))) / 8.0
    while curve_gap(hi) > 0.0:
        hi *= 8.0
        if hi > ceil:
            raise NumericalError(
                f"no upper bracket below rho={ceil:.3g} for data "
                f"(rho={rm}, {rp}; v2={vm2}, {vp2}; gamma={eos.gamma})"
            )
    rho_mid = brent(curve_gap, lo, hi)

    v_left = wave_curve(1, (rm, vm2), rho_mid, eos)
    v_right = wave_curve(3, (rp, vp2), rho_mid, eos)
    v_mid = 0.5 * (v_left + v_right)
    gate = 1e-10 * (1.0 + abs(v_mid))
    if abs(v_left - v_right) > gate:
        raise NumericalError(
            f"curve residual {abs(v_left - v_right):.3e} at rho_m={rho_mid} exceeds tolerance "
            f"{gate:.3e} for data (rho={rm}, {rp}; v2={vm2}, {vp2}; gamma={eos.gamma})")
    return (float(rho_mid), float(v_mid))


#: Kind by (left wave, right wave), each None when the wave is
#: zero-strength, True for a shock and False for a rarefaction.
_KINDS = {
    (None, None): WaveKind.CONSTANT,
    (True, None): WaveKind.SINGLE_SHOCK_1,
    (False, None): WaveKind.SINGLE_RAREFACTION_1,
    (None, True): WaveKind.SINGLE_SHOCK_3,
    (None, False): WaveKind.SINGLE_RAREFACTION_3,
    (True, False): WaveKind.SHOCK_RAREFACTION,
    (False, False): WaveKind.TWO_RAREFACTIONS,
    (True, True): WaveKind.TWO_SHOCKS,
    (False, True): WaveKind.RAREFACTION_SHOCK,
}


def _wave_speeds(rho_a, v_a2, rho_mid, v_mid2, eos: Eos):
    """(head, tail) speeds of the 1-wave from the left state (rho_a, v_a2)
    to the middle state: (sigma, sigma) for a shock, the fan edges for a
    rarefaction.  Both are Python floats; the sound speed comes back from
    the EOS kernel as a numpy scalar."""
    if rho_mid > rho_a:
        sigma = float((rho_mid * v_mid2 - rho_a * v_a2) / (rho_mid - rho_a))
        return (sigma, sigma)
    return (float(v_a2 - eos._sound_speed(rho_a)),
            float(v_mid2 - eos._sound_speed(rho_mid)))


def _mirrored(speeds):
    """Speeds of a wave reflected by x2 -> -x2: negated, head and tail
    swapped.  0.0 - s rather than -s keeps an exactly sonic fan edge at
    +0.0, as the unreflected formula v2 + c gives it."""
    head, tail = speeds
    return (0.0 - tail, 0.0 - head)


def classify(data: RiemannData) -> WaveFan:
    """
    Classify the admissible self-similar solution for the given data.

    The first velocity components ride along passively (they jump only
    across the waves the (rho, v2) profile already has), so the kind is
    decided entirely by (rho-, v-2, rho+, v+2): data that differ only in
    v1 come back CONSTANT.

    A wave whose density jump is below BOUNDARY_RTOL relative is
    treated as zero-strength, so data on (or within slack of) a single
    wave curve come back as the matching simple-wave kind, and data
    within slack of constant come back CONSTANT.

    Each rule is written for the left (1-family) wave.  The right
    (3-family) wave is the left wave of the data reflected by
    x2 -> -x2, which swaps the states and negates every v2.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm2, vp2 = data.v_minus[1], data.v_plus[1]
    eos = data.eos
    mid = solve_middle_state(data)
    if mid is None:
        # Each side rarefies down to the vacuum; the front moves at the
        # rarefaction curve's velocity at zero density.
        speeds = {
            "left": _wave_speeds(rm, vm2, 0.0, vm2 + eos._rarefaction_integral(rm), eos),
            "right": _mirrored(_wave_speeds(
                rp, -vp2, 0.0, -vp2 + eos._rarefaction_integral(rp), eos)),
        }
        return WaveFan(kind=WaveKind.VACUUM, middle=None, speeds=speeds)

    rho_mid, v_mid2 = mid

    def wave(rho_a):
        return None if abs(rho_mid - rho_a) <= BOUNDARY_RTOL * rho_a else rho_mid > rho_a

    left, right = wave(rm), wave(rp)
    speeds = {}
    if left is not None:
        speeds["left"] = _wave_speeds(rm, vm2, rho_mid, v_mid2, eos)
    if right is not None:
        speeds["right"] = _mirrored(_wave_speeds(rp, -vp2, rho_mid, -v_mid2, eos))
    return WaveFan(kind=_KINDS[left, right], middle=mid, speeds=speeds or None)
