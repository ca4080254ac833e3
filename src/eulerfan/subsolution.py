"""Middle-wedge analysis: closed-form interface kinematics, the
admissibility window for the second slack variable, reconstruction of a
full piecewise-constant subsolution, and an independent verifier that
re-evaluates the complete interface system from scratch.

The kinematics are parameterized by the probed middle density rho_1,
which must lie strictly between the two initial densities.  The
formulas are written once, in an array-first kernel of two stages: the
node stage middle_nodes holds every term of a grid of middle densities
that does not depend on the velocity gap, and the row stage
window_grid combines it with the gap of one datum per call and raises
that datum's error.  The row stage computes in one frame, the far
state at rest; its WindowGrid maps the speeds and the middle velocity
back to the user's frame when they are first read.  It takes middle
densities only as a MiddleNodes, so every caller builds its nodes with
middle_nodes.
eps2_window, reconstruct and witness_at are one-node wrappers around
it; eps2_window's record carries the interface speeds, the middle
velocity and the first slack, and reconstruct and witness_at always
enforce the slack and energy conditions.  Everything here is pure.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .eos import Eos
from .errors import (
    ConstraintError,
    DomainError,
    NumericalError,
    VelocityGapError,
    check_density,
    check_density_pair,
    check_dissipation_range,
    check_distinct_densities,
)
from .functionals import RiemannData
from .roots import brent

# Cross-check and self-check tolerances (relative, scale max(1, |value|)).
CROSS_CHECK_TOL = 1e-9
CONTINUITY_TOL = 1e-10
#: The verifier's pass gate on every interface balance residual (relative).
EQUALITY_TOL = 1e-9
# The largest energy scale a datum may have (_require_subsolution_data).
_ENERGY_RANGE = sys.float_info.max * 2.0 ** -20


@dataclass(frozen=True)
class FanSubsolution:
    """Parameters of a piecewise-constant three-wedge subsolution.

    The middle wedge carries density rho_1, velocity (alpha, beta), a
    traceless symmetric matrix with diagonal (gamma_1, -gamma_1) and
    off-diagonal gamma_2, and the kinetic-energy bound C.  eps_1 and
    eps_2 are the two derived slack variables:

        eps_1 = C/2 - gamma_1 - beta**2
        eps_2 = C - alpha**2 - beta**2 - eps_1

    and gamma_2 = alpha*beta.  reconstruct builds only subsolutions
    whose slacks and energy inequalities hold; these identities build
    any other.
    """

    nu_minus: float
    nu_plus: float
    rho_1: float
    alpha: float
    beta: float
    gamma_1: float
    gamma_2: float
    C: float
    eps_1: float
    eps_2: float


@dataclass(frozen=True)
class FeasibilityRecord:
    """Diagnostics for one probed middle density.

    eps2_lower / eps2_upper bound the half-line intersection for the
    second slack variable (infinities allowed); feasible means eps_1 > 0
    and the window meets (0, inf) with room strictly inside.
    """

    rho_1: float
    nu_minus: float
    nu_plus: float
    beta: float
    eps_1: float
    eps2_lower: float
    eps2_upper: float
    feasible: bool


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the six interface balances and the margins of the
    five inequalities, evaluated directly from a FanSubsolution.
    equality_tol is the gate the residuals were held to (EQUALITY_TOL)."""

    equality_residuals: dict
    inequality_margins: dict
    equality_tol: float
    passed: bool

    @property
    def max_equality_residual(self) -> float:
        """The largest residual, NaN when any residual is NaN."""
        return float(np.max(list(self.equality_residuals.values())))

    @property
    def min_inequality_margin(self) -> float:
        """The smallest margin, NaN when any margin is NaN."""
        return float(np.min(list(self.inequality_margins.values())))


@dataclass(frozen=True)
class WindowGrid:
    """Kinematics and second-slack window of one datum on its middle
    densities: every array has one entry per middle density of the
    MiddleNodes passed to window_grid.

    The first slack, the energy coefficients and the window are fields,
    in the user's frame.  The interface speeds nu_minus and nu_plus and
    the middle velocity beta are kept in the kernel's frame (window_grid)
    and read in the user's: each is formed on its first read and kept.
    So a caller that reads only the window, as every probe of a search
    does, never forms them; the one-node wrappers read them.
    """

    eps_1: np.ndarray
    a_left: np.ndarray
    b_left: np.ndarray
    a_right: np.ndarray
    b_right: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    feasible: np.ndarray
    # The kernel's frame: whether it mirrors the user's, the far state's
    # velocity in the user's frame, and the speeds and middle velocity.
    _flip: bool = field(repr=False)
    _v_far2: float = field(repr=False)
    _nu_near: np.ndarray = field(repr=False)
    _nu_far: np.ndarray = field(repr=False)
    _beta: np.ndarray = field(repr=False)

    def _to_user(self, x: np.ndarray) -> np.ndarray:
        # A velocity x of the kernel's frame is v_far2 + x in the user's,
        # or v_far2 - x when mirrored.
        return (np.subtract if self._flip else np.add)(self._v_far2, x)

    @functools.cached_property
    def nu_minus(self) -> np.ndarray:
        """Speed of the left interface, in the user's frame."""
        return self._to_user(self._nu_far if self._flip else self._nu_near)

    @functools.cached_property
    def nu_plus(self) -> np.ndarray:
        """Speed of the right interface, in the user's frame."""
        return self._to_user(self._nu_near if self._flip else self._nu_far)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """Normal velocity of the middle wedge, in the user's frame."""
        return self._to_user(self._beta)


def _require_subsolution_data(data: RiemannData):
    """Common preconditions of the middle-wedge analysis, and the frame
    of the window kernel (window_grid).  Returns (f, near, far, flip,
    v_far2): the datum's DataFunctionals (RiemannData.functionals,
    formed once per datum), the smaller and the larger initial density,
    whether the kernel reflects the data (rho_minus > rho_plus, so the
    near state sits on the user's right), and the far state's velocity
    in the user's frame.

    Besides B, the guard bounds the energy coefficients by the scalar
    p(far)*(sqrt(T) + L + 2*|v_far2|): a velocity scale of the kernel's
    frame plus the boost back to the user's, times the largest pressure.
    The terms of b exceeded it by a factor of at most about 2e4, at the
    start grid's end nodes, on seeded data over the whole float range;
    _ENERGY_RANGE leaves room for that, so a datum that passes forms no
    infinity there.
    """
    check_distinct_densities(data.rho_minus, data.rho_plus)
    if data.v_minus[0] != data.v_plus[0]:
        raise DomainError(
            "the analysis assumes equal first velocity components, got "
            f"{data.v_minus[0]} and {data.v_plus[0]}")
    f = data.functionals
    if not math.isfinite(f.B):
        raise DomainError(
            f"B = A*A - R*H = {f.B} is not a finite float: the data "
            "exceed the float range of the middle-wedge analysis")
    if f.B >= 0.0:
        raise VelocityGapError(
            f"B = {f.B} >= 0: the velocity gap is at or beyond the "
            "two-shock bound, interface speeds are not both real")
    flip = data.rho_minus > data.rho_plus
    near, far = (data.rho_plus, data.rho_minus) if flip else (data.rho_minus, data.rho_plus)
    v_far2 = data.v_minus[1] if flip else data.v_plus[1]
    # Python float products overflow to inf without a warning.
    scale = data.eos._pressure(far) * (math.sqrt(f.T) + f.L + 2.0 * abs(v_far2))
    if not scale <= _ENERGY_RANGE:
        raise DomainError(f"{data} exceeds the float range of the energy coefficients: "
                          f"p(far)*(sqrt(T) + L + 2*|v_far2|) = {scale}")
    return f, near, far, flip, v_far2


@dataclass(frozen=True, eq=False)
class MiddleNodes:
    """The node stage of the window kernel: every term that depends only
    on the middle densities, the two initial densities and the pressure
    law.  Built by middle_nodes; window_grid reads it for any datum with
    those densities and that law.

    near and far are the smaller and the larger initial density: the
    kernel's frame (window_grid) holds them on its near and far
    interface whatever the density ordering, so no term names the
    minus or plus state.  Every array has the 1-D shape (n,) of rho_1
    and is read-only.
    """

    rho_minus: float
    rho_plus: float
    eos: Eos
    rho_1: np.ndarray
    d_near: np.ndarray         # near - rho_1
    d_far: np.ndarray          # far - rho_1
    pressure_term: np.ndarray  # (p(far) - p(rho_1)) / rho_1
    sqrt_far_near: np.ndarray  # sqrt((far - rho_1) / (rho_1 - near))
    sqrt_near_far: np.ndarray  # sqrt((rho_1 - near) / (far - rho_1))
    sqrt_product: np.ndarray   # sqrt((rho_1 - near) * (far - rho_1))
    sqrt_near: np.ndarray      # sqrt(1 - near / rho_1)
    sqrt_far: np.ndarray       # sqrt(far / rho_1 - 1)
    far_ratio: np.ndarray      # far / rho_1
    far_weight: np.ndarray     # far * (far - rho_1) / rho_1**2
    R_rho: np.ndarray          # (near - far) * rho_1
    near_rho: np.ndarray       # near * rho_1
    far_rho: np.ndarray        # far * rho_1
    P_near: np.ndarray         # P(near, rho_1)
    P_far: np.ndarray          # P(rho_1, far)


def middle_nodes(data: RiemannData, rho_1) -> MiddleNodes:
    """
    The node stage of window_grid: the terms that depend on the middle
    densities, rho_minus, rho_plus and the pressure law only.  They hold
    every log, expm1, power and square root of the kernel, so a caller
    that evaluates many gaps on the same nodes builds them once.

    Parameters
    ----------
    data : RiemannData
        Supplies rho_minus, rho_plus and eos; its velocities are unused.
    rho_1 : array_like
        1-D middle densities strictly inside the density interval.  They
        are copied.

    Returns
    -------
    MiddleNodes
        16 read-only arrays of rho_1's size.

    Raises DomainError, before any term is evaluated, when rho_1 leaves
    the open density interval, or when the densities leave the float
    range of the dissipation terms: P(r, s) forms 2*r*s*(e(r) - e(s)),
    at most 2*far*max(far, p(far)) in size.
    """
    rho_1 = np.array(rho_1, dtype=float, ndmin=1)
    rm, rp, eos = data.rho_minus, data.rho_plus, data.eos
    near, far = (rp, rm) if rm > rp else (rm, rp)
    if not np.all((rho_1 > near) & (rho_1 < far)):
        raise DomainError(f"rho_1 must lie strictly inside ({near}, {far})")
    check_dissipation_range(eos, rm, rp)
    above, d_far = rho_1 - near, far - rho_1
    far_ratio = far / rho_1
    terms = dict(
        rho_1=rho_1,
        d_near=near - rho_1,
        d_far=d_far,
        pressure_term=(eos._pressure(far) - eos._pressure(rho_1)) / rho_1,
        sqrt_far_near=np.sqrt(d_far / above),
        sqrt_near_far=np.sqrt(above / d_far),
        sqrt_product=np.sqrt(above * d_far),
        sqrt_near=np.sqrt(1.0 - near / rho_1),
        sqrt_far=np.sqrt(far_ratio - 1.0),
        far_ratio=far_ratio,
        far_weight=far * d_far / rho_1 ** 2,
        R_rho=(near - far) * rho_1,
        near_rho=near * rho_1,
        far_rho=far * rho_1,
        P_near=eos._p_dissipation(near, rho_1),
        P_far=eos._p_dissipation(rho_1, far),
    )
    for array in terms.values():
        array.flags.writeable = False
    return MiddleNodes(rho_minus=rm, rho_plus=rp, eos=eos, **terms)


def _kinematics_arrays(data: RiemannData, n: MiddleNodes):
    """The first half of the row stage: interface speeds, middle velocity
    and first slack of the datum on its nodes n, in the kernel's frame
    (window_grid).  Returns (flip, v_far2, nu_near, nu_far, beta,
    eps_1), with the frame of _require_subsolution_data; window_grid
    documents the arguments, the frame and the errors.

    In that frame the near state moves at the gap w and the far state
    rests, so A = near*w and the far state adds no term:

        nu_near = A/R + (sqrt(-B)/R)*sqrt_far_near
        nu_far  = A/R - (sqrt(-B)/R)*sqrt_near_far
        beta    = (sqrt(-B)/R_rho)*sqrt_product - d_far*A/R_rho

    with R = near - far.  The first slack is evaluated in its K/L
    square-root form and cross-checked against the independent
    interface-speed form pressure_term - far_weight*nu_far**2; the two
    continuity balances are re-evaluated as self-checks, and the speeds
    must be ordered.  The first check that fails beyond the pinned
    tolerances raises a NumericalError naming its residual, the user's
    side of its interface and its worst node, before anything after it
    is evaluated.  Each residual check tests its absolute residual first
    (_check_residual) and forms the relative one only when that bound
    does not decide, so a passing call pays one reduction per check.
    """
    if not isinstance(n, MiddleNodes):
        raise DomainError("window_grid takes its middle densities as the "
                          f"MiddleNodes of middle_nodes, got {type(n).__name__}")
    rm, rp, eos = data.rho_minus, data.rho_plus, data.eos
    if (n.rho_minus, n.rho_plus, n.eos) != (rm, rp, eos):
        raise DomainError(
            "middle nodes built for other densities or another pressure law: "
            f"({n.rho_minus}, {n.rho_plus}, {n.eos}), "
            f"the data have ({rm}, {rp}, {eos})")
    f, near, far, flip, v_far2 = _require_subsolution_data(data)
    sqrt_nB, K, L, rho_1 = math.sqrt(-f.B), f.K, f.L, n.rho_1
    A, R = near * data.gap, near - far

    # Each formula is evaluated as written, operation for operation
    # (t**2 is np.square(t), as numpy evaluates it); its partial results
    # go to the scratch arrays t and u.  No operation writes over one of
    # its own operands: on a one-node grid numpy checks such an overlap
    # the slow way.
    A_R, nB_R = A / R, sqrt_nB / R
    t = n.d_far * A
    u = t / n.R_rho
    np.divide(sqrt_nB, n.R_rho, out=t)
    beta = t * n.sqrt_product
    # beta - u goes to t, and the product's array becomes the scratch t.
    beta, t = np.subtract(beta, u, out=t), beta
    nu_near = A_R + np.multiply(nB_R, n.sqrt_far_near, out=t)
    nu_far = A_R - np.multiply(nB_R, n.sqrt_near_far, out=t)
    # eps_1 = pressure_term - far_ratio*(L*sqrt_near - K*sqrt_far)**2
    eps_1 = np.multiply(L, n.sqrt_near, out=t) - np.multiply(K, n.sqrt_far, out=u)
    np.square(eps_1, out=t)
    np.subtract(n.pressure_term, np.multiply(n.far_ratio, t, out=u), out=eps_1)
    # eps_1_alt = pressure_term - far_weight*nu_far**2, in u
    np.square(nu_far, out=u)
    np.subtract(n.pressure_term, np.multiply(n.far_weight, u, out=t), out=u)
    _check_residual(np.abs(np.subtract(eps_1, u, out=t), out=u), CROSS_CHECK_TOL, rho_1,
                    "first-slack cross-check failed: square-root form and interface-speed "
                    "form disagree by {:.3e} (relative) at rho_1 = {}", eps_1)

    # The mass balance nu*(r - rho_1) = r*v2 - rho_1*beta of the near
    # state (near, w) and of the far state (far, 0), each named by the
    # user's side it sits on: reflected data hold the near state on the
    # right.  The far state's r*v2 is 0.0, and |lhs - (0.0 - rho_beta)| is
    # |lhs + rho_beta| bit for bit, with |rho_beta| in its scale.
    rho_beta = rho_1 * beta
    sides = ("right", "left") if flip else ("left", "right")
    for name, nu, d, rhs, residual in zip(sides, (nu_near, nu_far), (n.d_near, n.d_far),
                                         (A - rho_beta, rho_beta), (np.subtract, np.add)):
        lhs = nu * d
        _check_residual(np.abs(residual(lhs, rhs, out=t), out=u), CONTINUITY_TOL, rho_1,
                        name + " continuity self-check failed: residual {:.3e} at rho_1 = {}",
                        lhs, rhs)

    if (nu_near >= nu_far).any():
        # Both continuity checks passed, so every speed is finite and the
        # largest nu_near - nu_far sits at a violating node.
        raise NumericalError("interface speed ordering violated on the grid at "
                             f"rho_1 = {rho_1[np.argmax(nu_near - nu_far)]}")
    return flip, v_far2, nu_near, nu_far, beta, eps_1


def _check_residual(diff, tol: float, rho_1, message: str, *values):
    """Raise NumericalError(message.format(worst, rho_1[i])) when a
    self-check fails at its worst node i.

    The check holds when the relative residual diff / max(1, |value|,
    ...) is at most tol at every node; diff = |x - y| is the absolute
    residual.  The scale is at least 1 and IEEE division is monotone, so
    fl(diff/scale) <= diff, and max(diff) <= tol decides the check by
    itself.  Only when it does not, a NaN included, are the scale and
    the quotient formed.  A NaN residual is the worst, as np.argmax
    reads it.
    """
    if diff.max() <= tol:
        return
    scale = np.abs(values[0])
    for value in values[1:]:
        np.maximum(scale, np.abs(value), out=scale)
    np.maximum(1.0, scale, out=scale)
    rel = diff / scale
    worst = rel.max()
    if not worst <= tol:
        raise NumericalError(message.format(worst, rho_1[np.argmax(rel)]))


def _energy_constraints(n: MiddleNodes, w: float, boost: float, beta, eps_1):
    """The two interface energy inequalities as a*eps_2 <= b, on the
    grid of window_grid, in the kernel's frame (window_grid).

    The rule is written once, for the state (r, v2) left of the middle
    wedge with normal velocity beta and P = P(r, rho_1):

        a = r*rho_1*(beta - v2) / (r - rho_1)
        b = eps_1*rho_1*(v2 + beta + 2*boost) - eps_1*a - (beta - v2)*P

    The near interface is the rule on (near, w) against beta.  The far
    interface is the same rule on the kernel's frame reflected by
    x2 -> -x2, which negates the boost: (far, 0) against -beta, with
    -boost.  a does not change under a boost along x2, and b moves by
    2*c*eps_1*rho_1 under a boost by c, so boost carries b to the user's
    frame at the cost of one scalar sum.  Returns ((a_near, b_near),
    (a_far, b_far)).

    Each formula is evaluated in the order of the rule, its partial
    results in the scratch arrays s and t, and no operation writes over
    one of its own operands (see _kinematics_arrays).  The far state's
    beta - v2 is -beta, as x - 0.0 is x bit for bit.

    This and _kinematics_arrays are functions of their own so that their
    temporaries, each as large as the grid, are freed before window_grid
    forms the bounds."""
    eps_rho = eps_1 * n.rho_1
    neg_beta = -beta
    coefficients, s, t = [], None, None
    for r_rho, d, v2, c, mid2, bmv, P in (
            (n.near_rho, n.d_near, w, boost, beta, beta - w, n.P_near),
            (n.far_rho, n.d_far, 0.0, -boost, neg_beta, neg_beta, n.P_far)):
        s = np.multiply(r_rho, bmv, out=s)
        a = s / d
        # b = ((v2 + 2*c) + mid2)*eps_rho - eps_1*a - bmv*P; the product
        # with eps_rho commutes exactly.  The last difference goes to t,
        # and the array of the one before becomes the scratch t.
        np.add(v2 + 2.0 * c, mid2, out=s)
        t = np.multiply(s, eps_rho, out=t)
        np.multiply(eps_1, a, out=s)
        b = t - s
        np.multiply(bmv, P, out=s)
        b, t = np.subtract(b, s, out=t), b
        coefficients.append((a, b))
    return coefficients


def window_grid(data: RiemannData, nodes: MiddleNodes) -> WindowGrid:
    """
    Kinematics and second-slack window of one velocity gap on a grid of
    middle densities.

    This is the row stage of the kernel: it combines the datum's gap
    scalars with the node terms of middle_nodes, and runs the kinematic
    self-checks (see _kinematics_arrays).  Its cost is a fixed count of
    numpy calls, whatever the number of nodes, and every temporary is a
    grid-sized array; the README section "What a threshold search
    costs" gives the counts and the largest grid worth repeating.

    The kernel computes in one frame: the datum reflected by x2 -> -x2
    when rho_minus > rho_plus, so the near (smaller) density sits on the
    left, then boosted along x2 so the far state rests and the near
    state moves at the gap w.  No term of the size rho*v2**2 enters, so
    nothing cancels at large transverse velocities.  The energy rule
    adds the boost back to the user's frame in the scalar of its sum (see
    _energy_constraints), so the window is the user's.  The speeds and
    the middle velocity come back to the user's frame only when the
    WindowGrid's nu_minus, nu_plus and beta are read: they shift by the
    far state's velocity, mirrored on reflected data.  A search that
    reads only feasible never forms them.

    Both interface energy inequalities are treated as affine constraints
    a*eps_2 <= b and the resulting half-lines are intersected with
    (0, inf).  The direction of each bound follows the sign of its
    coefficient, so no sign regime is assumed for beta - v_minus2 or
    v_plus2 - beta; a vanishing coefficient degenerates the constraint
    to the sign test b >= 0.  Only then can a quotient b/a divide by
    zero, so only then are numpy's divide and invalid warnings silenced
    and the sign test formed.

    Parameters
    ----------
    data : RiemannData
        The datum.  Its gap is RiemannData.gap; its per-gap scalars
        (B, K, L) come from its own data_functionals, formed on its first
        kernel call and reused by every later one
        (RiemannData.functionals).
    nodes : MiddleNodes
        The middle densities with their node terms, built by
        middle_nodes for the datum's densities and pressure law.

    Returns
    -------
    WindowGrid
        Arrays of shape (n,), one entry per middle density.

    Raises DomainError when nodes is not a MiddleNodes or belongs to
    other densities or another pressure law; then the datum's first
    failing precondition (_require_subsolution_data) or self-check, in
    the order precondition, first-slack cross-check, near continuity
    (left, or right when rho_minus > rho_plus), far continuity, speed
    ordering.  A self-check's NumericalError names its worst node
    ("at rho_1 = ...").
    """
    # The user's frame is the kernel's boosted along x2 and, when flip,
    # mirrored; v_far2 is the far state's velocity in it.
    flip, v_far2, nu_near, nu_far, beta, eps_1 = _kinematics_arrays(data, nodes)
    at_near, at_far = _energy_constraints(nodes, data.gap, -v_far2 if flip else v_far2, beta, eps_1)
    (a_left, b_left), (a_right, b_right) = (at_far, at_near) if flip else (at_near, at_far)

    # all() reads a NaN coefficient as nonzero, as != does.
    vanishing = not (a_left.all() and a_right.all())
    with np.errstate(divide="ignore", invalid="ignore") if vanishing else contextlib.nullcontext():
        q_left, q_right = b_left / a_left, b_right / a_right
    upper = np.where(a_left > 0.0, q_left, np.inf)
    np.minimum(upper, q_right, out=upper, where=a_right > 0.0)
    lower = np.where(a_left < 0.0, q_left, -np.inf)
    np.maximum(lower, q_right, out=lower, where=a_right < 0.0)
    feasible = (eps_1 > 0.0) & (np.maximum(lower, 0.0) < upper)
    if vanishing:
        feasible &= (((a_left != 0.0) | (b_left >= 0.0))
                     & ((a_right != 0.0) | (b_right >= 0.0)))
    return WindowGrid(eps_1=eps_1, a_left=a_left, b_left=b_left, a_right=a_right,
                      b_right=b_right, lower=lower, upper=upper, feasible=feasible,
                      _flip=flip, _v_far2=v_far2, _nu_near=nu_near, _nu_far=nu_far, _beta=beta)


def _window_at(data: RiemannData, rho_1: float) -> WindowGrid:
    """window_grid of one datum at one middle density, every array of
    shape (1,); raises the datum's error, a failed precondition before a
    middle density outside the interval."""
    _require_subsolution_data(data)
    return window_grid(data, middle_nodes(data, [float(rho_1)]))


def eps2_window(data: RiemannData, rho_1: float) -> FeasibilityRecord:
    """
    Admissible range for the second slack variable at one middle density.

    Returns a FeasibilityRecord whose bounds may be infinite; feasible
    is True when eps_1 > 0 and the window intersected with (0, inf) has
    nonempty interior.
    """
    w = _window_at(data, rho_1)
    return FeasibilityRecord(
        rho_1=float(rho_1),
        nu_minus=w.nu_minus.item(),
        nu_plus=w.nu_plus.item(),
        beta=w.beta.item(),
        eps_1=w.eps_1.item(),
        eps2_lower=w.lower.item(),
        eps2_upper=w.upper.item(),
        feasible=w.feasible.item(),
    )


def reconstruct(data: RiemannData, rho_1: float, eps_2: float) -> FanSubsolution:
    """
    Assemble the full subsolution from a feasible (rho_1, eps_2).

    alpha is the datum's common first velocity component.  Both slacks
    must be positive and both interface energy inequalities must hold
    strictly; a ConstraintError names the first violated condition.
    """
    return _assemble(data, _window_at(data, rho_1), rho_1, eps_2)


def witness_at(data: RiemannData, rho_1: float) -> FanSubsolution:
    """
    The checked subsolution at one middle density, from one kernel call.

    The free slack eps_2 sits at the midpoint of its admissible window
    (eps2_window's bounds, the lower one raised to 0) cut to a width of
    max(lower, eps_1).  The cut keeps eps_2 on the scale of eps_1, so
    eps_1 does not cancel in C, and it bounds a window that is unbounded
    above.  Every term is a squared velocity, so the rule has no units.
    alpha is the common first velocity component.  Raises
    ConstraintError, as reconstruct does, when rho_1 admits no such
    subsolution.
    """
    w = _window_at(data, rho_1)
    lower = max(w.lower.item(), 0.0)
    eps_2 = lower + 0.5 * min(w.upper.item() - lower, max(lower, w.eps_1.item()))
    return _assemble(data, w, rho_1, eps_2)


def _assemble(data: RiemannData, w: WindowGrid, rho_1: float, eps_2: float) -> FanSubsolution:
    """The checked subsolution of reconstruct from the one-node window w
    of data at rho_1; alpha is the datum's common first velocity
    component, equal on both sides (_require_subsolution_data)."""
    eps_1 = w.eps_1.item()
    if not eps_1 > 0.0:
        raise ConstraintError(
            f"first slack condition violated: eps_1 = {eps_1} <= 0")
    if not eps_2 > 0.0:
        raise ConstraintError(
            f"second slack condition violated: eps_2 = {eps_2} <= 0")
    for side, a, b in (("left", w.a_left, w.b_left),
                       ("right", w.a_right, w.b_right)):
        margin = b.item() - a.item() * eps_2
        if not margin > 0.0:
            raise ConstraintError(
                f"{side} interface energy inequality violated: "
                f"margin = {margin}")
    alpha, beta = data.v_plus[0], w.beta.item()
    C = alpha ** 2 + beta ** 2 + eps_1 + eps_2
    gamma_1 = C / 2.0 - beta ** 2 - eps_1
    return FanSubsolution(
        nu_minus=w.nu_minus.item(), nu_plus=w.nu_plus.item(),
        rho_1=float(rho_1), alpha=float(alpha), beta=beta,
        gamma_1=gamma_1, gamma_2=float(alpha) * beta, C=C,
        eps_1=eps_1, eps_2=float(eps_2))


def _relative_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def verify_subsolution(data: RiemannData, sub: FanSubsolution) -> VerificationReport:
    """
    Re-evaluate the complete interface system directly from the
    subsolution parameters.

    All six balance identities (mass and both momentum components on
    each interface) and all five inequalities (speed ordering, trace
    bound, determinant condition with its full mixed term, and the two
    interface energy inequalities) are computed from scratch; nothing is
    shared with the closed-form kinematics or window code, so this is an
    independent oracle for them.  passed is True iff every equality
    residual is <= EQUALITY_TOL (relative) and every inequality margin is
    strictly positive, so a NaN anywhere fails.

    Returns a report for every rho_1 that is positive and finite with a
    finite pressure; any other rho_1 raises DomainError
    (errors.check_density).  The datum's densities were checked by
    RiemannData.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm1, vm2 = data.v_minus
    vp1, vp2 = data.v_plus
    eos = data.eos
    check_density(eos, sub.rho_1, "rho_1")
    pm, pp, p1 = eos._pressure(rm), eos._pressure(rp), eos._pressure(sub.rho_1)
    em, ep, e1 = (eos._internal_energy(rm), eos._internal_energy(rp),
                  eos._internal_energy(sub.rho_1))
    nm, np_, r1 = sub.nu_minus, sub.nu_plus, sub.rho_1
    al, be, g1, g2, C = sub.alpha, sub.beta, sub.gamma_1, sub.gamma_2, sub.C

    residuals = {
        "cont_left": _relative_residual(
            nm * (rm - r1), rm * vm2 - r1 * be),
        "mom1_left": _relative_residual(
            nm * (rm * vm1 - r1 * al), rm * vm1 * vm2 - r1 * g2),
        "mom2_left": _relative_residual(
            nm * (rm * vm2 - r1 * be),
            rm * (vm2 * vm2) + r1 * g1 + pm - p1 - r1 * C / 2.0),
        "cont_right": _relative_residual(
            np_ * (r1 - rp), r1 * be - rp * vp2),
        "mom1_right": _relative_residual(
            np_ * (r1 * al - rp * vp1), r1 * g2 - rp * vp1 * vp2),
        "mom2_right": _relative_residual(
            np_ * (r1 * be - rp * vp2),
            -r1 * g1 - rp * (vp2 * vp2) + p1 - pp + r1 * C / 2.0),
    }

    vm_sq = vm1 * vm1 + vm2 * vm2
    vp_sq = vp1 * vp1 + vp2 * vp2
    energy_left_lhs = (nm * (rm * em - r1 * e1)
                       + nm * (rm * vm_sq / 2.0 - r1 * C / 2.0))
    energy_left_rhs = ((rm * em + pm) * vm2 - (r1 * e1 + p1) * be
                       + rm * vm2 * vm_sq / 2.0 - r1 * be * C / 2.0)
    energy_right_lhs = (np_ * (r1 * e1 - rp * ep)
                        + np_ * (r1 * C / 2.0 - rp * vp_sq / 2.0))
    energy_right_rhs = ((r1 * e1 + p1) * be - (rp * ep + pp) * vp2
                        + r1 * be * C / 2.0 - rp * vp2 * vp_sq / 2.0)

    # Squares are products: a Python float power raises OverflowError
    # where a product gives inf, and a report is always returned.
    mixed = g2 - al * be
    margins = {
        "speed_order": np_ - nm,
        "trace": C - al * al - be * be,
        "determinant": ((C / 2.0 - al * al + g1) * (C / 2.0 - be * be - g1)
                        - mixed * mixed),
        "energy_left": energy_left_rhs - energy_left_lhs,
        "energy_right": energy_right_rhs - energy_right_lhs,
    }

    passed = (all(r <= EQUALITY_TOL for r in residuals.values())
              and all(m > 0.0 for m in margins.values()))
    return VerificationReport(equality_residuals=residuals,
                              inequality_margins=margins,
                              equality_tol=EQUALITY_TOL, passed=passed)


def epsilon1_sign_change(data: RiemannData) -> float:
    """
    The unique density at which the first slack changes sign from + to -
    while moving from the near-side initial density to the far side.

    Located by brent, to its own tolerance, between the
    square-root-expression zero (where the slack is provably positive)
    and the far endpoint (where it is negative).
    """
    f, near, far, _, _ = _require_subsolution_data(data)
    if not data.gap > 0.0:
        raise DomainError(
            "sign-change analysis requires v_plus2 < v_minus2 "
            f"(gap = {data.gap} <= 0)")

    def slack(x):
        return _window_at(data, x).eps_1.item()

    lo, hi = f.rho_tilde, far - 1e-12 * (far - near)
    s_lo, s_hi = slack(lo), slack(hi)
    if not (s_lo > 0.0 and s_hi < 0.0):
        raise NumericalError(
            "sign-change bracketing failed: slack at the square-root zero "
            f"is {s_lo}, near the far endpoint {s_hi}")
    return float(brent(slack, lo, hi))


def limit_quantities(rho_minus: float, rho_plus: float, v_plus2: float,
                     eos, rho_1: float):
    """
    Closed-form limits of the middle velocity, the first slack and the
    two window bounds as the velocity gap approaches the two-shock bound
    from below.

    Returns
    -------
    (beta_bar, eps1_bar, M1_bar, M2_bar) : tuple of float
        Python floats.  M1_bar is the limiting upper window bound, M2_bar
        the limiting lower bound, on either density ordering (the
        interface each one comes from swaps with the ordering).

    Notes
    -----
    The closed density interval is accepted: every quantity has a
    finite one-sided limit at rho_1 = rho_minus and rho_1 = rho_plus
    (the dissipation factor P(r, r) tends to 0 there, cancelling the
    vanishing density gap), and eps1_bar vanishes at both endpoints.

    Raises DomainError, naming the input, when a density is not positive
    and finite, or when a pressure, a product of two densities, the
    square of rho_minus - rho_plus, the divisors
    (rho_1*(rho_minus - rho_plus))**2 and T, or one of the four limits
    leave the float range.
    """
    check_density(eos, rho_minus, "rho_minus")
    check_density(eos, rho_plus, "rho_plus")
    if not math.isfinite(v_plus2):
        raise DomainError(f"v_plus2 must be finite, got {v_plus2}")
    check_distinct_densities(rho_minus, rho_plus)
    near, far = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
    if not near <= rho_1 <= far:
        raise DomainError(f"rho_1 must lie in [{near}, {far}]")
    check_density_pair(rho_minus, rho_plus, ("rho_minus", "rho_plus"))
    check_density_pair(rho_1, rho_minus, ("rho_1", "rho_minus"))
    check_density_pair(rho_1, rho_plus, ("rho_1", "rho_plus"))

    rm, rp, r1 = rho_minus, rho_plus, rho_1
    R = rm - rp
    # A Python float power raises OverflowError where the product gives
    # inf, so the product decides and the powers below keep their bits.
    # rho_1**2 and near**2 are at most rho_1*far, checked above.
    if not math.isfinite(R * R):
        raise DomainError(f"rho_minus - rho_plus = {R} has no finite float square")
    T = eos._two_shock_T(rm, rp)
    # The limits divide by (rho_1*R)**2 and by sqrt(T).
    if not ((r1 * R) * (r1 * R) >= sys.float_info.min and T > 0.0):
        raise DomainError(f"densities rho_minus = {rm} and rho_plus = {rp} are too close at "
                          f"rho_1 = {r1}: (rho_1*(rho_minus - rho_plus))**2 or T underflows")
    sqrt_T = math.sqrt(T)

    beta_bar = v_plus2 + rm * (r1 - rp) * sqrt_T / (R * r1)
    eps1_bar = ((eos._pressure(far) - eos._pressure(r1)) / r1
                - far * near ** 2 * (far - r1) * T / (r1 ** 2 * R ** 2))

    shared = eps1_bar * r1 / (rm * rp)
    # P(r, r) -> 0, so each dissipation term has removable limit 0 at
    # its own endpoint.
    left_P_term = (0.0 if r1 == rm else
                   (r1 - rm) / (r1 * rm) * eos._p_dissipation(rm, r1))
    right_P_term = (0.0 if r1 == rp else
                    -(rp - r1) / (rp * r1) * eos._p_dissipation(r1, rp))
    left_expr = left_P_term - shared * (2.0 * rm - rp + 2.0 * R * v_plus2 / sqrt_T)
    right_expr = right_P_term - shared * (rm + 2.0 * R * v_plus2 / sqrt_T)
    bounds = (left_expr, right_expr) if R < 0.0 else (right_expr, left_expr)
    limits = tuple(float(x) for x in (beta_bar, eps1_bar, *bounds))
    # Python float products overflow to inf without a warning.
    if not all(map(math.isfinite, limits)):
        raise DomainError(f"rho_minus = {rm} and rho_plus = {rp} give non-finite "
                          f"limits {limits} at rho_1 = {r1}")
    return limits
