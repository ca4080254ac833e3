"""Middle-wedge analysis: closed-form interface kinematics, the
admissibility window for the second slack variable, reconstruction of a
full piecewise-constant subsolution, and an independent verifier that
re-evaluates the complete interface system from scratch.

The kinematics are parameterized by the probed middle density rho_1,
which must lie strictly between the two initial densities.  The
formulas are written once, in an array-first kernel of two stages: the
node stage middle_nodes holds every term of a grid of middle densities
(columns) that does not depend on the velocity gap, and the row stage
window_grid combines it with several gaps (rows) in one call.
kinematics, eps2_window and reconstruct are one-row, one-node wrappers
around it.  Everything here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .eos import Eos, internal_energy, pressure
from .errors import (
    ConstraintError,
    DegenerateDensityError,
    DomainError,
    EulerFanError,
    NumericalError,
    VelocityGapError,
)
from .functionals import RiemannData, data_functionals
from .roots import brent

# Cross-check and self-check tolerances (relative, scale max(1, |value|)).
CROSS_CHECK_TOL = 1e-9
CONTINUITY_TOL = 1e-10
#: The verifier's pass gate on every interface balance residual (relative).
EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class FanSubsolution:
    """Parameters of a piecewise-constant three-wedge subsolution.

    The middle wedge carries density rho_1, velocity (alpha, beta), a
    traceless symmetric matrix with diagonal (gamma_1, -gamma_1) and
    off-diagonal gamma_2, and the kinetic-energy bound C.  eps_1 and
    eps_2 are the two derived slack variables:

        eps_1 = C/2 - gamma_1 - beta**2
        eps_2 = C - alpha**2 - beta**2 - eps_1
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
    sign_beta_minus: int
    sign_plus_beta: int
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
    """Kinematics and second-slack window on a (gap x middle density) grid.

    Row i belongs to the i-th datum passed to window_grid: every array
    has one row per datum and one column per middle density.  errors[i]
    is the error that datum raises when evaluated on its own, or None;
    the arrays of a row with an error carry no meaning.
    """

    nu_minus: np.ndarray
    nu_plus: np.ndarray
    beta: np.ndarray
    eps_1: np.ndarray
    a_left: np.ndarray
    b_left: np.ndarray
    a_right: np.ndarray
    b_right: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    feasible: np.ndarray
    errors: tuple


def _require_subsolution_data(data: RiemannData):
    """Common preconditions of the middle-wedge analysis."""
    if data.rho_minus == data.rho_plus:
        raise DegenerateDensityError(
            "equal initial densities: no middle density interval to probe")
    if data.v_minus[0] != data.v_plus[0]:
        raise DomainError(
            "the analysis assumes equal first velocity components, got "
            f"{data.v_minus[0]} and {data.v_plus[0]}")
    f = data_functionals(data)
    if f.B >= 0.0:
        raise VelocityGapError(
            f"B = {f.B} >= 0: the velocity gap is at or beyond the "
            "two-shock bound, interface speeds are not both real")
    return f


def _column(values):
    """Per-row scalars as a (k, 1) column.  A single row keeps its Python
    number, which numpy combines with an array faster and to the same
    bits."""
    return values[0] if len(values) == 1 else np.array(values, dtype=float)[:, None]


def _gap_columns(rows):
    """Preconditions of each datum and the per-gap scalars as columns.

    Returns the error each datum raises before any node is evaluated
    (None when it passes) and the columns (see _column) v_minus2, A,
    sqrt(-B), K and L, which are NaN on rows with an error.
    """
    if not rows:
        raise DomainError("window_grid needs at least one datum")
    first = rows[0]
    shared = (first.rho_minus, first.rho_plus, first.v_plus, first.eos)
    errors, columns = [], []
    for data in rows:
        if (data.rho_minus, data.rho_plus, data.v_plus, data.eos) != shared:
            raise DomainError("window_grid data must differ in v_minus only")
        try:
            f = _require_subsolution_data(data)
        except EulerFanError as exc:
            errors.append(exc)
            columns.append((math.nan,) * 5)
        else:
            errors.append(None)
            columns.append((data.v_minus[1], f.A, math.sqrt(-f.B), f.K, f.L))
    return errors, [_column(c) for c in zip(*columns)]


def _record(errors: list, failing: np.ndarray, error) -> None:
    """Set errors[i] = error(i) for each failing row i without an error yet."""
    for i in failing.nonzero()[0]:
        if errors[i] is None:
            errors[i] = error(i)


@dataclass(frozen=True, eq=False)
class MiddleNodes:
    """The node stage of the window kernel: every term that depends only
    on the middle densities, the two initial densities and the pressure
    law.  Built by middle_nodes; window_grid reads it for any rows that
    share those densities and that law.

    near and far are the smaller and the larger initial density.  Every
    array has the (1, n) or (k, n) shape of rho_1 and is read-only.
    """

    rho_minus: float
    rho_plus: float
    eos: Eos
    rho_1: np.ndarray
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
    P_left: np.ndarray         # P(rho_minus, rho_1)
    P_right: np.ndarray        # P(rho_1, rho_plus)


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
        Middle densities strictly inside the density interval: 1-D, or
        2-D with one row per datum.  They are copied.

    Returns
    -------
    MiddleNodes
        13 read-only arrays of rho_1's size: 0.2 MB at 2048 nodes.

    Raises DomainError, before any term is evaluated, when rho_1 leaves
    the open density interval.
    """
    rho_1 = np.atleast_2d(np.array(rho_1, dtype=float))
    rm, rp, eos = data.rho_minus, data.rho_plus, data.eos
    near, far = (rp, rm) if rm > rp else (rm, rp)
    if not np.all((rho_1 > near) & (rho_1 < far)):
        raise DomainError(f"rho_1 must lie strictly inside ({near}, {far})")
    d_near, d_far = rho_1 - near, far - rho_1
    far_ratio = far / rho_1
    terms = dict(
        rho_1=rho_1,
        d_far=d_far,
        pressure_term=(eos._pressure(far) - eos._pressure(rho_1)) / rho_1,
        sqrt_far_near=np.sqrt(d_far / d_near),
        sqrt_near_far=np.sqrt(d_near / d_far),
        sqrt_product=np.sqrt(d_near * d_far),
        sqrt_near=np.sqrt(1.0 - near / rho_1),
        sqrt_far=np.sqrt(far_ratio - 1.0),
        far_ratio=far_ratio,
        far_weight=far * d_far / rho_1 ** 2,
        R_rho=(near - far) * rho_1,
        P_left=eos._p_dissipation(rm, rho_1),
        P_right=eos._p_dissipation(rho_1, rp),
    )
    for array in terms.values():
        array.flags.writeable = False
    return MiddleNodes(rho_minus=rm, rho_plus=rp, eos=eos, **terms)


def _kinematics_arrays(rows, nodes):
    """The first half of the row stage: interface speeds, middle velocity
    and first slack of each row on its nodes, with one error slot per
    row.  Returns (errors, nodes, v_minus2, nu_minus, nu_plus, beta,
    eps_1), nodes as a MiddleNodes and v_minus2 the column of
    _gap_columns; window_grid documents the arguments and the errors.

    The first slack is evaluated in its K/L square-root form and
    cross-checked against the independent interface-speed form; the two
    continuity balances are re-evaluated as self-checks.  A row whose
    check fails beyond the pinned tolerances gets a NumericalError with
    diagnostics; the first failing check of a row is the one recorded.

    The formulas are written for rho_minus < rho_plus.  Data of the other
    ordering are reflected by x2 -> -x2, which swaps the two states and
    negates the normal velocities, and the results are mapped back by
    nu_minus, nu_plus -> -nu_plus, -nu_minus and beta -> -beta; A, B, K,
    L and the first slack are invariant.
    """
    errors, (vm2, A, sqrt_nB, K, L) = _gap_columns(rows)
    data = rows[0]
    rm, rp, eos = data.rho_minus, data.rho_plus, data.eos
    vp2 = data.v_plus[1]
    if not isinstance(nodes, MiddleNodes):
        try:
            nodes = middle_nodes(data, nodes)
        except DomainError as exc:
            raise (errors[0] or exc) from None
    elif (nodes.rho_minus, nodes.rho_plus, nodes.eos) != (rm, rp, eos):
        raise DomainError(
            "middle nodes built for other densities or another pressure law: "
            f"({nodes.rho_minus}, {nodes.rho_plus}, {nodes.eos}), "
            f"the data have ({rm}, {rp}, {eos})")
    n = nodes
    rho_1 = n.rho_1
    flip = rm > rp
    near, far, v_far2 = (rp, rm, -vm2) if flip else (rm, rp, vp2)
    R = near - far

    A_R, nB_R = A / R, sqrt_nB / R
    nu_near = A_R + nB_R * n.sqrt_far_near
    nu_far = A_R - nB_R * n.sqrt_near_far
    beta = (far * v_far2 / rho_1 - n.d_far * A / n.R_rho
            + (sqrt_nB / n.R_rho) * n.sqrt_product)
    eps_1 = n.pressure_term - n.far_ratio * (L * n.sqrt_near - K * n.sqrt_far) ** 2
    eps_1_alt = n.pressure_term - n.far_weight * (nu_far - v_far2) ** 2
    if flip:
        nu_minus, nu_plus, beta = -nu_far, -nu_near, -beta
    else:
        nu_minus, nu_plus = nu_near, nu_far

    rel = np.abs(eps_1 - eps_1_alt) / np.maximum(1.0, np.abs(eps_1))
    worst = rel.max(axis=-1)
    _record(errors, ~(worst <= CROSS_CHECK_TOL), lambda i: NumericalError(
        "first-slack cross-check failed: square-root form and "
        f"interface-speed form disagree by {worst[i]:.3e} (relative) at "
        f"rho_1 = {np.broadcast_to(rho_1, rel.shape)[i, np.argmax(rel[i])]}"))

    # The left mass balance nu*(r - rho_1) = r*v2 - rho_1*beta.  The
    # reflection x2 -> -x2 negates both sides, so the right balance is
    # the same formula on (nu_plus, rho_plus, v_plus2) without negations.
    rho_beta = rho_1 * beta
    for name, nu, r, v2 in (("left", nu_minus, rm, vm2), ("right", nu_plus, rp, vp2)):
        lhs = nu * (r - rho_1)
        lhs_mom = r * v2 - rho_beta
        denom = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(lhs_mom)))
        res = (np.abs(lhs - lhs_mom) / denom).max(axis=-1)
        _record(errors, ~(res <= CONTINUITY_TOL), lambda i: NumericalError(
            f"{name} continuity self-check failed: residual {res[i]:.3e}"))

    _record(errors, (nu_minus >= nu_plus).any(axis=-1), lambda i: NumericalError(
        "interface speed ordering violated on the grid"))
    return errors, n, vm2, nu_minus, nu_plus, beta, eps_1


def _energy_constraints(data: RiemannData, vm2, n: MiddleNodes, beta, eps_1):
    """The two interface energy inequalities as a*eps_2 <= b, on the
    grid of window_grid: [a_left, b_left, a_right, b_right].

    The rule is written once, for the left interface, the state (r, v2)
    against the middle wedge with normal velocity beta and P = P_left:

        a = r*rho_1*(beta - v2) / (r - rho_1)
        b = eps_1*rho_1*(v2 + beta) - eps_1*a - (beta - v2)*P

    The right interface is the same rule on the data reflected by
    x2 -> -x2: (rho_plus, -v_plus2) against -beta, with P = P_right.

    This and _kinematics_arrays are functions of their own so that their
    temporaries, each as large as the grid, are freed before window_grid
    forms the bounds: that keeps the peak memory of a scan block down."""
    eps_rho = eps_1 * n.rho_1
    coefficients = []
    for r, v2, mid2, P in ((data.rho_minus, vm2, beta, n.P_left),
                           (data.rho_plus, -data.v_plus[1], -beta, n.P_right)):
        bmv = mid2 - v2
        a = r * n.rho_1 * bmv / (r - n.rho_1)
        coefficients += (a, eps_rho * (v2 + mid2) - eps_1 * a - bmv * P)
    return coefficients


def window_grid(rows, nodes) -> WindowGrid:
    """
    Kinematics and second-slack window for several velocity gaps at once.

    This is the row stage of the kernel: it combines each row's gap
    scalars with the node terms of middle_nodes, and runs the
    kinematic self-checks of every row (see _kinematics_arrays).

    Both interface energy inequalities are treated as affine constraints
    a*eps_2 <= b and the resulting half-lines are intersected with
    (0, inf).  The direction of each bound follows the sign of its
    coefficient, so no sign regime is assumed for beta - v_minus2 or
    v_plus2 - beta; a vanishing coefficient degenerates the constraint
    to the sign test b >= 0.

    Parameters
    ----------
    rows : sequence of RiemannData
        Data that differ in v_minus only, one per row of the grid.  The
        per-gap scalars (v_minus2, A, B, K, L) come from each datum's
        own data_functionals and enter as (k, 1) columns.
    nodes : MiddleNodes or array_like
        The middle densities: a MiddleNodes built for the rows' densities
        and pressure law, or plain densities strictly inside the density
        interval (one 1-D array for every row, or a 2-D array with one
        row per datum), which are passed through middle_nodes.

    Returns
    -------
    WindowGrid
        Arrays of shape (len(rows), n).  A datum whose preconditions or
        self-checks fail does not raise: its error is in errors.

    Raises DomainError when the data differ in more than v_minus, when a
    MiddleNodes belongs to other densities or another pressure law, or
    when plain densities leave the open interval (then the first datum's
    own error, if any, is raised instead).
    """
    errors, n, vm2, nu_minus, nu_plus, beta, eps_1 = _kinematics_arrays(rows, nodes)
    a_left, b_left, a_right, b_right = _energy_constraints(rows[0], vm2, n, beta, eps_1)

    with np.errstate(divide="ignore", invalid="ignore"):
        q_left, q_right = b_left / a_left, b_right / a_right
    upper = np.where(a_left > 0.0, q_left, np.inf)
    np.minimum(upper, q_right, out=upper, where=a_right > 0.0)
    lower = np.where(a_left < 0.0, q_left, -np.inf)
    np.maximum(lower, q_right, out=lower, where=a_right < 0.0)
    parity_ok = (((a_left != 0.0) | (b_left >= 0.0))
                 & ((a_right != 0.0) | (b_right >= 0.0)))

    feasible = parity_ok & (eps_1 > 0.0) & (np.maximum(lower, 0.0) < upper)
    return WindowGrid(nu_minus=nu_minus, nu_plus=nu_plus, beta=beta,
                      eps_1=eps_1, a_left=a_left, b_left=b_left,
                      a_right=a_right, b_right=b_right,
                      lower=lower, upper=upper, feasible=feasible,
                      errors=tuple(errors))


def _window_arrays(data: RiemannData, rho_1) -> WindowGrid:
    """window_grid of one datum, with 1-D arrays; raises its error."""
    grid = window_grid([data], rho_1)
    if grid.errors[0] is not None:
        raise grid.errors[0]
    return replace(grid, **{f.name: getattr(grid, f.name)[0]
                            for f in fields(grid) if f.name != "errors"})


def kinematics(data: RiemannData, rho_1: float):
    """
    Closed-form interface speeds, middle velocity and first slack at a
    probed middle density.

    Parameters
    ----------
    data : RiemannData
        Initial data with distinct densities, equal first velocity
        components and a velocity gap strictly below the two-shock
        bound.
    rho_1 : float
        Probed middle density, strictly between the initial densities.

    Returns
    -------
    (nu_minus, nu_plus, beta, eps_1) : tuple of float
        nu_minus < nu_plus always.
    """
    w = _window_arrays(data, np.asarray([float(rho_1)]))
    return tuple(float(v[0]) for v in (w.nu_minus, w.nu_plus, w.beta, w.eps_1))


def eps2_window(data: RiemannData, rho_1: float) -> FeasibilityRecord:
    """
    Admissible range for the second slack variable at one middle density.

    Returns a FeasibilityRecord whose bounds may be infinite; feasible
    is True when eps_1 > 0 and the window intersected with (0, inf) has
    nonempty interior.
    """
    w = _window_arrays(data, np.asarray([float(rho_1)]))
    vm2, vp2 = data.v_minus[1], data.v_plus[1]
    beta = float(w.beta[0])
    return FeasibilityRecord(
        rho_1=float(rho_1),
        nu_minus=float(w.nu_minus[0]),
        nu_plus=float(w.nu_plus[0]),
        beta=beta,
        eps_1=float(w.eps_1[0]),
        sign_beta_minus=int(np.sign(beta - vm2)),
        sign_plus_beta=int(np.sign(vp2 - beta)),
        eps2_lower=float(w.lower[0]),
        eps2_upper=float(w.upper[0]),
        feasible=bool(w.feasible[0]),
    )


def reconstruct(data: RiemannData, rho_1: float, eps_2: float, alpha: float,
                check: bool = True) -> FanSubsolution:
    """
    Assemble the full subsolution from a feasible (rho_1, eps_2, alpha).

    alpha must equal the common first velocity component of the data.
    With check=True (default) the slack positivity and both interface
    energy constraints are enforced, naming the violated condition;
    check=False skips that and is meant for deliberately building
    invalid inputs to feed the verifier.
    """
    if alpha != data.v_minus[0]:
        raise DomainError(
            f"alpha = {alpha} must equal the common first velocity "
            f"component {data.v_minus[0]}")
    w = _window_arrays(data, np.asarray([float(rho_1)]))
    eps_1 = float(w.eps_1[0])
    if check:
        if not eps_1 > 0.0:
            raise ConstraintError(
                f"first slack condition violated: eps_1 = {eps_1} <= 0")
        if not eps_2 > 0.0:
            raise ConstraintError(
                f"second slack condition violated: eps_2 = {eps_2} <= 0")
        for side, a, b in (("left", w.a_left, w.b_left),
                           ("right", w.a_right, w.b_right)):
            margin = float(b[0] - a[0] * eps_2)
            if not margin > 0.0:
                raise ConstraintError(
                    f"{side} interface energy inequality violated: "
                    f"margin = {margin}")
    beta = float(w.beta[0])
    C = alpha ** 2 + beta ** 2 + eps_1 + eps_2
    gamma_1 = C / 2.0 - beta ** 2 - eps_1
    return FanSubsolution(
        nu_minus=float(w.nu_minus[0]), nu_plus=float(w.nu_plus[0]),
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
    independent oracle for them.  Always returns a report; passed is
    True iff every equality residual is <= EQUALITY_TOL (relative) and
    every inequality margin is strictly positive, so a NaN anywhere fails.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm1, vm2 = data.v_minus
    vp1, vp2 = data.v_plus
    eos = data.eos
    pm, pp, p1 = pressure(eos, rm), pressure(eos, rp), pressure(eos, sub.rho_1)
    em, ep, e1 = (internal_energy(eos, rm), internal_energy(eos, rp),
                  internal_energy(eos, sub.rho_1))
    nm, np_, r1 = sub.nu_minus, sub.nu_plus, sub.rho_1
    al, be, g1, g2, C = sub.alpha, sub.beta, sub.gamma_1, sub.gamma_2, sub.C

    residuals = {
        "cont_left": _relative_residual(
            nm * (rm - r1), rm * vm2 - r1 * be),
        "mom1_left": _relative_residual(
            nm * (rm * vm1 - r1 * al), rm * vm1 * vm2 - r1 * g2),
        "mom2_left": _relative_residual(
            nm * (rm * vm2 - r1 * be),
            rm * vm2 ** 2 + r1 * g1 + pm - p1 - r1 * C / 2.0),
        "cont_right": _relative_residual(
            np_ * (r1 - rp), r1 * be - rp * vp2),
        "mom1_right": _relative_residual(
            np_ * (r1 * al - rp * vp1), r1 * g2 - rp * vp1 * vp2),
        "mom2_right": _relative_residual(
            np_ * (r1 * be - rp * vp2),
            -r1 * g1 - rp * vp2 ** 2 + p1 - pp + r1 * C / 2.0),
    }

    vm_sq = vm1 ** 2 + vm2 ** 2
    vp_sq = vp1 ** 2 + vp2 ** 2
    energy_left_lhs = (nm * (rm * em - r1 * e1)
                       + nm * (rm * vm_sq / 2.0 - r1 * C / 2.0))
    energy_left_rhs = ((rm * em + pm) * vm2 - (r1 * e1 + p1) * be
                       + rm * vm2 * vm_sq / 2.0 - r1 * be * C / 2.0)
    energy_right_lhs = (np_ * (r1 * e1 - rp * ep)
                        + np_ * (r1 * C / 2.0 - rp * vp_sq / 2.0))
    energy_right_rhs = ((r1 * e1 + p1) * be - (rp * ep + pp) * vp2
                        + r1 * be * C / 2.0 - rp * vp2 * vp_sq / 2.0)

    margins = {
        "speed_order": np_ - nm,
        "trace": C - al ** 2 - be ** 2,
        "determinant": ((C / 2.0 - al ** 2 + g1) * (C / 2.0 - be ** 2 - g1)
                        - (g2 - al * be) ** 2),
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

    Located by a bracketed root find between the square-root-expression
    zero (where the slack is provably positive) and the far endpoint
    (where it is negative), to 1e-10 relative tolerance.
    """
    f = _require_subsolution_data(data)
    if not f.u < 0.0:
        raise DomainError(
            "sign-change analysis requires v_plus2 < v_minus2 "
            f"(u = {f.u} >= 0)")

    near, far = min(data.rho_minus, data.rho_plus), max(data.rho_minus, data.rho_plus)

    def slack(x):
        return kinematics(data, x)[3]

    lo = f.rho_tilde
    hi = far - 1e-12 * (far - near)
    s_lo, s_hi = slack(lo), slack(hi)
    if not (s_lo > 0.0 and s_hi < 0.0):
        raise NumericalError(
            "sign-change bracketing failed: slack at the square-root zero "
            f"is {s_lo}, near the far endpoint {s_hi}")
    return float(brent(slack, lo, hi, rtol=1e-10))


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
    """
    if not (0.0 < rho_minus < math.inf and 0.0 < rho_plus < math.inf):
        raise DomainError("densities must be positive and finite")
    if not math.isfinite(v_plus2):
        raise DomainError(f"v_plus2 must be finite, got {v_plus2}")
    if rho_minus == rho_plus:
        raise DegenerateDensityError("equal initial densities")
    near, far = min(rho_minus, rho_plus), max(rho_minus, rho_plus)
    if not near <= rho_1 <= far:
        raise DomainError(f"rho_1 must lie in [{near}, {far}]")

    rm, rp, r1 = rho_minus, rho_plus, rho_1
    R = rm - rp
    T = eos._two_shock_T(rm, rp)
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
    return tuple(float(x) for x in (beta_bar, eps1_bar, *bounds))
