"""Helpers shared by the tests of the window kernel and its callers."""

import dataclasses
import math

import numpy as np

from eulerfan import FanSubsolution, NumericalError, eps2_window
from eulerfan.subsolution import (CONTINUITY_TOL, CROSS_CHECK_TOL, WindowGrid,
                                  _require_subsolution_data, middle_nodes, window_grid)


def window_row(data, nodes):
    """window_grid of one datum on the middle densities `nodes`, with
    their node stage built by middle_nodes; raises the datum's error."""
    return window_grid(data, middle_nodes(data, nodes))


def unchecked_subsolution(data, rho_1, eps_2):
    """The subsolution of reconstruct at (rho_1, eps_2) without its slack
    and energy checks, built from the defining identities of
    FanSubsolution: C from eps_2, gamma_1 from eps_1 and gamma_2 =
    alpha*beta, with alpha the datum's common first velocity component.
    It lets a test feed the verifier invalid subsolutions."""
    w = eps2_window(data, rho_1)
    alpha, beta, eps_1 = data.v_plus[0], w.beta, w.eps_1
    C = alpha ** 2 + beta ** 2 + eps_1 + eps_2
    return FanSubsolution(
        nu_minus=w.nu_minus, nu_plus=w.nu_plus, rho_1=float(rho_1), alpha=float(alpha),
        beta=beta, gamma_1=C / 2.0 - beta ** 2 - eps_1, gamma_2=float(alpha) * beta,
        C=C, eps_1=eps_1, eps_2=float(eps_2))


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, NumpyCallCounter) else x


class NumpyCallCounter(np.ndarray):
    """An ndarray that counts the numpy calls it takes part in, in the
    class attribute calls: every ufunc call, reductions included, and
    every array function.  The class attribute allocations counts the
    calls among them that allocate their result: ufunc calls without
    out=, reductions excluded.  Array results are counters again, so a
    kernel call on counted node terms counts each numpy call it makes
    once."""

    calls = 0
    allocations = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        NumpyCallCounter.calls += 1
        out = kwargs.get("out")
        if method == "__call__" and out is None:
            NumpyCallCounter.allocations += 1
        if out is not None:
            kwargs["out"] = tuple(map(_plain, out))
        if "where" in kwargs:
            kwargs["where"] = _plain(kwargs["where"])
        result = getattr(ufunc, method)(*map(_plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(NumpyCallCounter) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        NumpyCallCounter.calls += 1
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(NumpyCallCounter) if isinstance(result, np.ndarray) else result


def counted_nodes(nodes):
    """nodes with every array a NumpyCallCounter view of its own."""
    return dataclasses.replace(nodes, **{
        field.name: getattr(nodes, field.name).view(NumpyCallCounter)
        for field in dataclasses.fields(nodes)
        if isinstance(getattr(nodes, field.name), np.ndarray)})


def _check_residual(diff, scale, tol, message):
    rel = diff / scale
    if not rel.max() <= tol:
        raise NumericalError(message(rel.max(), rel.argmax()))


def reference_window_grid(data, n):
    """window_grid's row stage as plain allocating expressions, each
    formula in its own order, and its self-checks on their full relative
    residuals: the oracle that window_grid must match bit for bit, its
    errors included.  n is the datum's MiddleNodes.  Like window_grid it
    computes in the frame where the near state moves at the gap and the
    far state rests, and maps back to the user's frame at the end."""
    rm, rp, vm2, vp2 = data.rho_minus, data.rho_plus, data.v_minus[1], data.v_plus[1]
    f = _require_subsolution_data(data)[0]
    flip = rm > rp
    near, far = (rp, rm) if flip else (rm, rp)
    w = data.gap
    A, sqrt_nB, K, L = near * w, math.sqrt(-f.B), f.K, f.L
    rho_1 = n.rho_1
    A_R, nB_R = A / (near - far), sqrt_nB / (near - far)
    nu_near = A_R + nB_R * n.sqrt_far_near
    nu_far = A_R - nB_R * n.sqrt_near_far
    beta = (sqrt_nB / n.R_rho) * n.sqrt_product - n.d_far * A / n.R_rho
    eps_1 = n.pressure_term - n.far_ratio * (L * n.sqrt_near - K * n.sqrt_far) ** 2
    eps_1_alt = n.pressure_term - n.far_weight * nu_far ** 2

    _check_residual(np.abs(eps_1 - eps_1_alt), np.maximum(1.0, np.abs(eps_1)), CROSS_CHECK_TOL,
                    lambda worst, i: "first-slack cross-check failed: square-root form and "
                    f"interface-speed form disagree by {worst:.3e} (relative) at "
                    f"rho_1 = {rho_1[i]}")
    sides = ("right", "left") if flip else ("left", "right")
    for name, nu, d, mom in zip(sides, (nu_near, nu_far), (n.d_near, n.d_far), (A, 0.0)):
        lhs, lhs_mom = nu * d, mom - rho_1 * beta
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(lhs_mom)))
        _check_residual(np.abs(lhs - lhs_mom), scale, CONTINUITY_TOL,
                        lambda worst, i: f"{name} continuity self-check failed: residual "
                        f"{worst:.3e} at rho_1 = {rho_1[i]}")
    if (nu_near >= nu_far).any():
        raise NumericalError("interface speed ordering violated on the grid at "
                             f"rho_1 = {rho_1[np.argmax(nu_near - nu_far)]}")

    # c boosts the kernel's frame to the user's, in the kernel's
    # orientation; v_far2 is the far state's velocity in the user's frame.
    v_far2 = vm2 if flip else vp2
    c = -v_far2 if flip else v_far2
    coefficients = []
    for r_rho, d, v2, boost, mid2, P in ((n.near_rho, n.d_near, w, c, beta, n.P_near),
                                         (n.far_rho, n.d_far, 0.0, -c, -beta, n.P_far)):
        a = r_rho * (mid2 - v2) / d
        b = ((v2 + 2.0 * boost) + mid2) * (eps_1 * rho_1) - eps_1 * a - (mid2 - v2) * P
        coefficients.append((a, b))
    (a_left, b_left), (a_right, b_right) = coefficients[::-1] if flip else coefficients
    nu_minus, nu_plus = (v_far2 - nu_far, v_far2 - nu_near) if flip else (nu_near + c, nu_far + c)
    beta = v_far2 - beta if flip else beta + c

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
                      lower=lower, upper=upper, feasible=feasible)
