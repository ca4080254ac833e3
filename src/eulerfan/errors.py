"""Exception types shared across the package, and the density checks
shared by the eos, functionals, subsolution and classifier modules."""

import math
import sys

import numpy as np


class EulerFanError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EulerFanError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateDensityError(DomainError):
    """The two initial densities coincide, so the middle-density analysis
    is undefined (no one-shock-one-rarefaction configuration exists)."""


class VelocityGapError(DomainError):
    """The velocity gap is outside the regime where the two interface
    speeds are real and ordered (the discriminant is nonnegative)."""


class ConstraintError(EulerFanError):
    """A requested reconstruction violates one of the feasibility
    inequalities; the message names the violated condition."""


class NumericalError(EulerFanError, RuntimeError):
    """A numerical self-check failed (root bracketing, cross-check
    disagreement); the message carries diagnostics."""


def check_positive(rho, name="rho"):
    """Raise DomainError unless every entry of rho is positive and finite."""
    arr = np.asarray(rho)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite, got {rho}")


def check_density(eos, rho, name="rho"):
    """Raise DomainError unless every entry of rho is positive and finite
    and its pressure rho**gamma under the pressure law eos is a finite
    float."""
    if isinstance(rho, (int, float)):
        # The scalar path of check_positive, without its array round trip.
        if not (math.isfinite(rho) and rho > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {rho}")
        top = float(rho)
    else:
        check_positive(rho, name)
        # The pressure increases with rho, so the largest entry decides.
        top = float(np.max(rho))
    # A Python float power raises OverflowError where numpy gives inf.
    try:
        finite = math.isfinite(eos._pressure(top))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"{name} = {rho} has no finite pressure "
                          f"{name}**gamma at gamma = {eos.gamma}")


def check_density_pair(r, s, names=("r", "s")):
    """Raise DomainError unless every product r*s of two densities is a
    positive normal float.  The formulas of a density pair divide by
    r*s (eos.two_shock_T); a product that underflows to 0 or to a
    subnormal, or overflows, leaves them with no float meaning."""
    if isinstance(r, (int, float)) and isinstance(s, (int, float)):
        normal = sys.float_info.min <= r * s <= sys.float_info.max
    else:
        with np.errstate(over="ignore", under="ignore"):
            product = np.multiply(r, s)
        normal = bool(np.all((product >= sys.float_info.min)
                             & (product <= sys.float_info.max)))
    if not normal:
        rn, sn = names
        raise DomainError(f"densities {rn} = {r} and {sn} = {s} have no positive "
                          f"normal float product {rn}*{sn}")


def check_dissipation_range(eos, r, s):
    """Raise DomainError unless the dissipation terms of the densities r
    and s stay in the float range.  P(r, s) forms 2*r*s*(e(r) - e(s)),
    at most 2*far*max(far, p(far)) in size, far the largest density; r
    and s must already pass check_density."""
    if isinstance(r, (int, float)) and isinstance(s, (int, float)):
        far = max(r, s)
    else:
        far = float(max(np.max(r), np.max(s)))
    if not 2.0 * far * max(far, eos._pressure(far)) <= sys.float_info.max:
        raise DomainError(f"densities {r} and {s} exceed the float range of P(r, s)")
