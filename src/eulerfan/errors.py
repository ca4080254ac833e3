"""Exception types shared across the package, and check_positive, the
density check shared by the eos and classifier modules."""

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
