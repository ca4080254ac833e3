"""Polytropic equation of state p(rho) = rho**gamma and derived quantities.

The formulas live once, as private methods of Eos (Eos._pressure and
so on).  Those are the unchecked array kernels the package's inner
loops call on densities that are already known to be valid.  The
module-level functions without the underscore are the public entry
points: they validate their density arguments and then call the
kernel.  All of them accept scalars or numpy arrays and are pure
functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_positive


@dataclass(frozen=True)
class Eos:
    """Polytropic pressure law with adiabatic exponent gamma >= 1.

    The internal energy is tied to the pressure by p(r) = r**2 * e'(r),
    which fixes e(rho) = (rho**(gamma-1) - 1)/(gamma-1) for gamma > 1 and
    e(rho) = log(rho) for gamma = 1.  The integration constant is chosen
    so that e(1) = 0 for every gamma, which makes e continuous as
    gamma -> 1+ and keeps the 1/(gamma-1) constant out of the result
    (any affine shift c*rho of rho*e cancels across the interface
    balances, so the choice is free).

    The private methods are the unchecked formulas: they assume
    positive, finite densities (and r != s where two are taken).  Use
    the module-level functions, which validate their input.
    """

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not np.isfinite(g) or g < 1.0:
            raise DomainError(f"adiabatic exponent must be a finite number >= 1, got {g}")

    def _pressure(self, rho):
        return rho ** self.gamma

    def _internal_energy(self, rho):
        g = self.gamma
        if g == 1.0:
            return np.log(rho)
        m = g - 1.0
        return np.expm1(m * np.log(rho)) / m

    def _p_dissipation(self, r, s):
        num = self._internal_energy(r) - self._internal_energy(s)
        return self._pressure(r) + self._pressure(s) - 2.0 * r * s * num / (r - s)

    def _two_shock_T(self, r, s):
        return (s - r) * (self._pressure(s) - self._pressure(r)) / (s * r)

    def _sound_speed(self, rho):
        g = self.gamma
        return np.sqrt(g) * rho ** (0.5 * (g - 1.0))

    def _rarefaction_integral(self, rho):
        g = self.gamma
        if g == 1.0:
            return np.log(rho)
        return 2.0 * np.sqrt(g) / (g - 1.0) * rho ** (0.5 * (g - 1.0))

    def _rarefaction_difference(self, rho_a, rho_b):
        g = self.gamma
        if g == 1.0:
            return np.log(rho_a) - np.log(rho_b)
        m = 0.5 * (g - 1.0)
        return (2.0 * np.sqrt(g) / (g - 1.0)
                * (np.expm1(m * np.log(rho_a)) - np.expm1(m * np.log(rho_b))))


def pressure(eos: Eos, rho):
    """
    Pressure p(rho) = rho**gamma.

    Parameters
    ----------
    eos : Eos
        The pressure law.
    rho : float or ndarray
        Density, > 0.

    Returns
    -------
    out : float or ndarray
        The pressure; strictly increasing in rho.
    """
    check_positive(rho)
    return eos._pressure(rho)


def internal_energy(eos: Eos, rho):
    """
    Specific internal energy e(rho) satisfying p(r) = r**2 * e'(r).

    Returns (rho**(gamma-1) - 1)/(gamma-1) for gamma > 1 and log(rho)
    for gamma = 1, so e(1) = 0.  The gamma > 1 branch is evaluated as
    expm1((gamma-1)*log(rho))/(gamma-1): subtracting the 1 after the
    power would wipe out the significand as gamma -> 1+.
    """
    check_positive(rho)
    return eos._internal_energy(rho)


def p_dissipation(eos: Eos, r, s):
    """
    Interface dissipation functional

        P(r, s) = p(r) + p(s) - 2*r*s*(e(r) - e(s))/(r - s).

    Symmetric in (r, s) and, in exact arithmetic, strictly positive for
    0 < r != s when gamma >= 1.  The diagonal r = s is a removable
    singularity that we do not evaluate.  Near it the float result
    cancels: P is O((r - s)**2) but formed from O(1) terms, so its
    relative error grows like 1e-16 * (s/(r - s))**2.  It is about
    1e-4 at |r - s|/s = 1e-6, and the result is 0.0, not positive, at
    1e-9 (ROADMAP item 1 gives P a Taylor form there).

    Parameters
    ----------
    eos : Eos
    r, s : float or ndarray
        Densities, > 0, r != s elementwise.

    Returns
    -------
    out : float or ndarray
    """
    check_positive(r, "r")
    check_positive(s, "s")
    if np.any(np.asarray(r) == np.asarray(s)):
        raise DomainError("p_dissipation requires r != s (diagonal not evaluated)")
    return eos._p_dissipation(r, s)


def two_shock_T(eos: Eos, r, s):
    """
    T(r, s) = (s - r)*(p(s) - p(r))/(s*r), symmetric in (r, s).

    For the two initial densities, sqrt(T) is the two-shock bound on
    the velocity gap; for an anchor density r, sqrt(T(r, s)) is the
    Hugoniot velocity jump to density s.
    """
    check_positive(r, "r")
    check_positive(s, "s")
    return eos._two_shock_T(r, s)


def sound_speed(eos: Eos, rho):
    """Sound speed c(rho) = sqrt(p'(rho)) = sqrt(gamma) * rho**((gamma-1)/2)."""
    check_positive(rho)
    return eos._sound_speed(rho)


def rarefaction_integral(eos: Eos, rho):
    """
    Antiderivative of c(s)/s, used by the rarefaction branches of the
    wave curves.

    For gamma > 1 this is (2*sqrt(gamma)/(gamma-1)) * rho**((gamma-1)/2),
    normalized to vanish as rho -> 0.  For gamma = 1 it is log(rho)
    (no finite normalization at 0 exists; the vacuum test accounts for
    the divergence).

    For differences of two of these values use rarefaction_difference:
    the 2/(gamma-1) prefactor grows without bound as gamma -> 1+, and
    subtracting two near-equal huge values wipes out the significand.
    """
    check_positive(rho)
    return eos._rarefaction_integral(rho)


def rarefaction_difference(eos: Eos, rho_a, rho_b):
    """
    rarefaction_integral(rho_a) - rarefaction_integral(rho_b), computed
    without the large-constant cancellation.

    Writing rho**m = 1 + expm1(m*log(rho)) with m = (gamma-1)/2 lets
    the two leading 1s cancel exactly, so the result stays accurate
    arbitrarily close to gamma = 1 (where the naive difference is
    quantized at the ulp of 2/(gamma-1)).
    """
    check_positive(rho_a, "rho_a")
    check_positive(rho_b, "rho_b")
    return eos._rarefaction_difference(rho_a, rho_b)
