"""Riemann data and the scalar functionals of the initial data.

The middle-density analysis works with a handful of scalars built from
the two initial states; they are collected in DataFunctionals so each
formula is written down exactly once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .eos import Eos
from .errors import DomainError, check_density, check_density_pair


@dataclass(frozen=True)
class RiemannData:
    """Piecewise-constant initial data split by the x2 = 0 line.

    v_minus and v_plus are the full velocity pairs (first and second
    components).  The subsolution analysis additionally requires the
    first components to agree; that is enforced by the operations that
    need it, not here, so the classifier accepts general data.  The
    densities must have a positive normal float product
    (errors.check_density_pair).
    """

    rho_minus: float
    rho_plus: float
    v_minus: tuple
    v_plus: tuple
    eos: Eos

    def __post_init__(self):
        for name in ("rho_minus", "rho_plus"):
            check_density(self.eos, getattr(self, name), name)
        for name, rho_name in (("v_minus", "rho_minus"), ("v_plus", "rho_plus")):
            vec = getattr(self, name)
            if len(vec) != 2 or not all(math.isfinite(c) for c in vec):
                raise DomainError(f"{name} must be a finite velocity pair, got {vec}")
            # The analysis forms rho*v1**2 and rho*v2**2; c*c is inf where
            # the Python float power c**2 raises OverflowError.
            rho = getattr(self, rho_name)
            for i, c in enumerate(vec, 1):
                if not math.isfinite(rho * (c * c)):
                    raise DomainError(f"{name} = {vec} has no finite momentum flux "
                                      f"{rho_name}*{name}{i}**2 with {rho_name} = {rho}")
        check_density_pair(self.rho_minus, self.rho_plus, ("rho_minus", "rho_plus"))

    @functools.cached_property
    def functionals(self) -> DataFunctionals:
        """data_functionals of this datum, formed on first use and kept:
        the datum is frozen, so every kernel call that evaluates it
        shares one DataFunctionals."""
        return data_functionals(self)

    @property
    def gap(self) -> float:
        """Velocity gap w = v_minus2 - v_plus2."""
        return self.v_minus[1] - self.v_plus[1]


@dataclass(frozen=True)
class DataFunctionals:
    """Scalar functions of the initial data.

    R, A, H, u, B and T are always populated.  K, L and rho_tilde exist
    only on the branch B < 0 with distinct densities; rho_T (the density
    at which the sign of the middle-state interface velocity difference
    flips) needs distinct densities as well.  Unavailable fields are
    None.

    A and H are taken in the frame v_plus2 = 0, where the upstream state
    moves at the gap w; every other field is the same in every frame
    moving along x2.
    """

    R: float
    A: float
    H: float
    u: float
    B: float
    T: float
    K: float | None
    L: float | None
    rho_T: float | None
    rho_tilde: float | None

    @property
    def sqrt_T(self) -> float:
        return math.sqrt(self.T)


def data_functionals(data: RiemannData) -> DataFunctionals:
    """
    Evaluate all scalar functionals of the Riemann data.

    Returns
    -------
    out : DataFunctionals
        With the gap w = v-2 - v+2: R = rho- - rho+, and in the frame
        v+2 = 0, A = rho-*w and H = rho-*w**2 + p(rho-) - p(rho+); then
        u = -w, B = A**2 - R*H = rho-*rho+*w**2 - R*(p(rho-) - p(rho+)),
        T = two_shock_T(rho-, rho+), the square of the two-shock
        bound on the gap,
        and, when available, the branch scalars K, L, the sign-flip
        density rho_T and the density rho_tilde where the K/L square-root
        expression inside the slack formula vanishes.
    """
    rm, rp, w, eos = data.rho_minus, data.rho_plus, data.gap, data.eos

    # A boost along x2 leaves B unchanged; in the user's frame its terms
    # grow like rho*v2**2 and cancel to the small B.
    R = rm - rp
    A = rm * w
    # Squares are products: Python's x ** 2 calls libm pow, which is not
    # correctly rounded for every x on every platform.
    H = rm * (w * w) + eos._pressure(rm) - eos._pressure(rp)
    u = -w
    B = A * A - R * H
    T = eos._two_shock_T(rm, rp)

    # The branch scalars are invariant under the reflection x2 -> -x2
    # that swaps the states, so they are written once in the near
    # (smaller) and far (larger) density.
    K = L = rho_T = rho_tilde = None
    if R != 0.0:
        near, far = min(rm, rp), max(rm, rp)
        denom = near * u * u + far * (T - u * u)
        if denom > 0.0:
            rho_T = rm * rp * T / denom
        if B < 0.0:
            K = near * u / (near - far)
            L = math.sqrt(-B) / (far - near)
            rho_tilde = (K * K * far + L * L * near) / (K * K + L * L)

    return DataFunctionals(R=R, A=A, H=H, u=u, B=B, T=T,
                           K=K, L=L, rho_T=rho_T, rho_tilde=rho_tilde)
