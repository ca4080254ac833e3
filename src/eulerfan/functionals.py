"""Riemann data and the scalar functionals of the initial data.

The middle-density analysis works with a handful of scalars built from
the two initial states; they are collected in DataFunctionals so each
formula is written down exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eos import Eos
from .errors import DomainError


@dataclass(frozen=True)
class RiemannData:
    """Piecewise-constant initial data split by the x2 = 0 line.

    v_minus and v_plus are the full velocity pairs (first and second
    components).  The subsolution analysis additionally requires the
    first components to agree; that is enforced by the operations that
    need it, not here, so the classifier accepts general data.
    """

    rho_minus: float
    rho_plus: float
    v_minus: tuple
    v_plus: tuple
    eos: Eos

    def __post_init__(self):
        for name in ("rho_minus", "rho_plus"):
            val = getattr(self, name)
            if not math.isfinite(val) or val <= 0.0:
                raise DomainError(f"{name} must be positive and finite, got {val}")
        for name in ("v_minus", "v_plus"):
            vec = getattr(self, name)
            if len(vec) != 2 or not all(math.isfinite(c) for c in vec):
                raise DomainError(f"{name} must be a finite velocity pair, got {vec}")

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
        R = rho- - rho+, A = rho-*v-2 - rho+*v+2,
        H = rho-*v-2**2 - rho+*v+2**2 + p(rho-) - p(rho+),
        u = v+2 - v-2, B = A**2 - R*H,
        T = two_shock_T(rho-, rho+), the square of the two-shock
        bound on the gap,
        and, when available, the branch scalars K, L, the sign-flip
        density rho_T and the density rho_tilde where the K/L square-root
        expression inside the slack formula vanishes.
    """
    rm, rp = data.rho_minus, data.rho_plus
    vm2, vp2 = data.v_minus[1], data.v_plus[1]
    eos = data.eos

    R = rm - rp
    A = rm * vm2 - rp * vp2
    H = rm * vm2 ** 2 - rp * vp2 ** 2 + eos._pressure(rm) - eos._pressure(rp)
    u = vp2 - vm2
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
