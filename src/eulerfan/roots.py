"""Bracketed scalar root finding by Brent's method.

A line-for-line port of the zero finder of R. P. Brent, Algorithms for
Minimization without Derivatives (1973), ch. 4: inverse quadratic
interpolation or a secant step while it stays well inside the bracket,
bisection otherwise.  It keeps the sign change bracketed throughout and
needs at most about (log2 of the bracket/tolerance ratio)**2 calls.
"""

from __future__ import annotations

import math

from .errors import NumericalError

#: Absolute part of the convergence tolerance; it only matters for a
#: root at or next to zero.
_XTOL = 1e-300


def brent(f, a: float, b: float, *, rtol: float, maxiter: int = 100) -> float:
    """
    Find a zero of f in the bracket [a, b].

    Parameters
    ----------
    f : callable float -> float
    a, b : float
        Bracket ends; f(a) and f(b) must differ in sign unless one of
        them is exactly zero, in which case that end is returned.
    rtol : float
        The returned x is within 1e-300 + rtol*|x| of a sign change.
    maxiter : int
        Iterations allowed after the two end evaluations.

    Raises
    ------
    NumericalError
        If f(a) and f(b) have the same sign, f returns NaN, or the
        bracket is not resolved within maxiter iterations.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"root solve: function value at x = {x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(
            f"root solve: no sign change on [{a}, {b}] (f = {fpre}, {fcur})")
    xblk = fblk = spre = scur = 0.0

    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)

    raise NumericalError(
        f"root solve: not converged after {maxiter} iterations, last x = {xcur}")
