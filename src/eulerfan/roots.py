"""Bracketed scalar root finding by Brent's method.

A line-for-line port of the zero finder of R. P. Brent, Algorithms for
Minimization without Derivatives (1973), ch. 4: inverse quadratic
interpolation or a secant step while it stays well inside the bracket,
bisection otherwise.  It stops within Brent's tolerance
2*macheps*|x| + t, here _XTOL + _RTOL*|x|, the default of
scipy.optimize.brentq: no caller chooses a tolerance.  It keeps the sign
change bracketed throughout and needs at most about (k + 1)**2 calls,
where k is the number of bisections that shrink the bracket to the
tolerance; that bound is the iteration cap.
"""

from __future__ import annotations

import math

from .errors import NumericalError

#: Absolute part of the convergence tolerance; it only matters for a
#: root at or next to zero.
_XTOL = 1e-300
#: Relative part: four float64 epsilons, so that the half-width test
#: delta = (_XTOL + _RTOL*|x|)/2 below is Brent's 2*macheps*|x| + t.
_RTOL = 4 * 2.0 ** -52


def _iteration_cap(a: float, b: float) -> int:
    """(k + 1)**2 for the k bisections that shrink [a, b] below the
    tolerance at its point nearest zero, the smallest it takes."""
    nearest = 0.0 if (a < 0.0) != (b < 0.0) else min(abs(a), abs(b))
    # log2 of the width, halved first so that it stays finite.
    width = math.log2(max(abs(0.5 * b - 0.5 * a), _XTOL)) + 1.0
    k = max(0, math.ceil(width - math.log2(_XTOL + _RTOL * nearest)))
    return (k + 1) ** 2


def brent(f, a: float, b: float) -> float:
    """
    Find a zero of f in the bracket [a, b].

    Parameters
    ----------
    f : callable float -> float
    a, b : float
        Bracket ends; f(a) and f(b) must differ in sign unless one of
        them is exactly zero, in which case that end is returned.

    Returns
    -------
    x : float
        Within _XTOL + _RTOL*|x| (1e-300 + 8.9e-16*|x|) of a sign
        change.  With the bracket, that tolerance sets the iterations
        allowed after the two end evaluations: Brent's bound (see the
        module docstring).

    Raises
    ------
    NumericalError
        If f(a) and f(b) have the same sign, f returns NaN, or the
        bracket is not resolved within Brent's bound.
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
    maxiter = _iteration_cap(a, b)

    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # A denominator that underflows to zero or is not finite gives
            # no interpolation step: bisect instead, as Brent does.
            stry = num / den if den != 0.0 and math.isfinite(den) else math.inf
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
