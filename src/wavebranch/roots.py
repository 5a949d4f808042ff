"""Brent's bracketing root finder, the one scalar root finder of the package.

A statement-for-statement port of scipy's ``Zeros/brentq.c`` (Brent 1973,
ch. 4), so roots agree bitwise with ``scipy.optimize.brentq`` for the same
function, bracket and tolerances, without importing ``scipy.optimize`` (about
a third of a second of start-up) for one routine.  Failures are typed: no sign
change raises NoRootError, an exhausted iteration budget NonConvergenceError.
"""

from __future__ import annotations

import math
import sys

from .errors import NonConvergenceError, NoRootError, NumericalError

__all__ = ["brentq"]

_RTOL_MIN = 4.0 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL_MIN,
           maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Returns x with the bracket narrowed below xtol + rtol*|x|, or an endpoint
    or iterate where f is exactly zero.  xtol must be positive and rtol at
    least four machine epsilons, scipy's floor.
    """

    def fx(x: float) -> float:
        v = float(f(x))
        if v != v:
            raise NumericalError(f"f({x}) is NaN; Brent's method cannot continue")
        return v

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise NoRootError(f"f({xpre}) = {fpre} and f({xcur}) = {fcur} have one sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise NonConvergenceError(f"Brent's method did not converge in {maxiter} iterations")


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0
