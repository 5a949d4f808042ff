"""The package's root finders: Brent's bracketing method for scalar roots, and
the one Newton loop every band-factored system is solved by.

`brentq` is a statement-for-statement port of scipy's ``Zeros/brentq.c``
(Brent 1973, ch. 4), so roots agree bitwise with ``scipy.optimize.brentq`` for
the same function, bracket and tolerances, without importing
``scipy.optimize`` (about a third of a second of start-up) for one routine.  Failures are typed: no sign
change raises NoRootError, an exhausted iteration budget NonConvergenceError.

`newton` drives the fixed-R strip solve, the pseudo-arclength corrector and
the Lyapunov-Schmidt complement, and `solve_bordered` is the bordered linear
solve of the last two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonConvergenceError,
    NoRootError,
    NumericalError,
    StagnationBreachError,
    StalledError,
)

__all__ = ["brentq", "newton", "NewtonInfo", "solve_bordered", "CONTRACTION"]

_RTOL_MIN = 4.0 * sys.float_info.epsilon

# a Newton-type step that does not shrink the residual sup-norm below this
# fraction of the last one has stopped contracting (Deuflhard 2004, ch. 2 and
# 5): a damped solve then refactors, an undamped one gives up
CONTRACTION = 0.5


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


@dataclass
class NewtonInfo:
    """What newton did: its factorizations of the Jacobian (one per Newton
    iterate, or one for the polish of a start that had already converged),
    the chord steps it kept (between damped iterates and in the polish), the
    final residual sup-norm and the residual vector at the returned x."""

    iterations: int
    residual_sup: float
    chord_steps: int = 0
    residual: np.ndarray | None = field(default=None, repr=False, compare=False)


def newton(x, evaluate, linearize, max_iter: int, damped: bool = False):
    """Newton's method from the state vector x; returns (x, NewtonInfo).

    evaluate(x) returns (r, sup, done): the residual, its sup-norm and whether
    x has converged; it raises StagnationBreachError where h_p > 0 fails.
    linearize(x) factors the Jacobian at x once and returns the Newton step
    for a residual, r -> -J^{-1} r.  Each Newton iterate takes one fresh
    factor, and a solve that needs more than max_iter of them raises
    NonConvergenceError.

    damped=True (the fixed-R solve): an iterate backtracks over the step
    lengths 1, 1/2, ..., 2^-20 and keeps the first trial that converges or
    lowers sup; a trial that breaches h_p > 0 is rejected, and StalledError
    is raised when no length is kept.  Between iterates, chord steps reuse the
    last factor: one is kept while it converges or at least halves sup
    (CONTRACTION), and counted in `chord_steps`; the first that does neither
    is thrown away and the next iterate refactors.

    damped=False (the bordered corrector and the complement): full steps, and
    a breach propagates.  From the third iterate on, a sup that is not
    converged and above CONTRACTION times the last one raises
    NonConvergenceError: the iteration has stopped contracting.

    Both: once converged, a sup above 1e-14 is polished to the rounding floor
    by chord steps on the last iterate's factor (Deuflhard 2004, ch. 2).  Each
    trial that lowers sup is kept and counted in `chord_steps`; the polish
    goes on while each kept trial at least halves sup and sup stays above
    1e-14, and a trial that lowers nothing or breaches is thrown away and
    ends it.  Only a start that has already converged takes a fresh factor
    for its polish; that factor is counted in `iterations` as well, so
    `iterations` is the number of factorizations.
    """

    def attempt(x_try):
        """(x_try, *evaluate(x_try)), or None on a stagnation breach."""
        try:
            return (x_try, *evaluate(x_try))
        except StagnationBreachError:
            return None

    r, sup, done = evaluate(x)
    info = NewtonInfo(iterations=0, residual_sup=sup)
    step = None  # the Newton step on the last iterate's factor
    while not done:
        if damped and step is not None:
            trial = attempt(x + step(r))
            if trial is not None and (trial[3] or trial[2] <= CONTRACTION * sup):
                x, r, sup, done = trial
                info.chord_steps += 1
                continue
        if info.iterations == max_iter:
            raise NonConvergenceError(
                f"Newton did not converge in {max_iter} iterations (residual {sup:.3e})"
            )
        step = linearize(x)
        dx = step(r)
        if damped:
            for k in range(21):  # step lengths 1, 1/2, ..., 2^-20
                trial = attempt(x + 0.5**k * dx)
                if trial is not None and (trial[3] or trial[2] < sup):
                    break
            else:
                raise StalledError(
                    f"Newton damping underflowed below 2^-20 at residual {sup:.3e}"
                )
        else:
            x_new = x + dx
            trial = (x_new, *evaluate(x_new))
            if info.iterations >= 1 and not trial[3] and trial[2] > CONTRACTION * sup:
                raise NonConvergenceError(
                    f"Newton stopped contracting at iterate {info.iterations + 1}: "
                    f"residual {trial[2]:.3e} > {CONTRACTION} x {sup:.3e}"
                )
        x, r, sup, done = trial
        info.iterations += 1

    while sup > 1e-14:
        if step is None:  # converged at entry: no factor yet
            step = linearize(x)
            info.iterations += 1
        trial = attempt(x + step(r))
        if trial is None or trial[2] >= sup:
            break
        last = sup
        x, r, sup, done = trial
        info.chord_steps += 1
        if sup > CONTRACTION * last:
            break
    info.residual_sup = sup
    info.residual = r
    return x, info


def solve_bordered(J, F_lam, w_tan_x, tan_lam, rhs_top, rhs_bot):
    """Solve [[J, F_lam], [w_tan_x^T, tan_lam]] [dx; dlam] = [rhs_top; rhs_bot].

    J is the BandLU factor of the Jacobian.  Block elimination: J [u v] =
    [rhs_top F_lam], dlam = (rhs_bot - w.u) / (tan_lam - w.v), dx = u - dlam v,
    then one step of iterative refinement on the full bordered system, because
    J is nearly singular at a fold while the bordered matrix is not (Keller
    1977; Govaerts 2000, ch. 3).
    """
    uv = J.solve(np.column_stack([rhs_top, F_lam]))
    v = uv[:, 1]
    schur = tan_lam - w_tan_x @ v

    def eliminate(bot, u):
        dlam = (bot - w_tan_x @ u) / schur
        return u - dlam * v, dlam

    dx, dlam = eliminate(rhs_bot, uv[:, 0])
    r_top = rhs_top - J.matrix @ dx - dlam * F_lam
    r_bot = rhs_bot - w_tan_x @ dx - tan_lam * dlam
    ex, elam = eliminate(r_bot, J.solve(r_top))
    return dx + ex, float(dlam + elam)
