"""Lowest eigenvalue nu0 of the one-dimensional Robin problem on (0, d):

    -v'' - omega'(U(Y)) v = nu v,   v(0) = 0,   v'(d) = rho0 v(d),

where U is the velocity profile of the uniform stream with parameter theta
and rho0 the surface Robin coefficient.  nu0 marks the edge of the continuous
spectrum of the linearized strip operator and is consumed by the branch
monitor.  U(Y) is the inverse of the cumulative moment Y = M_1(U) of
`stream.moments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError, SurfaceStagnationError
from .stream import moments
from .strip import _flapack
from .vorticity import VorticitySpec, eval_Omega, eval_omega, eval_omega_prime

__all__ = ["RobinEigenProblem", "rho0_of_stream", "robin_problem", "nu0", "nu0_eigenpair"]

_N_COARSE = 65  # nodes of the M_1 profile that starts the Newton inversion
_NEWTON_TOL, _NEWTON_MAX = 1e-12, 20


@dataclass(frozen=True)
class RobinEigenProblem:
    """Discretized Robin problem: Y-grid on [0, d], potential omega'(U(Y_j)), rho0.

    qprime_surface is d/dY of the potential at Y = d, used by the corrected
    ghost-node surface row.
    """

    rho0: float
    y: np.ndarray
    potential: np.ndarray
    qprime_surface: float


def rho0_of_stream(spec: VorticitySpec, theta: float) -> float:
    """Robin coefficient (1 + U_Y U_YY) / U_Y^2 at the surface Y = d.

    Uses U_Y(d) = sqrt(theta^2 - 2*Omega(1)) and U_YY(d) = -omega(1), both exact
    consequences of the stream ODE U'' + omega(U) = 0.
    """
    uy2 = theta * theta - 2.0 * eval_Omega(spec, 1.0)
    if uy2 <= 0.0:
        raise SurfaceStagnationError(f"theta^2 - 2*Omega(1) = {uy2} <= 0")
    return (1.0 - np.sqrt(uy2) * eval_omega(spec, 1.0)) / uy2


def _velocity_profile(spec: VorticitySpec, theta: float, grid_n: int):
    """Uniform grid Y_j = j d / grid_n and U(Y_j), with U(0) = 0 and U(d) = 1
    exactly: M_1(U) = Y solved at the interior nodes by Newton's method
    (dY/dU = (theta^2 - 2*Omega(U))^(-1/2)), started by linear interpolation
    in a coarse M_1 profile."""
    p = np.linspace(0.0, 1.0, _N_COARSE)
    Y = moments(spec, theta, p, (1,))[0]
    y = np.linspace(0.0, Y[-1], grid_n + 1)
    U = np.interp(y, Y, p)
    U[-1] = 1.0
    for _ in range(_NEWTON_MAX):
        s = theta * theta - 2.0 * eval_Omega(spec, U[1:-1])
        step = (moments(spec, theta, U, (1,))[0, 1:-1] - y[1:-1]) * np.sqrt(s)
        U[1:-1] = np.clip(U[1:-1] - step, 0.0, 1.0)
        if np.abs(step).max() <= _NEWTON_TOL:
            return y, U
    raise NumericalError(
        f"inversion of Y = M_1(U) not converged in {_NEWTON_MAX} Newton steps "
        f"(last step {np.abs(step).max():.3e})"
    )


def robin_problem(spec: VorticitySpec, theta: float, grid_n: int = 1024) -> RobinEigenProblem:
    """Build the discrete problem of the stream theta on grid_n + 1 Y-nodes."""
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    y, U = _velocity_profile(spec, theta, grid_n)
    # d/dY omega'(U) at the surface: omega''(1) * U_Y(d), with U_Y(d) exact
    cs2 = npoly.polyder(np.asarray(spec.coeffs, dtype=float), 2) if len(spec.coeffs) > 2 else [0.0]
    uy_d = np.sqrt(theta**2 - 2.0 * eval_Omega(spec, 1.0))
    return RobinEigenProblem(
        rho0=rho0_of_stream(spec, theta),
        y=y,
        potential=eval_omega_prime(spec, U),
        qprime_surface=float(npoly.polyval(1.0, cs2)) * uy_d,
    )


def _tridiagonal(problem: RobinEigenProblem):
    """Symmetrized tridiagonal (diag, off) for the ghost-node discretization.

    The surface row eliminates the ghost node with the Robin condition plus the
    ODE-based third-derivative correction v''' = -(nu + q)rho0*v - q'*v, which
    pushes the boundary contribution to the eigenvalue error to O(dy^3).  The
    result is a generalized problem A v = nu M v with
    M = diag(1, ..., 1, (1 - dy*rho0/3)/2); the similarity transform by
    M^(-1/2) keeps the matrix symmetric tridiagonal.  Overall accuracy stays
    second order (interior dispersion).
    """
    r0 = problem.rho0
    n = problem.y.size - 1
    dy = problem.y[1] - problem.y[0]
    q = problem.potential
    if abs(r0) * dy <= 0.1:
        m_n = 0.5 * (1.0 - dy * r0 / 3.0)
        a_nn = (1.0 - dy * r0) / dy**2 + 0.5 * (
            q[n] * (dy * r0 / 3.0 - 1.0) + (dy / 3.0) * problem.qprime_surface
        )
    else:
        # the third-derivative correction is only valid for |rho0| dy << 1;
        # extreme Robin coefficients (Dirichlet penalty) use the plain ghost row
        m_n = 0.5
        a_nn = (1.0 - dy * r0) / dy**2 - 0.5 * q[n]
    diag = np.empty(n)
    diag[:-1] = 2.0 / dy**2 - q[1:n]
    diag[-1] = a_nn / m_n
    off = np.full(n - 1, -1.0 / dy**2)
    off[-1] = -1.0 / (dy**2 * np.sqrt(m_n))
    return diag, off, m_n


def nu0(problem: RobinEigenProblem) -> float:
    """Smallest eigenvalue of the discrete Robin problem."""
    return nu0_eigenpair(problem)[0]


def nu0_eigenpair(problem: RobinEigenProblem) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and its eigenfunction samples v(Y_j), j = 0..grid_n.

    LAPACK's selected-eigenvalue path on the symmetrized tridiagonal matrix,
    the one scipy's eigh_tridiagonal takes for select="i": dstebz (bisection,
    index 1 to 1, tolerance 0, block order), then dstein (inverse iteration).
    Non-finite matrix entries and any nonzero LAPACK info raise NumericalError.
    """
    diag, off, m_n = _tridiagonal(problem)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalError("non-finite entry in the tridiagonal Robin matrix")
    m, w, iblock, isplit, info = _flapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise NumericalError(f"LAPACK dstebz failed (info {info})")
    vecs, info = _flapack.dstein(diag, off, w[:m], iblock, isplit)
    if info != 0:
        raise NumericalError(f"LAPACK dstein failed (info {info})")
    v = np.concatenate([[0.0], vecs[:, 0]])
    v[-1] /= np.sqrt(m_n)  # undo the M^(-1/2) scaling of the surface node
    if v[1] < 0:
        v = -v
    return float(w[0]), v
