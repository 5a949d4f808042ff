"""Uniform-stream family: depth, Bernoulli constant, Froude number, flow force.

A stream is parameterized by theta = U'(0) > theta0.  Its height profile in
hodograph variables is H(p; theta) = int_0^p (theta^2 - 2*Omega(tau))^(-1/2) dtau,
the depth is d = H(1), and

    R(theta) = theta^2/2 + d(theta) - Omega(1)
    1/F^2    = int_0^1 H_p^3 dp
    S(theta) = int_0^d (U_Y^2/2 - Omega(U) + Omega(1) - Y + R) dY

Every one of these is a cumulative moment M_k(p) = int_0^p s^(-k/2) dtau of
s = theta^2 - 2*Omega(tau), computed by the one kernel `moments`:
H = M_1, d = M_1(1), d'(theta) = -theta*M_3(1), 1/F^2 = M_3(1), and, since
R = theta^2/2 + d - Omega(1) turns the flow-force integrand into
sqrt(s) + d/sqrt(s) (with int_0^1 H H_p dp = d^2/2),

    S = M_{-1}(1) + d^2/2.

The kernel integrates each cell between consecutive nodes, split at the
interior critical points of Omega, by Gauss-Legendre of orders 10 and 20, and
keeps the order-20 value.  A cell on which the two orders differ by more than
max(epsabs, epsrel*|value|) (epsabs 1e-14, epsrel 1e-12) holds a near-singular
integrand, theta close to theta0; it is bisected, all such cells at once,
until the same test holds on every piece.  The endpoint-singular depth at
theta0 itself uses the same adaptive rule after a substitution.  Roots of
R(theta) come from Brent's method (`roots.brentq`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BelowCriticalError,
    NoRootError,
    QuadratureError,
    SingularIntegrandError,
    UnboundedSearchError,
)
from .roots import brentq
from .vorticity import (
    VorticitySpec,
    eval_Omega,
    max_Omega,
    omega_critical_points,
    sorted_unique,
    theta0,
)

__all__ = [
    "StreamSolution",
    "DispersionSummary",
    "depth",
    "depth_prime",
    "R_of_theta",
    "R_prime_of_theta",
    "froude_of_theta",
    "flow_force_of_theta",
    "moments",
    "stream_profile",
    "stream_at",
    "dispersion_summary",
    "solve_theta_for_R",
    "flow_force_of_R",
    "check_flow_force_identity",
]

_EPSABS, _EPSREL = 1e-14, 1e-12
_MAX_DEPTH = 200
# pieces one bisection level may hold: 2^17 pieces of 30 nodes are 31 MB of
# doubles per array; the test suite's deepest case peaks at about 17,000
_MAX_PIECES = 1 << 17
_GAUSS_LO, _GAUSS_HI = (np.polynomial.legendre.leggauss(n) for n in (10, 20))
_GAUSS_X = np.concatenate([_GAUSS_LO[0], _GAUSS_HI[0]])
_N_LO = _GAUSS_LO[0].size


@dataclass(frozen=True)
class StreamSolution:
    """One uniform stream: parameter, depth, Bernoulli constant, Froude number,
    flow force, and a sampled height profile H(p_j) on a uniform p-grid."""

    theta: float
    depth: float
    R: float
    froude: float
    flow_force: float
    p: np.ndarray
    profile: np.ndarray


@dataclass(frozen=True)
class DispersionSummary:
    """Critical stream data: argmin theta_c of R(theta), R_c, and R_0 = R(theta0)
    (math.inf when the depth integral at theta0 diverges)."""

    theta_c: float
    R_c: float
    R_0: float
    theta_0: float


def _s(spec: VorticitySpec, theta: float, tau: np.ndarray) -> np.ndarray:
    """theta^2 - 2*Omega(tau), which must be positive: theta > theta0."""
    s = theta * theta - 2.0 * eval_Omega(spec, tau)
    if (s <= 0.0).any():
        raise SingularIntegrandError(
            f"theta^2 - 2*Omega <= 0 at theta={theta}; need theta > theta0"
        )
    return s


def _gauss_pair(f, a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre values of order 20 on the cells [a_i, b_i] (last axis),
    and whether the order-10 values agree with them to max(epsabs,
    epsrel*|value|).  f maps the (cells, 30) array of nodes to its values."""
    half = 0.5 * (b - a)
    v = f((a + half)[:, None] + half[:, None] * _GAUSS_X)
    lo = half * (v[..., :_N_LO] @ _GAUSS_LO[1])
    hi = half * (v[..., _N_LO:] @ _GAUSS_HI[1])
    return hi, np.abs(hi - lo) <= np.maximum(_EPSABS, _EPSREL * np.abs(hi))


def _adaptive(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals over the cells [a_i, b_i] by bisection: every piece on which
    the Gauss pair disagrees is halved, all pieces of a level in one call of
    f(x, i), which evaluates on row j of x the integrand of cell i[j].  A piece
    still undecided after _MAX_DEPTH levels, or a level of more than
    _MAX_PIECES pieces, raises QuadratureError."""
    out = np.zeros(a.size)
    idx = np.arange(a.size)
    for _ in range(_MAX_DEPTH):
        if idx.size > _MAX_PIECES:
            break
        val, ok = _gauss_pair(lambda x: f(x, idx), a, b)
        np.add.at(out, idx[ok], val[ok])
        if ok.all():
            return out
        a, b, idx = a[~ok], b[~ok], idx[~ok]
        mid = 0.5 * (a + b)
        a, b, idx = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(idx, 2)
    raise QuadratureError(
        f"{idx.size} pieces still unresolved (at most {_MAX_DEPTH} bisections and "
        f"{_MAX_PIECES} pieces per level), the narrowest {(b - a).min():.3e} wide"
    )


def _require_above_theta0(spec: VorticitySpec, theta: float) -> float:
    t0 = theta0(spec)
    if theta <= t0:
        raise SingularIntegrandError(f"theta={theta} <= theta0={t0}")
    return t0


def moments(spec: VorticitySpec, theta: float, p, powers) -> np.ndarray:
    """Cumulative moments M_k(p_j) = int_0^{p_j} (theta^2 - 2*Omega(tau))^(-k/2) dtau.

    One row per k in powers, one column per ascending node p_j in [0, 1].
    Omega is evaluated once, on the Gauss-Legendre nodes of every cell; see the
    module docstring for the rule that sends a cell to adaptive bisection.
    """
    _require_above_theta0(spec, theta)
    p = np.asarray(p, dtype=float)
    k = np.asarray(powers, dtype=float)
    crit = [c for c in omega_critical_points(spec) if c < p[-1]]
    edges = sorted_unique(np.concatenate([[0.0], p, crit]))
    a, b = edges[:-1], edges[1:]
    cells, ok = _gauss_pair(lambda x: _s(spec, theta, x) ** (-0.5 * k)[:, None, None], a, b)
    if not ok.all():
        rows, cols = np.nonzero(~ok)
        cells[rows, cols] = _adaptive(
            lambda x, i: _s(spec, theta, x) ** (-0.5 * k[rows[i]])[:, None], a[cols], b[cols]
        )
    cum = np.concatenate([np.zeros((k.size, 1)), np.cumsum(cells, axis=1)], axis=1)
    return cum[:, np.searchsorted(edges, p)]


def depth(spec: VorticitySpec, theta: float) -> float:
    """d(theta) = int_0^1 dtau / sqrt(theta^2 - 2*Omega(tau)), theta > theta0."""
    return float(moments(spec, theta, [1.0], (1,))[0, 0])


def depth_prime(spec: VorticitySpec, theta: float) -> float:
    """d'(theta) = -theta * int_0^1 (theta^2 - 2*Omega)^(-3/2) dtau."""
    return -theta * float(moments(spec, theta, [1.0], (3,))[0, 0])


def R_of_theta(spec: VorticitySpec, theta: float) -> float:
    """Bernoulli constant R(theta) = theta^2/2 + d(theta) - Omega(1)."""
    return 0.5 * theta * theta + depth(spec, theta) - eval_Omega(spec, 1.0)


def R_prime_of_theta(spec: VorticitySpec, theta: float) -> float:
    return theta + depth_prime(spec, theta)


def froude_of_theta(spec: VorticitySpec, theta: float) -> float:
    """Froude number from 1/F^2 = int_0^1 H_p^3 dp = M_3(1)."""
    return float(moments(spec, theta, [1.0], (3,))[0, 0]) ** -0.5


def flow_force_of_theta(spec: VorticitySpec, theta: float) -> float:
    """Flow force of the stream, S = M_{-1}(1) + d^2/2 (see the module docstring)."""
    m_neg1, d = moments(spec, theta, [1.0], (-1, 1))[:, 0]
    return float(m_neg1 + 0.5 * d * d)


def stream_profile(spec: VorticitySpec, theta: float, p: np.ndarray) -> np.ndarray:
    """H(p_j; theta) at the given ascending nodes."""
    return moments(spec, theta, p, (1,))[0]


def stream_at(spec: VorticitySpec, theta: float, n_profile: int = 201) -> StreamSolution:
    """Assemble the full StreamSolution at the given theta > theta0."""
    p = np.linspace(0.0, 1.0, n_profile)
    m_neg1, H, m3 = moments(spec, theta, p, (-1, 1, 3))
    d = float(H[-1])
    R = 0.5 * theta * theta + d - eval_Omega(spec, 1.0)
    F = float(m3[-1]) ** -0.5
    S = float(m_neg1[-1]) + 0.5 * d * d
    return StreamSolution(theta=theta, depth=d, R=R, froude=F, flow_force=S, p=p, profile=H)


def _depth_at_theta0(spec: VorticitySpec, t0: float, tau_star: float) -> float:
    """d(theta0) when the depth integral converges.

    The integrand has an inverse-square-root singularity at the argmax tau_star
    of Omega; the substitution tau = tau_star -/+ u^2 on either side removes it.
    The critical points of Omega map to cell edges in u.
    """
    crit = omega_critical_points(spec)
    d0 = 0.0
    for sign, width in ((-1.0, tau_star), (1.0, 1.0 - tau_star)):
        if width <= 1e-14:
            continue
        cuts = [sign * (c - tau_star) for c in crit]
        edges = np.sqrt(sorted_unique([0.0, width] + [c for c in cuts if 0.0 < c < width]))

        def g(u, _, sign=sign):
            s = t0 * t0 - 2.0 * eval_Omega(spec, np.clip(tau_star + sign * u * u, 0.0, 1.0))
            with np.errstate(divide="ignore"):
                return 2.0 * u / np.sqrt(np.maximum(s, 0.0))

        d0 += float(_adaptive(g, edges[:-1], edges[1:]).sum())
    return d0


def _classify_R0(spec: VorticitySpec) -> float:
    """R_0 = R(theta0), or math.inf when d(theta0) diverges.

    Finiteness is decided numerically from the growth of d(theta0 + eps) over
    eps in {1e-2, 1e-3, 1e-4}: square-root endpoint singularities give
    decreasing increments (ratio ~ 1/sqrt(10)); divergent integrals give
    increments with ratio >= 1.
    """
    t0 = theta0(spec)
    d1 = depth(spec, t0 + 1e-2)
    d2 = depth(spec, t0 + 1e-3)
    d3 = depth(spec, t0 + 1e-4)
    g1 = d2 - d1
    g2 = d3 - d2
    if g1 <= 1e-12 and g2 <= 1e-12:
        # no growth at all: Omega max is attained flatly; integral converges
        pass
    elif g2 > 0.6 * g1:
        return math.inf
    _, tau_star = max_Omega(spec)
    d0 = _depth_at_theta0(spec, t0, tau_star)
    return 0.5 * t0 * t0 + d0 - eval_Omega(spec, 1.0)


@lru_cache(maxsize=256)
def dispersion_summary(spec: VorticitySpec) -> DispersionSummary:
    """Locate the critical stream: theta_c = argmin R(theta), R_c, and R_0.

    The minimum is found as the root of R'(theta) = theta + d'(theta), which is
    negative just above theta0 and positive for large theta.  Memoized per
    spec, as theta0 is: every fixed-R solve and far-field column needs it.
    """
    t0 = theta0(spec)
    theta_max = max(10.0, 3.0 * t0 + 10.0)

    def rp(t: float) -> float:
        return R_prime_of_theta(spec, t)

    # bracket the sign change of R' on (theta0, theta_max]
    lo = None
    for k in range(1, 60):
        t = t0 + (theta_max - t0) * 0.5 ** k
        try:
            if rp(t) < 0.0:
                lo = t
                break
        except SingularIntegrandError:
            break
    if lo is None:
        raise UnboundedSearchError("R'(theta) has no sign change above theta0")
    hi = lo
    while rp(hi) < 0.0:
        hi = min(2.0 * hi + 0.1, theta_max)
        if hi >= theta_max and rp(theta_max) < 0.0:
            raise UnboundedSearchError(
                f"no interior minimum of R(theta) within theta_max={theta_max}"
            )
    theta_c = brentq(rp, lo, hi, xtol=1e-14, rtol=8.9e-16)
    R_c = R_of_theta(spec, theta_c)
    R_0 = _classify_R0(spec)
    return DispersionSummary(theta_c=float(theta_c), R_c=float(R_c), R_0=float(R_0), theta_0=t0)


@lru_cache(maxsize=256)
def solve_theta_for_R(
    spec: VorticitySpec,
    R: float,
    regime: str,
    summary: DispersionSummary | None = None,
) -> float:
    """Invert R(theta) = R on one side of theta_c.

    regime 'supercritical': root theta > theta_c (depth d_-, Froude > 1);
    regime 'subcritical':  root in (theta0, theta_c) (depth d_+), which exists
    only for R < R_0.  Memoized, as dispersion_summary is: the grid and the
    far-field column of one R (strip.default_grid, strip.far_column) ask
    for the same root in turn.
    """
    if regime not in ("supercritical", "subcritical"):
        raise ValueError(f"unknown regime {regime!r}")
    if summary is None:
        summary = dispersion_summary(spec)
    if R < summary.R_c - 1e-12:
        raise BelowCriticalError(f"R={R} below R_c={summary.R_c}")
    if R <= summary.R_c + 1e-13:
        return summary.theta_c

    def f(t: float) -> float:
        return R_of_theta(spec, t) - R

    if regime == "supercritical":
        a = summary.theta_c
        b = summary.theta_c + max(1.0, summary.theta_c)
        while f(b) < 0.0:
            b = 2.0 * b
            if b > 1e6:
                raise NoRootError("supercritical bracket expansion failed")
        return float(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))

    if R >= summary.R_0:
        raise NoRootError(f"subcritical root requires R < R_0={summary.R_0}, got R={R}")
    t0 = summary.theta_0
    b = summary.theta_c
    a = None
    for k in range(1, 200):
        t = t0 + (summary.theta_c - t0) * 0.5 ** k
        if t <= t0 * (1 + 1e-15) + 1e-300:
            break
        try:
            if f(t) > 0.0:
                a = t
                break
        except (SingularIntegrandError, QuadratureError):
            # theta too close to theta0 to evaluate R(theta)
            break
    if a is None:
        raise NoRootError(f"no subcritical root found for R={R}")
    return float(brentq(f, a, b, xtol=1e-15, rtol=8.9e-16))


def flow_force_of_R(spec: VorticitySpec, R: float, regime: str) -> float:
    """S_-(R) or S_+(R): flow force of the stream solving R(theta) = R in the regime."""
    return flow_force_of_theta(spec, solve_theta_for_R(spec, R, regime))


def check_flow_force_identity(spec: VorticitySpec, theta: float, h: float) -> float:
    """Central-difference defect |d S/d theta - R'(theta) d(theta)|, O(h^2) by contract.

    Both sides are differenced with the same step so the identity is checked
    independently of the analytic derivative formulas.
    """
    if theta - h <= theta0(spec):
        raise SingularIntegrandError("theta - h must stay above theta0")
    dS = (flow_force_of_theta(spec, theta + h) - flow_force_of_theta(spec, theta - h)) / (2 * h)
    dR = (R_of_theta(spec, theta + h) - R_of_theta(spec, theta - h)) / (2 * h)
    return abs(dS - dR * depth(spec, theta))
