"""Pseudo-arclength continuation of the solitary branch (h(t), R(t)), spectral
monitoring (mu0, mu1 against the continuous-spectrum edge nu0), and detection
of turning points and candidate eigenvalue crossings.

The stepping core is generic over a small system protocol (residual, one
linearization giving the Jacobian and the parameter derivative, inner-product
weight) so it can be exercised in isolation on closed-form fold problems; the
PDE system evaluates the strip problem at (unknowns, R) through strip, which
owns how R enters it (strip.field_at, strip.jacobian_and_dR), and hands the
corrector one band LU factor of its Jacobian per iterate.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchStallError,
    DegenerateTangentError,
    NumericalError,
    WavebranchError,
)
from . import spectrum1d
from .roots import brentq, newton, solve_bordered
from .stream import dispersion_summary
from .strip import (
    NEWTON_TOL,
    StripField,
    StripGrid,
    _flapack,
    _load_extension,
    assemble_jacobian,
    band_lu,
    field_at,
    initial_guess,
    jacobian_and_dR,
    min_forward_hp,
    node_derivatives,
    pack,
    residual_vector,
)
from .vorticity import VorticitySpec

__all__ = [
    "StepControl",
    "Diagnostics",
    "BranchPoint",
    "SpectrumInfo",
    "Turning",
    "EigenCrossing",
    "AcceptedStep",
    "arclength_continue",
    "SolitarySystem",
    "branch_point_from_field",
    "continue_branch",
    "tangent",
    "secant_length",
    "spectrum_at",
    "pencil_weight",
    "shift_invert_eigs",
    "localized_fraction",
    "below_edge",
    "crossing_bracket",
    "diagnostics_of",
    "crossing_order",
    "loop_closure",
    "detect_events",
    "replay_checkpoint",
    "point_at_arclength",
]


# bordered Newton: iteration budget, and the tolerance on the arclength
# constraint; a step converged in at most _FAST_ITERS iterations lets ds grow,
# and ds halved below _DS_MIN_FACTOR times its start stalls the run
_MAX_NEWTON_ITERS = 12
_CONSTRAINT_TOL = 1e-11
_FAST_ITERS = 4
_DS_MIN_FACTOR = 1.0 / 64.0
# an eigenvector with this fraction of its mass in q < L/2 is localized
_LOCALIZED = 0.99
# eigenvalues spectrum_at computes at each shift
_SPECTRUM_K = 8
# ARPACK's bound on the relative Ritz residuals (tol of eigs): on the fold
# runs, 1e-8 moves mu0 and mu1 from their values at tol 0 (machine precision)
# by at most 1.1e-11 relative and the localization flags, events and pairs
# not at all, for about a third fewer shift-invert solves
_ARPACK_TOL = 1e-8


@dataclass
class StepControl:
    """Adaptive step-control parameters for the continuation driver."""

    ds_max_factor: float = 8.0
    grow: float = 1.3
    margin_fraction: float = 1e-2


@dataclass(frozen=True)
class Diagnostics:
    """Stagnation/overhang proxies monitored along the branch."""

    max_surface_slope: float
    surface_margin: float  # min over q of R - xi(q)
    bottom_margin: float  # min over q of Psi_Y at the bottom
    min_hp: float  # global minimum of the forward-difference h_p


@dataclass
class BranchPoint:
    """One accepted continuation point with its spectral data and diagnostics."""

    field: StripField | None
    t: float
    R: float
    mu0: float | None
    mu1: float
    nu0: float
    diag: Diagnostics | None = None
    tangent_x: np.ndarray | None = None
    tangent_lam: float | None = None
    ds: float = 0.0


@dataclass(frozen=True)
class Turning:
    t: float
    R: float
    bracket: tuple


@dataclass(frozen=True)
class EigenCrossing:
    t: float
    m_estimate: int | None
    bracket: tuple


# ---------------------------------------------------------------------------
# generic pseudo-arclength driver
# ---------------------------------------------------------------------------


@dataclass
class AcceptedStep:
    x: np.ndarray
    lam: float
    t: float
    ds: float
    n_iters: int
    tangent_x: np.ndarray
    tangent_lam: float


def _ip(weight, a, b) -> float:
    return float(np.sum(weight * a * b))


def _norm_product(weight, dx, dlam) -> float:
    return float(np.sqrt(_ip(weight, dx, dx) + dlam * dlam))


def secant_length(x0, l0, x1, l1, weight) -> float:
    """Length of the secant from the packed state (x0, l0) to (x1, l1) in the
    weighted product norm: what tangent divides by."""
    return _norm_product(weight, x1 - x0, l1 - l0)


def tangent(x0, l0, x1, l1, weight):
    """Normalized secant direction from the packed state (x0, l0) to (x1, l1):
    (tan_x, tan_lam) with unit norm in the weighted product inner product."""
    n = secant_length(x0, l0, x1, l1, weight)
    if n < 1e-14 * (1.0 + abs(l1)):
        raise DegenerateTangentError("coincident branch points; secant undefined")
    return (x1 - x0) / n, (l1 - l0) / n


def _corrector(sys_, x_prev, lam_prev, tan_x, tan_lam, ds):
    """Bordered Newton iteration onto {residual = 0} cap the arclength plane
    ds ahead of (x_prev, lam_prev) along the tangent (roots.newton, undamped),
    from the predictor on that plane; returns (x, lam, iters)."""
    weight = sys_.ip_weight
    w_tan_x = weight * tan_x

    def evaluate(z):
        x, lam = z[:-1], float(z[-1])
        F = sys_.residual(x, lam)
        c = _ip(weight, tan_x, x - x_prev) + tan_lam * (lam - lam_prev) - ds
        sup = float(np.abs(F).max())
        return np.append(F, c), sup, sup <= NEWTON_TOL and abs(c) <= _CONSTRAINT_TOL

    def linearize(z):
        J, Fl = sys_.linearize(z[:-1], float(z[-1]))
        return lambda r: np.append(*solve_bordered(J, Fl, w_tan_x, tan_lam, -r[:-1], -r[-1]))

    z0 = np.append(x_prev + ds * tan_x, lam_prev + ds * tan_lam)
    z, info = newton(z0, evaluate, linearize, _MAX_NEWTON_ITERS)
    return z[:-1], float(z[-1]), info.iterations


def arclength_continue(sys_, x0, lam0, tan0, ds, steps, ctrl=None, on_accept=None):
    """Generic pseudo-arclength continuation.

    sys_ must provide residual(x, lam), linearize(x, lam) -> (J, dF/dlam) with
    J a BandLU factor (strip.band_lu), and an ip_weight attribute.  Returns
    (accepted steps, status); status is 'completed' or the stop reason
    returned by on_accept.  Repeated corrector failure at the minimal step
    raises BranchStallError carrying the last accepted step.
    """
    ctrl = ctrl or StepControl()
    weight = sys_.ip_weight
    tan_x, tan_lam = tan0
    n0 = _norm_product(weight, tan_x, tan_lam)
    tan_x, tan_lam = tan_x / n0, tan_lam / n0

    accepted: list[AcceptedStep] = []
    x_prev, lam_prev, t = x0, lam0, 0.0
    ds_cur = ds
    ds_min = ds * _DS_MIN_FACTOR
    ds_max = ds * ctrl.ds_max_factor

    for _ in range(steps):
        while True:
            try:
                x_new, lam_new, iters = _corrector(sys_, x_prev, lam_prev, tan_x, tan_lam, ds_cur)
                break
            except WavebranchError as exc:
                ds_cur *= 0.5
                if ds_cur < ds_min:
                    raise BranchStallError(
                        f"continuation stalled at ds={ds_cur:.3e} (minimum {ds_min:.3e}); "
                        f"last corrector failure: {exc.__class__.__name__}: {exc}",
                        last_good=accepted[-1] if accepted else None,
                    ) from exc
        t += ds_cur
        # the secant keeps the orientation: its product with the old tangent
        # is (ds + c) / |secant|, c the converged arclength residual
        tan_x, tan_lam = tangent(x_prev, lam_prev, x_new, lam_new, weight)
        step = AcceptedStep(
            x=x_new, lam=lam_new, t=t, ds=ds_cur, n_iters=iters,
            tangent_x=tan_x, tangent_lam=tan_lam,
        )
        accepted.append(step)
        x_prev, lam_prev = x_new, lam_new
        if iters <= _FAST_ITERS:
            ds_cur = min(ds_cur * ctrl.grow, ds_max)
        if on_accept is not None:
            reason = on_accept(step)
            if reason:
                return accepted, reason
    return accepted, "completed"


# ---------------------------------------------------------------------------
# PDE system: the strip problem at (unknowns, R)
# ---------------------------------------------------------------------------


class SolitarySystem:
    """Strip problem as a continuation system in (h-unknowns, R); strip pins
    the far-field column of R (strip.field_at)."""

    def __init__(self, spec: VorticitySpec, grid: StripGrid):
        self.spec = spec
        self.grid = grid
        self.ip_weight = grid.ip_weight

    def residual(self, x: np.ndarray, R: float) -> np.ndarray:
        return residual_vector(field_at(self.spec, self.grid, x, R), self.spec)

    def linearize(self, x: np.ndarray, R: float):
        """Band LU factor of dF/dx and the vector dF/dR, from one assembly."""
        J, fr = jacobian_and_dR(field_at(self.spec, self.grid, x, R), self.spec)
        return band_lu(J), fr


def loop_closure(points, field: StripField, t: float, min_arc: float, tol: float) -> bool:
    """True when the new state revisits an earlier accepted point within tol
    (sup norm in h and in R) after travelling at least min_arc in arclength:
    the branch is a closed loop."""
    for p in points:
        if p.field is None:
            continue
        if t - p.t < min_arc:
            continue
        if abs(field.R - p.R) < tol and np.abs(field.h - p.field.h).max() < tol:
            return True
    return False


def diagnostics_of(field: StripField) -> Diagnostics:
    """The stagnation and overhang proxies of a field: surface slope and
    bottom velocity Psi_Y = 1/h_p from strip.node_derivatives, min_hp from
    strip.min_forward_hp, which strip's unidirectionality check reads."""
    h = field.h
    hq, hp = node_derivatives(field)
    return Diagnostics(
        max_surface_slope=float(np.abs(hq[:, -1]).max()),
        surface_margin=float((field.R - h[:, -1]).min()),
        bottom_margin=float((1.0 / hp[:, 0]).min()),
        min_hp=min_forward_hp(field),
    )


def _margin_breaches(diag: Diagnostics, init: Diagnostics, frac: float) -> list[str]:
    """Stagnation/overhang proxies of diag that fell past the fraction frac of
    their values init at the start of the branch, in rule order: surface
    stagnation, bottom stagnation, unidirectionality, overhanging."""
    hits = [
        ("surface-stagnation", diag.surface_margin < frac * init.surface_margin),
        ("bottom-stagnation", diag.bottom_margin < frac * init.bottom_margin),
        ("unidirectionality", diag.min_hp < frac * init.min_hp),
        ("overhanging", diag.max_surface_slope > max(init.max_surface_slope, 1e-3) / frac),
    ]
    return [kind for kind, hit in hits if hit]


@dataclass
class SpectrumInfo:
    eigenvalues: np.ndarray
    localized: np.ndarray
    mu0: float | None
    mu1: float
    nu0: float


def localized_fraction(grid: StripGrid, vec: np.ndarray) -> float:
    """Fraction of the squared mass of an eigenvector (in unknown ordering)
    carried by the inner half-strip q < L/2."""
    scale = np.abs(vec).max()
    if scale == 0.0 or not np.isfinite(scale):
        return 0.0
    mass = (vec / scale) ** 2
    inner = grid.unknowns(np.broadcast_to(grid.q[:, None] < 0.5 * grid.L, (grid.nq, grid.np)))
    return float(mass[inner].sum() / mass.sum())


def pencil_weight(field: StripField) -> np.ndarray:
    """Diagonal of the weight B of the spectral pencil J w = mu B w at a
    solved field, in the unknown ordering.

    B is the central-difference 1/h_p at interior nodes and zero on the
    surface-condition rows: that weighting makes the discrete spectrum match
    the physical-plane linearized operator, whose continuous spectrum starts
    at nu0 (the plain hodograph eigenproblem differs by the
    factor h_p and would not be comparable to the 1-D edge).  The spectral
    monitor and the Lyapunov-Schmidt eigen-data both use this pencil.
    """
    _, hp = node_derivatives(field)
    b = np.zeros_like(hp)
    b[:, 1:-1] = 1.0 / hp[:, 1:-1]
    return field.grid.unknowns(b)


def shift_invert_eigs(J, b: np.ndarray, sigma: float, k: int, left: bool = False):
    """k eigenpairs of the pencil J w = mu B w, B = diag(b), nearest sigma,
    real, in ascending order of mu: ARPACK in shift-invert mode on one band LU
    factor of J - sigma B, a shift of J's main diagonal.

    With left=True, also returns the matching left eigenvectors (J^T w =
    mu B w) as a third array, from a second Arnoldi run on the transposed
    solves of the same factor.  The start vector is deterministic but
    unstructured: a symmetric one (constant) can span an invariant subspace at
    uniform streams and break Arnoldi.  ARPACK failure and complex eigenvalues
    raise NumericalError.
    """
    lu = band_lu(J.shift_diagonal(-sigma * b))
    vals, vecs = _arnoldi(b, sigma, k, lu.solve)
    if not left:
        return vals, vecs
    _, lvecs = _arnoldi(b, sigma, k, lambda x: lu.solve(x, trans=True))
    return vals, vecs, lvecs


_ARPACKLIB = "scipy.sparse.linalg._eigen.arpack._arpacklib"

# the reverse-communication state the _arpacklib wrappers read and write,
# as scipy's eigs starts it: all zero, the floats first
_ARPACK_STATE = dict.fromkeys(
    ("tol", "getv0_rnorm0", "aitr_betaj", "aitr_rnorm1", "aitr_wnorm", "aup2_rnorm"), 0.0
) | dict.fromkeys(
    ("ido which bmat info iter maxiter mode n nconv ncv nev np shift getv0_first getv0_iter "
     "getv0_itry getv0_orth aitr_iter aitr_j aitr_orth1 aitr_orth2 aitr_restart aitr_step3 "
     "aitr_step4 aitr_ierr aup2_initv aup2_iter aup2_getv0 aup2_cnorm aup2_kplusp aup2_nev "
     "aup2_nev0 aup2_np0 aup2_numcnv aup2_update aup2_ushift").split(), 0
)


def _arnoldi(b, sigma, k, solve):
    """k eigenpairs of the pencil A w = mu diag(b) w nearest the real shift
    sigma, ascending, where `solve` applies (A - sigma diag(b))^-1: ARPACK's
    dnaupd/dneupd (Lehoucq, Sorensen & Yang 1998) in shift-invert mode 3,
    driven through scipy's _arpacklib extension with the settings and the
    extraction of scipy.sparse.linalg.eigs (bmat G, which LM, maxiter 10 n,
    ncv = min(max(2k + 1, 20), n)) at tol _ARPACK_TOL, so that the eigenpairs
    are bitwise those of eigs at that tol.  With a real shift ARPACK never
    asks for A x.  The calling convention is that of scipy 1.17.1's wrappers;
    the bitwise test against eigs is what catches a change to it."""
    lib = _load_extension(_ARPACKLIB)
    n = b.size
    ncv = min(max(2 * k + 1, 20), n)
    resid = np.random.default_rng(1234).standard_normal(n)
    resid /= np.linalg.norm(resid)
    state = _ARPACK_STATE | dict(bmat=1, info=1, maxiter=10 * n, mode=3, n=n, ncv=ncv,
                                 nev=k, shift=1, tol=_ARPACK_TOL)
    v = np.zeros((n, ncv))
    ipntr = np.zeros(14, dtype=np.int32)
    workd = np.zeros(3 * n)
    workl = np.zeros(3 * ncv * (ncv + 2))
    restarts = np.random.default_rng(5678)

    def at(pointer):
        return slice(ipntr[pointer], ipntr[pointer] + n)

    while True:
        lib.dnaupd_wrap(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        if ido == 5:  # y = OP x = (A - sigma B)^-1 B x
            workd[at(1)] = solve(b * workd[at(0)])
        elif ido == 1:  # the same, with B x at ipntr[2]
            workd[at(1)] = solve(workd[at(2)])
        elif ido == 2:
            workd[at(1)] = b * workd[at(0)]
        elif ido == 4:  # a new start vector after a breakdown
            resid[:] = restarts.uniform(-1.0, 1.0, n)
        else:
            break
    if ido != 99 or state["info"] != 0:
        raise NumericalError(
            f"shift-invert eigensolve failed: ARPACK dnaupd info {state['info']} (ido {ido})"
        )

    # all k + 1 Ritz pairs; a complex pair's vectors are stored as the real
    # and imaginary parts in consecutive columns
    dr, di = np.zeros(k + 1), np.zeros(k + 1)
    zr = np.zeros((n, k + 1), order="F")
    state["info"] = 0
    lib.dneupd_wrap(state, True, 0, np.zeros(ncv, dtype=np.int32), dr, di, zr,
                    float(sigma), 0.0, np.zeros(3 * ncv), resid, v, ipntr, workd, workl)
    if state["info"] != 0:
        raise NumericalError(f"shift-invert eigensolve failed: ARPACK dneupd info {state['info']}")
    nreturned = state["nconv"]
    d, z = dr + 1.0j * di, zr.astype(complex)
    i = 0
    while i <= k:
        if d[i].imag != 0:
            if i < k:
                z[:, i] = zr[:, i] + 1.0j * zr[:, i + 1]
                z[:, i + 1] = z[:, i].conjugate()
                i += 1
            else:  # the last one's imaginary part was not returned
                nreturned -= 1
        i += 1
    if nreturned <= k:
        vals, vecs = d[:nreturned], z[:, :nreturned]
    else:  # one too many: keep the k of largest |1 / (mu - sigma)|
        keep = np.argsort(abs(1 / (d - sigma)))[-k:][::-1]
        vals, vecs = d[keep], z[:, keep]
    scale = 1.0 + np.abs(vals.real).max()
    if np.abs(vals.imag).max() > 1e-6 * scale:
        raise NumericalError(
            f"unexpected complex eigenvalues (max imag {np.abs(vals.imag).max():.3e})"
        )
    order = np.argsort(vals.real)
    return vals.real[order], vecs.real[:, order]


def below_edge(mu, nu0):
    """Whether mu lies below the continuous-spectrum edge nu0 by more than
    1e-9 |nu0| (elementwise on arrays): what tells a monitored mu1 from its
    sentinel value nu0.  A nan on either side reads False."""
    return mu < nu0 - 1e-9 * np.abs(nu0)


def crossing_bracket(a, b) -> bool:
    """Whether the branch points a and b bracket a crossing of the monitored
    mu1 (Keller 1977): both mu1 lie below their edge nu0 (below_edge, so
    neither is the sentinel nor nan) and they have opposite signs.  A mu1 of
    exactly 0.0 brackets nothing."""
    return bool(
        below_edge(a.mu1, a.nu0) and below_edge(b.mu1, b.nu0) and a.mu1 * b.mu1 < 0
    )


def spectrum_at(
    field: StripField,
    spec: VorticitySpec,
    nu0_grid_n: int = 1024,
    sigma: float | None = None,
) -> SpectrumInfo:
    """The _SPECTRUM_K (8) eigenvalues of the pencil of pencil_weight nearest
    the shift, with localization flags; mu0/mu1 extraction and the 1-D
    spectral edge nu0.

    The shift starts at -1.5 nu0, or at sigma when that lies below it, and is
    multiplied by 4, at most three times: from -1.5 nu0 until a negative
    localized eigenvalue is found, from sigma until a localized eigenvalue
    lies at or below half the shift.  continue_branch passes sigma = 1.2 mu0
    of the previous point, which spares the deepening where mu0 runs off
    toward -inf before a fold; where mu0 runs off more than about 4x in one
    step, the run from sigma deepens after it.  A shift far below mu0 blurs
    the localization of the modes near the edge (on the 201x31 fold run, a
    shift of 2 mu0 loses mu1), so a run from sigma that fails in ARPACK, or
    that ends with no localized eigenvalue at or below half its last shift,
    is redone from -1.5 nu0.
    Eigenvectors with at least 99% of their mass in q < L/2 are classified
    localized; mu1 falls back to the sentinel nu0 when no second localized
    eigenvalue lies below nu0.
    """
    grid = field.grid
    nu0 = spectrum1d.nu0(spectrum1d.robin_problem(spec, field.theta, grid_n=nu0_grid_n))

    J = assemble_jacobian(field, spec)
    b = pencil_weight(field)

    def deepen(start, stop):
        """Eigenvalues and localization flags of the first of start,
        4 start, 16 start and 64 start at which some localized eigenvalue
        satisfies stop(vals, shift), or of the last, and whether one did."""
        for n in range(4):
            # the lowest mode may sit far below the shift (steep waves)
            shift = start * 4.0**n
            vals, vecs = shift_invert_eigs(J, b, shift, _SPECTRUM_K)
            frac = np.array([localized_fraction(grid, v) for v in vecs.T])
            localized = frac >= _LOCALIZED
            if np.any(localized & stop(vals, shift)):
                return vals, localized, True
        return vals, localized, False

    found = False
    if sigma is not None and sigma < -1.5 * nu0:
        try:
            vals, localized, found = deepen(sigma, lambda vals, shift: vals <= 0.5 * shift)
        except NumericalError:
            pass
    if not found:
        vals, localized, _ = deepen(-1.5 * nu0, lambda vals, shift: vals < 0.0)

    loc_vals = vals[localized]
    mu0 = float(loc_vals[0]) if loc_vals.size else None
    below = loc_vals[1:][below_edge(loc_vals[1:], nu0)]
    mu1 = float(below[0]) if below.size else float(nu0)
    return SpectrumInfo(eigenvalues=vals, localized=localized, mu0=mu0, mu1=mu1, nu0=float(nu0))


def _branch_point(field: StripField, t: float, tangent=(None, None), ds: float = 0.0):
    """BranchPoint of a solved field at arclength t: its diagnostics and the
    tangent and ds of the step that reached it.  Its spectral data read
    mu0 = None, mu1 = nu0 = nan until _set_spectrum fills them in."""
    return BranchPoint(
        field=field, t=t, R=field.R, mu0=None, mu1=np.nan, nu0=np.nan,
        diag=diagnostics_of(field), tangent_x=tangent[0], tangent_lam=tangent[1], ds=ds,
    )


def _set_spectrum(point: BranchPoint, info: SpectrumInfo) -> BranchPoint:
    """point with mu0, mu1 and nu0 taken from its spectrum info."""
    point.mu0, point.mu1, point.nu0 = info.mu0, info.mu1, info.nu0
    return point


def branch_point_from_field(
    field: StripField,
    spec: VorticitySpec,
    nu0_grid_n: int = 1024,
) -> BranchPoint:
    """Spectrally tagged BranchPoint of a solved field at arclength 0: the
    start of a continuation run."""
    return _set_spectrum(_branch_point(field, 0.0), spectrum_at(field, spec, nu0_grid_n))


def _shift_hint(prev: BranchPoint, tangent_lam: float) -> float | None:
    """Starting shift for the spectrum of the point after the settled point
    prev, reached by a step whose secant has R-component tangent_lam: 1.2 mu0
    of prev, or None when prev has no mu0 or the step turned R; see
    continue_branch."""
    if prev.mu0 is None or (prev.tangent_lam is not None and prev.tangent_lam * tangent_lam < 0):
        return None
    return 1.2 * prev.mu0


def _initial_tangent(spec: VorticitySpec, start: StripField, weight: float):
    """First-step direction (d guess / dR, 1), normalized: a central
    difference of initial_guess's KdV family in R, which no residual
    evaluates."""
    R = start.R
    delta = max(1e-7, 1e-6 * (R - dispersion_summary(spec).R_c))
    gp = initial_guess(spec, R + delta, start.grid)
    gm = initial_guess(spec, R - delta, start.grid)
    dx = (pack(gp) - pack(gm)) / (2.0 * delta)
    n = _norm_product(weight, dx, 1.0)
    return dx / n, 1.0 / n


def _monitor_executor():
    """Where continue_branch computes the spectra of its accepted points: one
    worker process, forked at the first submission, when fork exists and this
    process may run on more than one CPU; otherwise None, for in-process.  The
    pool modules are imported here, so only a continuation run pays for them."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: the worker starts with this process's imports and
    # caches instead of importing numpy and scipy afresh.  The executor forks
    # before it starts its own thread, and OpenBLAS rebuilds its thread pool
    # in the child.
    return ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork"))


def continue_branch(
    start: BranchPoint,
    spec: VorticitySpec,
    steps: int,
    ds: float,
    ctrl: StepControl | None = None,
    nu0_grid_n: int = 1024,
    direction: int = +1,
):
    """Continue the solitary branch from a solved, spectrally-tagged start point.

    direction +1 follows increasing R initially; -1 walks down the branch
    toward the critical stream.  Returns (points, status): points includes the
    start (t = 0); status is 'completed' or 'margin-breach:<kind>' naming the
    proxied stagnation or overhang alternative that terminated the run.

    The spectrum of accepted point k is computed while the corrector computes
    point k+1: on Linux with fork available and at least two CPUs in this
    process's affinity set, in one worker process forked once per call;
    otherwise in this process after point k+1, where the worker's result
    would be read.  Its starting ARPACK shift is fixed when point k is
    accepted: min(-1.5 nu0, 1.2 mu0 of point k-1), so that the first
    eigensolve finds a mu0 that runs off toward -inf before a fold, with no
    shift deepening; or spectrum_at's default -1.5 nu0 when the step to point
    k turned R, because past a fold the runaway mu0 leaves the computed set
    and the old mu1 becomes mu0.  Either way the point's mu0, mu1 and nu0
    are filled in, and checked (mu0 < 0 and simple, nu0 > 0), at the next
    accepted step, before the function returns, and before any exception
    leaves it, by _set_spectrum, the one place a point gets its spectral
    data.  A point whose spectrum_at raised is dropped; a point that fails a
    check is kept.  A NumericalError or BranchStallError carries the points so
    far as partial_points and the last of them as last_good.  The worker runs
    the same code on a copy of this process (ARPACK's start vector is fixed,
    BLAS runs with the same thread count), so both paths give bitwise-equal
    points.  The best-effort spectrum of a margin-breach terminal point (from
    the same starting shift; a NumericalError leaves it unset) is computed
    in-process, as branch_point_from_field computes the start point's.  A
    loop-closure point carries no spectrum.
    """
    ctrl = ctrl or StepControl()
    if start.field is None:
        raise ValueError("start point must carry a solved field")
    sys_ = SolitarySystem(spec, start.field.grid)
    x0 = pack(start.field)
    tan0 = _initial_tangent(spec, start.field, sys_.ip_weight)
    if direction < 0:
        tan0 = (-tan0[0], -tan0[1])
    if start.diag is None:
        start.diag = diagnostics_of(start.field)
    init_diag = start.diag

    points: list[BranchPoint] = [start]
    pending: list = []  # the call that gives the spectrum of points[-1], until it is read

    def settle():
        """Fill in the pending spectrum of the last point and check it."""
        if not pending:
            return
        try:
            info = pending.pop()()
        except BaseException:
            points.pop()  # no spectrum, no point
            raise
        pt = _set_spectrum(points[-1], info)
        if pt.mu0 is None or pt.mu0 >= 0.0:
            raise NumericalError(
                f"lowest localized eigenvalue not negative at t={pt.t}: {pt.mu0}"
            )
        if pt.mu1 - pt.mu0 <= 1e-8:
            raise NumericalError(f"mu0 simplicity gap violated at t={pt.t}")
        if pt.nu0 <= 0.0:
            raise NumericalError(f"nu0 not positive at t={pt.t}")

    def on_accept(step: AcceptedStep):
        settle()
        fld = field_at(spec, sys_.grid, step.x, step.lam)
        pt = _branch_point(fld, start.t + step.t, (step.tangent_x, step.tangent_lam), step.ds)
        if loop_closure(points, fld, pt.t, min_arc=3.0 * ds, tol=10.0 * NEWTON_TOL):
            points.append(pt)
            return "loop-closure"
        job = functools.partial(
            spectrum_at, fld, spec, nu0_grid_n, _shift_hint(points[-1], step.tangent_lam)
        )
        points.append(pt)
        breaches = _margin_breaches(pt.diag, init_diag, ctrl.margin_fraction)
        if breaches:
            # the diagnostics already signal physical breakdown; the spectral
            # data of the terminal point are best-effort only
            try:
                _set_spectrum(pt, job())
            except NumericalError:
                pass
            return f"margin-breach:{breaches[0]}"
        pending.append(pool.submit(job).result if pool else job)
        return None

    pool = _monitor_executor()
    try:
        with pool or contextlib.nullcontext():
            try:
                _, status = arclength_continue(
                    sys_, x0, start.R, tan0, ds, steps, ctrl=ctrl, on_accept=on_accept
                )
            finally:
                # an earlier point's spectral failure is the one the caller sees
                settle()
    except (BranchStallError, NumericalError) as exc:
        exc.last_good = points[-1] if points else None
        exc.partial_points = points
        raise
    return points, status


def replay_checkpoint(field: StripField, spec: VorticitySpec) -> float:
    """Sup-norm movement of one undamped Newton step at fixed R and far field.

    Converged checkpoints must replay below 1e-12.
    """
    J = assemble_jacobian(field, spec)
    dx = band_lu(J).solve(-residual_vector(field, spec))
    return float(np.abs(dx).max())


def point_at_arclength(
    from_point: BranchPoint,
    spec: VorticitySpec,
    t_target: float,
) -> BranchPoint:
    """Re-solve the branch at a prescribed arclength by one bordered step from
    an accepted point, using its stored tangent.  The point carries no
    spectral data; spectrum_at of its field gives them."""
    if from_point.field is None or from_point.tangent_x is None:
        raise ValueError("from_point must carry a field and a stored tangent")
    grid = from_point.field.grid
    ds = t_target - from_point.t
    tan_x, tan_lam = from_point.tangent_x, from_point.tangent_lam
    x_new, lam_new, _ = _corrector(
        SolitarySystem(spec, grid), pack(from_point.field), from_point.R, tan_x, tan_lam, ds
    )
    return _branch_point(field_at(spec, grid, x_new, lam_new), t_target, (tan_x, tan_lam), ds)


# ---------------------------------------------------------------------------
# event detection on accepted sequences (PDE or synthetic)
# ---------------------------------------------------------------------------


class _Spline:
    """Not-a-knot cubic spline through (x, y), x increasing (de Boor, *A
    Practical Guide to Splines*, ch. 4), with the arithmetic of scipy's
    CubicSpline: its slope systems and LAPACK calls (dgesv for the parabola
    through three nodes, dgtsv for more), its coefficients c[m, i] of
    (t - x[i])^(3-m) in the PPoly layout, and PPoly's evaluation and slope
    roots, so that all agree with scipy bitwise.  A nonzero LAPACK info
    raises NumericalError.
    """

    def __init__(self, x, y):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        n = len(x)
        info = 0
        if n == 2:
            s = np.repeat(slope, 2)
        elif n == 3:
            a = np.array([[1, 1, 0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0, 1, 1]])
            rhs = np.array([2 * slope[0], 3 * (dx[1] * slope[0] + dx[0] * slope[1]),
                            2 * slope[1]])
            *_, s, info = _flapack.dgesv(a, rhs)
        else:
            # the slope system's sub-, main and super-diagonal; not-a-knot:
            # the third derivative is continuous at x[1] and x[-2]
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            lower, upper = np.append(dx[1:], d1), np.append(d0, dx[:-1])
            diag = np.empty(n)
            diag[1:-1] = 2 * (dx[:-1] + dx[1:])
            diag[0], diag[-1] = dx[1], dx[-2]
            b = np.empty(n)
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
            *_, s, info = _flapack.dgtsv(lower, diag, upper, b, 1, 1, 1, 1)
        if info != 0:
            raise NumericalError(f"spline slope system: LAPACK info {info}")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])

    def __call__(self, t: float) -> float:
        i = min(max(int(np.searchsorted(self.x, t, side="right")) - 1, 0), len(self.x) - 2)
        u = t - self.x[i]
        c = self.c[:, i]
        return float(c[3] + c[2] * u + c[1] * (u * u) + c[0] * (u * u * u))

    def slope_roots(self, i: int) -> list:
        """Roots of the spline's derivative on [x[i], x[i+1]]: the stable
        quadratic formula, polished by one Newton step."""
        a, b, c = 3 * self.c[0, i], 2 * self.c[1, i], self.c[2, i]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = []
        for u in ([c / q] if q else []) + ([q / a] if a else []):
            df = b + 2 * a * u
            if df:
                u -= (c + b * u + a * (u * u)) / df
            if 0 <= u <= self.x[i + 1] - self.x[i]:
                roots.append(float(self.x[i] + u))
        return roots


def crossing_order(d, mu) -> int | None:
    """Order m of an eigenvalue crossing (Keller 1977), |mu| ~ c d^m: the
    least-squares slope of log|mu| against log d, rounded; None without two
    distinct d.  d > 0 and mu != 0 elementwise."""
    x = np.log(np.asarray(d, dtype=float))
    if x.size < 2 or x.min() == x.max():
        return None
    return int(round(np.polyfit(x, np.log(np.abs(mu)), 1)[0]))


def _estimate_crossing_order(ts, mu1s, t_star):
    """crossing_order of mu1 at t_star over the 6 samples nearest it."""
    d = np.abs(ts - t_star)
    ok = (d > 1e-12) & (np.abs(mu1s) > 0)
    idx = np.argsort(d[ok])[:6]
    return crossing_order(d[ok][idx], mu1s[ok][idx])


def detect_events(points):
    """Scan an accepted branch for turning points and eigenvalue crossings.

    points: sequence of BranchPoint (synthetic traces may use field=None).
    A sign change of the R increments marks a Turning, placed at the root of
    the slope of the spline R(t) nearest the extreme sample.  Two neighbours
    that form a crossing_bracket mark an EigenCrossing, placed by `brentq` on
    the spline of the finite mu1 samples; a mu1 of exactly 0.0 between two
    that form one marks it at that sample.  Returns a list of
    Turning / EigenCrossing events (possibly empty).
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 accepted points")
    ts = np.array([p.t for p in pts])
    Rs = np.array([p.R for p in pts])
    events = []

    dR = np.diff(Rs)
    signs = np.sign(dR)
    nz = np.nonzero(signs != 0)[0]
    R_of_t = None
    for a, c in zip(nz[:-1], nz[1:]):
        # a zero increment between opposite-signed neighbours (symmetric
        # samples around the extremum) still marks a fold
        if signs[a] == signs[c]:
            continue
        k = (a + c + 1) // 2
        k = min(max(k, 1), len(pts) - 2)
        # the extremum of the spline R(t) on [ts[k-1], ts[k+1]] nearest ts[k]
        if R_of_t is None:
            R_of_t = _Spline(ts, Rs)
        roots = R_of_t.slope_roots(k - 1) + R_of_t.slope_roots(k)
        t_star = min(roots, key=lambda r: abs(r - ts[k]))
        events.append(Turning(t=t_star, R=R_of_t(t_star), bracket=(pts[a], pts[c + 1])))

    mu1s = np.array([p.mu1 for p in pts], dtype=float)
    # loop-closure and failed terminal points carry mu1 = nan; the spline
    # through mu1 takes the finite samples only
    finite = np.isfinite(mu1s)
    mu1_of_t = None
    for k in range(len(pts) - 1):
        if mu1s[k] == 0.0:
            # a sample sitting exactly on the crossing: confirm the sign flip
            # around it and report it directly
            if 0 < k and crossing_bracket(pts[k - 1], pts[k + 1]):
                m_est = _estimate_crossing_order(ts, mu1s, ts[k])
                events.append(
                    EigenCrossing(t=float(ts[k]), m_estimate=m_est,
                                  bracket=(pts[k - 1], pts[k + 1]))
                )
            continue
        if not crossing_bracket(pts[k], pts[k + 1]):
            continue
        if mu1_of_t is None:
            mu1_of_t = _Spline(ts[finite], mu1s[finite])
        t_star = brentq(mu1_of_t, ts[k], ts[k + 1], xtol=1e-13)
        m_est = _estimate_crossing_order(ts, mu1s, t_star)
        events.append(EigenCrossing(t=float(t_star), m_estimate=m_est, bracket=(pts[k], pts[k + 1])))
    return events
