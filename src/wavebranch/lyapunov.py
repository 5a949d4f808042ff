"""Lyapunov-Schmidt reduction at a simple eigenvalue and branch switching.

The reduction is implemented generically over finite-dimensional analytic
systems F(x, lambda) = 0 with F(0, lambda) = 0: the state is split along the
crossing eigenvector v(lambda) and its complement, the complement equation is
solved by bordered Newton iteration on the band factor the continuation uses
(strip.band_lu, roots.solve_bordered), and the scalar reduced map

    B(s, lambda) = <F(s v + w(s, lambda), lambda), what>,

the projection of F onto the crossing direction, is sampled on a lattice.
Zero curves of B are traced by sign scan plus Brent refinement and
classified (vertical / degenerate-eigenvalue / regular); the same machinery
seeds branch switching at a PDE eigenvalue crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import branch as branch_mod
from .errors import (
    IllPosedProjectorError,
    NonConvergenceError,
    NoSecondaryBranchError,
    NumericalError,
    OutsideChartError,
    PreconditionError,
    ResolutionError,
)
from .roots import brentq, newton, solve_bordered
from .strip import (
    NEWTON_TOL,
    BandMatrix,
    assemble_jacobian,
    band_lu,
    newton_solve,
    pack,
    residual_vector,
    unpack,
)

__all__ = [
    "EigenData",
    "AnalyticFamily",
    "finite_family",
    "project",
    "solve_complement",
    "reduced_map",
    "BranchCurve",
    "LocalBranches",
    "local_branches",
    "gallery_branches",
    "seed_from_family",
    "switch_branch",
    "pitchfork_family",
    "cubic_mu_family",
    "vertical_family",
    "even_mu_family",
    "MODEL_GALLERY",
]


@dataclass(frozen=True)
class EigenData:
    """Crossing eigenpair at one lambda: eigenvalue, right eigenvector v, and
    adjoint w normalized so <v, w> = 1 in the family inner product."""

    mu: float
    v: np.ndarray
    w: np.ndarray


@dataclass
class AnalyticFamily:
    """Analytic system F: R^n x R -> R^n with the trivial solution line
    F(0, lambda) = 0 and a simple eigenvalue of D_x F(0, lambda) crossing 0 at
    lambda = 0.  df(x, lambda) returns D_x F as a strip.BandMatrix."""

    n: int
    f: Callable[[np.ndarray, float], np.ndarray]
    df: Callable[[np.ndarray, float], np.ndarray]
    eigendata: Callable[[float], EigenData]
    ip_weight: float | np.ndarray = 1.0

    def ip(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(self.ip_weight * a * b))


def finite_family(f, df, n) -> AnalyticFamily:
    """AnalyticFamily of a small system whose df returns the dense Jacobian.

    The family's df is that matrix as a BandMatrix, so the reduction runs on
    the band solver of the strip problem.  The eigen-data come from dense
    eigensolves of A(lambda) = D_x F(0, lambda), at the eigenvalue nearest
    zero (valid on the small-lambda charts used here)."""

    def band_df(x, lam):
        return BandMatrix.from_dense(df(x, lam))

    def eigendata(lam: float) -> EigenData:
        A = df(np.zeros(n), lam)
        vals, vecs = np.linalg.eig(A)
        k = int(np.argmin(np.abs(vals)))
        if abs(vals[k].imag) > 1e-10 * (1 + abs(vals[k])):
            raise NumericalError("crossing eigenvalue is not real")
        mu = float(vals[k].real)
        v = vecs[:, k].real
        lvals, lvecs = np.linalg.eig(A.T)
        kl = int(np.argmin(np.abs(lvals - vals[k])))
        w = lvecs[:, kl].real
        return _normalized_eigendata(mu, v, w, 1.0, 1e-8, "eigen-normalization <v, z> degenerate")

    return AnalyticFamily(n=n, f=f, df=band_df, eigendata=eigendata)


def _normalized_eigendata(mu, v, w, ip_weight, degenerate_tol, message) -> EigenData:
    """EigenData with v oriented by its largest entry and normalized to
    <v, v> = 1, and w scaled to <v, w> = 1; raises IllPosedProjectorError with
    `message` when |<v, w>| < degenerate_tol * |w|."""
    imax = int(np.argmax(np.abs(v)))
    if v[imax] < 0:
        v = -v
    v = v / np.sqrt(float(np.sum(ip_weight * v * v)))
    denom = float(np.sum(ip_weight * v * w))
    if abs(denom) < degenerate_tol * np.linalg.norm(w):
        raise IllPosedProjectorError(message)
    return EigenData(mu=mu, v=v, w=w / denom)


def project(family: AnalyticFamily, lam: float, x: np.ndarray):
    """Split x = s*v + complement along the crossing eigenvector at lambda."""
    ed = family.eigendata(lam)
    s = family.ip(x, ed.w)
    return s, x - s * ed.v


def solve_complement(family: AnalyticFamily, s: float, lam: float) -> np.ndarray:
    """Solve the range-complement equation (I - P) F(s v + w, lambda) = 0
    with P w = 0 to 1e-12, by undamped roots.newton from w = 0 in at most 60
    steps; a failed solve or factor raises OutsideChartError.

    Each step solves [[D_x F, v], [what^T, 0]] [dw; c] = [-F; -<w, what>]:
    the border with v and the constraint regularizes the Jacobian where it is
    singular along v.  It is roots.solve_bordered on the band LU of D_x F,
    the corrector's solve."""
    return _complement(family, family.eigendata(lam), s, lam)[0]


def _complement(family: AnalyticFamily, ed: EigenData, s: float, lam: float):
    """solve_complement on the eigen-data ed of lambda: the complement w and
    F(s v + w, lambda), the residual newton converged on."""
    w_border = family.ip_weight * ed.w

    def evaluate(w):
        F = family.f(s * ed.v + w, lam)
        G = F - family.ip(F, ed.w) * ed.v
        con = family.ip(w, ed.w)
        sup = max(np.abs(G).max(), abs(con))
        return np.append(F, con), sup, sup <= 1e-12

    def linearize(w):
        lu = band_lu(family.df(s * ed.v + w, lam))
        return lambda r: solve_bordered(lu, ed.v, w_border, 0.0, -r[:-1], -r[-1])[0]

    try:
        w, info = newton(np.zeros(family.n), evaluate, linearize, 60)
    except (NumericalError, NonConvergenceError) as exc:
        raise OutsideChartError(
            f"complement solve failed at (s, lambda) = ({s}, {lam}): {exc}"
        ) from exc
    return w, info.residual[:-1]


def reduced_map(family: AnalyticFamily, s: float, lam: float):
    """The scalar reduced map B(s, lambda) = <F(s v + w, lambda), what> and
    the complement w = w(s, lambda).

    B is the component of F that solve_complement leaves over, read off the
    residual it converged on.  Writing it as s mu + <F - A0 x, what>,
    A0 = D_x F(0, lambda), would need A0 v = mu v, which the strip's pencil
    J v = mu B v does not give."""
    ed = family.eigendata(lam)
    w, F = _complement(family, ed, s, lam)
    return family.ip(F, ed.w), w


def _estimate_m(family: AnalyticFamily, lam_max: float):
    """Crossing order from log-log growth of |mu(lambda)|; None when mu is
    identically zero at sampling resolution."""
    lams = lam_max * np.geomspace(0.02, 1.0, 8)
    mus = np.array([family.eigendata(l).mu for l in lams])
    if np.abs(mus).max() < 1e-12:
        return None, None
    ok = np.abs(mus) > 1e-14
    m = branch_mod.crossing_order(lams[ok], mus[ok])
    if m is None:
        return None, None
    mu_m = float(mus[-1] / lams[-1] ** m)
    return m, mu_m


@dataclass
class BranchCurve:
    """One traced zero curve of the reduced map, on one side of s = 0."""

    side: int  # +1 or -1
    s: np.ndarray
    lam: np.ndarray
    classification: str  # 'vertical' | 'degenerate-eigenvalue' | 'regular'
    partner: int | None = None  # index of the paired curve on the other side


@dataclass
class LocalBranches:
    curves: list
    m_estimate: int | None
    mu_m: float | None
    certified: bool  # branch-count bounds certified only for odd m


def _column_zeros(family, s, lam_vals, zero_tol):
    """Zeros of lambda -> B(s, lambda) on the lattice lam_vals, ascending:
    lattice values with |B| <= zero_tol, and Brent-refined roots between
    sign changes.  None when |B| <= zero_tol on the whole column (a vertical
    family: solutions at every lambda)."""
    B_col = np.array([reduced_map(family, s, lam)[0] for lam in lam_vals])
    if np.abs(B_col).max() <= zero_tol:
        return None
    roots = []
    for j in range(len(lam_vals) - 1):
        b0, b1 = B_col[j], B_col[j + 1]
        if abs(b0) <= zero_tol and abs(b1) <= zero_tol:
            continue  # inside a run of lattice zeros: its last one counts
        if abs(b0) <= zero_tol:
            roots.append(lam_vals[j])
            continue
        if b0 * b1 < 0:
            roots.append(brentq(lambda lam: reduced_map(family, s, lam)[0],
                                lam_vals[j], lam_vals[j + 1], xtol=1e-13))
    if abs(B_col[-1]) <= zero_tol and (len(roots) == 0 or abs(roots[-1] - lam_vals[-1]) > 1e-12):
        roots.append(lam_vals[-1])
    return roots


def local_branches(
    family: AnalyticFamily, s_max: float, lam_max: float, ns: int, nlam: int
) -> LocalBranches:
    """Trace zero curves of the reduced map on |s| <= s_max, |lambda| <= lam_max,
    on ns columns of |s| per side and nlam lattice values of lambda.

    The lattice sign scan is refined by Brent's method in lambda per
    s-column; the refined roots are chained across adjacent columns into
    curves, grouped by the side of s = 0, paired index-wise in
    increasing-lambda order, and classified.  Lattice zeros are |B| <= 1e-10;
    columns on which B vanishes identically signal a vertical family
    (lambda-independent solutions).
    """
    m, mu_m = _estimate_m(family, lam_max)
    s_side = np.linspace(s_max / ns, s_max, ns)
    lam_vals = np.linspace(-lam_max, lam_max, nlam)

    def trace_side(side: int):
        cols = [_column_zeros(family, side * s_abs, lam_vals, 1e-10) for s_abs in s_side]
        if all(roots is None for roots in cols):
            return [
                BranchCurve(
                    side=side,
                    s=side * s_side,
                    lam=np.zeros_like(s_side),
                    classification="vertical",
                )
            ]
        # chain roots across columns by nearest-lambda matching; the jump
        # tolerance must cover the per-column advance of a steep curve
        dlam = lam_vals[1] - lam_vals[0]
        jump_tol = max(3.0 * dlam, 4.0 * lam_max / ns)
        curves: list[list[tuple[float, float]]] = []
        open_curves: list[list[tuple[float, float]]] = []
        for idx, roots in enumerate(cols):
            if roots is None:
                continue
            s = side * s_side[idx]
            new_open = []
            used = [False] * len(roots)
            for curve in open_curves:
                last_lam = curve[-1][1]
                best, bestd = None, None
                for rj, r in enumerate(roots):
                    if used[rj]:
                        continue
                    dd = abs(r - last_lam)
                    if bestd is None or dd < bestd:
                        best, bestd = rj, dd
                if best is not None and bestd <= jump_tol:
                    curve.append((s, roots[best]))
                    used[best] = True
                    new_open.append(curve)
                else:
                    curves.append(curve)
            for rj, r in enumerate(roots):
                if not used[rj]:
                    new_open.append([(s, r)])
            open_curves = new_open
        curves.extend(open_curves)
        out = []
        for c in curves:
            if len(c) < max(3, ns // 4):
                continue  # too short to classify: lattice noise
            arr = np.asarray(c)
            out.append(
                BranchCurve(side=side, s=arr[:, 0], lam=arr[:, 1], classification="")
            )
        return out

    curves = trace_side(+1) + trace_side(-1)
    if m is not None and m % 2 == 1 and not any(c.side == +1 for c in curves):
        raise ResolutionError(
            "odd crossing order but no zero curve found: lattice too coarse"
        )

    # classify
    for c in curves:
        if c.classification == "vertical":
            continue
        lam_span = c.lam.max() - c.lam.min()
        if lam_span < 1e-9 * max(1.0, lam_max):
            c.classification = "vertical"
        elif all(abs(family.eigendata(l).mu) < 1e-8 for l in c.lam[:: max(1, len(c.lam) // 4)]):
            c.classification = "degenerate-eigenvalue"
        else:
            c.classification = "regular"

    # pair positive and negative side curves in increasing-lambda order
    pos = [i for i, c in enumerate(curves) if c.side == +1]
    neg = [i for i, c in enumerate(curves) if c.side == -1]

    def order_key(ci):
        c = curves[ci]
        k = int(np.argmin(np.abs(c.s)))
        return c.lam[k]

    pos.sort(key=order_key)
    neg.sort(key=order_key)
    for a, b in zip(pos, neg):
        curves[a].partner = b
        curves[b].partner = a

    certified = m is not None and m % 2 == 1 and (mu_m is not None and mu_m != 0.0)
    return LocalBranches(curves=curves, m_estimate=m, mu_m=mu_m, certified=certified)


def seed_from_family(family: AnalyticFamily, s_max: float, lam_max: float):
    """Pick a non-trivial zero (s0, lambda0) of the reduced map on a coarse
    lattice and assemble the corresponding state s0*v + w(s0, lambda0).

    The lattice is 9 lambda values on [-lam_max, lam_max] by 7 values of |s|
    on [0.2 s_max, s_max], scanned outward from the smallest |s| until a
    column has a zero (|B| <= 1e-9); a vertical column gives lambda = 0.

    Raises NoSecondaryBranchError when every lattice zero lies on the trivial
    branch s = 0.
    """
    lam_vals = np.linspace(-lam_max, lam_max, 9)
    candidates = []
    for s_a in np.linspace(0.2 * s_max, s_max, 7):
        for side in (+1, -1):
            s = side * s_a
            roots = _column_zeros(family, s, lam_vals, 1e-9)
            candidates += [(s, 0.0)] if roots is None else [(s, r) for r in roots]
        if candidates:
            break
    if not candidates:
        raise NoSecondaryBranchError(
            "all reduced-map lattice zeros lie on the trivial branch"
        )
    s0, lam0 = min(candidates, key=lambda c: (abs(c[0]), abs(c[1])))
    ed = family.eigendata(lam0)
    w0 = solve_complement(family, s0, lam0)
    return s0, lam0, s0 * ed.v + w0


# ---------------------------------------------------------------------------
# PDE-level branch switching
# ---------------------------------------------------------------------------


def _pencil_eigendata(field, J, ip_weight):
    """Right/left eigenpair of the spectral pencil of the field
    (branch.pencil_weight) nearest 0, normalized <v, v> = 1 and <v, w> = 1 in
    the grid inner product."""
    b = branch_mod.pencil_weight(field)
    vals, vecs, lvecs = branch_mod.shift_invert_eigs(J, b, 1e-10, 1, left=True)
    return _normalized_eigendata(
        float(vals[0]), vecs[:, 0], lvecs[:, 0], ip_weight, 1e-10,
        "PDE eigen-normalization degenerate",
    )


def family_from_branch(bracket, spec, t_star):
    """AnalyticFamily for the strip problem around the refined crossing t_star:
    x = deviation from the primary branch state h(t_star + lambda), so that
    F(0, lambda) = 0 along the branch."""
    a, _ = bracket
    grid = a.field.grid
    weight = grid.ip_weight
    base_cache: dict[float, object] = {}
    eig_cache: dict[float, EigenData] = {}

    def base(lam: float):
        if lam not in base_cache:
            base_cache[lam] = branch_mod.point_at_arclength(a, spec, t_star + lam)
        return base_cache[lam]

    def f(x, lam):
        pt = base(lam)
        fld = unpack(pt.field, pack(pt.field) + x)
        return residual_vector(fld, spec)

    def df(x, lam):
        pt = base(lam)
        fld = unpack(pt.field, pack(pt.field) + x)
        return assemble_jacobian(fld, spec)

    def eigendata(lam: float) -> EigenData:
        if lam not in eig_cache:
            fld = base(lam).field
            eig_cache[lam] = _pencil_eigendata(fld, assemble_jacobian(fld, spec), weight)
        return eig_cache[lam]

    fam = AnalyticFamily(n=grid.n_unknowns, f=f, df=df, eigendata=eigendata, ip_weight=weight)
    fam.base = base  # used by switch_branch to rebuild fields
    return fam


def switch_branch(bracket, spec, nu0_grid_n):
    """Construct a converged off-branch seed at an eigenvalue crossing.

    bracket: pair of BranchPoint that form a branch.crossing_bracket, with
    fields, and a stored tangent on the first.  Returns the seed StripField
    after it re-converges under the plain Newton solver at the selected R;
    raises NoSecondaryBranchError when the reduced map shows only trivial
    zeros at lattice resolution (seed_from_family on |s| <= 1e-2 and |lambda|
    up to half the bracket's arclength).

    The crossing t* is refined by Brent's method on mu1(t): at each iterate,
    point_at_arclength re-solves the branch from the first point and
    spectrum_at (default shift, nu0 on nu0_grid_n nodes) gives mu1 of its
    field.  nu0_grid_n is the edge grid the bracket's mu1 and nu0 were
    computed on: mu1 is told from its sentinel nu0 on one grid throughout.
    """
    a, b = bracket
    if a.field is None or b.field is None or a.tangent_x is None:
        raise PreconditionError("bracket points must carry fields and tangents")
    if not branch_mod.crossing_bracket(a, b):
        raise PreconditionError("bracket has no mu1 sign change strictly below nu0")

    cache: dict[float, float] = {a.t: a.mu1, b.t: b.mu1}

    def mu1_of(t: float) -> float:
        if t not in cache:
            pt = branch_mod.point_at_arclength(a, spec, t)
            cache[t] = branch_mod.spectrum_at(pt.field, spec, nu0_grid_n=nu0_grid_n).mu1
        return cache[t]

    t_star = brentq(mu1_of, a.t, b.t, xtol=1e-10, maxiter=30)

    fam = family_from_branch((a, b), spec, t_star)
    s0, lam0, x0 = seed_from_family(fam, s_max=1e-2, lam_max=0.5 * (b.t - a.t))
    base_pt = fam.base(lam0)
    seed = unpack(base_pt.field, pack(base_pt.field) + x0)
    converged = newton_solve(seed, spec)
    dist = float(np.abs(converged.h - base_pt.field.h).max())
    if dist <= 10.0 * NEWTON_TOL:
        raise NoSecondaryBranchError(
            f"seed re-converged onto the primary branch (distance {dist:.3e})"
        )
    return converged


# ---------------------------------------------------------------------------
# model gallery
# ---------------------------------------------------------------------------


def _power_family(m: int) -> AnalyticFamily:
    """F = (lam^m*x1 - x1^3 + x1*x2^2, -x2 + x1^2): crossing order m."""

    def f(x, lam):
        return np.array(
            [lam**m * x[0] - x[0] ** 3 + x[0] * x[1] ** 2, -x[1] + x[0] ** 2]
        )

    def df(x, lam):
        return np.array(
            [[lam**m - 3 * x[0] ** 2 + x[1] ** 2, 2 * x[0] * x[1]], [2 * x[0], -1.0]]
        )

    return finite_family(f, df, 2)


def pitchfork_family() -> AnalyticFamily:
    """The lam^m family with crossing order m = 1."""
    return _power_family(1)


def cubic_mu_family() -> AnalyticFamily:
    """The lam^m family with crossing order m = 3."""
    return _power_family(3)


def vertical_family() -> AnalyticFamily:
    """F = (-x1^3 + x1*x2, -x2 + x1^2): lambda-independent, so the bifurcating
    set is vertical (solutions at every lambda); mu(lambda) = 0 identically."""

    def f(x, lam):
        return np.array([-x[0] ** 3 + x[0] * x[1], -x[1] + x[0] ** 2])

    def df(x, lam):
        return np.array([[-3 * x[0] ** 2 + x[1], x[0]], [2 * x[0], -1.0]])

    return finite_family(f, df, 2)


def even_mu_family() -> AnalyticFamily:
    """The lam^m family with even crossing order m = 2, for which branch
    counts are not certified."""
    return _power_family(2)


# each case's family and the half-width lam_max of its chart
MODEL_GALLERY = {
    "pitchfork": (pitchfork_family, 0.12),
    "cubic": (cubic_mu_family, 0.5),
    "vertical": (vertical_family, 0.2),
    "even": (even_mu_family, 0.35),
}


def gallery_branches(case: str) -> LocalBranches:
    """local_branches of a MODEL_GALLERY case on its chart: |s| <= 0.3 on 13
    columns per side, |lambda| <= its lam_max on 61 rows."""
    make, lam_max = MODEL_GALLERY[case]
    return local_branches(make(), s_max=0.3, lam_max=lam_max, ns=13, nlam=61)
