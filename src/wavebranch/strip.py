"""Discretization and Newton solution of the height equation on a truncated,
even-symmetric half-strip [0, L] x [0, 1] in hodograph variables (q, p).

Interior equation (divergence form) and surface condition:

    ((1 + h_q^2) / (2 h_p^2) + Omega(p))_p - (h_q / h_p)_q = 0
    (1 + h_q^2) / (2 h_p^2) + h = R           at p = 1
    h = 0                                     at p = 0

Boundary treatment: even symmetry at q = 0 via a ghost column, Dirichlet pin
to the supercritical stream profile at q = L.  Fluxes are evaluated at
half-nodes from averaged difference quotients (second order); the Jacobian is
the exact derivative of the discrete residual.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CheckpointFormatError,
    DomainError,
    NumericalError,
    StagnationBreachError,
)
from .roots import NewtonInfo, newton
from .stream import (
    depth as stream_depth,
    dispersion_summary,
    froude_of_theta,
    moments,
    solve_theta_for_R,
)
from .vorticity import VorticitySpec, eval_Omega

__all__ = [
    "StripGrid",
    "StripField",
    "StripResidual",
    "NewtonInfo",
    "residual",
    "residual_vector",
    "node_derivatives",
    "assemble_jacobian",
    "jacobian_and_dR",
    "BandMatrix",
    "BandLU",
    "band_lu",
    "newton_solve",
    "initial_guess",
    "resolve_at",
    "far_column",
    "field_at",
    "default_grid",
    "min_forward_hp",
    "check_unidirectional",
    "pack",
    "unpack",
    "write_checkpoint",
    "read_checkpoint",
]


def _load_extension(name: str):
    """The compiled extension module of the dotted name `name` inside scipy,
    loaded from its file next to scipy's package without running the
    `__init__` of any package above it: `scipy.linalg`'s array-API set-up
    imports numpy.f2py, numpy.testing, numpy.random and numpy.ma (about
    0.25 s of a fresh interpreter), and `scipy.sparse.linalg` loads
    `scipy.linalg` too.  The module is registered under its own name, so a
    later `import scipy...` reuses it and binds the same objects.  scipy's
    folder is found without importing the scipy package either."""
    if name in sys.modules:
        return sys.modules[name]
    top, *packages, leaf = name.split(".")
    folder = os.path.join(importlib.util.find_spec(top).submodule_search_locations[0],
                          *packages)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, leaf + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    from importlib import metadata  # only here: it imports email and zipfile

    raise ImportError(f"no {name} extension in {folder} (scipy {metadata.version(top)})")


_flapack = _load_extension("scipy.linalg._flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs

# residual sup-norm at which a Newton solve, fixed-R or bordered, has converged
NEWTON_TOL = 1e-10

# the truncation L of the default grid, in far-field depths d_-(R)
DEFAULT_L_FACTOR = 30.0


@dataclass(frozen=True)
class StripGrid:
    """Uniform grid on [0, L] x [0, 1]: q_i = i*dq (q_0 = 0 symmetry axis,
    q_{nq-1} = L far field), p_j = j*dp (p_0 = 0 bottom, p_{np-1} = 1 surface)."""

    L: float
    nq: int
    np: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.nq < 9 or self.np < 9:
            raise ValueError("nq and np must be at least 9")

    @property
    def dq(self) -> float:
        return self.L / (self.nq - 1)

    @property
    def dp(self) -> float:
        return 1.0 / (self.np - 1)

    @property
    def q(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nq)

    @property
    def p(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.np)

    @property
    def n_unknowns(self) -> int:
        return (self.nq - 1) * (self.np - 1)

    @property
    def ip_weight(self) -> float:
        """Cell area dq*dp: the weight of the grid inner product of unknown
        vectors, which the corrector's arclength and the Lyapunov-Schmidt
        projections share."""
        return self.dq * self.dp

    def unknowns(self, a: np.ndarray) -> np.ndarray:
        """A new vector of the nodal (nq, np) array a in the unknown ordering
        k = i*(np-1) + (j-1), i = 0..nq-2, j = 1..np-1: the far-field nodes
        i = nq-1 and the bottom nodes j = 0 are pinned and dropped."""
        return a[: self.nq - 1, 1:].flatten()


@dataclass
class StripField:
    """Grid sample of the strip unknown h plus its Bernoulli constant R and the
    far-field stream parameter theta (supercritical root of R(theta) = R)."""

    grid: StripGrid
    h: np.ndarray
    R: float
    theta: float

    def copy(self) -> "StripField":
        return StripField(grid=self.grid, h=self.h.copy(), R=self.R, theta=self.theta)

    @property
    def xi(self) -> np.ndarray:
        """Surface elevation xi(q) = h(q, 1)."""
        return self.h[:, -1]


@dataclass(frozen=True)
class StripResidual:
    """Interior PDE residual, surface Bernoulli residual, and their sup-norm."""

    interior: np.ndarray  # (nq-1, np-2)
    surface: np.ndarray  # (nq-1,)
    sup: float


def default_grid(spec: VorticitySpec, R: float, nq: int = 301, npp: int = 41,
                 L_factor: float = DEFAULT_L_FACTOR) -> StripGrid:
    """Default truncation: L = L_factor * d_-(R) with the standard node counts."""
    theta = solve_theta_for_R(spec, R, "supercritical")
    d = stream_depth(spec, theta)
    return StripGrid(L=L_factor * d, nq=nq, np=npp)


def _extended(h: np.ndarray) -> np.ndarray:
    """Prepend the even-symmetry ghost column: he[0] = h[1], he[1:] = h."""
    nq, npp = h.shape
    he = np.empty((nq + 1, npp))
    he[0] = h[1]
    he[1:] = h
    return he


def min_forward_hp(field: StripField) -> float:
    """Global minimum of the forward-difference h_p over the grid."""
    return float((np.diff(field.h, axis=1) / field.grid.dp).min())


def check_unidirectional(field: StripField) -> None:
    """Raise StagnationBreachError unless h_p > 0: every forward difference
    and the one-sided second-order h_p on the surface."""
    fwd = min_forward_hp(field)
    if fwd <= 0.0:
        raise StagnationBreachError(f"h_p <= 0 detected (min forward difference {fwd:.3e}); "
                                    "unidirectionality lost")
    h = field.h
    m = (3.0 * h[:, -1] - 4.0 * h[:, -2] + h[:, -3]) / (2.0 * field.grid.dp)
    if m.min() <= 0.0:
        raise StagnationBreachError("one-sided surface h_p <= 0; unidirectionality lost")


def node_derivatives(field: StripField):
    """h_q and h_p at all nodes: central in the interior, one-sided second
    order at the boundaries, and h_q = 0 on the symmetry axis q = 0.  The
    derivatives of h that the reconstruction, the branch diagnostics and the
    spectral pencil read; the residual keeps its own half-node fluxes."""
    h = field.h
    dq, dp = field.grid.dq, field.grid.dp

    hq = np.empty_like(h)
    hq[1:-1] = (h[2:] - h[:-2]) / (2.0 * dq)
    hq[0] = 0.0  # even symmetry
    hq[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * dq)

    hp = np.empty_like(h)
    hp[:, 1:-1] = (h[:, 2:] - h[:, :-2]) / (2.0 * dp)
    hp[:, 0] = (-3.0 * h[:, 0] + 4.0 * h[:, 1] - h[:, 2]) / (2.0 * dp)
    hp[:, -1] = (3.0 * h[:, -1] - 4.0 * h[:, -2] + h[:, -3]) / (2.0 * dp)
    return hq, hp


def _flux_pieces(field: StripField, spec: VorticitySpec):
    """Half-node flux ingredients shared by residual and Jacobian assembly."""
    grid = field.grid
    nq, npp = grid.nq, grid.np
    dq, dp = grid.dq, grid.dp
    he = _extended(field.h)

    # central q-derivative at physical columns i = 0..nq-2, all j
    hqc = (he[2:, :] - he[:-2, :]) / (2.0 * dq)  # (nq-1, np)

    # p-fluxes at (i, j+1/2), i = 0..nq-2, j = 0..np-2
    b = (he[1:nq, 1:] - he[1:nq, :-1]) / dp  # (nq-1, np-1)
    a = 0.5 * (hqc[:, :-1] + hqc[:, 1:])  # (nq-1, np-1)
    pmid = (np.arange(npp - 1) + 0.5) * dp
    Gp = (1.0 + a * a) / (2.0 * b * b) + eval_Omega(spec, pmid)[None, :]

    # q-fluxes at faces f = 0..nq-1 (between he[f] and he[f+1]), j = 1..np-2
    c = (he[1:, 1:-1] - he[:-1, 1:-1]) / dq  # (nq, np-2)
    hpc = (he[:, 2:] - he[:, :-2]) / (2.0 * dp)  # (nq+1, np-2)
    e = 0.5 * (hpc[:-1, :] + hpc[1:, :])  # (nq, np-2)
    Fq = c / e

    # surface pieces at i = 0..nq-2
    g = hqc[:, -1]  # (nq-1,)
    m = (3.0 * he[1:nq, -1] - 4.0 * he[1:nq, -2] + he[1:nq, -3]) / (2.0 * dp)
    return he, a, b, Gp, c, e, Fq, g, m


def residual(field: StripField, spec: VorticitySpec) -> StripResidual:
    """Discrete residual of the strip problem at the given field."""
    check_unidirectional(field)
    grid = field.grid
    dq, dp = grid.dq, grid.dp
    _, _, _, Gp, _, _, Fq, g, m = _flux_pieces(field, spec)

    interior = (Gp[:, 1:] - Gp[:, :-1]) / dp - (Fq[1:, :] - Fq[:-1, :]) / dq
    surface = (1.0 + g * g) / (2.0 * m * m) + field.h[: grid.nq - 1, -1] - field.R

    # np.maximum, unlike max(), keeps a nan of either part
    sup = float(np.maximum(np.abs(interior).max(), np.abs(surface).max()))
    return StripResidual(interior=interior, surface=surface, sup=sup)


def pack(field: StripField) -> np.ndarray:
    """Unknown vector of field (StripGrid.unknowns of h)."""
    return field.grid.unknowns(field.h)


def unpack(field: StripField, x: np.ndarray) -> StripField:
    """New field with the unknown entries replaced by x (pinned rows untouched)."""
    out = field.copy()
    out.h[: field.grid.nq - 1, 1:] = x.reshape(field.grid.nq - 1, field.grid.np - 1)
    return out


def _packed(r: StripResidual) -> np.ndarray:
    """Residual in the unknown ordering k = i*(np-1) + (j-1)."""
    return np.column_stack([r.interior, r.surface]).ravel()


def residual_vector(field: StripField, spec: VorticitySpec) -> np.ndarray:
    """Residual packed in the unknown ordering k = i*(np-1) + (j-1)."""
    return _packed(residual(field, spec))


def _stencil_slots(field: StripField, spec: VorticitySpec) -> np.ndarray:
    """Exact derivatives of the discrete residual by stencil slot.

    Row (i, j) couples to h(i+di, j+dj) with di, dj in {-1, 0, 1}, and the
    surface rows also to dj = -2.  The result has shape (3, 4, nq-1, np-1):
    [di+1, dj+2, i, j-1] is the derivative of row (i, j) with respect to
    h(i+di, j+dj), with the ghost column (i+di = -1) already folded onto
    i = 1.  Bottom (j+dj = 0) and far-field (i+di = nq-1) slots are kept."""
    grid = field.grid
    dq, dp = grid.dq, grid.dp
    _, a, b, _, c, e, _, g, m = _flux_pieces(field, spec)

    # interior row (i, j) is (Gp(i, j) - Gp(i, j-1))/dp - (Fq(i+1, j) - Fq(i, j))/dq;
    # Gp depends on b (the 2 nodes of the p-face) and a (4 nodes, 2 columns
    # either side), Fq on c (the 2 nodes of the q-face) and e (4 nodes)
    ga = a / (b * b) * (1.0 / dp) / (4.0 * dq)
    gb = -(1.0 + a * a) / (b * b * b) * (1.0 / dp) / dp
    fc = 1.0 / e * (1.0 / dq) / dq
    fe = -c / (e * e) * (1.0 / dq) / (4.0 * dp)
    au, al = ga[:, 1:], -ga[:, :-1]  # upper face Gp(j), lower face Gp(j-1)
    bu, bl = gb[:, 1:], -gb[:, :-1]
    cr, cl = -fc[1:], fc[:-1]  # right face Fq(i+1), left face Fq(i)
    er, el = -fe[1:], fe[:-1]

    S = np.zeros((3, 4, grid.nq - 1, grid.np - 1))
    S[1, 3, :, :-1] = bu + er + el
    S[1, 2, :, :-1] = -bu + bl - cr + cl
    S[1, 1, :, :-1] = -bl - er - el
    S[2, 3, :, :-1] = au + er
    S[2, 2, :, :-1] = au + al + cr
    S[2, 1, :, :-1] = al - er
    S[0, 3, :, :-1] = -au + el
    S[0, 2, :, :-1] = -au - al - cl
    S[0, 1, :, :-1] = -al - el

    # surface row: (1 + g^2)/(2 m^2) + h - R, g central in q, m one-sided in p
    dBdg = g / (m * m) / (2.0 * dq)
    dBdm = -(1.0 + g * g) / (m * m * m)
    S[2, 2, :, -1] = dBdg
    S[0, 2, :, -1] = -dBdg
    S[1, 2, :, -1] = dBdm * (3.0 / (2.0 * dp)) + 1.0
    S[1, 1, :, -1] = dBdm * (-4.0 / (2.0 * dp))
    S[1, 0, :, -1] = dBdm * (1.0 / (2.0 * dp))

    # even symmetry: the ghost column he[0] is h[1], so at i = 0 the di = -1
    # derivatives belong to the same column as di = +1
    S[2, :, 0] += S[0, :, 0]
    S[0, :, 0] = 0.0
    return S


@dataclass(frozen=True, eq=False)
class BandMatrix:
    """Square matrix of half-bandwidth bw in LAPACK band storage: A[i, j] sits
    at ab[bw + i - j, j], so row bw of ab is the main diagonal.

    `offsets` are the diagonals i - j that may hold an entry; left out, they
    are read off ab once, as the diagonals with a nonzero.  Products and
    band_lu visit only those diagonals (the strip Jacobian fills 10 of its
    2 np + 1)."""

    ab: np.ndarray  # (2*bw + 1, n), Fortran order
    bw: int
    offsets: tuple | None = None
    # each filled diagonal as (off, its rows i, its columns j = i - off)
    diagonals: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n, bw = self.ab.shape[1], self.bw
        if self.offsets is None:
            filled = np.flatnonzero(self.ab.any(axis=1)) - bw
            object.__setattr__(self, "offsets", tuple(int(off) for off in filled))
        diagonals = tuple(
            (off, slice(max(0, off), min(n, n + off)), slice(max(0, -off), min(n, n - off)))
            for off in self.offsets
        )
        object.__setattr__(self, "diagonals", diagonals)

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "BandMatrix":
        """A square dense matrix in band storage of half-bandwidth n - 1."""
        n = A.shape[0]
        bw = n - 1
        ab = np.zeros((2 * bw + 1, n), order="F")
        for off in range(-bw, bw + 1):
            j = np.arange(max(0, -off), min(n, n - off))
            ab[bw + off, j] = A[j + off, j]
        return cls(ab, bw)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.ab.shape[1]
        return n, n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for x of shape (n,)."""
        y = np.zeros(self.ab.shape[1])
        for off, rows, cols in self.diagonals:
            y[rows] += self.ab[self.bw + off, cols] * x[cols]
        return y

    __matmul__ = matvec

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x for x of shape (n,)."""
        y = np.zeros(self.ab.shape[1])
        for off, rows, cols in self.diagonals:
            y[cols] += self.ab[self.bw + off, cols] * x[rows]
        return y

    def shift_diagonal(self, d) -> "BandMatrix":
        """A copy of the matrix with d added to its main diagonal."""
        ab = self.ab.copy(order="F")
        ab[self.bw] += d
        return BandMatrix(ab, self.bw, tuple(sorted(set(self.offsets) | {0})))

    def toarray(self) -> np.ndarray:
        """Dense copy (for small matrices)."""
        n, bw = self.ab.shape[1], self.bw
        out = np.zeros((n, n))
        for off in range(-bw, bw + 1):
            # the diagonal i - j = off, at columns j
            j = np.arange(max(0, -off), min(n, n - off))
            out[j + off, j] = self.ab[bw + off, j]
        return out


def _assembled(field: StripField, spec: VorticitySpec):
    """The Jacobian of assemble_jacobian, and the dense (np-1, np) block of
    derivatives of the last unknown column's rows (i = nq-2) with respect to
    the pinned far-field column h(L, p_j); no other row touches that column."""
    check_unidirectional(field)
    grid = field.grid
    npp = grid.np
    n = grid.n_unknowns
    S = _stencil_slots(field, spec)

    # row (nq-2, j) couples to h(L, j + dj) through slot [2, dj + 2]
    far = np.zeros((npp - 1, npp))
    r = np.arange(npp - 1)
    for dj in (-1, 0, 1):
        ok = r + 1 + dj <= npp - 1
        far[r[ok], r[ok] + 1 + dj] = S[2, dj + 2, -1, ok]
    S[2, :, -1] = 0.0  # the far-field column is pinned
    S[:, 1, :, 0] = 0.0  # so is the bottom

    bw = npp
    ab = np.zeros((2 * bw + 1, n), order="F")
    offsets = []
    for di in (-1, 0, 1):
        for dj in (-2, -1, 0, 1) if di == 0 else (-1, 0, 1):
            off = di * (npp - 1) + dj
            vals = S[di + 1, dj + 2].ravel()
            # A[k, k + off] sits at ab[bw - off, k + off]
            if off >= 0:
                ab[bw - off, off:] = vals[: n - off]
            else:
                ab[bw - off, : n + off] = vals[-off:]
            offsets.append(-off)  # the diagonal i - j = -off
    return BandMatrix(ab, bw, tuple(sorted(offsets))), far


def assemble_jacobian(field: StripField, spec: VorticitySpec) -> BandMatrix:
    """Exact Jacobian of the discrete residual over the unknowns, as a
    BandMatrix of half-bandwidth np: each stencil slot is copied into its band
    row by slicing.  Bottom entries (j + dj = 0) and far-field entries
    (i + di = nq-1) are pinned and dropped."""
    return _assembled(field, spec)[0]


def jacobian_and_dR(field: StripField, spec: VorticitySpec):
    """(J, F_R) from one assembly at a field whose far-field column is pinned
    to the supercritical stream of its R (field_at): the Jacobian of
    assemble_jacobian and the derivative of the residual vector in R.

    R enters through that column (dH/dR from far_column), which only the
    last unknown column's rows touch, and through the right-hand side of the
    surface condition."""
    J, far = _assembled(field, spec)
    grid = field.grid
    fr = np.zeros(grid.n_unknowns)
    fr[-far.shape[0] :] = far @ far_column(spec, field.R, grid)[2]
    fr[grid.np - 2 :: grid.np - 1] -= 1.0  # the surface rows
    return J, fr


@dataclass(frozen=True, eq=False)
class BandLU:
    """LU factors of a row-scaled BandMatrix (LAPACK dgbtrf).

    `matrix` is the factored BandMatrix itself, kept for the residuals of
    iterative refinement; diag(row_scale) @ matrix is what dgbtrf factored.
    """

    matrix: BandMatrix
    row_scale: np.ndarray
    lu: np.ndarray
    piv: np.ndarray

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve matrix @ x = rhs, or matrix.T @ x = rhs with trans=True, for
        rhs of shape (n,) or (n, k) (dgbtrs)."""
        bw = self.matrix.bw
        scale = self.row_scale if rhs.ndim == 1 else self.row_scale[:, None]
        if trans:
            # (D A)^T = A^T D with D = diag(row_scale): solve, then apply D
            x, info = dgbtrs(self.lu, bw, bw, rhs, self.piv, trans=1)
            x *= scale
        else:
            x, info = dgbtrs(self.lu, bw, bw, scale * rhs, self.piv, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dgbtrs: illegal value in argument {-info}")
        return x

    def _u_diagonal(self) -> np.ndarray:
        # dgbtrf keeps U's main diagonal in row kl + ku = 2 bw of the factor
        return self.lu[2 * self.matrix.bw]

    def sign_det(self) -> float:
        """Sign of det(matrix), +1.0 or -1.0: the sign of diag(U) times the
        parity of the row interchanges (the row scale is positive)."""
        swaps = np.count_nonzero(self.piv != np.arange(self.piv.size))
        negative = np.count_nonzero(self._u_diagonal() < 0.0)
        return -1.0 if (swaps + negative) % 2 else 1.0

    def log_abs_det(self) -> float:
        """log |det(matrix)|: the log of |diag(U)|, less that of the
        powers-of-two row scale dgbtrf factored with."""
        return float(np.log(np.abs(self._u_diagonal())).sum() - np.log(self.row_scale).sum())


def band_lu(A: BandMatrix) -> BandLU:
    """Factor a BandMatrix by band LU with partial pivoting (LAPACK dgbtrf).

    Rows are first scaled by powers of two to unit maximum, which is exact:
    unscaled, the surface rows and the interior rows of the strip Jacobian
    differ in size enough that partial pivoting loses about a decimal digit.
    An exactly singular matrix (a zero row or pivot) raises NumericalError.
    """
    bw, n = A.bw, A.shape[0]
    row_max = np.zeros(n)
    for off, rows, cols in A.diagonals:
        np.maximum(row_max[rows], np.abs(A.ab[bw + off, cols]), out=row_max[rows])
    if not row_max.all():
        raise NumericalError("band LU: matrix is singular (a row is zero)")
    row_scale = np.exp2(-np.round(np.log2(row_max)))
    # the top bw rows of the factor are room for the fill-in of row pivoting
    ab = np.zeros((3 * bw + 1, n), order="F")
    for off, rows, cols in A.diagonals:
        np.multiply(A.ab[bw + off, cols], row_scale[rows], out=ab[2 * bw + off, cols])
    lu, piv, info = dgbtrf(ab, bw, bw, overwrite_ab=1)
    if info > 0:
        raise NumericalError(f"band LU: matrix is singular (zero pivot in column {info})")
    if info < 0:
        raise ValueError(f"dgbtrf: illegal value in argument {-info}")
    return BandLU(matrix=A, row_scale=row_scale, lu=lu, piv=piv)


def newton_solve(
    f0: StripField,
    spec: VorticitySpec,
    tol: float = NEWTON_TOL,
    max_iter: int = 40,
    return_info: bool = False,
):
    """Newton at fixed R and far-field column to a residual sup-norm of at
    most tol: roots.newton, damped, with one assembly and band LU of J per
    iterate, whose factor also serves the chord steps after it and the
    polish.  With return_info=True, returns (field, NewtonInfo)."""
    if tol <= 0:
        raise ValueError("tol must be positive")

    # closures, not module-level functions: perfbench's tracer spans every
    # module-level function of strip and reads newton_solve's backtracks off
    # the residuals and assemblies that newton_solve itself calls
    def evaluate(x: np.ndarray):
        res = residual(unpack(f0, x), spec)
        return _packed(res), res.sup, res.sup <= tol

    def linearize(x: np.ndarray):
        lu = band_lu(assemble_jacobian(unpack(f0, x), spec))
        return lambda r: lu.solve(-r)

    x, info = newton(pack(f0), evaluate, linearize, max_iter, damped=True)
    f = unpack(f0, x)
    if return_info:
        return f, info
    return f


# the memoized stream.dispersion_summary, under the name callers of strip use
cached_summary = dispersion_summary


def _bump(grid: StripGrid, k: float) -> np.ndarray:
    """sech^2(k q) on the grid's q nodes, shifted and scaled to 1 at q = 0 and
    exactly zero at q = L."""
    bump = 1.0 / np.cosh(k * grid.q) ** 2
    return (bump - bump[-1]) / (1.0 - bump[-1])


def _build_guess(grid: StripGrid, Hcol: np.ndarray, d: float, a: float, k: float) -> np.ndarray:
    return Hcol[None, :] * (1.0 + a * _bump(grid, k)[:, None] / d)


def initial_guess(spec: VorticitySpec, R: float, grid: StripGrid) -> StripField:
    """Solitary-wave seed: supercritical stream plus the KdV sech^2 crest.

    h(q, p) = H(p; theta_-) * (1 + a0 beta(q) / d_-), beta the bump of _bump
    with wavenumber k0, at the KdV amplitude a0 = 2 d (F - 1) (floored at
    1e-3 d) and wavenumber k0 = sqrt(3 a0 / (4 d^3)) of the stream's depth d
    and Froude number F.  The branch leaves R_c as a small-amplitude wave of
    KdV type, and on the default 301x41 grid Newton converges from this seed
    in 3-6 iterates.  At R_c the seed is the critical stream itself.  No
    residual is evaluated.
    """
    theta, Hcol, _ = far_column(spec, R, grid)
    d = Hcol[-1]
    if R - dispersion_summary(spec).R_c <= 1e-13:
        h = np.tile(Hcol, (grid.nq, 1))
        return StripField(grid=grid, h=h, R=R, theta=theta)

    froude = froude_of_theta(spec, theta)
    a0 = max(2.0 * d * (froude - 1.0), 1e-3 * d)
    k0 = np.sqrt(3.0 * a0 / (4.0 * d**3))
    return StripField(grid=grid, h=_build_guess(grid, Hcol, d, a0, k0), R=R, theta=theta)


def resolve_at(field: StripField, spec: VorticitySpec, R: float) -> StripField:
    """Newton solve at R from field's unknowns, with the far-field column
    pinned to the supercritical stream of R."""
    return newton_solve(field_at(spec, field.grid, pack(field), R), spec)


@lru_cache(maxsize=256)
def far_column(spec: VorticitySpec, R: float, grid: StripGrid):
    """(theta, H, dH/dR) of the supercritical stream of R on the grid's
    p-nodes: the far-field column that every field at R pins, and its
    derivative in R.

    dH/dR = (dH/dtheta) / R'(theta), with dH/dtheta = -theta*M_3 and
    R'(theta) = theta + dH/dtheta at p = 1, from one moment-kernel call;
    theta comes from the memo of solve_theta_for_R.  Memoized as that is (the
    seed, the residual and the linearization of a corrector iterate and its
    accepted field ask for the same R), so the arrays are read-only."""
    theta = solve_theta_for_R(spec, R, "supercritical")
    H, m3 = moments(spec, theta, grid.p, (1, 3))
    dH = -theta * m3
    dH_dR = dH / (theta + dH[-1])
    H.flags.writeable = dH_dR.flags.writeable = False
    return theta, H, dH_dR


def field_at(spec: VorticitySpec, grid: StripGrid, x: np.ndarray, R: float) -> StripField:
    """The field at R with unknowns x (pack's ordering), its far-field column
    pinned to the supercritical stream of R and its bottom to h = 0."""
    theta, H, _ = far_column(spec, R, grid)
    h = np.zeros((grid.nq, grid.np))
    h[: grid.nq - 1, 1:] = x.reshape(grid.nq - 1, grid.np - 1)
    h[grid.nq - 1, :] = H
    return StripField(grid=grid, h=h, R=R, theta=theta)


# ---------------------------------------------------------------------------
# checkpoint serialization: plain text, shortest round-trip decimal floats,
# atomic write (temp file + rename)
# ---------------------------------------------------------------------------

_MAGIC = "wavebranch-checkpoint 1"


def _checkpoint_text(field: StripField, spec: VorticitySpec) -> str:
    """The checkpoint file's text for field and spec."""
    grid = field.grid

    def fmt(x) -> str:
        return repr(float(x))

    lines = [
        _MAGIC,
        "omega " + " ".join(fmt(c) for c in spec.coeffs),
        f"L {fmt(grid.L)}",
        f"nq {int(grid.nq)}",
        f"np {int(grid.np)}",
        f"R {fmt(field.R)}",
        f"theta {fmt(field.theta)}",
    ]
    lines += (" ".join(map(repr, row)) for row in field.h.tolist())
    return "\n".join(lines) + "\n"


def write_checkpoint(path: str, field: StripField, spec: VorticitySpec) -> None:
    data = _checkpoint_text(field, spec)
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path: str) -> tuple[StripField, VorticitySpec]:
    """Field and vorticity of a checkpoint; anything that is not a valid
    checkpoint (bad text, grid or non-finite numbers) raises
    CheckpointFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a text file: {exc}") from exc
    if not lines or lines[0] != _MAGIC:
        raise CheckpointFormatError(f"{path}: not a wavebranch checkpoint")
    try:
        omega = VorticitySpec([float(t) for t in lines[1].split()[1:]])
        L = float(lines[2].split()[1])
        nq = int(lines[3].split()[1])
        npp = int(lines[4].split()[1])
        R = float(lines[5].split()[1])
        theta = float(lines[6].split()[1])
        h = np.array([[float(t) for t in lines[7 + i].split()] for i in range(nq)])
    except (IndexError, ValueError, DomainError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    if h.shape != (nq, npp):
        raise CheckpointFormatError(f"{path}: h block shape {h.shape} != ({nq}, {npp})")
    if not (np.isfinite([L, R, theta]).all() and np.isfinite(h).all()):
        raise CheckpointFormatError(f"{path}: non-finite value in L, R, theta or h")
    try:
        grid = StripGrid(L=L, nq=nq, np=npp)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: bad grid: {exc}") from exc
    return StripField(grid=grid, h=h, R=R, theta=theta), omega
