"""The band assembly (strip.assemble_jacobian) and the band LU core
(strip.band_lu) against sparse and SuperLU references kept here only."""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigs, spsolve

from wavebranch import branch, cli, roots, spectrum1d, stream, strip
from wavebranch.errors import NumericalError


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _csc(band):
    """The BandMatrix as a scipy CSC matrix, built from its band array."""
    n, bw = band.shape[0], band.bw
    # band row r holds the diagonal i - j = r - bw at column j, which is where
    # scipy's DIA format keeps its diagonal j - i = bw - r
    return sp.dia_matrix((band.ab, bw - np.arange(2 * bw + 1)), shape=(n, n)).tocsc()


def _band(A, bw):
    """The dense square A as a BandMatrix of half-bandwidth bw."""
    n = A.shape[0]
    ab = np.zeros((2 * bw + 1, n), order="F")
    for off in range(-bw, bw + 1):
        j = np.arange(max(0, -off), min(n, n - off))
        ab[bw + off, j] = A[j + off, j]
    return strip.BandMatrix(ab, bw)


def _reference_jacobian(field, spec):
    """Reference strip Jacobian, from one COO triplet per flux derivative over
    the extended array (ghost column first), summed into CSR by scipy.
    Returns the (N x N) matrix
    over the unknowns and the (N x np) matrix of derivatives with respect to
    the pinned far-field column."""
    strip.check_unidirectional(field)
    grid = field.grid
    nq, npp = grid.nq, grid.np
    dq, dp = grid.dq, grid.dp
    N = grid.n_unknowns
    _, a, b, _, c, e, _, g, m = strip._flux_pieces(field, spec)

    dGda = a / (b * b)
    dGdb = -(1.0 + a * a) / (b * b * b)
    dFdc = 1.0 / e
    dFde = -c / (e * e)
    rows_l, iis_l, jjs_l, vals_l = [], [], [], []

    def add(rows, ii, jj, vals):
        rows_l.append(rows.ravel())
        iis_l.append(ii.ravel())
        jjs_l.append(jj.ravel())
        vals_l.append(vals.ravel())

    I, J = np.meshgrid(np.arange(nq - 1), np.arange(1, npp - 1), indexing="ij")
    rows = I * (npp - 1) + (J - 1)
    for jf, sgn in ((J, 1.0 / dp), (J - 1, -1.0 / dp)):
        da = dGda[I, jf] * sgn
        db = dGdb[I, jf] * sgn
        add(rows, I + 1, jf + 1, db / dp)
        add(rows, I + 1, jf, -db / dp)
        for jslot in (jf, jf + 1):
            add(rows, I + 2, jslot, da / (4.0 * dq))
            add(rows, I, jslot, -da / (4.0 * dq))
    for f, sgn in ((I + 1, -1.0 / dq), (I, 1.0 / dq)):
        dc = dFdc[f, J - 1] * sgn
        de = dFde[f, J - 1] * sgn
        add(rows, f + 1, J, dc / dq)
        add(rows, f, J, -dc / dq)
        for fslot in (f, f + 1):
            add(rows, fslot, J + 1, de / (4.0 * dp))
            add(rows, fslot, J - 1, -de / (4.0 * dp))

    i_s = np.arange(nq - 1)
    rows_s = i_s * (npp - 1) + (npp - 2)
    dBdg = g / (m * m)
    dBdm = -(1.0 + g * g) / (m * m * m)
    last = np.full(nq - 1, npp - 1)
    add(rows_s, i_s + 2, last, dBdg / (2.0 * dq))
    add(rows_s, i_s, last, -dBdg / (2.0 * dq))
    add(rows_s, i_s + 1, last, dBdm * (3.0 / (2.0 * dp)) + 1.0)
    add(rows_s, i_s + 1, last - 1, dBdm * (-4.0 / (2.0 * dp)))
    add(rows_s, i_s + 1, last - 2, dBdm * (1.0 / (2.0 * dp)))

    rows_all = np.concatenate(rows_l)
    ii_all = np.concatenate(iis_l)
    jj_all = np.concatenate(jjs_l)
    vals_all = np.concatenate(vals_l)
    # the ghost column ii = 0 folds onto i = 1; bottom (jj = 0) and far-field
    # (i = nq-1) entries are pinned
    i_phys = np.where(ii_all == 0, 1, ii_all - 1)
    valid = (jj_all >= 1) & (i_phys <= nq - 2)
    cols = i_phys * (npp - 1) + (jj_all - 1)
    J_mat = sp.coo_matrix(
        (vals_all[valid], (rows_all[valid], cols[valid])), shape=(N, N)
    ).tocsr()
    far = (~valid) & (i_phys == nq - 1)
    J_bnd = sp.coo_matrix((vals_all[far], (rows_all[far], jj_all[far])), shape=(N, npp)).tocsr()
    return J_mat, J_bnd


@pytest.fixture(scope="module")
def wave153_default(irrot):
    """Solved irrotational wave at R = 1.53 on the default 301x41 grid."""
    grid = strip.default_grid(irrot, 1.53)
    return strip.newton_solve(strip.initial_guess(irrot, 1.53, grid), irrot, tol=1e-10)


@pytest.fixture(scope="module")
def near_turning(fold_branch):
    """The accepted fold_branch point nearest the Turning, where J is nearly
    singular."""
    pts, _ = fold_branch
    turning = next(e for e in branch.detect_events(pts) if isinstance(e, branch.Turning))
    return min(pts[1:], key=lambda p: abs(p.t - turning.t))


class TestBandAssembly:
    @pytest.mark.parametrize("wave", ["wave153_medium", "wave153_default"])
    def test_matches_coo_reference(self, request, irrot, wave):
        field = request.getfixturevalue(wave)
        npp = field.grid.np
        J, F_R = strip.jacobian_and_dR(field, irrot)
        ref, ref_bnd = _reference_jacobian(field, irrot)
        assert J.bw == npp
        coo = ref.tocoo()
        # the reference has no entry outside the band
        assert np.abs(coo.row - coo.col).max() <= npp
        ref_ab = np.zeros_like(J.ab)
        ref_ab[npp + coo.row - coo.col, coo.col] = coo.data
        assert np.abs(J.ab - ref_ab).max() <= 1e-15 * np.abs(ref_ab).max()
        # only the last unknown column's rows touch the far-field column, and
        # F_R is that block times dH/dR, less 1 on the surface rows
        bnd = ref_bnd.toarray()
        assert not bnd[: -(npp - 1)].any()
        assert np.array_equal(strip._assembled(field, irrot)[1], bnd[-(npp - 1) :])
        ref_fr = np.zeros_like(F_R)
        ref_fr[-(npp - 1) :] = bnd[-(npp - 1) :] @ strip.far_column(irrot, field.R, field.grid)[2]
        ref_fr[npp - 2 :: npp - 1] -= 1.0
        assert np.array_equal(F_R, ref_fr)

    def test_matvec_is_the_dense_product(self, irrot, wave153_small):
        J = strip.assemble_jacobian(wave153_small, irrot)
        A = J.toarray()
        x = np.random.default_rng(3).standard_normal(J.shape[0])
        assert _rel(J @ x, A @ x) <= 1e-14
        assert _rel(J.rmatvec(x), A.T @ x) <= 1e-14
        assert np.array_equal(_band(A, J.bw).ab, J.ab)

    def test_recorded_diagonals_are_the_filled_ones(self, irrot, wave153_small):
        # assembly records the 10 stencil diagonals; a BandMatrix built from
        # the same array finds the same ones by reading it
        J = strip.assemble_jacobian(wave153_small, irrot)
        npp = wave153_small.grid.np
        assert len(J.offsets) == 10
        assert J.offsets == strip.BandMatrix(J.ab, J.bw).offsets
        assert {-npp, 0, 2, npp} <= set(J.offsets)

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_dense_products_and_solve(self, n):
        # a dense matrix is a band matrix with bw = n - 1, which BLAS dgbmv
        # rejected (it needs n >= 2 bw + 1)
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        J = strip.BandMatrix.from_dense(A)
        assert J.bw == n - 1
        assert np.array_equal(J.toarray(), A)
        x = rng.standard_normal(n)
        assert _rel(J @ x, A @ x) <= 1e-14
        assert _rel(J.rmatvec(x), A.T @ x) <= 1e-14
        assert _rel(strip.band_lu(J).solve(x), np.linalg.solve(A, x)) <= 1e-14

    def test_diagonal_shift_is_the_sparse_difference(self, irrot, wave153_small):
        J = strip.assemble_jacobian(wave153_small, irrot)
        b = branch.pencil_weight(wave153_small)
        sigma = -0.37
        shifted = J.shift_diagonal(-sigma * b)
        ref = _csc(J) - sigma * sp.diags(b)
        assert (_csc(shifted) != ref).nnz == 0
        assert np.array_equal(J.ab, strip.assemble_jacobian(wave153_small, irrot).ab)


class TestBandSolve:
    @pytest.mark.parametrize("wave", ["wave153_medium", "wave153_default"])
    def test_matches_spsolve(self, request, irrot, wave):
        field = request.getfixturevalue(wave)
        J = strip.assemble_jacobian(field, irrot)
        rhs = np.random.default_rng(5).standard_normal(J.shape[0])
        x = strip.band_lu(J).solve(rhs)
        assert _rel(x, spsolve(_csc(J), rhs)) <= 1e-12

    @pytest.mark.parametrize("wave", ["wave153_medium", "wave153_default"])
    def test_transposed_solve_matches_spsolve(self, request, irrot, wave):
        field = request.getfixturevalue(wave)
        J = strip.assemble_jacobian(field, irrot)
        rhs = np.random.default_rng(8).standard_normal(J.shape[0])
        x = strip.band_lu(J).solve(rhs, trans=True)
        assert _rel(x, spsolve(_csc(J).T.tocsc(), rhs)) <= 1e-12

    def test_repeat_is_bitwise_identical(self, irrot, wave153_medium):
        J = strip.assemble_jacobian(wave153_medium, irrot)
        rhs = np.random.default_rng(6).standard_normal((J.shape[0], 2))
        a = strip.band_lu(J).solve(rhs)
        b = strip.band_lu(J).solve(rhs)
        assert a.tobytes() == b.tobytes()

    def test_singular_raises_numerical_error(self):
        # two equal rows: no zero row, but a zero pivot in the second column
        A = np.array(
            [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]]
        )
        with pytest.raises(NumericalError, match="zero pivot in column 2"):
            strip.band_lu(_band(A, 1))
        A[1, 0] = A[1, 1] = 0.0
        with pytest.raises(NumericalError, match="row is zero"):
            strip.band_lu(_band(A, 1))


class TestDeterminant:
    def test_matches_slogdet(self):
        # a weak main diagonal makes dgbtrf pivot, and rows 1e8 apart give
        # every row its own power-of-two scale
        rng = np.random.default_rng(11)
        n, bw = 12, 3
        A = np.triu(np.tril(rng.standard_normal((n, n)), bw), -bw)
        A[np.arange(n), np.arange(n)] *= 1e-3
        A *= np.logspace(-4, 4, n)[:, None]
        lu = strip.band_lu(_band(A, bw))
        assert not np.array_equal(lu.piv, np.arange(n))
        assert np.unique(lu.row_scale).size == n
        sign, logdet = np.linalg.slogdet(A)
        assert lu.sign_det() == sign
        assert lu.log_abs_det() == pytest.approx(logdet, rel=1e-13)
        A[0] *= -1.0
        lu = strip.band_lu(_band(A, bw))
        assert lu.sign_det() == -sign
        assert lu.log_abs_det() == pytest.approx(logdet, rel=1e-13)

    def test_sign_flips_at_the_turning(self, irrot, fold_branch):
        pts, _ = fold_branch
        turning = next(e for e in branch.detect_events(pts) if isinstance(e, branch.Turning))
        signs = [strip.band_lu(strip.assemble_jacobian(p.field, irrot)).sign_det() for p in pts]
        assert signs == [-1.0 if p.t < turning.t else 1.0 for p in pts]


class TestBorderedSolve:
    def test_block_elimination_matches_bordered_spsolve(self, irrot, near_turning):
        p = near_turning
        sys_ = branch.SolitarySystem(irrot, p.field.grid)
        lu, F_R = sys_.linearize(strip.pack(p.field), p.R)
        w = sys_.ip_weight * p.tangent_x
        rng = np.random.default_rng(7)
        top, bot = rng.standard_normal(w.size), float(rng.standard_normal())
        dx, dlam = roots.solve_bordered(lu, F_R, w, p.tangent_lam, top, bot)

        A = sp.bmat(
            [
                [_csc(lu.matrix), sp.csc_matrix(F_R.reshape(-1, 1))],
                [sp.csc_matrix(w.reshape(1, -1)), sp.csc_matrix([[p.tangent_lam]])],
            ],
            format="csc",
        )
        b = np.concatenate([top, [bot]])
        z = np.concatenate([dx, [dlam]])
        assert _rel(z, spsolve(A, b)) <= 1e-10
        assert np.abs(A @ z - b).max() <= 1e-12 * np.abs(b).max()


class TestRDerivative:
    def test_F_R_is_the_central_difference_of_the_residual(self, irrot, near_turning):
        # F_R against the residual at the same unknowns with the far-field
        # column re-pinned at R -+ delta, where J is nearly singular; the
        # difference's own O(delta^2) error is 5.9e-9 relative here
        p = near_turning
        grid, x = p.field.grid, strip.pack(p.field)

        def F(R):
            return strip.residual_vector(strip.field_at(irrot, grid, x, R), irrot)

        _, F_R = strip.jacobian_and_dR(strip.field_at(irrot, grid, x, p.R), irrot)
        delta = 1e-5
        fd = (F(p.R + delta) - F(p.R - delta)) / (2.0 * delta)
        assert np.abs(F_R - fd).max() <= 1e-7 * np.abs(F_R).max()


class TestSpectrum:
    def test_shift_invert_matches_superlu(self, irrot, near_turning):
        fld = near_turning.field
        grid = fld.grid
        info = branch.spectrum_at(fld, irrot, nu0_grid_n=512)

        # SuperLU shift-invert of the same pencil, with the same shift deepening
        J = _csc(strip.assemble_jacobian(fld, irrot))
        hp_c = (fld.h[: grid.nq - 1, 2:] - fld.h[: grid.nq - 1, :-2]) / (2.0 * grid.dp)
        bdiag = np.zeros((grid.nq - 1, grid.np - 1))
        bdiag[:, :-1] = 1.0 / hp_c
        B = sp.diags(bdiag.ravel(), format="csc")
        v0 = np.random.default_rng(1234).standard_normal(J.shape[0])
        v0 /= np.linalg.norm(v0)
        sigma = -1.5 * info.nu0
        for _ in range(4):
            vals, vecs = eigs(J, k=8, M=B, sigma=sigma, which="LM", v0=v0)
            order = np.argsort(vals.real)
            vals, vecs = vals.real[order], vecs.real[:, order]
            localized = np.array(
                [branch.localized_fraction(grid, vecs[:, j]) >= 0.99 for j in range(8)]
            )
            if np.any(localized & (vals < 0.0)):
                break
            sigma *= 4.0

        assert np.abs(info.eigenvalues - vals).max() <= 1e-10
        assert np.array_equal(info.localized, localized)

    @pytest.mark.parametrize("deepen", [1.0, 4.0])
    def test_arnoldi_is_bitwise_scipys_eigs(self, irrot, near_turning, deepen):
        # _arnoldi's ARPACK loop gives eigs' values and right and left vectors,
        # bit for bit, on the same factor of the nearly singular pencil
        from scipy.sparse.linalg import LinearOperator

        fld = near_turning.field
        nu0 = spectrum1d.nu0(spectrum1d.robin_problem(irrot, fld.theta, grid_n=512))
        sigma = -1.5 * nu0 * deepen
        J = strip.assemble_jacobian(fld, irrot)
        b = branch.pencil_weight(fld)
        n = b.size
        vals, vecs, lvecs = branch.shift_invert_eigs(J, b, sigma, 8, left=True)

        lu = strip.band_lu(J.shift_diagonal(-sigma * b))
        v0 = np.random.default_rng(1234).standard_normal(n)
        v0 /= np.linalg.norm(v0)
        M = LinearOperator((n, n), matvec=lambda x: b * x, dtype=float)
        want = []
        for A, solve in ((_csc(J), lu.solve), (_csc(J).T, lambda x: lu.solve(x, trans=True))):
            OPinv = LinearOperator((n, n), matvec=solve, dtype=float)
            ref_vals, ref_vecs = eigs(A, k=8, M=M, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
            order = np.argsort(ref_vals.real)
            want.append((ref_vals.real[order], ref_vecs.real[:, order]))
        assert vals.tobytes() == want[0][0].tobytes()
        assert vecs.tobytes() == want[0][1].tobytes()
        assert lvecs.tobytes() == want[1][1].tobytes()

    @pytest.mark.parametrize("stage", ["naupd", "neupd"])
    def test_arpack_info_raises(self, monkeypatch, stage):
        # a nonzero info from either ARPACK stage is a NumericalError
        def naupd(state, *arrays):
            state["ido"], state["info"] = 99, (-9 if stage == "naupd" else 0)

        def neupd(state, *args):
            state["info"] = -14

        stub = types.SimpleNamespace(dnaupd_wrap=naupd, dneupd_wrap=neupd)
        monkeypatch.setitem(sys.modules, branch._ARPACKLIB, stub)
        n = 40
        J = strip.BandMatrix.from_dense(np.diag(np.full(n, 2.0)))
        with pytest.raises(NumericalError, match=f"ARPACK d{stage} info"):
            branch.shift_invert_eigs(J, np.ones(n), 0.0, 3)


def test_one_dispersion_summary_per_spec_across_a_solve(capsys):
    stream.dispersion_summary.cache_clear()
    code = cli.main(["solve", "--omega", "0", "--R", "1.53", "--nq", "61", "--np", "11"])
    capsys.readouterr()
    assert code == 0
    assert stream.dispersion_summary.cache_info().misses == 1


_BAND_LU_AND_ARPACK = """
import numpy as np
n = 40
A = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
J = strip.BandMatrix.from_dense(A)
x = np.linspace(-1.0, 1.0, n)
assert np.abs(strip.band_lu(J).solve(x) - np.linalg.solve(A, x)).max() <= 1e-12
vals, _ = branch.shift_invert_eigs(J, np.ones(n), 0.0, 3)
exact = 2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / (n + 1))
assert np.abs(vals - exact).max() <= 1e-10
import sys
arpacklib = sys.modules[branch._ARPACKLIB]
"""

_IMPORT_SCIPY = """
import scipy.linalg.lapack as lapack
from scipy.sparse.linalg._eigen.arpack import arpack
"""

_FRESH_STRIP_FIRST = "from wavebranch import branch, strip\n" + _BAND_LU_AND_ARPACK + _IMPORT_SCIPY
_FRESH_SCIPY_FIRST = _IMPORT_SCIPY + "from wavebranch import branch, strip\n" + _BAND_LU_AND_ARPACK


@pytest.mark.parametrize("code", [_FRESH_STRIP_FIRST, _FRESH_SCIPY_FIRST],
                         ids=["strip-first", "scipy-first"])
def test_band_lu_binds_scipys_lapack_routines(code):
    # strip loads scipy's LAPACK and ARPACK extensions without their packages
    # and registers each under its own name, so whichever of wavebranch and
    # scipy a fresh interpreter imports first, there is one module of each
    # and both bind the same routine objects; the band LU and the ARPACK path
    # on its factor work in either order
    code += """
print(strip.dgbtrf is lapack.dgbtrf, strip.dgbtrs is lapack.dgbtrs,
      sys.modules["scipy.linalg._flapack"] is strip._flapack,
      sys.modules[branch._ARPACKLIB] is arpacklib is arpack._arpacklib)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(strip.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["True", "True", "True", "True"]
