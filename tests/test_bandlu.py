"""The band LU core (strip.band_lu) against SuperLU references kept here only."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigs, spsolve

from wavebranch import branch, cli, stream, strip
from wavebranch.errors import NumericalError


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


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


class TestBandSolve:
    @pytest.mark.parametrize("wave", ["wave153_medium", "wave153_default"])
    def test_matches_spsolve(self, request, irrot, wave):
        field = request.getfixturevalue(wave)
        J = strip.assemble_jacobian(field, irrot)
        rhs = np.random.default_rng(5).standard_normal(J.shape[0])
        x = strip.band_lu(J, field.grid.np).solve(rhs)
        assert _rel(x, spsolve(J.tocsc(), rhs)) <= 1e-12

    def test_repeat_is_bitwise_identical(self, irrot, wave153_medium):
        J = strip.assemble_jacobian(wave153_medium, irrot)
        rhs = np.random.default_rng(6).standard_normal((J.shape[0], 2))
        bw = wave153_medium.grid.np
        a = strip.band_lu(J, bw).solve(rhs)
        b = strip.band_lu(J, bw).solve(rhs)
        assert a.tobytes() == b.tobytes()

    def test_singular_raises_numerical_error(self):
        # two equal rows: no zero row, but a zero pivot in the second column
        A = sp.csr_matrix(
            [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]]
        )
        with pytest.raises(NumericalError, match="zero pivot in column 2"):
            strip.band_lu(A, 1)
        A[1, 0] = A[1, 1] = 0.0
        with pytest.raises(NumericalError, match="row is zero"):
            strip.band_lu(A, 1)

    def test_entry_outside_band_rejected(self, irrot, wave153_small):
        J = strip.assemble_jacobian(wave153_small, irrot)
        with pytest.raises(ValueError, match="outside the band"):
            strip.band_lu(J, wave153_small.grid.np - 1)


class TestBorderedSolve:
    def test_block_elimination_matches_bordered_spsolve(self, irrot, near_turning):
        p = near_turning
        sys_ = branch.SolitarySystem(irrot, p.field.grid)
        lu, F_R = sys_.linearize(strip.pack(p.field), p.R)
        w = sys_.ip_weight * p.tangent_x
        rng = np.random.default_rng(7)
        top, bot = rng.standard_normal(w.size), float(rng.standard_normal())
        dx, dlam = branch._solve_bordered(lu, F_R, w, p.tangent_lam, top, bot)

        A = sp.bmat(
            [
                [lu.matrix, sp.csc_matrix(F_R.reshape(-1, 1))],
                [sp.csc_matrix(w.reshape(1, -1)), sp.csc_matrix([[p.tangent_lam]])],
            ],
            format="csc",
        )
        b = np.concatenate([top, [bot]])
        z = np.concatenate([dx, [dlam]])
        assert _rel(z, spsolve(A, b)) <= 1e-10
        assert np.abs(A @ z - b).max() <= 1e-12 * np.abs(b).max()


class TestSpectrum:
    def test_shift_invert_matches_superlu(self, irrot, near_turning):
        fld = near_turning.field
        grid = fld.grid
        info = branch.spectrum_at(fld, irrot, k=8, nu0_grid_n=512)

        # SuperLU shift-invert of the same pencil, with the same shift deepening
        J = strip.assemble_jacobian(fld, irrot).tocsc()
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


def test_one_dispersion_summary_per_spec_across_a_solve(monkeypatch, capsys):
    calls = []
    original = stream.dispersion_summary

    def counted(spec, *args, **kwargs):
        calls.append(spec.coeffs)
        return original(spec, *args, **kwargs)

    for mod in (stream, strip):
        monkeypatch.setattr(mod, "dispersion_summary", counted)
    monkeypatch.setattr(strip, "_summary_cache", {})
    code = cli.main(["solve", "--omega", "0", "--R", "1.53", "--nq", "61", "--np", "11"])
    capsys.readouterr()
    assert code == 0
    assert calls == [(0.0,)]
