import re
from importlib import metadata

import numpy as np
import pytest
import scipy.linalg

from wavebranch import spectrum1d as sp1
from wavebranch import stream as st
from wavebranch import branch, strip
from wavebranch import physical as phys
from wavebranch.errors import BelowCriticalError, CheckpointFormatError, StagnationBreachError
from wavebranch.roots import brentq
from wavebranch.vorticity import VorticitySpec


def uniform_field(spec, theta, grid):
    H = st.stream_profile(spec, theta, grid.p)
    R = st.R_of_theta(spec, theta)
    return strip.StripField(grid, np.tile(H, (grid.nq, 1)), R, theta)


def smooth_unit_direction(grid, seed=7, n_modes=4):
    """Seeded smooth random direction, unit Euclidean norm, zero on pinned rows."""
    rng = np.random.default_rng(seed)
    qs, ps = np.meshgrid(grid.q, grid.p, indexing="ij")
    v = np.zeros((grid.nq, grid.np))
    for _ in range(n_modes):
        aq = rng.uniform(0.2, 0.8)
        ap = rng.integers(1, 3)
        ph = rng.uniform(0, 2 * np.pi)
        v += rng.normal() * np.sin(ap * np.pi * ps) * np.cos(aq * qs + ph)
    v[-1, :] = 0.0
    v[:, 0] = 0.0
    vec = v[: grid.nq - 1, 1:].ravel()
    return vec / np.linalg.norm(vec)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            strip.StripGrid(L=-1.0, nq=41, np=17)
        with pytest.raises(ValueError):
            strip.StripGrid(L=1.0, nq=5, np=17)

    def test_spacings(self):
        g = strip.StripGrid(L=10.0, nq=101, np=21)
        assert g.dq == pytest.approx(0.1)
        assert g.dp == pytest.approx(0.05)
        assert g.q[0] == 0.0 and g.q[-1] == 10.0
        assert g.p[0] == 0.0 and g.p[-1] == 1.0

    def test_unknowns_are_packs_order_and_a_copy(self):
        # k = i*(np-1) + (j-1) over i = 0..nq-2, j = 1..np-1
        g = strip.StripGrid(L=10.0, nq=11, np=9)
        h = np.arange(g.nq * g.np, dtype=float).reshape(g.nq, g.np)
        field = strip.StripField(g, h.copy(), 1.5, 1.6)
        x = strip.pack(field)
        assert np.array_equal(g.unknowns(field.h), x)
        assert x.shape == (g.n_unknowns,)
        for i in range(g.nq - 1):
            for j in range(1, g.np):
                assert x[i * (g.np - 1) + (j - 1)] == h[i, j]
        x[:] = -1.0
        assert np.array_equal(field.h, h)


class TestResidual:
    def test_irrotational_linear_field_exact(self, irrot):
        theta = 1.3
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, theta, g)
        r = strip.residual(f, irrot)
        assert np.abs(r.interior).max() < 1e-13
        assert np.abs(r.surface).max() < 1e-13

    def test_surface_closed_form_cancellation(self, irrot):
        # h = p/theta gives surface value theta^2/2 + 1/theta - R exactly
        theta = 1.3
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, theta, g)
        f.R += 0.25
        r = strip.residual(f, irrot)
        assert np.abs(r.surface + 0.25).max() < 1e-13

    def test_rotational_stream_second_order(self, const_one):
        theta = 1.8
        sups = []
        for npp in (17, 33):
            g = strip.StripGrid(L=5.0, nq=21, np=npp)
            sups.append(strip.residual(uniform_field(const_one, theta, g), const_one).sup)
        assert 3.5 <= sups[0] / sups[1] <= 4.5

    def test_stagnation_breach(self, irrot):
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, 1.3, g)
        f.h[5, 6] -= 0.5  # sign-flipped bump kills monotonicity in p
        with pytest.raises(StagnationBreachError):
            strip.residual(f, irrot)


class TestNodeDerivatives:
    def test_exact_on_a_quadratic_field(self):
        # central and one-sided second-order differences are exact on
        # h = p (1 + 0.2 p) + 0.01 q^2, which is even in q
        g = strip.StripGrid(L=4.0, nq=21, np=11)
        q, p = g.q[:, None], g.p[None, :]
        h = p * (1.0 + 0.2 * p) + 0.01 * q * q
        hq, hp = strip.node_derivatives(strip.StripField(grid=g, h=h, R=2.0, theta=1.0))
        assert np.abs(hq - 0.02 * q).max() < 1e-12
        assert hq[0].max() == hq[0].min() == 0.0
        assert np.abs(hp - (1.0 + 0.4 * p)).max() < 1e-12


class TestJacobian:
    def test_taylor_directional_derivative(self, const_one):
        theta = 1.8
        g = strip.StripGrid(L=12.0, nq=61, np=17)
        f = uniform_field(const_one, theta, g)
        f.h *= 1 + 0.15 * np.exp(-(((g.q[:, None] - 3) / 2.0) ** 2)) * g.p[None, :]
        v = smooth_unit_direction(g)
        J = strip.assemble_jacobian(f, const_one)

        def defect(eps):
            xp = strip.unpack(f, strip.pack(f) + eps * v)
            xm = strip.unpack(f, strip.pack(f) - eps * v)
            cd = (strip.residual_vector(xp, const_one) - strip.residual_vector(xm, const_one)) / (
                2 * eps
            )
            return np.abs(cd - J @ v).max()

        assert defect(1e-5) < 1e-8
        # O(eps^2) scaling measured above the rounding floor of the differences
        assert defect(2e-4) / defect(1e-4) == pytest.approx(4.0, rel=0.2)

    def test_linearity_on_zero(self, irrot):
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, 1.3, g)
        J = strip.assemble_jacobian(f, irrot)
        assert np.abs(J @ np.zeros(g.n_unknowns)).max() == 0.0

    def test_q_independent_reduction_matches_1d_edge(self, irrot):
        """Summing Jacobian columns over q reduces to the 1-D operator; its
        lowest eigenvalue under the 1/H_p weight approaches nu0."""
        theta = st.solve_theta_for_R(irrot, 2.0, "supercritical")
        errs = []
        for npp in (33, 65):
            g = strip.StripGrid(L=30.0, nq=41, np=npp)
            f = uniform_field(irrot, theta, g)
            J = strip.assemble_jacobian(f, irrot).toarray()
            npu = g.np - 1
            i_mid = g.nq // 2
            rows = slice(i_mid * npu, (i_mid + 1) * npu)
            block = J[rows, :].reshape(npu, g.nq - 1, npu).sum(axis=1)
            # generalized pencil with weight 1/H_p on interior rows
            W = np.zeros((npu, npu))
            hp = 1.0 / theta
            for j in range(npu - 1):
                W[j, j] = 1.0 / hp
            vals = scipy.linalg.eig(block, W, right=False)
            vals = np.array(sorted(v.real for v in vals if np.isfinite(v.real)))
            nu0 = sp1.nu0(sp1.robin_problem(irrot, theta, grid_n=2048))
            errs.append(abs(vals[0] - nu0))
        assert errs[0] > errs[1]  # improves under p-refinement
        assert errs[1] < 5e-3


class TestNewton:
    def test_exact_stream_zero_iterations(self, irrot):
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, 1.3, g)
        sol, info = strip.newton_solve(f, irrot, tol=1e-10, return_info=True)
        assert info.iterations <= 1
        assert info.residual_sup < 1e-13

    def test_solitary_wave_solve(self, irrot, wave153_small):
        sol = wave153_small
        r = strip.residual(sol, irrot)
        assert r.sup < 1e-10
        d_far = st.depth(irrot, sol.theta)
        assert sol.xi[0] > d_far  # elevation wave
        assert np.all(np.diff(sol.xi[:-1]) < 0.0)  # monotone decay for q > 0

    def test_guess_positivity_guard(self, irrot):
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        f = uniform_field(irrot, 1.3, g)
        f.h[3, 8] -= 0.4
        with pytest.raises(StagnationBreachError):
            strip.newton_solve(f, irrot)


def _plain_newton(f0, spec, tol=1e-10):
    """Reference solve with a fresh assembly and band LU on every step: the
    damped iteration and polish of newton_solve without chord steps.  Returns
    the field and the number of factorizations."""
    f, res, factors = f0.copy(), strip.residual(f0, spec), 0

    def step(field):
        nonlocal factors
        factors += 1
        lu = strip.band_lu(strip.assemble_jacobian(field, spec))
        return lu.solve(-strip.residual_vector(field, spec))

    while res.sup > tol:
        dx, alpha = step(f), 1.0
        while True:
            assert alpha >= 2.0 ** -20, "reference Newton stalled"
            try:
                trial = strip.unpack(f, strip.pack(f) + alpha * dx)
                trial_res = strip.residual(trial, spec)
            except StagnationBreachError:
                alpha *= 0.5
                continue
            if trial_res.sup < res.sup or trial_res.sup <= tol:
                f, res = trial, trial_res
                break
            alpha *= 0.5
    if res.sup > 1e-14:
        trial = strip.unpack(f, strip.pack(f) + step(f))
        if strip.residual(trial, spec).sup < res.sup:
            f = trial
    return f, factors


def _seeded(omega, dR, shape=(301, 41)):
    """The vorticity and the initial_guess field at R_c + dR on a default_grid
    of that shape."""
    spec = VorticitySpec(omega)
    R = strip.cached_summary(spec).R_c + dR
    grid = strip.default_grid(spec, R, nq=shape[0], npp=shape[1])
    return spec, strip.initial_guess(spec, R, grid)


def _counting_band_lu(monkeypatch, log):
    full = strip.band_lu

    def counted(A):
        log.append("lu")
        return full(A)

    monkeypatch.setattr(strip, "band_lu", counted)


class TestChordSteps:
    @pytest.mark.parametrize("omega", [[0.0], [1.0, -2.0], [-0.5]], ids=str)
    @pytest.mark.parametrize("dR", [0.005, 0.04])
    def test_matches_plain_newton(self, omega, dR, monkeypatch):
        spec, guess = _seeded(omega, dR)
        ref, ref_factors = _plain_newton(guess, spec)
        log = []
        _counting_band_lu(monkeypatch, log)
        sol, info = strip.newton_solve(guess, spec, tol=1e-10, return_info=True)
        assert np.abs(sol.h - ref.h).max() < 1e-12
        assert branch.replay_checkpoint(sol, spec) < 1e-12
        # one factorization per Newton iterate; the polish reuses the last
        assert len(log) == info.iterations
        assert info.chord_steps > 0
        if omega == [0.0] and dR == 0.04:
            assert len(log) < ref_factors

    @pytest.mark.parametrize("omega", [[0.0], [1.0, -2.0], [-0.5]], ids=str)
    @pytest.mark.parametrize("dR", [0.005, 0.04])
    def test_chord_polish_reaches_the_rounding_floor(self, omega, dR):
        # a fresh Newton step from the solution lowers its residual by less
        # than 2x: the chord polish left nothing a new factor would remove
        spec, guess = _seeded(omega, dR)
        sol, info = strip.newton_solve(guess, spec, tol=1e-10, return_info=True)
        lu = strip.band_lu(strip.assemble_jacobian(sol, spec))
        dx = lu.solve(-strip.residual_vector(sol, spec))
        fresh = strip.residual(strip.unpack(sol, strip.pack(sol) + dx), spec).sup
        assert fresh > 0.5 * info.residual_sup

    def test_rejected_chord_step_refactors(self, monkeypatch):
        # on [0] at R_c + 0.04 the first chord step after the seed's iterate
        # shrinks the residual by less than half: it is thrown away, and the
        # next Newton iterate factors afresh
        spec, guess = _seeded([0.0], 0.04)
        log = []
        _counting_band_lu(monkeypatch, log)
        full_residual, full_solve = strip.residual, strip.BandLU.solve

        def residual(field, spec_):
            r = full_residual(field, spec_)
            log.append(r.sup)
            return r

        def solve(lu, rhs, trans=False):
            log.append("solve")
            return full_solve(lu, rhs, trans)

        monkeypatch.setattr(strip, "residual", residual)
        monkeypatch.setattr(strip.BandLU, "solve", solve)
        sol, info = strip.newton_solve(guess, spec, tol=1e-10, return_info=True)
        # a chord step is a solve on an earlier factor (not right after its
        # band_lu) and the residual of its trial; the residual before that
        # solve is the one the step must halve, or, in the polish of a
        # converged residual, lower
        chords = [(k + 1, log[k - 1], log[k + 1]) for k, e in enumerate(log)
                  if e == "solve" and log[k - 1] != "lu"]
        kept = [r < before if before <= 1e-10 else r <= 0.5 * before or r <= 1e-10
                for _, before, r in chords]
        assert not kept[0]
        assert log[chords[0][0] + 1] == "lu"
        assert info.chord_steps == sum(kept)
        # the polish goes on while each step halves the residual, and its
        # last step fails to halve it or reaches 1e-14
        polish = [(before, r) for _, before, r in chords if before <= 1e-10]
        assert polish and all(r <= 0.5 * before for before, r in polish[:-1])
        assert polish[-1][1] > 0.5 * polish[-1][0] or polish[-1][1] <= 1e-14
        assert log[-1] == polish[-1][1]
        assert info.residual_sup <= 1e-10
        assert full_residual(sol, spec).sup == info.residual_sup


_GUESS_OMEGAS = ([0.0], [1.0, -2.0], [-0.5], [1.0], [0.5])


def _guess_case(omega, dR, shape):
    return pytest.param(omega, dR, shape, id=f"omega{omega}-dR{dR}-{shape[0]}x{shape[1]}")


def _kdv_seed(spec, R, grid):
    """The supercritical stream column at R, its depth d, and the KdV
    amplitude a0 = 2 d (F - 1) and wavenumber k0 = sqrt(3 a0 / (4 d^3))."""
    theta = st.solve_theta_for_R(spec, R, "supercritical", summary=strip.cached_summary(spec))
    Hcol = st.stream_profile(spec, theta, grid.p)
    d = Hcol[-1]
    a0 = max(2.0 * d * (st.froude_of_theta(spec, theta) - 1.0), 1e-3 * d)
    return Hcol, d, a0, np.sqrt(3.0 * a0 / (4.0 * d**3))


def _solve_from_seed(omega, dR, shape):
    """Newton from initial_guess at R_c + dR: the solution, its NewtonInfo,
    its flow-force selection defect and the seed's KdV amplitude a0."""
    spec, guess = _seeded(omega, dR, shape)
    sol, info = strip.newton_solve(guess, spec, tol=1e-10, return_info=True)
    defect = phys.verify_flow_force_selection(phys.reconstruct(sol, spec), spec)
    return sol, info, defect, _kdv_seed(spec, guess.R, guess.grid)[2]


class TestInitialGuess:
    def test_solve_setup_inverts_R_of_theta_once(self, monkeypatch):
        # `wavebranch solve` builds its grid and its seed at one R, and the
        # memo of solve_theta_for_R gives both the same root: one Brent run
        spec = VorticitySpec([1.0, -2.0])
        R = st.dispersion_summary(spec).R_c + 0.02
        runs = []

        def counted(*args, **kwargs):
            runs.append(args[1:3])
            return brentq(*args, **kwargs)

        monkeypatch.setattr(st, "brentq", counted)
        st.solve_theta_for_R.cache_clear()
        strip.far_column.cache_clear()
        strip.initial_guess(spec, R, strip.default_grid(spec, R))
        assert len(runs) == 1

    def test_far_column_arrays_are_read_only(self, irrot):
        # the memo hands every caller the same arrays
        _, H, dH_dR = strip.far_column(irrot, 1.53, strip.StripGrid(L=12.0, nq=61, np=17))
        for arr in (H, dH_dR):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("omega", [[0.0], [1.0, -2.0]], ids=str)
    def test_far_column_is_the_stream_profile_on_the_grids_p_nodes(self, omega):
        spec = VorticitySpec(omega)
        R = st.dispersion_summary(spec).R_c + 0.02
        grid = strip.StripGrid(L=12.0, nq=61, np=17)
        theta, H, _ = strip.far_column(spec, R, grid)
        assert H.tobytes() == st.stream_profile(spec, theta, grid.p).tobytes()

    def test_far_field_column_exact(self, irrot):
        grid = strip.default_grid(irrot, 1.53, nq=61, npp=17, L_factor=12.0)
        guess = strip.initial_guess(irrot, 1.53, grid)
        H = st.stream_profile(irrot, guess.theta, grid.p)
        assert np.array_equal(guess.h[-1], H)

    def test_critical_reduces_to_stream(self, irrot):
        grid = strip.StripGrid(L=12.0, nq=61, np=17)
        guess = strip.initial_guess(irrot, 1.5, grid)
        r = strip.residual(guess, irrot)
        assert r.sup < 1e-9  # exact critical stream at machine scale

    def test_below_critical_error(self, irrot):
        grid = strip.StripGrid(L=12.0, nq=61, np=17)
        with pytest.raises(BelowCriticalError):
            strip.initial_guess(irrot, 1.45, grid)

    @pytest.mark.parametrize(
        "omega, dR, shape",
        [_guess_case(om, dR, shape) for om in _GUESS_OMEGAS for dR in (0.005, 0.03, 0.3)
         for shape in ((121, 17), (201, 31), (301, 41))]
        + [_guess_case([-0.5], 0.036, (301, 41)), _guess_case([0.5], 0.02, (301, 41)),
           _guess_case([0.5], 0.04, (301, 41))],
    )
    def test_lattice_scores_match_residual_loop(self, omega, dR, shape):
        # the former (a, k) lattice is now its one KdV point (a0, k0):
        # initial_guess is bitwise that field, and the residual loop admits
        # it (no stagnation breach, a finite nonzero score)
        spec = VorticitySpec(omega)
        R = strip.cached_summary(spec).R_c + dR
        grid = strip.default_grid(spec, R, nq=shape[0], npp=shape[1])
        Hcol, d, a0, k0 = _kdv_seed(spec, R, grid)
        guess = strip.initial_guess(spec, R, grid)
        assert guess.h.tobytes() == strip._build_guess(grid, Hcol, d, a0, k0).tobytes()
        r = strip.residual(guess, spec)
        assert np.isfinite(r.sup) and r.sup > 0.0

    @pytest.mark.parametrize(
        "omega, dR",
        [([0.0], 0.005), ([0.0], 0.04), ([1.0, -2.0], 0.005), ([1.0, -2.0], 0.04),
         ([-0.5], 0.005), ([-0.5], 0.03),
         # Newton from the best point of the former (a, k) lattice did not
         # converge for [-0.5] at dR in about [0.035, 0.038]
         ([-0.5], 0.036)],
        ids=str,
    )
    def test_newton_converges_from_the_seed(self, omega, dR):
        sol, info, defect, _ = _solve_from_seed(omega, dR, (301, 41))
        assert info.residual_sup <= 1e-10
        assert info.iterations <= 6
        assert np.argmax(sol.xi) == 0  # the crest on the axis
        assert defect < 1e-3

    def test_small_wave_is_not_the_stream(self):
        # the former lattice start converged here to a near-trivial stream of
        # crest amplitude 1e-4, with its residual and selection defect at the
        # floor all the same
        sol, _, defect, a0 = _solve_from_seed([0.1], 0.002, (201, 31))
        assert defect < 1e-3
        assert np.argmax(sol.xi) == 0
        assert sol.xi[0] - sol.xi[-1] == pytest.approx(a0, rel=0.05)

    def test_no_residual_evaluations(self, irrot, monkeypatch):
        calls = []
        full = strip.residual

        def counted(field, spec):
            calls.append(field.R)
            return full(field, spec)

        monkeypatch.setattr(strip, "residual", counted)
        grid = strip.default_grid(irrot, 1.53, nq=121, npp=17)
        guess = strip.initial_guess(irrot, 1.53, grid)
        branch._initial_tangent(irrot, guess, 1.0)
        assert calls == []
        strip.residual_vector(guess, irrot)  # the counter does see the module's calls
        assert calls == [1.53]


class TestConvergenceInvariants:
    def test_grid_refinement_second_order(self, irrot):
        # xi(0) increments shrink by ~4 when both spacings are halved
        vals = []
        for nq, npp in ((61, 11), (121, 21), (241, 41)):
            grid = strip.StripGrid(L=15.0, nq=nq, np=npp)
            sol = strip.newton_solve(strip.initial_guess(irrot, 1.53, grid), irrot, tol=1e-11)
            vals.append(sol.xi[0])
        incs = np.abs(np.diff(vals))
        assert 2.5 <= incs[0] / incs[1] <= 6.0

    def test_truncation_insensitivity(self, irrot):
        # doubling L changes xi(0) by less than the discretization increment
        vals = {}
        for L in (10.0, 20.0):
            grid = strip.StripGrid(L=L, nq=int(L * 8) + 1, np=17)
            sol = strip.newton_solve(strip.initial_guess(irrot, 1.53, grid), irrot, tol=1e-11)
            vals[L] = sol.xi[0]
        trunc_change = abs(vals[20.0] - vals[10.0])
        grid_a = strip.StripGrid(L=10.0, nq=81, np=17)
        grid_b = strip.StripGrid(L=10.0, nq=161, np=33)
        xa = strip.newton_solve(strip.initial_guess(irrot, 1.53, grid_a), irrot, tol=1e-11).xi[0]
        xb = strip.newton_solve(strip.initial_guess(irrot, 1.53, grid_b), irrot, tol=1e-11).xi[0]
        assert trunc_change < abs(xb - xa)


def _small_checkpoint_lines(path):
    """Write a valid checkpoint on the smallest grid (9x9) to path and return
    its lines."""
    g = strip.StripGrid(L=3.0, nq=9, np=9)
    f = strip.StripField(g, np.tile(g.p, (9, 1)), 1.6, 1.2)
    strip.write_checkpoint(str(path), f, VorticitySpec([1.0, -2.0]))
    return path.read_text().splitlines()


class TestCheckpoint:
    def test_round_trip_exact(self, irrot, wave153_small, tmp_path):
        path = tmp_path / "w.txt"
        strip.write_checkpoint(str(path), wave153_small, irrot)
        fld, omega = strip.read_checkpoint(str(path))
        assert omega.coeffs == irrot.coeffs
        assert np.array_equal(fld.h, wave153_small.h)
        assert fld.R == wave153_small.R and fld.theta == wave153_small.theta
        path2 = tmp_path / "w2.txt"
        strip.write_checkpoint(str(path2), fld, omega)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a checkpoint\n")
        with pytest.raises(CheckpointFormatError):
            strip.read_checkpoint(str(p))

    def test_bad_grid_rejected(self, tmp_path):
        # a 5x5 grid is below StripGrid's minimum of 9 nodes per direction
        path = tmp_path / "c.txt"
        lines = _small_checkpoint_lines(path)
        small = lines[:3] + ["nq 5", "np 5"] + lines[5:7] + [" ".join(["0.5"] * 5)] * 5
        path.write_text("\n".join(small) + "\n")
        with pytest.raises(CheckpointFormatError, match="bad grid"):
            strip.read_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["L", "R", "theta"])
    def test_non_finite_rejected(self, tmp_path, key):
        path = tmp_path / "c.txt"
        lines = [f"{key} nan" if ln.startswith(key + " ") else ln
                 for ln in _small_checkpoint_lines(path)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            strip.read_checkpoint(str(path))


from hypothesis import given, settings
from hypothesis import strategies as st_h


@given(
    vals=st_h.lists(
        st_h.floats(min_value=-10, max_value=10, allow_nan=False).map(
            lambda x: x if x != 0 else 0.125
        ),
        min_size=4,
        max_size=4,
    ),
    Rval=st_h.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_checkpoint_floats_round_trip_exactly(tmp_path_factory, vals, Rval):
    """Arbitrary double values survive the decimal checkpoint format exactly."""
    g = strip.StripGrid(L=3.0, nq=9, np=9)
    h = np.linspace(0.0, 1.0, 9)[None, :] * np.ones((9, 1))
    h[3, 4] += vals[0] * 1e-18
    h[4, 5] += vals[1] * 1e-9
    h[5, 6] += abs(vals[2]) * 1e-3
    f = strip.StripField(g, h, float(Rval), 1.0 + abs(vals[3]))
    spec = VorticitySpec([vals[0], vals[1]])
    path = tmp_path_factory.mktemp("ckpt") / "c.txt"
    strip.write_checkpoint(str(path), f, spec)
    fld, omega = strip.read_checkpoint(str(path))
    assert np.array_equal(fld.h, f.h)
    assert fld.R == f.R and fld.theta == f.theta
    assert omega.coeffs == spec.coeffs


_TOKENS = st_h.sampled_from(
    ["nan", "-inf", "inf", "1e999", "0", "-1", "5", "8", "9", "0.5", "", " ", "x", "1e3", "1.5"]
) | st_h.text(st_h.characters(blacklist_categories=("Cs",)), max_size=6)
_SIZES = st_h.sampled_from([-1, -9, 0, 8, 10, 10**9, 2**63, 10**400]) | st_h.integers(-20, 20)
# bytes that are not UTF-8: lone continuation and lead bytes, an encoded
# surrogate, an overlong encoding
_NOT_UTF8 = st_h.sampled_from([b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"])


@given(
    data=st_h.data(),
    kind=st_h.sampled_from(["replace-token", "swap-tokens", "drop-line", "duplicate-line",
                            "insert-text", "truncate", "grid-size", "not-utf8"]),
)
@settings(max_examples=300, deadline=None)
def test_checkpoint_fuzz_reads_or_rejects(tmp_path_factory, data, kind):
    """Mutated checkpoint text yields a valid field or CheckpointFormatError,
    never another exception."""
    lines = _small_checkpoint_lines(tmp_path_factory.mktemp("fuzz") / "valid.txt")
    k = data.draw(st_h.integers(0, len(lines) - 1))
    if kind == "replace-token":
        toks = lines[k].split(" ")
        t = data.draw(st_h.integers(0, len(toks) - 1))
        toks[t] = data.draw(_TOKENS)
        lines[k] = " ".join(toks)
    elif kind == "swap-tokens":
        k2 = data.draw(st_h.integers(0, len(lines) - 1))
        toks, toks2 = lines[k].split(" "), lines[k2].split(" ")
        t = data.draw(st_h.integers(0, len(toks) - 1))
        t2 = data.draw(st_h.integers(0, len(toks2) - 1))
        a, b = toks[t], toks2[t2]
        toks[t] = b
        lines[k] = " ".join(toks)
        toks2 = lines[k2].split(" ")  # re-split: k2 may be k
        toks2[t2] = a
        lines[k2] = " ".join(toks2)
    elif kind == "drop-line":
        del lines[k]
    elif kind == "duplicate-line":
        lines.insert(k, lines[k])
    elif kind == "insert-text":
        pos = data.draw(st_h.integers(0, len(lines[k])))
        lines[k] = lines[k][:pos] + data.draw(_TOKENS) + lines[k][pos:]
    elif kind == "grid-size":
        key = data.draw(st_h.sampled_from(["nq", "np"]))
        lines = [f"{key} {data.draw(_SIZES)}" if ln.startswith(key + " ") else ln
                 for ln in lines]
    elif kind == "truncate":
        lines = lines[:k]
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    if kind == "not-utf8":
        pos = data.draw(st_h.integers(0, len(raw)))
        raw = raw[:pos] + data.draw(_NOT_UTF8) + raw[pos:]
    path = tmp_path_factory.mktemp("fuzz") / "c.txt"
    path.write_bytes(raw)
    try:
        fld, omega = strip.read_checkpoint(str(path))
    except CheckpointFormatError:
        return
    grid = fld.grid
    assert fld.h.shape == (grid.nq, grid.np) and grid.nq >= 9 and grid.np >= 9
    assert np.isfinite(fld.h).all() and np.isfinite([grid.L, fld.R, fld.theta]).all()
    assert grid.L > 0 and all(np.isfinite(omega.coeffs))


def test_missing_extension_names_the_installed_scipy():
    with pytest.raises(ImportError, match=re.escape(f"(scipy {metadata.version('scipy')})")):
        strip._load_extension("scipy.linalg._no_such_extension")
