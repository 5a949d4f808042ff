import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from wavebranch import spectrum1d as sp1
from wavebranch import stream as st
from wavebranch.errors import NumericalError, SurfaceStagnationError
from wavebranch.vorticity import VorticitySpec, theta0


def transcendental_nu0(theta: float, d: float) -> float:
    """Irrotational oracle: nu0 = s^2 with tan(s d) = s theta^2."""
    f = lambda s: math.tan(s * d) - s * theta**2  # noqa: E731
    s0 = brentq(f, 1e-12, math.pi / (2 * d) * (1 - 1e-12), xtol=1e-15)
    return s0**2


@pytest.fixture(scope="module")
def theta_R2(irrot):
    """Supercritical irrotational stream at R = 2."""
    return st.solve_theta_for_R(irrot, 2.0, "supercritical")


# omega = [1, 2, 3] (omega' = 2 + 6p, so U(Y) enters the potential) at the
# supercritical theta of R = R_c + 0.1, and nu0 on 128/256/512 nodes as the
# Robin problem gave them when U(Y) came from integrating U'' = -omega(U)
# with DOP853 (rtol 1e-12, atol 1e-13) instead of inverting M_1
CUBIC = VorticitySpec([1.0, 2.0, 3.0])
CUBIC_THETA = 2.5249063867135475
CUBIC_NU0 = {128: 15.498836024632965, 256: 15.499378922117621, 512: 15.499514649248649}


class TestRho0:
    def test_irrotational(self, irrot):
        assert sp1.rho0_of_stream(irrot, 2.0) == pytest.approx(0.25, abs=1e-14)
        assert sp1.rho0_of_stream(irrot, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_constant_vorticity(self, const_one):
        expected = (1.0 - math.sqrt(2.0)) / 2.0
        assert sp1.rho0_of_stream(const_one, 2.0) == pytest.approx(expected, abs=1e-14)
        assert sp1.rho0_of_stream(const_one, 2.0) == pytest.approx(-0.2071, abs=1e-4)

    def test_surface_stagnation_error(self, const_one):
        with pytest.raises(SurfaceStagnationError):
            sp1.rho0_of_stream(const_one, 1.0)  # theta^2 - 2*Omega(1) = -1


class TestNu0:
    def test_matches_transcendental_oracle(self, irrot, theta_R2):
        oracle = transcendental_nu0(theta_R2, st.depth(irrot, theta_R2))
        problem = sp1.robin_problem(irrot, theta_R2, grid_n=1024)
        assert abs(sp1.nu0(problem) - oracle) < 1e-6
        assert sp1.nu0(problem) == pytest.approx(5.7, abs=0.1)

    def test_positive_for_supercritical(self, irrot):
        for theta in (1.05, 1.4, 2.2):
            problem = sp1.robin_problem(irrot, theta, grid_n=128)
            assert sp1.nu0(problem) > 0.0

    def test_second_order_convergence(self, const_one):
        theta = st.solve_theta_for_R(const_one, 1.6, "supercritical")
        vals = [sp1.nu0(sp1.robin_problem(const_one, theta, grid_n=n)) for n in (128, 256, 512)]
        incs = np.diff(vals)
        assert incs[0] / incs[1] == pytest.approx(4.0, rel=0.25)

    def test_second_order_convergence_nonconstant_omega_prime(self):
        vals = [sp1.nu0(sp1.robin_problem(CUBIC, CUBIC_THETA, grid_n=n)) for n in (128, 256, 512)]
        incs = np.diff(vals)
        assert incs[0] / incs[1] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("n", sorted(CUBIC_NU0))
    def test_nonconstant_omega_prime_matches_ode_profile(self, n):
        val = sp1.nu0(sp1.robin_problem(CUBIC, CUBIC_THETA, grid_n=n))
        assert val == pytest.approx(CUBIC_NU0[n], rel=1e-12, abs=0.0)

    def test_profile_inverts_the_depth_moment(self):
        # U(0) = 0 and U(d) = 1 exactly, and M_1(U_j) = Y_j at every node
        y, U = sp1._velocity_profile(CUBIC, CUBIC_THETA, 256)
        assert (U[0], U[-1]) == (0.0, 1.0)
        assert y[-1] == st.depth(CUBIC, CUBIC_THETA)
        assert np.abs(st.moments(CUBIC, CUBIC_THETA, U, (1,))[0] - y).max() < 1e-14

    def test_inversion_that_does_not_converge_raises(self):
        # next to theta0 an interior maximum of Omega makes dY/dU blow up at
        # U = 1/2; Newton's method fails there with a NumericalError
        spec = VorticitySpec([1.0, -2.0])
        with pytest.raises(NumericalError, match="not converged"):
            sp1.robin_problem(spec, theta0(spec) * (1.0 + 1e-8), grid_n=512)

    def test_eigenfunction_has_no_interior_sign_change(self, irrot, theta_R2):
        problem = sp1.robin_problem(irrot, theta_R2, grid_n=256)
        _, v = sp1.nu0_eigenpair(problem)
        assert np.all(v[1:] > 0.0)

    def test_quarter_wave_bracket_and_monotonicity(self, irrot, theta_R2):
        # For positive rho0 the quarter-wave value (pi/(2d))^2 brackets nu0
        # from above; it is attained at rho0 = 0, and nu0 increases further as
        # rho0 decreases toward the clamped (Dirichlet) limit (pi/d)^2.
        problem = sp1.robin_problem(irrot, theta_R2, grid_n=1024)
        d = problem.y[-1]
        quarter = (math.pi / (2.0 * d)) ** 2
        nu_robin = sp1.nu0(problem)
        nu_neumann = sp1.nu0(dataclasses.replace(problem, rho0=0.0))
        nu_clamped = sp1.nu0(dataclasses.replace(problem, rho0=-1e8))
        assert nu_robin < quarter
        assert nu_neumann == pytest.approx(quarter, rel=1e-6)
        assert nu_robin < nu_neumann < nu_clamped
        assert nu_clamped == pytest.approx((math.pi / d) ** 2, rel=1e-4)

    def test_grid_minimum(self, irrot, theta_R2):
        with pytest.raises(ValueError):
            sp1.robin_problem(irrot, theta_R2, grid_n=32)


class TestLapackPath:
    """nu0_eigenpair calls LAPACK's dstebz and dstein itself; it gives what
    scipy's eigh_tridiagonal gives on the same matrix."""

    @pytest.mark.parametrize("grid_n", [128, 1024])
    @pytest.mark.parametrize("coeffs", [[0.0], [1.0, -2.0], [-0.5]])
    def test_bitwise_equal_to_eigh_tridiagonal(self, coeffs, grid_n):
        from scipy.linalg import eigh_tridiagonal

        spec = VorticitySpec(coeffs)
        theta = st.solve_theta_for_R(spec, st.dispersion_summary(spec).R_c + 0.05,
                                     "supercritical")
        problem = sp1.robin_problem(spec, theta, grid_n=grid_n)
        diag, off, m_n = sp1._tridiagonal(problem)
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        ref = np.concatenate([[0.0], vecs[:, 0]])
        ref[-1] /= np.sqrt(m_n)
        if ref[1] < 0:
            ref = -ref
        nu, v = sp1.nu0_eigenpair(problem)
        assert nu == float(vals[0])
        assert v.tobytes() == ref.tobytes()

    def test_non_finite_potential_raises(self, irrot, theta_R2):
        problem = sp1.robin_problem(irrot, theta_R2, grid_n=128)
        potential = problem.potential.copy()
        potential[40] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            sp1.nu0(dataclasses.replace(problem, potential=potential))
