import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import integrate

from wavebranch import strip, vorticity
from wavebranch import stream as st
from wavebranch.errors import (
    BelowCriticalError,
    NoRootError,
    QuadratureError,
    SingularIntegrandError,
)
from wavebranch.vorticity import VorticitySpec, eval_Omega, omega_critical_points


def irrot_R(theta):
    return theta**2 / 2 + 1 / theta


def irrot_S(theta):
    return theta + 1 / (2 * theta**2)


class TestIrrotationalClosedForms:
    def test_stream_at_theta1(self, irrot):
        s = st.stream_at(irrot, 1.0)
        assert s.depth == pytest.approx(1.0, abs=1e-12)
        assert s.R == pytest.approx(1.5, abs=1e-12)
        assert s.froude == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(s.profile, s.p, atol=1e-12)

    def test_stream_at_theta2(self, irrot):
        s = st.stream_at(irrot, 2.0)
        assert s.depth == pytest.approx(0.5, abs=1e-12)
        assert s.R == pytest.approx(2.5, abs=1e-12)
        assert s.froude == pytest.approx(2.0**1.5, abs=1e-10)
        assert s.flow_force == pytest.approx(irrot_S(2.0), abs=1e-10)

    def test_full_family_closed_forms(self, irrot):
        for theta in (1.1, 1.5, 2.7):
            assert st.depth(irrot, theta) == pytest.approx(1 / theta, abs=1e-10)
            assert st.R_of_theta(irrot, theta) == pytest.approx(irrot_R(theta), abs=1e-10)
            assert st.froude_of_theta(irrot, theta) == pytest.approx(theta**1.5, abs=1e-10)
            assert st.flow_force_of_theta(irrot, theta) == pytest.approx(
                irrot_S(theta), abs=1e-10
            )


def test_constant_vorticity_closed_forms(const_one):
    # H(p) = theta - sqrt(theta^2 - 2p) for omega = 1
    theta = 2.0
    s = st.stream_at(const_one, theta)
    assert s.depth == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    H_exact = theta - np.sqrt(theta**2 - 2.0 * s.p)
    assert np.abs(s.profile - H_exact).max() < 1e-11


class TestDispersion:
    def test_irrotational_critical(self, irrot):
        ds = st.dispersion_summary(irrot)
        assert ds.theta_c == pytest.approx(1.0, abs=1e-10)
        assert ds.R_c == pytest.approx(1.5, abs=1e-10)
        assert math.isinf(ds.R_0)

    def test_constant_vorticity_critical_vs_scan_oracle(self, const_one):
        # closed form for omega = 1: R(theta) = theta^2/2 + theta - sqrt(theta^2-2) - 1
        ds = st.dispersion_summary(const_one)
        thetas = np.linspace(math.sqrt(2.0) + 1e-9, 5.0, 10**6)
        Rvals = thetas**2 / 2 + thetas - np.sqrt(thetas**2 - 2.0) - 1.0
        k = int(np.argmin(Rvals))
        assert abs(ds.theta_c - thetas[k]) < 2 * (thetas[1] - thetas[0])
        assert ds.R_c == pytest.approx(Rvals[k], abs=1e-9)

    def test_constant_vorticity_R0_closed_form(self, const_one):
        ds = st.dispersion_summary(const_one)
        assert ds.R_0 == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_interior_max_vorticity_R0_infinite(self):
        # omega = 1 - 2p: Omega peaks in the interior, depth integral diverges
        spec = VorticitySpec([1.0, -2.0])
        ds = st.dispersion_summary(spec)
        assert math.isinf(ds.R_0)


class TestRootsOfR:
    def test_supercritical_root_oracle(self, irrot):
        # theta^3 - 4 theta + 2 = 0, root above 1 (bisection oracle)
        roots = np.roots([1.0, 0.0, -4.0, 2.0])
        sup = max(r.real for r in roots if abs(r.imag) < 1e-12)
        theta = st.solve_theta_for_R(irrot, 2.0, "supercritical")
        assert theta == pytest.approx(sup, abs=1e-10)
        assert theta == pytest.approx(1.6752, abs=1e-4)
        assert 1 / theta == pytest.approx(0.5969, abs=1e-4)

    def test_subcritical_root_oracle(self, irrot):
        roots = sorted(
            r.real for r in np.roots([1.0, 0.0, -4.0, 2.0]) if abs(r.imag) < 1e-12 and r.real > 0
        )
        theta = st.solve_theta_for_R(irrot, 2.0, "subcritical")
        assert theta == pytest.approx(roots[0], abs=1e-10)
        assert 1 / theta == pytest.approx(1.8546, abs=1e-4)

    def test_critical_degeneracy(self, irrot):
        assert st.solve_theta_for_R(irrot, 1.5, "supercritical") == pytest.approx(1.0, abs=1e-9)
        assert st.solve_theta_for_R(irrot, 1.5, "subcritical") == pytest.approx(1.0, abs=1e-9)

    def test_below_critical_error(self, irrot):
        with pytest.raises(BelowCriticalError):
            st.solve_theta_for_R(irrot, 1.4, "supercritical")

    def test_subcritical_above_R0_error(self, const_one):
        # R_0 = sqrt(2) for omega = 1
        with pytest.raises(NoRootError):
            st.solve_theta_for_R(const_one, 1.45, "subcritical")

    def test_singular_below_theta0(self, const_one):
        with pytest.raises(SingularIntegrandError):
            st.depth(const_one, 1.0)  # theta0 = sqrt(2)


class TestFlowForce:
    def test_supercritical_flow_force(self, irrot):
        theta = st.solve_theta_for_R(irrot, 2.0, "supercritical")
        S = st.flow_force_of_R(irrot, 2.0, "supercritical")
        assert S == pytest.approx(irrot_S(theta), abs=1e-10)
        assert S == pytest.approx(1.8533, abs=1e-4)

    def test_critical_flow_force(self, irrot):
        assert st.flow_force_of_R(irrot, 1.5, "supercritical") == pytest.approx(1.5, abs=1e-8)

    def test_flow_force_ordering(self, irrot):
        assert st.flow_force_of_R(irrot, 2.0, "supercritical") < st.flow_force_of_R(
            irrot, 2.0, "subcritical"
        )


class TestFlowForceIdentity:
    def test_irrotational_theta2(self, irrot):
        # both sides equal 1 - 1/theta^3 = 7/8
        assert st.check_flow_force_identity(irrot, 2.0, 1e-4) < 1e-7
        dS = (st.flow_force_of_theta(irrot, 2.0 + 1e-4) - st.flow_force_of_theta(irrot, 2.0 - 1e-4)) / 2e-4
        assert dS == pytest.approx(7.0 / 8.0, abs=1e-7)

    def test_critical_point(self, irrot):
        # R'(theta_c) = 0 and dS/dtheta = 0 there
        assert st.check_flow_force_identity(irrot, 1.0, 1e-4) < 1e-7

    def test_constant_vorticity(self, const_one):
        assert st.check_flow_force_identity(const_one, 2.0, 1e-4) < 1e-6


class TestMonotonicity:
    def test_R_and_F_increasing_above_critical(self, irrot, const_one):
        for spec in (irrot, const_one):
            ds = st.dispersion_summary(spec)
            thetas = ds.theta_c + np.linspace(0.02, 2.0, 12)
            Rv = [st.R_of_theta(spec, t) for t in thetas]
            Fv = [st.froude_of_theta(spec, t) for t in thetas]
            assert np.all(np.diff(Rv) > 0)
            assert np.all(np.diff(Fv) > 0)

    def test_supercritical_flow_force_increasing(self, irrot, const_one):
        for spec in (irrot, const_one):
            ds = st.dispersion_summary(spec)
            Rgrid = np.linspace(ds.R_c + 0.01, ds.R_c + 1.0, 20)
            Sv = [st.flow_force_of_R(spec, R, "supercritical") for R in Rgrid]
            assert np.all(np.diff(Sv) > 0)

    def test_depth_decreasing_sampled(self, const_one):
        ds = st.dispersion_summary(const_one)
        thetas = ds.theta_0 + np.linspace(0.05, 2.0, 10)
        dv = [st.depth(const_one, t) for t in thetas]
        assert np.all(np.diff(dv) < 0)


class TestProfileConsistency:
    def test_Hp_matches_profile_derivative(self, const_one):
        theta = 1.9
        errs = []
        for n in (65, 129):
            p = np.linspace(0.0, 1.0, n)
            H = st.stream_profile(const_one, theta, p)
            dp = p[1] - p[0]
            fd = (H[2:] - H[:-2]) / (2 * dp)
            exact = 1.0 / np.sqrt(theta**2 - 2.0 * p[1:-1])
            errs.append(np.abs(fd - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_stream_identity(self, const_one):
        # (1/(2 H_p^2))' + omega(p) = 0, with H_p = (theta^2 - 2 Omega)^(-1/2)
        theta = 1.9
        p = np.linspace(0.0, 1.0, 201)
        Hp = 1.0 / np.sqrt(theta**2 - 2.0 * p)
        val = 1.0 / (2.0 * Hp**2)
        dp = p[1] - p[0]
        dval = (val[2:] - val[:-2]) / (2 * dp)
        assert np.abs(dval + 1.0).max() < 1e-10  # omega = 1

    def test_surface_bernoulli_normalization(self, const_one):
        for theta in (1.8, 2.5):
            s = st.stream_at(const_one, theta)
            hp1 = 1.0 / math.sqrt(theta**2 - 2.0)
            assert 1.0 / (2.0 * hp1**2) + s.depth == pytest.approx(s.R, abs=1e-10)


_QUADPACK = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


def _quad_moment(spec, theta, p, k):
    """Scalar QUADPACK reference for the cumulative moment M_k on the nodes p,
    one adaptive quadrature per cell, split at the critical points of Omega."""

    def f(tau):
        return (theta * theta - 2.0 * eval_Omega(spec, tau)) ** (-0.5 * k)

    crit = omega_critical_points(spec)
    cells = [
        integrate.quad(f, a, b, points=[c for c in crit if a < c < b] or None, **_QUADPACK)[0]
        for a, b in zip(p[:-1], p[1:])
    ]
    return np.concatenate([[0.0], np.cumsum(cells)])


class TestMomentKernel:
    @pytest.mark.parametrize("coeffs", [[1.0, -2.0], [-0.5], [0.5]])
    @pytest.mark.parametrize("dR", [0.005, 0.04])
    def test_matches_scalar_quadpack(self, coeffs, dR):
        spec = VorticitySpec(coeffs)
        ds = st.dispersion_summary(spec)
        theta = st.solve_theta_for_R(spec, ds.R_c + dR, "supercritical", summary=ds)
        p = np.linspace(0.0, 1.0, 41)
        H = st.stream_profile(spec, theta, p)
        M3 = st.moments(spec, theta, p, (3,))[0]
        assert np.abs(H - _quad_moment(spec, theta, p, 1)).max() <= 1e-13
        assert np.abs(M3 - _quad_moment(spec, theta, p, 3)).max() <= 1e-13

    @pytest.mark.parametrize("coeffs", [[1.0, -2.0], [-0.5]])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_near_theta0_matches_quadpack(self, coeffs, eps):
        # the integrand peaks at the argmax of Omega (p = 1/2, p = 0), so cells
        # next to it are bisected; M_3 grows like eps^(-1/2) or eps^(-2)
        spec = VorticitySpec(coeffs)
        theta = vorticity.theta0(spec) + eps
        p = np.linspace(0.0, 1.0, 41)
        M = st.moments(spec, theta, p, (-1, 1, 3))
        for row, k in zip(M, (-1, 1, 3)):
            ref = _quad_moment(spec, theta, p, k)
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_R0_of_endpoint_maximum(self):
        # Omega = -p/2 peaks at p = 0: d(theta0 = 0) = int_0^1 p^(-1/2) dp = 2
        # and R_0 = 0 + 2 - Omega(1) = 5/2
        assert st.dispersion_summary(VorticitySpec([-0.5])).R_0 == pytest.approx(2.5, abs=1e-12)

    def test_depth_cap_raises(self):
        # int_0^1 dx/x diverges: the piece at 0 never settles
        with pytest.raises(QuadratureError, match="unresolved"):
            st._adaptive(lambda x, i: 1.0 / x, np.array([0.0]), np.array([1.0]))

    def test_piece_cap_raises_before_memory_runs_out(self):
        # near theta0 with an interior maximum of Omega, unbounded bisection
        # of M_3 reaches millions of pieces at one level; under a 2 GiB
        # address-space cap the piece cap must stop it with QuadratureError
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from wavebranch import stream
            from wavebranch.errors import QuadratureError
            from wavebranch.vorticity import VorticitySpec, theta0
            spec = VorticitySpec([1, -2])
            try:
                stream.stream_at(spec, theta0(spec) * (1 + 1e-6), n_profile=65)
            except QuadratureError as exc:
                print("QuadratureError:", exc)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.startswith("QuadratureError:"), out.stdout
        assert "pieces per level" in out.stdout

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_near_singular_fallback(self, const_one, eps):
        # near theta0 = sqrt(2) the integrand peaks at p = 1 and Gauss-Legendre
        # alone is far off; adaptive bisection meets the closed form
        theta = math.sqrt(2.0) + eps
        assert st.depth(const_one, theta) == pytest.approx(
            theta - math.sqrt(theta**2 - 2.0), abs=1e-12
        )


def test_far_column_R_derivative(mini_branch, irrot):
    grid = mini_branch[0].field.grid
    R = mini_branch[3].R
    h = 1e-5
    fd = (strip.far_column(irrot, R + h, grid)[1]
          - strip.far_column(irrot, R - h, grid)[1]) / (2 * h)
    assert np.abs(strip.far_column(irrot, R, grid)[2] - fd).max() < 1e-7


def test_moments_derive_theta0_once_per_spec(monkeypatch):
    calls = []
    original = vorticity.max_Omega

    def counted(spec):
        calls.append(spec.coeffs)
        return original(spec)

    monkeypatch.setattr(vorticity, "max_Omega", counted)
    spec = VorticitySpec([0.3125, -0.21875])  # used by no other test
    p = np.linspace(0.0, 1.0, 9)
    first = st.moments(spec, 1.5, p, (1, 3))
    for _ in range(4):
        assert np.array_equal(st.moments(spec, 1.5, p, (1, 3)), first)
    assert calls == [spec.coeffs]
