"""End-to-end checks for genuinely rotational vorticities: solve, spectrum,
physical invariants, and a short continuation."""

import numpy as np
import pytest

from wavebranch import branch, physical, stream as st, strip
from wavebranch.vorticity import VorticitySpec

CASES = [
    pytest.param([1.0, -2.0], 0.01, id="sign-changing"),
    pytest.param([-0.5], 0.01, id="negative-constant"),
]


@pytest.mark.parametrize("coeffs,dR", CASES)
def test_rotational_solitary_wave(coeffs, dR):
    spec = VorticitySpec(coeffs)
    summ = strip.cached_summary(spec)
    R = summ.R_c + dR
    grid = strip.default_grid(spec, R, nq=151, npp=21, L_factor=20.0)
    sol = strip.newton_solve(strip.initial_guess(spec, R, grid), spec, tol=1e-10)
    assert strip.residual(sol, spec).sup < 1e-10
    d = st.depth(spec, sol.theta)
    xi = sol.xi
    amp = xi[0] - d
    assert amp > 0
    assert xi.argmax() == 0  # single crest on the symmetry axis
    # strictly decreasing over the dynamically relevant part; the far tail may
    # undershoot d at the discretization floor (vanishes under refinement)
    core = xi[:-1] > d + 5e-3 * amp
    assert np.all(np.diff(xi[:-1])[core[:-1]] < 0)
    assert xi.min() > d - 5e-3 * amp

    prof = physical.reconstruct(sol, spec)
    assert prof.flow_force_variation < 1e-2
    rel = physical.verify_flow_force_selection(prof, spec) / prof.flow_force
    assert rel < 1e-3

    info = branch.spectrum_at(sol, spec, nu0_grid_n=512)
    assert info.mu0 is not None and info.mu0 < 0.0
    assert info.nu0 > 0.0
    assert info.mu1 <= info.nu0


def test_rotational_short_continuation():
    spec = VorticitySpec([1.0, -2.0])
    summ = strip.cached_summary(spec)
    R0 = summ.R_c + 0.01
    grid = strip.default_grid(spec, R0, nq=121, npp=17, L_factor=16.0)
    sol = strip.newton_solve(strip.initial_guess(spec, R0, grid), spec, tol=1e-10)
    start = branch.branch_point_from_field(sol, spec, nu0_grid_n=256)
    points, status = branch.continue_branch(start, spec, steps=5, ds=0.004, nu0_grid_n=256)
    assert status == "completed"
    Rs = [p.R for p in points]
    assert np.all(np.diff(Rs) > 0)
    assert branch.replay_checkpoint(points[-1].field, spec) < 1e-12
