import os

# OpenBLAS's default thread count slows the small banded factorizations of
# this suite on a machine with few cores; an explicit setting still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from wavebranch import branch, strip
from wavebranch.vorticity import VorticitySpec


@pytest.fixture(scope="session")
def irrot():
    return VorticitySpec([0.0])


@pytest.fixture(scope="session")
def const_one():
    return VorticitySpec([1.0])


@pytest.fixture(scope="session")
def wave153_small(irrot):
    """Solved irrotational solitary wave at R = 1.53 on a small grid."""
    grid = strip.default_grid(irrot, 1.53, nq=121, npp=17, L_factor=18.0)
    guess = strip.initial_guess(irrot, 1.53, grid)
    return strip.newton_solve(guess, irrot, tol=1e-10)


@pytest.fixture(scope="session")
def wave153_medium(irrot):
    """Solved irrotational solitary wave at R = 1.53 on a medium grid."""
    grid = strip.default_grid(irrot, 1.53, nq=201, npp=31, L_factor=25.0)
    guess = strip.initial_guess(irrot, 1.53, grid)
    return strip.newton_solve(guess, irrot, tol=1e-10)


@pytest.fixture(scope="session")
def mini_start(irrot):
    """Spectrally tagged start point of the mini branch (R = 1.52, small grid)."""
    grid = strip.default_grid(irrot, 1.52, nq=121, npp=17, L_factor=18.0)
    sol = strip.newton_solve(strip.initial_guess(irrot, 1.52, grid), irrot, tol=1e-10)
    return branch.branch_point_from_field(sol, irrot, nu0_grid_n=256)


@pytest.fixture(scope="session")
def mini_branch(irrot, mini_start):
    """Short continuation run on a small grid (start + 6 accepted points)."""
    points, status = branch.continue_branch(
        mini_start, irrot, steps=6, ds=0.005, nu0_grid_n=256
    )
    assert status == "completed"
    return points


@pytest.fixture(scope="session")
def fold_branch(irrot):
    """Continuation through the discrete fold at moderate resolution."""
    grid = strip.default_grid(irrot, 1.54, nq=201, npp=31, L_factor=25.0)
    sol = strip.newton_solve(strip.initial_guess(irrot, 1.54, grid), irrot, tol=1e-10)
    start = branch.branch_point_from_field(sol, irrot, nu0_grid_n=512)
    ctrl = branch.StepControl(margin_fraction=5e-2)
    points, status = branch.continue_branch(
        start, irrot, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=512
    )
    return points, status
