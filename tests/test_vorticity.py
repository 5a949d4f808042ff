import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavebranch import vorticity
from wavebranch.errors import DomainError
from wavebranch.vorticity import (
    VorticitySpec,
    eval_Omega,
    eval_omega,
    eval_omega_prime,
    max_Omega,
    sorted_unique,
    theta0,
)

coeff_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6
)


def test_eval_omega_trivial_cases():
    assert eval_omega(VorticitySpec([0.0]), 0.5) == 0.0
    assert eval_omega(VorticitySpec([1.0]), 0.3) == 1.0
    assert eval_omega(VorticitySpec([0.0, 2.0]), 0.25) == 0.5


def test_eval_Omega_trivial_cases():
    z = VorticitySpec([0.0])
    assert all(eval_Omega(z, p) == 0.0 for p in (0.0, 0.3, 1.0))
    assert eval_Omega(VorticitySpec([1.0]), 1.0) == 1.0
    assert eval_Omega(VorticitySpec([0.0, 2.0]), 0.5) == 0.25


def test_Omega_normalization():
    for coeffs in ([0.0], [1.0, -2.0, 3.0], [0.5, 0.5]):
        assert eval_Omega(VorticitySpec(coeffs), 0.0) == 0.0


def test_theta0_values():
    assert theta0(VorticitySpec([0.0])) == 0.0
    assert theta0(VorticitySpec([1.0])) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert theta0(VorticitySpec([-1.0])) == 0.0
    # omega = 1 - 2p: Omega = p - p^2 peaks at 1/4 in the interior
    assert theta0(VorticitySpec([1.0, -2.0])) == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_domain_errors():
    spec = VorticitySpec([1.0])
    with pytest.raises(DomainError):
        eval_omega(spec, -0.1)
    with pytest.raises(DomainError):
        eval_Omega(spec, 1.1)
    with pytest.raises(DomainError):
        VorticitySpec([np.nan])


def test_Omega_matches_quadrature_of_omega():
    rng = np.random.default_rng(42)
    spec = VorticitySpec([0.3, -1.2, 2.0, 0.7])
    for p in rng.uniform(0.0, 1.0, size=100):
        ref, _ = quad(lambda t: eval_omega(spec, t), 0.0, p, epsabs=1e-14, epsrel=1e-13)
        assert eval_Omega(spec, p) == pytest.approx(ref, abs=1e-12)


@given(coeff_lists)
@settings(max_examples=40, deadline=None)
def test_omega_is_derivative_of_Omega(coeffs):
    spec = VorticitySpec(coeffs)
    h = 1e-6
    for p in (0.2, 0.5, 0.8):
        fd = (eval_Omega(spec, p + h) - eval_Omega(spec, p - h)) / (2 * h)
        assert fd == pytest.approx(eval_omega(spec, p), abs=1e-6 * (1 + abs(fd)))


@given(coeff_lists)
@settings(max_examples=40, deadline=None)
def test_theta0_nonnegative(coeffs):
    assert theta0(VorticitySpec(coeffs)) >= 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_theta0_for_nonnegative_vorticity(coeffs):
    spec = VorticitySpec(coeffs)
    # omega >= 0 on [0, 1] makes Omega increasing: max at tau = 1
    assert theta0(spec) ** 2 == pytest.approx(2.0 * eval_Omega(spec, 1.0), abs=1e-12)


def test_omega_prime():
    spec = VorticitySpec([1.0, 2.0, 3.0])
    assert eval_omega_prime(spec, 0.5) == pytest.approx(2.0 + 6.0 * 0.5, abs=1e-14)
    assert eval_omega_prime(VorticitySpec([4.0]), 0.3) == 0.0


# min_value=0.0 excludes -0.0, which compares equal to 0.0 and which neither
# kernel input holds: nodes and cell edges lie in [0, 1]
unit_floats = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(unit_floats, min_size=1, max_size=30), st.lists(unit_floats, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_unique_is_numpys_union_and_unique(nodes, extra, data):
    # the stream kernel's cell edges: duplicated nodes, critical points that
    # coincide with nodes or not, and no critical point at all
    p = np.sort(np.asarray(nodes + nodes[: len(nodes) // 2]))
    crit = sorted(set(data.draw(st.lists(st.sampled_from(nodes), max_size=3)) + extra))
    for cuts in (crit, []):
        edges = sorted_unique(np.concatenate([[0.0], p, cuts]))
        assert edges.tobytes() == np.union1d(np.concatenate([[0.0], p]), cuts).tobytes()
        assert sorted_unique([0.0, 1.0] + cuts).tobytes() == np.union1d([0.0, 1.0], cuts).tobytes()
    x = np.concatenate([p[::-1], crit, p])
    assert sorted_unique(x).tobytes() == np.unique(x).tobytes()


@pytest.mark.parametrize("coeffs", [
    [0.0], [1.0], [-1.0], [4.0], [-0.5], [0.5], [0.2], [0.0, 2.0], [1.0, -2.0],
    [1.0, 2.0, 3.0], [0.3125, -0.21875], [0.3, -1.2, 2.0, 0.7],
])
def test_max_Omega_and_theta0_as_with_np_unique(coeffs, monkeypatch):
    spec = VorticitySpec(coeffs)
    got = max_Omega(spec), theta0.__wrapped__(spec)
    monkeypatch.setattr(vorticity, "sorted_unique", np.unique)
    assert got == (max_Omega(spec), theta0.__wrapped__(spec))
