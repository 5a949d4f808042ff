import math

import pytest
from scipy import optimize

from wavebranch import stream as st
from wavebranch.errors import NonConvergenceError, NoRootError, NumericalError
from wavebranch.roots import brentq
from wavebranch.vorticity import VorticitySpec


@pytest.mark.parametrize("coeffs", [[0.0], [1.0, -2.0]])
def test_bitwise_equal_to_scipy_on_stream_roots(coeffs, monkeypatch):
    # every root the stream module asks for (theta_c, then supercritical
    # thetas) is found by both implementations on the same bracket
    pairs = []

    def both(f, a, b, **kw):
        ours = brentq(f, a, b, **kw)
        pairs.append((ours, optimize.brentq(f, a, b, **kw)))
        return ours

    monkeypatch.setattr(st, "brentq", both)
    # a memoized summary would skip the theta_c root
    st.dispersion_summary.cache_clear()
    spec = VorticitySpec(coeffs)
    ds = st.dispersion_summary(spec)
    for dR in (1e-6, 0.005, 0.04, 0.3):
        st.solve_theta_for_R(spec, ds.R_c + dR, "supercritical", summary=ds)
    assert len(pairs) == 5
    for ours, theirs in pairs:
        assert ours == theirs


def test_no_sign_change_raises_no_root():
    with pytest.raises(NoRootError, match="one sign"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_exhausted_iterations_raise_non_convergence():
    with pytest.raises(NonConvergenceError, match="2 iterations"):
        brentq(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=2)
    assert brentq(lambda x: x**3 - 2.0, 0.0, 2.0) == pytest.approx(2.0 ** (1 / 3), abs=1e-12)


def test_nan_is_a_numerical_error():
    with pytest.raises(NumericalError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0)
