import math

import numpy as np
import pytest
from scipy import optimize

from wavebranch import lyapunov as ly
from wavebranch import stream as st
from wavebranch import strip
from wavebranch.errors import (
    NonConvergenceError,
    NoRootError,
    NumericalError,
    OutsideChartError,
    StagnationBreachError,
    StalledError,
)
from wavebranch.roots import brentq, newton
from wavebranch.strip import BandMatrix, band_lu
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
    # a memoized summary would skip the theta_c root, and a memoized theta or
    # far-field column an inversion that an earlier test asked for
    st.dispersion_summary.cache_clear()
    st.solve_theta_for_R.cache_clear()
    strip.far_column.cache_clear()
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


# ---------------------------------------------------------------------------
# roots.newton, on closed-form systems factored through BandMatrix.from_dense
# ---------------------------------------------------------------------------


class Closed:
    """F(x) = f(x) with Jacobian df(x), converged at sup <= 1e-10; evaluate
    raises StagnationBreachError outside the open interval (lo, hi) of x[0],
    and records every x it is asked for and every factor taken."""

    def __init__(self, f, df, lo=-math.inf, hi=math.inf):
        self.f, self.df, self.lo, self.hi = f, df, lo, hi
        self.xs, self.factors = [], 0

    def evaluate(self, x):
        self.xs.append(float(x[0]))
        if not self.lo < x[0] < self.hi:
            raise StagnationBreachError(f"x = {x[0]} outside ({self.lo}, {self.hi})")
        r = self.f(x)
        sup = float(np.abs(r).max())
        return r, sup, sup <= 1e-10

    def linearize(self, x):
        self.factors += 1
        lu = band_lu(BandMatrix.from_dense(self.df(x)))
        return lambda r: lu.solve(-r)

    def solve(self, x0, max_iter=20, damped=False):
        return newton(np.array(x0), self.evaluate, self.linearize, max_iter, damped)


def _sqrt2(**domain):
    """x^2 = 2: from 1.5, Newton's sup-norms are 6.9e-3, 6.0e-6, 4.5e-12."""
    return Closed(lambda x: x * x - 2.0, lambda x: np.array([[2.0 * x[0]]]), **domain)


def _plane():
    """A 2-D system with the root (1, 2): x0^2 = x1 - 1, x0 x1 = 2."""
    return Closed(
        lambda x: np.array([x[0] ** 2 - x[1] + 1.0, x[0] * x[1] - 2.0]),
        lambda x: np.array([[2.0 * x[0], -1.0], [x[1], x[0]]]),
    )


class TestNewton:
    def test_converged_keeps_the_polish(self):
        sys_ = _sqrt2()
        x, info = sys_.solve([1.5])
        # three iterates reach 4.5e-12; one chord step on the third factor
        # takes it to the rounding floor
        assert (info.iterations, info.chord_steps, sys_.factors) == (3, 1, 3)
        assert info.residual_sup < 1e-15
        assert x[0] == math.sqrt(2.0)

    def test_two_dimensional_root(self):
        x, info = _plane().solve([1.2, 2.5])
        assert info.residual_sup <= 1e-14
        assert np.abs(x - [1.0, 2.0]).max() <= 1e-14

    def test_polish_that_breaches_is_refused(self):
        # the polish lands on sqrt(2), outside the domain x > sqrt(2) + 1e-12
        # that holds every iterate from 1.5; the converged iterate is kept
        sys_ = _sqrt2(lo=math.sqrt(2.0) + 1e-12)
        x, info = sys_.solve([1.5])
        assert (info.iterations, info.chord_steps, sys_.factors) == (3, 0, 3)
        assert x[0] == sys_.xs[-2] and info.residual_sup == pytest.approx(4.51e-12, rel=1e-2)

    def test_converged_start_takes_no_step(self):
        sys_ = _sqrt2()
        x, info = sys_.solve([math.sqrt(2.0)])
        # the residual 4.4e-16 is below the polish threshold 1e-14
        assert info.iterations == 0 and sys_.factors == 0 and sys_.xs == [x[0]]

    @pytest.mark.parametrize("damped", [False, True])
    def test_converged_start_polishes_on_a_fresh_factor(self, damped):
        # the residual 2.8e-12 has converged but is above 1e-14: with no
        # factor yet, the polish takes one, and one step on it reaches the
        # rounding floor
        sys_ = _sqrt2()
        x, info = sys_.solve([math.sqrt(2.0) + 1e-12], damped=damped)
        assert (info.iterations, info.chord_steps, sys_.factors) == (1, 1, 1)
        assert x[0] == math.sqrt(2.0) and len(sys_.xs) == 2

    def test_polish_stops_at_the_first_step_that_fails_to_halve(self):
        # Newton on x^3 = 0 maps x to 2x/3, so 19 iterates from 1 reach the
        # residual (8/27)^19 = 9.2e-11; a chord step on the 19th factor then
        # lowers the residual by 0.62 only: it is kept and ends the polish
        sys_ = Closed(lambda x: x**3, lambda x: np.array([[3.0 * x[0] ** 2]]))
        x, info = sys_.solve([1.0])
        assert (info.iterations, info.chord_steps, sys_.factors) == (19, 1, 19)
        assert len(sys_.xs) == 1 + 19 + 1 and x[0] == sys_.xs[-1]
        converged = sys_.xs[-2] ** 3
        assert 0.5 * converged < info.residual_sup < converged

    def test_damped_breach_is_rejected_and_backtracks(self):
        # from 0.5 the full step lands on 2.25, outside x < 2: the half step
        # 1.375 is kept
        sys_ = _sqrt2(hi=2.0)
        x, info = sys_.solve([0.5], damped=True)
        assert sys_.xs[:3] == [0.5, 2.25, 1.375]
        assert x[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_undamped_breach_propagates(self):
        sys_ = _sqrt2(hi=2.0)
        with pytest.raises(StagnationBreachError):
            sys_.solve([0.5])
        assert sys_.xs == [0.5, 2.25]

    def test_stalled_when_no_step_length_is_kept(self):
        # every trial from 1.0 moves up, out of the domain x < 1.0 + 1e-9
        sys_ = _sqrt2(hi=1.0 + 1e-9)
        with pytest.raises(StalledError, match="2\\^-20"):
            sys_.solve([1.0], damped=True)
        assert len(sys_.xs) == 1 + 21

    def test_iteration_cap(self):
        sys_ = _sqrt2()
        with pytest.raises(NonConvergenceError, match="did not converge in 2 iterations"):
            sys_.solve([1.5], max_iter=2)
        assert sys_.factors == 2

    def test_damped_iteration_cap(self):
        # damped Newton on cbrt(x) halves x per iterate, and no chord step
        # between iterates converges
        sys_ = Closed(np.cbrt, lambda x: np.array([[abs(x[0]) ** (-2.0 / 3.0) / 3.0]]))
        with pytest.raises(NonConvergenceError, match="did not converge in 3 iterations"):
            sys_.solve([1.0], max_iter=3, damped=True)
        assert sys_.factors == 3

    def test_gives_up_at_the_third_iterate(self):
        # cbrt(x): each Newton step maps x to -2x, so the sup-norm grows by
        # 2^(1/3); the first iterate may grow, the second may not
        sys_ = Closed(np.cbrt, lambda x: np.array([[abs(x[0]) ** (-2.0 / 3.0) / 3.0]]))
        with pytest.raises(NonConvergenceError, match="stopped contracting at iterate 2"):
            sys_.solve([1.0])
        assert sys_.xs == pytest.approx([1.0, -2.0, 4.0])

    def test_damped_solve_takes_chord_steps(self):
        # after one iterate, the factor at 1.5 keeps halving the residual, so
        # seven chord steps on it replace two Newton iterates, and three more
        # polish the converged residual below 1e-14 on the same factor
        sys_ = _sqrt2()
        x, info = sys_.solve([1.5], damped=True)
        assert (info.iterations, info.chord_steps, sys_.factors) == (1, 10, 1)
        assert info.residual_sup <= 1e-14


class TestComplementOutsideChart:
    def test_complement_without_a_real_root(self):
        # the complement equation w1^2 + w1 + s^2 = 0 has no real root for
        # s = 1: Newton from w1 = 0 cycles 0, -1, 0 at residual 1 and gives up
        fam = ly.finite_family(
            lambda x, lam: np.array([lam * x[0], x[1] ** 2 + x[1] + x[0] ** 2]),
            lambda x, lam: np.array([[lam, 0.0], [2.0 * x[0], 2.0 * x[1] + 1.0]]),
            2,
        )
        assert np.abs(ly.solve_complement(fam, 0.1, 0.05)).max() > 0.0
        with pytest.raises(OutsideChartError, match="stopped contracting") as failure:
            ly.solve_complement(fam, 1.0, 0.05)
        assert isinstance(failure.value.__cause__, NonConvergenceError)

    def test_complement_on_a_singular_jacobian(self):
        # F1 = x1 (1 - x0^2) + x0^2 (2 - x0^2) has a zero gradient and the
        # value 1 at x = (1, 0), where s = 1 starts the complement solve
        fam = ly.finite_family(
            lambda x, lam: np.array(
                [lam * x[0], x[1] * (1.0 - x[0] ** 2) + x[0] ** 2 * (2.0 - x[0] ** 2)]
            ),
            lambda x, lam: np.array([
                [lam, 0.0],
                [-2.0 * x[0] * x[1] + 4.0 * x[0] - 4.0 * x[0] ** 3, 1.0 - x[0] ** 2],
            ]),
            2,
        )
        with pytest.raises(OutsideChartError, match="row is zero") as failure:
            ly.solve_complement(fam, 1.0, 0.05)
        assert isinstance(failure.value.__cause__, NumericalError)
