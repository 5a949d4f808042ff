import dataclasses
import itertools
import multiprocessing
import os
import sys

import numpy as np
import pytest

from wavebranch import branch, spectrum1d as sp1, stream as st, strip
from wavebranch.errors import BranchStallError, DegenerateTangentError, NumericalError
from wavebranch.vorticity import VorticitySpec


class FoldSystem:
    """Closed-form fold x^2 + lam = 0: the branch is the parabola lam = -x^2."""

    ip_weight = 1.0

    def residual(self, x, lam):
        return np.array([x[0] ** 2 + lam])

    def linearize(self, x, lam):
        J = strip.BandMatrix(np.array([[2.0 * x[0]]]), 0)
        return strip.band_lu(J), np.array([1.0])


class BrokenSystem(FoldSystem):
    """FoldSystem whose linearization has a bug: a non-package exception."""

    def __init__(self, exc_type):
        self.exc_type = exc_type
        self.calls = 0

    def linearize(self, x, lam):
        self.calls += 1
        raise self.exc_type("bug in linearize")


class CubeRootSystem(FoldSystem):
    """F(x, lam) = cbrt(x): each Newton step maps x to -2x, so the corrector
    diverges from every predictor off the branch x = 0."""

    def __init__(self):
        self.calls = 0

    def residual(self, x, lam):
        return np.cbrt(x)

    def linearize(self, x, lam):
        self.calls += 1
        J = strip.BandMatrix(np.array([[np.abs(x[0]) ** (-2.0 / 3.0) / 3.0]]), 0)
        return strip.band_lu(J), np.array([0.0])


class TestGenericDriver:
    def test_fold_traversal(self):
        steps, status = branch.arclength_continue(
            FoldSystem(), np.array([1.0]), -1.0, (np.array([-1.0]), 2.0), ds=0.12, steps=40
        )
        assert status == "completed"
        xs = np.array([s.x[0] for s in steps])
        lams = np.array([s.lam for s in steps])
        assert np.abs(lams + xs**2).max() < 1e-10  # stays on the parabola
        assert xs.min() < 0.0 < xs.max()  # passes through the fold
        tl = np.array([s.tangent_lam for s in steps])
        assert tl.max() > 0.0 > tl.min()  # lam-tangent changes sign at the fold

    @pytest.mark.parametrize("exc_type", [RuntimeError, TypeError])
    def test_bug_in_system_propagates_at_once(self, exc_type):
        # only package errors mean "step too long"; anything else is a bug and
        # must not be retried at halved ds down to a BranchStallError
        sys_ = BrokenSystem(exc_type)
        with pytest.raises(exc_type, match="bug in linearize"):
            branch.arclength_continue(
                sys_, np.array([1.0]), -1.0, (np.array([-1.0]), 2.0), ds=0.12, steps=3
            )
        assert sys_.calls == 1

    def test_diverging_corrector_stops_early(self, monkeypatch):
        sys_ = CubeRootSystem()
        per_attempt = []
        corrector = branch._corrector

        def counted(*args):
            before = sys_.calls
            try:
                return corrector(*args)
            finally:
                per_attempt.append(sys_.calls - before)

        monkeypatch.setattr(branch, "_corrector", counted)
        with pytest.raises(BranchStallError, match="stopped contracting"):
            branch.arclength_continue(
                sys_, np.array([0.0]), 0.0, (np.array([1.0]), 1.0), ds=0.1, steps=1
            )
        # ds, ds/2, ..., ds/64: one attempt each, every one abandoned at the
        # third iterate instead of after the full iteration budget
        assert len(per_attempt) == 7
        assert max(per_attempt) <= 3

    def test_arclength_accumulates(self):
        steps, _ = branch.arclength_continue(
            FoldSystem(), np.array([1.0]), -1.0, (np.array([-1.0]), 2.0), ds=0.1, steps=10
        )
        assert steps[-1].t == pytest.approx(sum(s.ds for s in steps), abs=1e-12)


def _tangent_products(tangents, weight):
    """Weighted products of consecutive (tan_x, tan_lam) pairs."""
    return [float(np.sum(weight * a[0] * b[0])) + a[1] * b[1]
            for a, b in zip(tangents[:-1], tangents[1:])]


class TestTangentOrientation:
    """The secant of an accepted step keeps the direction of the tangent that
    predicted it: their product is (ds + c) / |secant|, c the converged
    arclength residual, so every stored tangent turns by less than 90 degrees."""

    def test_fold_traversal(self):
        tan0 = (np.array([-1.0]), 2.0)
        steps, _ = branch.arclength_continue(
            FoldSystem(), np.array([1.0]), -1.0, tan0, ds=0.12, steps=40
        )
        tangents = [tan0] + [(s.tangent_x, s.tangent_lam) for s in steps]
        assert min(_tangent_products(tangents, 1.0)) > 0.0

    def test_fold_branch(self, fold_branch):
        pts, _ = fold_branch
        grid = pts[0].field.grid
        tangents = [(p.tangent_x, p.tangent_lam) for p in pts[1:]]
        assert len(tangents) > 10
        assert min(_tangent_products(tangents, grid.dq * grid.dp)) > 0.0


class TestTangent:
    def test_unit_norm(self, mini_branch):
        w = mini_branch[1].field.grid.dq * mini_branch[1].field.grid.dp
        a, b = mini_branch[0], mini_branch[1]
        tx, tl = branch.tangent(strip.pack(a.field), a.R, strip.pack(b.field), b.R, w)
        norm = np.sqrt(w * np.sum(tx**2) + tl**2)
        assert norm == pytest.approx(1.0, abs=1e-14)
        assert tl > 0.0  # R increases along the early branch

    def test_degenerate(self, mini_branch):
        with pytest.raises(DegenerateTangentError):
            x = strip.pack(mini_branch[0].field)
            branch.tangent(x, mini_branch[0].R, x, mini_branch[0].R, 1.0)


def synthetic_points(ts, Rs, mu1=None, nu0=None):
    mu1 = np.ones_like(ts) if mu1 is None else mu1
    nu0 = np.full_like(ts, 1.0) if nu0 is None else nu0
    return [
        branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None,
                           mu1=float(m), nu0=float(n))
        for t, r, m, n in zip(ts, Rs, mu1, nu0)
    ]


class TestCrossingOrder:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_law(self, m):
        d = np.geomspace(1e-3, 0.1, 6)
        assert branch.crossing_order(d, -0.7 * d**m) == m

    def test_needs_two_distinct_distances(self):
        assert branch.crossing_order([0.01], [0.3]) is None
        assert branch.crossing_order([0.01, 0.01], [0.3, 0.2]) is None


class TestDetectEvents:
    def test_double_fold_trace(self):
        # R(t) = R_c + t^2 (1-t)^2 has a max at t = 1/2 and a min at t = 1
        ts = np.linspace(0.01, 1.2, 120)
        Rs = 1.5 + ts**2 * (1 - ts) ** 2
        pts = synthetic_points(ts, Rs)
        events = [e for e in branch.detect_events(pts) if isinstance(e, branch.Turning)]
        assert len(events) == 2
        spacing = ts[1] - ts[0]
        k_max = int(np.argmax(Rs))
        assert abs(events[0].t - ts[k_max]) <= spacing  # brute-force argmax oracle
        assert abs(events[0].t - 0.5) < 1e-3
        assert abs(events[1].t - 1.0) < 1e-3

    def test_cubic_crossing_trace(self):
        ts = np.linspace(0.3, 1.1, 81)
        mu1 = (ts - 0.7) ** 3
        pts = synthetic_points(ts, 1.5 + ts, mu1=mu1, nu0=np.full_like(ts, 2.0))
        events = [e for e in branch.detect_events(pts) if isinstance(e, branch.EigenCrossing)]
        assert len(events) == 1
        assert abs(events[0].t - 0.7) < 1e-3
        assert events[0].m_estimate == 3

    def test_crossing_beside_a_nan_point(self):
        # a loop-closure or failed terminal point carries mu1 = nu0 = nan
        ts = np.linspace(0.31, 1.1, 20)
        mu1 = (ts - 0.7) ** 3
        mu1[-1] = np.nan
        nu0 = np.full_like(ts, 2.0)
        nu0[-1] = np.nan
        pts = synthetic_points(ts, 1.5 + ts, mu1=mu1, nu0=nu0)
        events = [e for e in branch.detect_events(pts) if isinstance(e, branch.EigenCrossing)]
        assert len(events) == 1
        assert abs(events[0].t - 0.7) < 1e-3
        assert events[0].m_estimate == 3

    def test_monotone_trace_empty(self):
        ts = np.linspace(0, 1, 40)
        pts = synthetic_points(ts, 1.5 + ts)
        assert branch.detect_events(pts) == []

    def test_sentinel_mu1_not_a_crossing(self):
        # mu1 equal to nu0 (sentinel) on one side must not trigger an event
        ts = np.linspace(0, 1, 20)
        nu0 = np.full_like(ts, 1.0)
        mu1 = np.where(ts < 0.5, 1.0, -0.2)  # sentinel, then negative
        pts = synthetic_points(ts, 1.5 + ts, mu1=mu1, nu0=nu0)
        events = [e for e in branch.detect_events(pts) if isinstance(e, branch.EigenCrossing)]
        assert events == []

    def test_mu1_just_below_the_edge_is_not_a_crossing(self):
        # mu1 = nu0 (1 - 1e-10) is the sentinel to switch_branch, so the
        # monitor must not report a crossing from it either
        ts = np.linspace(0, 1, 20)
        nu0 = np.full_like(ts, 1.0)
        mu1 = np.where(ts < 0.5, 1.0 - 1e-10, -0.2)
        pts = synthetic_points(ts, 1.5 + ts, mu1=mu1, nu0=nu0)
        events = [e for e in branch.detect_events(pts) if isinstance(e, branch.EigenCrossing)]
        assert events == []

    def test_below_edge(self):
        assert not branch.below_edge(1.0 - 1e-10, 1.0)
        assert branch.below_edge(1.0 - 1e-8, 1.0)
        # a negative edge: its sentinel is not below it, a value under it is
        assert not branch.below_edge(-2.0, -2.0)
        assert branch.below_edge(-2.0 - 1e-8, -2.0)
        assert not branch.below_edge(0.5, np.nan)
        assert list(branch.below_edge(np.array([0.1, 1.0]), np.array([1.0, 1.0]))) == [True, False]

    def test_requires_three_points(self):
        ts = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            branch.detect_events(synthetic_points(ts, 1.5 + ts))


class TestSpline:
    """branch._Spline against scipy's CubicSpline, the reference it ports."""

    @staticmethod
    def assert_matches_scipy(x, y):
        from scipy.interpolate import CubicSpline

        spl, ref = branch._Spline(x, y), CubicSpline(x, y)
        assert spl.c.tobytes() == ref.c.tobytes()
        ts = np.concatenate([x, np.linspace(x[0] - 0.1, x[-1] + 0.1, 57)])
        assert [spl(t) for t in ts] == [float(ref(t)) for t in ts]

    def test_coefficients_on_the_fold_trace(self, fold_branch):
        pts, _ = fold_branch
        self.assert_matches_scipy(np.array([p.t for p in pts]), np.array([p.R for p in pts]))

    def test_coefficients_on_three_and_two_nodes(self):
        self.assert_matches_scipy(np.array([0.0, 0.3, 1.1]), np.array([1.5, 1.62, 1.57]))
        self.assert_matches_scipy(np.array([0.2, 0.7]), np.array([1.5, 1.1]))

    def test_coefficients_on_random_traces(self):
        rng = np.random.default_rng(7)
        for n in rng.integers(3, 30, size=40):
            self.assert_matches_scipy(np.cumsum(rng.uniform(0.01, 1.0, n)), rng.normal(size=n))

    def test_slope_roots_match_scipy(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(8)
        for n in rng.integers(4, 30, size=40):
            x, y = np.cumsum(rng.uniform(0.01, 1.0, n)), rng.normal(size=n)
            spl, ref = branch._Spline(x, y), CubicSpline(x, y).derivative()
            for i in range(n - 1):
                want = [r for r in ref.roots() if x[i] <= r <= x[i + 1]]
                assert sorted(spl.slope_roots(i)) == sorted(want)

    def test_three_point_turning_is_the_parabola_vertex(self):
        ts = np.array([0.1, 0.45, 0.6])
        Rs = 1.7 - 3.0 * (ts - 0.4) ** 2 + np.array([0.0, 2e-3, -1e-3])
        a, b, c = np.polyfit(ts, Rs, 2)
        (turn,) = branch.detect_events(synthetic_points(ts, Rs))
        assert turn.t == pytest.approx(-b / (2 * a), abs=1e-14)
        assert turn.R == pytest.approx(c - b * b / (4 * a), abs=1e-14)


class TestSpectrum:
    def test_uniform_stream_no_localized_modes(self, irrot):
        theta = st.solve_theta_for_R(irrot, 2.0, "supercritical")
        errs = []
        for L in (12.0, 24.0):
            grid = strip.StripGrid(L=L, nq=int(8 * L) + 1, np=21)
            H = st.stream_profile(irrot, theta, grid.p)
            fld = strip.StripField(grid, np.tile(H, (grid.nq, 1)), st.R_of_theta(irrot, theta), theta)
            info = branch.spectrum_at(fld, irrot, nu0_grid_n=512)
            assert not info.localized.any()
            assert info.mu0 is None
            assert info.mu1 == info.nu0  # sentinel
            errs.append(abs(info.eigenvalues.min() - info.nu0))
        assert errs[1] < errs[0]  # smallest extended mode approaches nu0 as L grows

    def test_wave_has_negative_localized_mode(self, irrot, wave153_medium):
        info = branch.spectrum_at(wave153_medium, irrot, nu0_grid_n=512)
        assert info.mu0 is not None and info.mu0 < 0.0
        assert info.nu0 > 0.0
        assert info.mu1 <= info.nu0
        assert info.mu1 - info.mu0 > 1e-8  # simplicity gap

    def test_localization_flag_on_manufactured_sech_vector(self, wave153_medium):
        grid = wave153_medium.grid
        vec = np.zeros((grid.nq - 1, grid.np - 1))
        vec[:, :] = (1.0 / np.cosh(grid.q[: grid.nq - 1]) ** 2)[:, None]
        assert branch.localized_fraction(grid, vec.ravel()) > 0.99
        flat = np.ones((grid.nq - 1, grid.np - 1))
        assert branch.localized_fraction(grid, flat.ravel()) < 0.99


class TestContinuation:
    def test_monotone_run(self, mini_branch, irrot):
        pts = mini_branch
        Rs = [p.R for p in pts]
        xis = [p.field.xi[0] for p in pts]
        assert np.all(np.diff(Rs) > 0)
        assert np.all(np.diff(xis) > 0)
        assert pts[-1].t == pytest.approx(sum(p.ds for p in pts), abs=1e-12)
        for p in pts[1:]:
            assert p.mu0 < 0.0
            assert p.nu0 > 0.0

    def test_replay_invariant(self, mini_branch, irrot):
        for p in (mini_branch[1], mini_branch[-1]):
            assert branch.replay_checkpoint(p.field, irrot) < 1e-12

    def test_amplitude_parameter_resolve_oracle(self, mini_branch, irrot):
        # re-solving directly at an accepted R reproduces the continuation point
        p = mini_branch[3]
        guess = strip.initial_guess(irrot, p.R, p.field.grid)
        direct = strip.newton_solve(guess, irrot, tol=1e-11)
        assert np.abs(direct.h - p.field.h).max() < 1e-7

    def test_surface_margin_trend(self, mini_branch):
        margins = [p.diag.surface_margin for p in mini_branch]
        assert np.all(np.diff(margins) < 0)  # tightens monotonically with t

    def test_point_at_arclength(self, mini_branch, irrot):
        a = mini_branch[2]
        t_mid = 0.5 * (mini_branch[2].t + mini_branch[3].t)
        pt = branch.point_at_arclength(a, irrot, t_mid)
        assert a.t < pt.t < mini_branch[3].t
        assert strip.residual(pt.field, irrot).sup < 1e-11


def _reference_diagnostics(field):
    """diagnostics_of as its own differences of h spelled it out."""
    h, dq, dp = field.h, field.grid.dq, field.grid.dp
    xi = h[:, -1]
    slope_int = np.abs(xi[2:] - xi[:-2]) / (2.0 * dq)
    slope_end = abs(3.0 * xi[-1] - 4.0 * xi[-2] + xi[-3]) / (2.0 * dq)
    hp_bottom = (4.0 * h[:, 1] - h[:, 2]) / (2.0 * dp)  # h(:,0) = 0
    return branch.Diagnostics(
        max_surface_slope=float(max(slope_int.max(initial=0.0), slope_end)),
        surface_margin=float((field.R - xi).min()),
        bottom_margin=float((1.0 / hp_bottom).min()),
        min_hp=float((np.diff(h, axis=1) / dp).min()),
    )


def _reference_pencil_weight(field):
    """pencil_weight as its own central difference of h spelled it out."""
    nq, npp = field.grid.nq, field.grid.np
    hp_c = (field.h[: nq - 1, 2:] - field.h[: nq - 1, :-2]) / (2.0 * field.grid.dp)
    bdiag = np.zeros((nq - 1, npp - 1))
    bdiag[:, : npp - 2] = 1.0 / hp_c
    return bdiag.ravel()


def _reference_localized_fraction(grid, vec):
    """localized_fraction as its own reshape of the unknowns spelled it out."""
    nq, npp = grid.nq, grid.np
    scale = np.abs(vec).max()
    if scale == 0.0 or not np.isfinite(scale):
        return 0.0
    mass = (vec.reshape(nq - 1, npp - 1) / scale) ** 2
    inner = grid.q[: nq - 1] < 0.5 * grid.L
    return float(mass[inner].sum() / mass.sum())


class TestFoldRun:
    def test_node_derivative_readers_match_their_formulas(self, fold_branch):
        # diagnostics_of and pencil_weight read strip.node_derivatives, and
        # give bitwise what their own differences of h gave
        pts, _ = fold_branch
        for p in pts:
            assert branch.diagnostics_of(p.field) == _reference_diagnostics(p.field)
            assert np.array_equal(
                branch.pencil_weight(p.field), _reference_pencil_weight(p.field)
            )

    def test_localized_fraction_matches_its_formula(self, fold_branch, irrot, monkeypatch):
        # localized_fraction reads the unknown ordering from StripGrid.unknowns
        # and gives bitwise what its own reshape gave, on the eigenvectors
        # that spectrum_at classifies and on a random and a zero vector
        pts, _ = fold_branch
        asked = []
        real = branch.localized_fraction

        def recorded(grid, vec):
            asked.append((grid, vec))
            return real(grid, vec)

        monkeypatch.setattr(branch, "localized_fraction", recorded)
        for p in (pts[1], pts[len(pts) // 2], pts[-1]):
            branch.spectrum_at(p.field, irrot, nu0_grid_n=512)
        grid = pts[0].field.grid
        rng = np.random.default_rng(5)
        asked += [(grid, rng.standard_normal(grid.n_unknowns)), (grid, np.zeros(grid.n_unknowns))]
        assert len(asked) > 2 + 3
        for grid, vec in asked:
            assert real(grid, vec) == _reference_localized_fraction(grid, vec)

    def test_one_far_column_build_per_distinct_R(self, fold_branch, irrot, monkeypatch):
        # the fold_branch run again, from a cleared memo: the seed, the
        # tangent's seeds, and the residual, linearization and accepted field
        # of every corrector iterate ask strip.far_column for their R, which
        # runs one moment-kernel call per distinct R
        asked, builds = [], []
        memo = strip.far_column

        def far_column(spec, R, grid):
            asked.append(R)
            return memo(spec, R, grid)

        def moments(spec, theta, p, powers):
            builds.append(theta)
            return st.moments(spec, theta, p, powers)

        monkeypatch.setattr(strip, "far_column", far_column)
        monkeypatch.setattr(strip, "moments", moments)
        memo.cache_clear()
        grid = strip.default_grid(irrot, 1.54, nq=201, npp=31, L_factor=25.0)
        sol = strip.newton_solve(strip.initial_guess(irrot, 1.54, grid), irrot, tol=1e-10)
        start = branch.branch_point_from_field(sol, irrot, nu0_grid_n=512)
        ctrl = branch.StepControl(margin_fraction=5e-2)
        points, _ = branch.continue_branch(
            start, irrot, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=512
        )
        assert [p.R for p in points] == [p.R for p in fold_branch[0]]
        assert len(builds) == len(set(asked)) < len(asked)

    def test_fold_detected_and_stopped(self, fold_branch, irrot):
        pts, status = fold_branch
        assert status.startswith("margin-breach")
        Rs = np.array([p.R for p in pts])
        assert Rs.max() > Rs[0] and Rs.max() > Rs[-1]  # genuine fold inside
        events = branch.detect_events(pts)
        turnings = [e for e in events if isinstance(e, branch.Turning)]
        assert len(turnings) == 1
        assert abs(turnings[0].R - Rs.max()) < 1e-4
        # mu0 stays negative and simple at all accepted points
        for p in pts:
            if p.mu0 is not None:
                assert p.mu0 < 0.0


_real_spectrum_at = branch.spectrum_at
_spectrum_calls = itertools.count(1)
_pid_log = None


def _spectrum_failing_third(field, spec, nu0_grid_n, sigma):
    """spectrum_at whose third call raises."""
    if next(_spectrum_calls) == 3:
        raise NumericalError("injected eigensolver failure")
    return _real_spectrum_at(field, spec, nu0_grid_n, sigma)


def _spectrum_positive_third(field, spec, nu0_grid_n, sigma):
    """spectrum_at whose third call reports a positive mu0."""
    info = _real_spectrum_at(field, spec, nu0_grid_n, sigma)
    if next(_spectrum_calls) == 3:
        info.mu0 = 1.0
    return info


def _spectrum_logging_pid(field, spec, nu0_grid_n, sigma):
    """spectrum_at that appends the pid it runs in to the file _pid_log."""
    with open(_pid_log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _real_spectrum_at(field, spec, nu0_grid_n, sigma)


def _one_cpu(monkeypatch):
    """Make continue_branch see one CPU, so that it monitors inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _affinity():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class TestSpectrumWorker:
    """continue_branch computes spectra in a forked worker when it can, and
    inline otherwise; both paths must be indistinguishable to the caller."""

    def test_worker_and_inline_points_bitwise_equal(self, fold_branch, irrot, monkeypatch):
        pts, status = fold_branch
        _one_cpu(monkeypatch)
        ctrl = branch.StepControl(margin_fraction=5e-2)
        inline, inline_status = branch.continue_branch(
            pts[0], irrot, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=512
        )
        assert inline_status == status
        assert len(inline) == len(pts)
        for p, q in zip(pts, inline):
            assert (p.t, p.R, p.mu0) == (q.t, q.R, q.mu0)
            assert np.array_equal(p.field.h, q.field.h)
            np.testing.assert_array_equal([p.mu1, p.nu0], [q.mu1, q.nu0])

    @pytest.mark.parametrize(
        "fake, steps, stall_at, n_partial",
        [
            # settled at the next accepted step: the point without a spectrum
            # is dropped
            (_spectrum_failing_third, 5, None, 3),
            # settled before the return: the point that fails a check is kept
            (_spectrum_positive_third, 3, None, 4),
            # settled before the next corrector's own failure leaves
            # continue_branch, so the earlier failure is the one raised
            (_spectrum_failing_third, 5, 4, 3),
        ],
    )
    def test_failure_reaches_caller_alike_on_both_paths(
        self, mini_start, irrot, monkeypatch, fake, steps, stall_at, n_partial
    ):
        monkeypatch.setattr(branch, "spectrum_at", fake)
        corrector = branch._corrector
        raised = []
        for one_cpu in (False, True):
            attempts = itertools.count(1)

            def stalling(*args):
                if next(attempts) == stall_at:
                    raise BranchStallError("injected stall")
                return corrector(*args)

            with monkeypatch.context() as m:
                if one_cpu:
                    _one_cpu(m)
                m.setattr(sys.modules[__name__], "_spectrum_calls", itertools.count(1))
                m.setattr(branch, "_corrector", stalling)
                with pytest.raises(NumericalError) as info:
                    branch.continue_branch(
                        mini_start, irrot, steps=steps, ds=0.005, nu0_grid_n=256
                    )
            assert multiprocessing.active_children() == []
            raised.append(info.value)
        worker, inline = raised
        assert type(worker) is type(inline)
        assert str(worker) == str(inline)
        assert len(worker.partial_points) == len(inline.partial_points) == n_partial
        assert worker.last_good is worker.partial_points[-1]
        assert inline.last_good is inline.partial_points[-1]
        assert worker.last_good.t == inline.last_good.t
        assert worker.last_good.mu0 == inline.last_good.mu0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or _affinity() < 2,
        reason="the spectral worker runs on Linux with at least two CPUs",
    )
    def test_spectra_computed_in_worker(self, mini_start, irrot, monkeypatch, tmp_path):
        log = tmp_path / "pids"
        monkeypatch.setattr(sys.modules[__name__], "_pid_log", str(log))
        monkeypatch.setattr(branch, "spectrum_at", _spectrum_logging_pid)
        pts, status = branch.continue_branch(mini_start, irrot, steps=6, ds=0.005, nu0_grid_n=256)
        assert status == "completed"
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == len(pts) - 1
        assert os.getpid() not in pids
        assert len(set(pids)) == 1  # one worker, forked once per call
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def smoke_fold(irrot):
    """The fold run on a coarser grid (161x25, nu0 on 256 nodes)."""
    grid = strip.default_grid(irrot, 1.54, nq=161, npp=25, L_factor=22.0)
    sol = strip.newton_solve(strip.initial_guess(irrot, 1.54, grid), irrot, tol=1e-10)
    start = branch.branch_point_from_field(sol, irrot, nu0_grid_n=256)
    ctrl = branch.StepControl(margin_fraction=5e-2)
    points, _ = branch.continue_branch(start, irrot, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=256)
    return points


class TestShiftHint:
    """continue_branch starts each spectrum's shift at 1.2 times the previous
    point's mu0, and at spectrum_at's default when the step turned R."""

    def test_runaway_mode_kept_as_mu0_before_the_secant_turns(self, smoke_fold):
        # this point lies just past the Turning (t* ~ 0.0262), but R still
        # rose from the previous point, so the hinted shift applies: it finds
        # the runaway mode that -1.5 nu0 misses, and the mode that crossed
        # zero is mu1, so the crossing is an event within one step of t*
        k = next(k for k, p in enumerate(smoke_fold) if abs(p.t - 0.027225) < 1e-9)
        p = smoke_fold[k]
        assert p.R > smoke_fold[k - 1].R
        assert p.mu0 == pytest.approx(-117.9791535836494, rel=1e-8)
        assert p.mu1 == pytest.approx(-0.20001250318244956, rel=1e-8)
        events = branch.detect_events(smoke_fold)
        (turning,) = [e for e in events if isinstance(e, branch.Turning)]
        (crossing,) = [e for e in events if isinstance(e, branch.EigenCrossing)]
        assert abs(crossing.t - turning.t) < p.ds

    def test_hint_deepens_after_a_runaway_mode(self, smoke_fold, irrot):
        # mu0 runs from -25.3 to -118 in this step, so the hinted shift
        # 1.2 x (-25.3) sits far above it: the run from the hint must deepen
        # until it finds the mode, not settle for a mode near zero and fall
        # back to -1.5 nu0, which misses it
        k = next(k for k, p in enumerate(smoke_fold) if abs(p.t - 0.027225) < 1e-9)
        prev, p = smoke_fold[k - 1], smoke_fold[k]
        sigma = 1.2 * prev.mu0
        assert sigma < -1.5 * p.nu0  # the hint applies
        info = branch.spectrum_at(p.field, irrot, nu0_grid_n=256, sigma=sigma)
        assert info.mu0 < -100.0

    def test_hinted_spectra_match_the_default_shift(self, fold_branch, irrot):
        pts, _ = fold_branch
        for p in pts:
            info = branch.spectrum_at(p.field, irrot, nu0_grid_n=512)
            assert info.mu0 == pytest.approx(p.mu0, rel=1e-10)
            assert info.mu1 == pytest.approx(p.mu1, rel=1e-10)
            assert info.nu0 == p.nu0

    def test_too_deep_hint_falls_back(self, fold_branch, irrot):
        # a shift 100x too deep makes ARPACK fail or blurs the localization
        # of the modes near the edge; either way the deepening from -1.5 nu0
        # is redone
        pts, _ = fold_branch
        hinted = 0
        for prev, p in zip(pts, pts[1:]):
            sigma = branch._shift_hint(prev, p.tangent_lam)
            if sigma is None or sigma >= -1.5 * p.nu0:
                continue
            hinted += 1
            info = branch.spectrum_at(p.field, irrot, nu0_grid_n=512, sigma=100.0 * sigma)
            assert info.mu0 == pytest.approx(p.mu0, rel=1e-10)
            assert info.mu1 == pytest.approx(p.mu1, rel=1e-10)
        assert hinted >= 4

    def test_one_eigensolve_per_spectrum_on_the_fold_run(self, fold_branch, irrot, monkeypatch):
        pts, _ = fold_branch
        _one_cpu(monkeypatch)
        solves = []
        real_spectrum, real_eigs = branch.spectrum_at, branch.shift_invert_eigs

        def spectrum(*args, **kwargs):
            solves.append(0)
            return real_spectrum(*args, **kwargs)

        def eigs(*args, **kwargs):
            solves[-1] += 1
            return real_eigs(*args, **kwargs)

        monkeypatch.setattr(branch, "spectrum_at", spectrum)
        monkeypatch.setattr(branch, "shift_invert_eigs", eigs)
        ctrl = branch.StepControl(margin_fraction=5e-2)
        inline, _ = branch.continue_branch(
            pts[0], irrot, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=512
        )
        assert solves == [1] * (len(inline) - 1)


class TestArpackTolerance:
    """spectrum_at runs ARPACK at branch._ARPACK_TOL, not at machine
    precision (tol 0): what the monitor reads must not tell them apart."""

    # shift-invert solves of the fold run's 17 spectra at _ARPACK_TOL
    # (1,279 at tol 0)
    SOLVE_BUDGET = 883

    def test_monitor_reads_the_same_at_tol_zero(self, fold_branch, irrot, monkeypatch):
        pts, _ = fold_branch
        solves = []
        arnoldi = branch._arnoldi

        def counting(b, sigma, k, solve):
            def counted(x):
                solves[-1] += 1
                return solve(x)

            return arnoldi(b, sigma, k, counted)

        def monitored():
            """The fold run's spectra, each from the shift continue_branch
            starts it at, and the points with them."""
            solves.append(0)
            infos, points = [], []
            for p in pts:
                sigma = branch._shift_hint(points[-1], p.tangent_lam) if points else None
                infos.append(branch.spectrum_at(p.field, irrot, nu0_grid_n=512, sigma=sigma))
                points.append(branch._set_spectrum(dataclasses.replace(p), infos[-1]))
            return infos, points

        monkeypatch.setattr(branch, "_arnoldi", counting)
        infos, points = monitored()
        assert [(p.mu0, p.mu1) for p in points] == [(p.mu0, p.mu1) for p in pts]
        monkeypatch.setattr(branch, "_ARPACK_TOL", 0.0)
        exact_infos, exact = monitored()

        assert solves[0] <= self.SOLVE_BUDGET < solves[1]
        for info, ref in zip(infos, exact_infos):
            assert np.array_equal(info.localized, ref.localized)
            assert np.abs(info.eigenvalues - ref.eigenvalues).max() <= 1e-10
        for p, q in zip(points, exact):
            assert p.mu0 == pytest.approx(q.mu0, rel=1e-10)
            assert p.mu1 == pytest.approx(q.mu1, rel=1e-10)
        events, exact_events = branch.detect_events(points), branch.detect_events(exact)
        assert [type(e) for e in events] == [type(e) for e in exact_events]
        for e, f in zip(events, exact_events):
            assert e.t == pytest.approx(f.t, abs=1e-10)


class TestBranchStall:
    def test_stall_reports_last_good(self, irrot):
        # walking down from just above R_c with a huge step puts every
        # predictor below R_c, down to the smallest ds (5/64); the driver
        # must stall and carry the last accepted point
        grid = strip.default_grid(irrot, 1.504, nq=61, npp=11, L_factor=12.0)
        sol = strip.newton_solve(strip.initial_guess(irrot, 1.504, grid), irrot, tol=1e-10)
        sys_ = branch.SolitarySystem(irrot, grid)
        tan0 = branch._initial_tangent(irrot, sol, sys_.ip_weight)
        with pytest.raises(BranchStallError, match="BelowCriticalError"):
            branch.arclength_continue(
                sys_, strip.pack(sol), sol.R, (-tan0[0], -tan0[1]), ds=5.0, steps=4
            )


class TestLoopClosure:
    def test_revisit_detected(self, mini_branch):
        pts = mini_branch
        first = pts[0]
        # revisiting the first point after enough arclength closes the loop
        assert branch.loop_closure(pts, first.field, t=first.t + 1.0,
                                   min_arc=0.01, tol=1e-9)
        # a genuinely new state does not
        assert not branch.loop_closure(pts, pts[-1].field, t=pts[-1].t,
                                       min_arc=0.01, tol=1e-9)
