import numpy as np
import pytest

from wavebranch import branch, physical, stream as st, strip
from wavebranch.vorticity import VorticitySpec


def uniform_field(spec, theta, grid):
    H = st.stream_profile(spec, theta, grid.p)
    return strip.StripField(grid, np.tile(H, (grid.nq, 1)), st.R_of_theta(spec, theta), theta)


class TestReconstructUniform:
    def test_irrotational_stream_exact(self, irrot):
        theta = 1.3
        g = strip.StripGrid(L=10.0, nq=41, np=17)
        prof = physical.reconstruct(uniform_field(irrot, theta, g), irrot)
        S_exact = theta + 1.0 / (2.0 * theta**2)
        assert np.abs(prof.xi - 1.0 / theta).max() < 1e-14
        assert prof.flow_force == pytest.approx(S_exact, abs=1e-12)
        assert prof.flow_force_variation < 1e-13
        assert prof.mass_flux_defect < 1e-13
        assert prof.surface_identity_defect < 1e-12
        assert physical.verify_flow_force_selection(prof, irrot) < 1e-10

    def test_rotational_stream_second_order(self, const_one):
        theta = 1.8
        S_ref = st.flow_force_of_theta(const_one, theta)
        errs = []
        for npp in (17, 33):
            g = strip.StripGrid(L=5.0, nq=21, np=npp)
            prof = physical.reconstruct(uniform_field(const_one, theta, g), const_one)
            errs.append(abs(prof.flow_force - S_ref))
        assert errs[0] / errs[1] > 3.0


@pytest.mark.parametrize("n", [9, 10, 41, 42])
def test_simpson_weights_match_scipy(n):
    from scipy.integrate import simpson

    p = np.linspace(0.0, 1.0, n)
    w = physical._simpson_weights(n, 1.0 / (n - 1))
    assert np.abs(w - simpson(np.eye(n), x=p, axis=1)).max() <= 1e-15
    y = np.cos(3.0 * p) + p**3
    assert y @ w == pytest.approx(simpson(y, x=p), abs=1e-15)


class TestReconstructWave:
    def test_wave_profile_invariants(self, irrot, wave153_medium):
        prof = physical.reconstruct(wave153_medium, irrot)
        assert np.all(prof.xi[:-1] > prof.depth_far)  # strict elevation inside
        assert np.all(np.diff(prof.xi[:-1]) < 0)  # monotone decrease for q > 0
        assert prof.flow_force_variation < 5e-4
        assert prof.mass_flux_defect < 5e-4
        assert prof.surface_identity_defect < 5e-3

    def test_flow_force_selection(self, irrot, wave153_medium):
        prof = physical.reconstruct(wave153_medium, irrot)
        rel = physical.verify_flow_force_selection(prof, irrot) / prof.flow_force
        assert rel < 1e-3

    @pytest.mark.parametrize("omega", [[0.0], [1.0, -2.0]], ids=str)
    def test_selection_is_the_flow_force_of_R(self, omega, tmp_path):
        # the check reads S_- off the field's own far stream; that is bitwise
        # S_-(R) from a fresh root solve, also after a checkpoint round trip
        spec = VorticitySpec(omega)
        R = strip.cached_summary(spec).R_c + 0.01
        grid = strip.default_grid(spec, R, nq=121, npp=17, L_factor=16.0)
        sol = strip.newton_solve(strip.initial_guess(spec, R, grid), spec, tol=1e-10)
        path = tmp_path / "wave.txt"
        strip.write_checkpoint(str(path), sol, spec)
        for field in (sol, strip.read_checkpoint(str(path))[0]):
            prof = physical.reconstruct(field, spec)
            expected = abs(prof.flow_force - st.flow_force_of_R(spec, R, "supercritical"))
            assert physical.verify_flow_force_selection(prof, spec) == expected

    def test_selection_defect_shrinks_with_refinement(self, irrot, wave153_small, wave153_medium):
        d_small = physical.verify_flow_force_selection(
            physical.reconstruct(wave153_small, irrot), irrot
        )
        d_medium = physical.verify_flow_force_selection(
            physical.reconstruct(wave153_medium, irrot), irrot
        )
        assert d_medium < d_small

    def test_truncation_sensitivity(self, irrot):
        # halving L increases the far-field truncation part of the defect
        defects = {}
        for L in (6.0, 12.0):
            grid = strip.StripGrid(L=L, nq=int(8 * L) + 1, np=17)
            sol = strip.newton_solve(strip.initial_guess(irrot, 1.53, grid), irrot, tol=1e-11)
            prof = physical.reconstruct(sol, irrot)
            defects[L] = physical.verify_flow_force_selection(prof, irrot)
        assert defects[6.0] > defects[12.0]


class TestPairsSynthetic:
    def make_trace(self, n=201):
        ts = np.linspace(0.0, 2.0, n)
        Rs = 2.0 - (ts - 1.0) ** 2
        pts = [
            branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None, mu1=1.0, nu0=1.0)
            for t, r in zip(ts, Rs)
        ]
        return ts, Rs, pts

    def test_pairs_match_brute_force_scan(self):
        ts, Rs, pts = self.make_trace()
        events = branch.detect_events(pts)
        pairs = physical.find_pairs([(t, r, None) for t, r in zip(ts, Rs)], events, n_r=10)
        assert len(pairs) == 10
        for p in pairs:
            # closed-form inverse of the parabola
            assert p.t1 == pytest.approx(1.0 - np.sqrt(2.0 - p.R), abs=1e-12)
            assert p.t2 == pytest.approx(1.0 + np.sqrt(2.0 - p.R), abs=1e-12)
            # brute-force scan oracle: the nearest sampled same-R pair
            k1 = int(np.argmin(np.abs(ts[ts < 1.0] - p.t1)))
            assert abs(Rs[k1] - p.R) < 2 * (ts[1] - ts[0])

    def test_grid_stops_at_the_top_sample_both_segments_reach(self):
        # R* - eps/30 lies above the samples next to the vertex; the R grid
        # ends at the lower segment maximum instead of losing that pair
        ts, Rs, pts = self.make_trace(n=6)
        pairs = physical.find_pairs([(t, r, None) for t, r in zip(ts, Rs)],
                                    branch.detect_events(pts), n_r=30)
        assert len(pairs) == 30
        assert pairs[-1].R == Rs[2]
        for p in pairs:
            assert p.t1 == pytest.approx(1.0 - np.sqrt(2.0 - p.R), abs=1e-12)
            assert p.t2 == pytest.approx(1.0 + np.sqrt(2.0 - p.R), abs=1e-12)

    def test_each_turning_pairs_within_its_own_segments(self):
        # R = 1.5 + t^2 (1 - t)^2: a maximum at t = 1/2 and a minimum at t = 1;
        # each segment ends at the neighbouring Turning
        ts = np.linspace(0.01, 1.2, 120)
        Rs = 1.5 + ts**2 * (1 - ts) ** 2
        pts = [
            branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None, mu1=1.0, nu0=1.0)
            for t, r in zip(ts, Rs)
        ]
        pairs = physical.find_pairs([(t, r, None) for t, r in zip(ts, Rs)],
                                    branch.detect_events(pts), n_r=10)
        assert len(pairs) == 20
        for p in pairs[:10]:
            assert p.t1 < 0.5 < p.t2 < 1.0
        for p in pairs[10:]:
            assert 0.5 < p.t1 < 1.0 < p.t2
        for p in pairs:
            for t in (p.t1, p.t2):
                assert abs(1.5 + t**2 * (1 - t) ** 2 - p.R) <= 1e-7

    def test_monotone_trace_yields_no_pairs(self):
        ts = np.linspace(0.0, 1.0, 50)
        Rs = 1.5 + ts
        pts = [
            branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None, mu1=1.0, nu0=1.0)
            for t, r in zip(ts, Rs)
        ]
        events = branch.detect_events(pts)
        assert physical.find_pairs([(t, r, None) for t, r in zip(ts, Rs)], events) == []

    def test_pair_symmetry(self):
        a = physical.WavePair(t1=1.2, t2=0.8, R=1.9)
        b = physical.WavePair(t1=0.8, t2=1.2, R=1.9)
        assert a == b
        assert a.t1 == 0.8 and a.t2 == 1.2


class TestPairsPde:
    def test_fold_pairs_resolve_distinct(self, fold_branch, irrot):
        pts, status = fold_branch
        events = branch.detect_events(pts)
        assert any(isinstance(e, branch.Turning) for e in events)
        summary = [(p.t, p.R, p) for p in pts]

        def resolve(Rv, ref):
            return strip.resolve_at(ref.field, irrot, Rv)

        pairs = physical.find_pairs(summary, events, n_r=4, resolve=resolve)
        assert pairs, "no PDE pairs found around the fold"
        for p in pairs:
            assert p.distance > 10 * 1e-10  # genuinely distinct members
