import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from wavebranch import branch, lyapunov as ly, strip
from wavebranch.errors import NoSecondaryBranchError, NumericalError, PreconditionError


@pytest.fixture(scope="module")
def pitchfork():
    return ly.pitchfork_family()


class TestProjection:
    def test_eigenvector_maps_to_one(self, pitchfork):
        ed = pitchfork.eigendata(0.1)
        s, w = ly.project(pitchfork, 0.1, ed.v)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert np.abs(w).max() < 1e-12

    def test_orthogonal_passes_through(self, pitchfork):
        x = np.array([0.0, 3.0])
        s, w = ly.project(pitchfork, 0.1, x)
        assert s == 0.0
        assert np.array_equal(w, x)

    @given(st_h.floats(-0.3, 0.3), st_h.floats(-0.5, 0.5), st_h.floats(-0.5, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, lam, a, b):
        fam = ly.pitchfork_family()
        x = np.array([a, b])
        s1, _ = ly.project(fam, lam, x)
        Px = s1 * fam.eigendata(lam).v
        s2, _ = ly.project(fam, lam, Px)
        assert np.abs(s2 * fam.eigendata(lam).v - Px).max() < 1e-12


class TestComplement:
    def test_zero_at_s_zero(self, pitchfork):
        assert np.abs(ly.solve_complement(pitchfork, 0.0, 0.07)).max() == 0.0

    def test_hand_computed_complement(self, pitchfork):
        # second component solves -x2 + x1^2 = 0 with x1 = s
        for s in (0.1, 0.25):
            w = ly.solve_complement(pitchfork, s, 0.05)
            assert w[0] == pytest.approx(0.0, abs=1e-12)
            assert w[1] == pytest.approx(s**2, abs=1e-12)

    def test_quadratic_scaling(self, pitchfork):
        svals = np.geomspace(1e-3, 1e-1, 7)
        norms = [np.linalg.norm(ly.solve_complement(pitchfork, s, 0.0)) for s in svals]
        expo = np.polyfit(np.log(svals), np.log(norms), 1)[0]
        assert 1.9 <= expo <= 2.1


class TestReducedMap:
    def test_matches_closed_form(self, pitchfork):
        for s in (-0.4, 0.05, 0.2, 0.45):
            for lam in (-0.1, 0.0, 0.15):
                B, _ = ly.reduced_map(pitchfork, s, lam)
                assert B == pytest.approx(s * (lam - s**2 + s**4), abs=1e-12)

    def test_reads_B_off_the_converged_residual(self):
        # B comes from the residual the complement solve converged on, with
        # no further evaluation of F, and equals the projection of F at w
        fam = ly.pitchfork_family()
        f, calls = fam.f, []
        fam.f = lambda x, lam: calls.append(lam) or f(x, lam)
        B, w = ly.reduced_map(fam, 0.2, 0.05)
        assert len(calls) == 2
        ly.solve_complement(fam, 0.2, 0.05)
        assert len(calls) == 4
        ed = fam.eigendata(0.05)
        assert B == fam.ip(f(0.2 * ed.v + w, 0.05), ed.w)

    def test_trivial_line(self, pitchfork):
        for lam in np.linspace(-0.2, 0.2, 7):
            B, _ = ly.reduced_map(pitchfork, 0.0, lam)
            assert B == 0.0

    def test_three_roots_in_s_at_fixed_lambda(self, pitchfork):
        # sign scan of B(., lam) for small lam > 0: roots near -sqrt(lam), 0, sqrt(lam)
        lam = 0.05
        s_grid = np.linspace(-0.5, 0.5, 401)
        Bv = np.array([ly.reduced_map(pitchfork, s, lam)[0] for s in s_grid])
        strict_crossings = int(np.sum(Bv[:-1] * Bv[1:] < 0))
        exact_zeros = int(np.sum(Bv == 0.0))
        assert strict_crossings + exact_zeros == 3
        expected = np.sqrt((1 - np.sqrt(1 - 4 * lam)) / 2)
        kc = np.nonzero(Bv[:-1] * Bv[1:] < 0)[0]
        found = sorted(0.5 * (s_grid[k] + s_grid[k + 1]) for k in kc)
        assert found[0] == pytest.approx(-expected, abs=2 * (s_grid[1] - s_grid[0]))
        assert found[1] == pytest.approx(expected, abs=2 * (s_grid[1] - s_grid[0]))


class TestLocalBranches:
    def test_pitchfork_zero_set(self, pitchfork):
        lb = ly.local_branches(pitchfork, s_max=0.3, lam_max=0.12, ns=13, nlam=41)
        assert lb.m_estimate == 1 and lb.certified
        pos = [c for c in lb.curves if c.side > 0]
        neg = [c for c in lb.curves if c.side < 0]
        assert len(pos) == 1 and len(neg) == 1  # 1 <= count <= m = 1
        for c in lb.curves:
            assert c.classification == "regular"
            assert np.abs(c.lam - (c.s**2 - c.s**4)).max() < 1e-8
        assert pos[0].partner is not None

    def test_cubic_family(self):
        fam = ly.cubic_mu_family()
        lb = ly.local_branches(fam, s_max=0.3, lam_max=0.5, ns=13, nlam=61)
        assert lb.m_estimate == 3 and lb.certified
        pos = [c for c in lb.curves if c.side > 0]
        assert 1 <= len(pos) <= 3
        c = pos[0]
        assert np.abs(c.lam - np.cbrt(c.s**2 - c.s**4)).max() < 1e-6

    def test_vertical_family(self):
        fam = ly.vertical_family()
        lb = ly.local_branches(fam, s_max=0.3, lam_max=0.2, ns=9, nlam=21)
        assert lb.m_estimate is None and not lb.certified
        assert all(c.classification == "vertical" for c in lb.curves)
        assert all(np.abs(c.lam).max() == 0.0 for c in lb.curves)

    def test_even_order_not_certified(self):
        fam = ly.even_mu_family()
        lb = ly.local_branches(fam, s_max=0.3, lam_max=0.35, ns=13, nlam=81)
        assert lb.m_estimate == 2
        assert not lb.certified
        assert sum(1 for c in lb.curves if c.side > 0) == 2

    def test_pairing_counts_match(self):
        for mk in (ly.pitchfork_family, ly.cubic_mu_family, ly.even_mu_family):
            lb = ly.local_branches(mk(), s_max=0.3, lam_max=0.3, ns=11, nlam=61)
            pos = [c for c in lb.curves if c.side > 0]
            neg = [c for c in lb.curves if c.side < 0]
            assert len(pos) == len(neg)
            for c in pos:
                assert c.partner is not None

    def test_brute_force_count_oracle(self, pitchfork):
        # dense zero scan per s-column agrees with the traced curve count
        lb = ly.local_branches(pitchfork, s_max=0.3, lam_max=0.12, ns=13, nlam=41)
        lam_dense = np.linspace(-0.12, 0.12, 601)
        max_roots = 0
        for s in (0.1, 0.2, 0.29):
            Bv = np.array([ly.reduced_map(pitchfork, s, l)[0] for l in lam_dense])
            n = int(np.sum(np.diff(np.sign(Bv)) != 0))
            max_roots = max(max_roots, n)
        assert max_roots == sum(1 for c in lb.curves if c.side > 0)


@pytest.mark.parametrize("case", sorted(ly.MODEL_GALLERY))
def test_gallery_branches_are_local_branches_on_the_cases_chart(case):
    make, lam_max = ly.MODEL_GALLERY[case]
    got = ly.gallery_branches(case)
    want = ly.local_branches(make(), 0.3, lam_max, 13, 61)
    assert (got.m_estimate, got.mu_m, got.certified) == (want.m_estimate, want.mu_m, want.certified)
    assert [(c.side, c.classification, c.partner, c.s.tobytes(), c.lam.tobytes())
            for c in got.curves] == [(c.side, c.classification, c.partner, c.s.tobytes(),
                                      c.lam.tobytes()) for c in want.curves]


class TestBijection:
    def test_reduced_roots_polish_to_full_solutions(self, pitchfork):
        # every root of B corresponds to a full-system solution after one polish
        for s in (0.1, 0.22):
            lam = s**2 - s**4
            B, w = ly.reduced_map(pitchfork, s, lam)
            assert abs(B) < 1e-12
            x = s * pitchfork.eigendata(lam).v + w
            assert np.abs(pitchfork.f(x, lam)).max() < 1e-10

    def test_full_solutions_map_to_reduced_roots(self, pitchfork):
        # brute-force full-system zero scan: nontrivial solutions x1 = +-sqrt(...)
        lam = 0.04
        sols = []
        for x1 in np.linspace(-0.5, 0.5, 101):
            x = np.array([x1, x1**2])
            for _ in range(40):
                F = pitchfork.f(x, lam)
                if np.abs(F).max() < 1e-13:
                    break
                try:
                    x = x - np.linalg.solve(pitchfork.df(x, lam).toarray(), F)
                except np.linalg.LinAlgError:
                    break
            if np.abs(pitchfork.f(x, lam)).max() < 1e-12:
                sols.append(x.copy())
        nontrivial = [x for x in sols if abs(x[0]) > 1e-6 and abs(x[0]) < 0.5]
        assert nontrivial, "brute force found no nontrivial solutions"
        for x in nontrivial:
            s, w = ly.project(pitchfork, lam, x)
            B, _ = ly.reduced_map(pitchfork, s, lam)
            assert abs(B) < 1e-10


class TestSeeding:
    def test_seed_converges_off_branch(self, pitchfork):
        # manufactured symmetry-broken system: the pitchfork family itself
        s0, lam0, x0 = ly.seed_from_family(pitchfork, s_max=0.2, lam_max=0.1)
        assert abs(s0) > 0
        x = x0.copy()
        for _ in range(40):
            F = pitchfork.f(x, lam0)
            if np.abs(F).max() < 1e-13:
                break
            x = x - np.linalg.solve(pitchfork.df(x, lam0).toarray(), F)
        assert np.abs(pitchfork.f(x, lam0)).max() < 1e-12
        assert np.linalg.norm(x) > 1e-3  # genuinely off the trivial branch

    def test_no_secondary_branch_reported(self):
        def f(x, lam):
            return np.array([lam**2 * x[0] + x[0] ** 3, -x[1]])

        def df(x, lam):
            return np.array([[lam**2 + 3 * x[0] ** 2, 0.0], [0.0, -1.0]])

        fam = ly.finite_family(f, df, 2)
        with pytest.raises(NoSecondaryBranchError):
            ly.seed_from_family(fam, s_max=0.2, lam_max=0.1)

    def test_vertical_column_seeds_at_lambda_zero(self):
        # B vanishes on every lattice column of the vertical family, so the
        # first column scanned (|s| = 0.2 s_max) gives the candidate lambda = 0
        fam = ly.vertical_family()
        s0, lam0, x0 = ly.seed_from_family(fam, s_max=0.2, lam_max=0.1)
        assert lam0 == 0.0
        assert s0 == 0.2 * 0.2
        assert np.abs(fam.f(x0, 0.0)).max() <= 1e-14


class TestPdeWiring:
    def test_switch_branch_precondition(self, mini_branch, irrot):
        a, b = mini_branch[1], mini_branch[2]
        # mu1 has the same sign on both sides: not a crossing bracket
        with pytest.raises(PreconditionError):
            ly.switch_branch((a, b), irrot, 256)

    def test_family_trivial_line(self, mini_branch, irrot):
        # F(0, lambda) vanishes along the primary branch by construction
        a, b = mini_branch[2], mini_branch[3]
        t_star = 0.5 * (a.t + b.t)
        fam = ly.family_from_branch((a, b), irrot, t_star)
        for lam in (0.0, 0.25 * (b.t - a.t)):
            res = fam.f(np.zeros(fam.n), lam)
            assert np.abs(res).max() < 1e-9

    def test_pde_reduced_map_on_the_band_factor(self, mini_branch, irrot):
        # the complement is solved on the band LU of the strip Jacobian, and
        # B is the projection <F(s v + w), what> of the pencil J v = mu B v
        a, b = mini_branch[2], mini_branch[3]
        fam = ly.family_from_branch((a, b), irrot, 0.5 * (a.t + b.t))
        q = 0.25 * (b.t - a.t)
        for lam in (0.0, q, -q):
            B, _ = ly.reduced_map(fam, 0.0, lam)
            assert abs(B) <= 1e-12
        ed = fam.eigendata(0.0)
        for s in (1e-4, 1e-3):
            _, w = ly.reduced_map(fam, s, 0.0)
            F = fam.f(s * ed.v + w, 0.0)
            assert np.abs(F - fam.ip(F, ed.w) * ed.v).max() <= 1e-10
            assert abs(fam.ip(w, ed.w)) <= 1e-12

    def test_pde_eigendata_normalization(self, mini_branch, irrot):
        a, b = mini_branch[2], mini_branch[3]
        fam = ly.family_from_branch((a, b), irrot, 0.5 * (a.t + b.t))
        ed = fam.eigendata(0.0)
        assert fam.ip(ed.v, ed.v) == pytest.approx(1.0, abs=1e-10)
        assert fam.ip(ed.v, ed.w) == pytest.approx(1.0, abs=1e-10)
        # the crossing-tracked eigenvalue matches the monitored mu1 at this point
        mid = branch.point_at_arclength(a, irrot, 0.5 * (a.t + b.t))
        mu1 = branch.spectrum_at(mid.field, irrot, nu0_grid_n=256).mu1
        assert ed.mu == pytest.approx(mu1, rel=2e-2)

    def test_pde_eigendata_is_the_monitored_mu1(self, mini_branch, irrot):
        # the reduction and the spectral monitor solve one pencil
        a, b = mini_branch[2], mini_branch[3]
        t_mid = 0.5 * (a.t + b.t)
        fam = ly.family_from_branch((a, b), irrot, t_mid)
        mid = branch.point_at_arclength(a, irrot, t_mid)
        mu1 = branch.spectrum_at(mid.field, irrot, nu0_grid_n=256).mu1
        assert fam.eigendata(0.0).mu == pytest.approx(mu1, abs=1e-10)

    def test_pde_eigendata_is_cached_per_lam(self, mini_branch, irrot, monkeypatch):
        # one factorization of J - sigma B serves the right and the left
        # eigenvectors, and repeated calls at one lam reuse the eigen-data
        a, b = mini_branch[2], mini_branch[3]
        fam = ly.family_from_branch((a, b), irrot, 0.5 * (a.t + b.t))
        fam.base(0.0)
        factorizations = []
        original = branch.band_lu

        def counted(A):
            factorizations.append(A.shape)
            return original(A)

        monkeypatch.setattr(branch, "band_lu", counted)
        eds = [fam.eigendata(0.0) for _ in range(3)]
        assert len(factorizations) == 1
        assert eds[0] is eds[1] is eds[2]

    def test_pde_eigendata_arpack_failure_is_numerical_error(
        self, mini_branch, irrot, monkeypatch
    ):
        def no_convergence(state, *arrays):
            # dnaupd's exit after maxiter iterations
            state["ido"], state["info"] = 99, 1

        a, b = mini_branch[2], mini_branch[3]
        fam = ly.family_from_branch((a, b), irrot, 0.5 * (a.t + b.t))
        # branch loads ARPACK's extension when it first runs an eigensolve,
        # from sys.modules when it is there
        stub = types.SimpleNamespace(dnaupd_wrap=no_convergence)
        monkeypatch.setitem(sys.modules, branch._ARPACKLIB, stub)
        with pytest.raises(NumericalError, match="eigensolve failed"):
            fam.eigendata(0.0)
