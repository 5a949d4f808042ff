"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Criterion 5 asks for an irrotational solitary wave at R = 1.55,
which lies beyond the fold of the irrotational solitary branch; it asserts
that no such wave exists, from the stream oracle, the fold of the
default-grid branch and a named Newton failure at R = 1.55."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from wavebranch import branch, lyapunov as ly, physical, spectrum1d as sp1
from wavebranch import stream as st
from wavebranch import strip
from wavebranch.cli import main as cli_main
from wavebranch.errors import NonConvergenceError, NumericalError, StalledError
from wavebranch.vorticity import VorticitySpec

IRROT = VorticitySpec([0.0])
CONST1 = VorticitySpec([1.0])


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def done(self, n, text):
        dt = time.monotonic() - self.t0
        assert dt < self.limit, f"criterion {n} exceeded its runtime budget: {dt:.1f}s"
        print(f"ACCEPTANCE {n}: PASS ({dt:.1f}s) - {text}")


def test_criterion_01_irrotational_critical_values():
    b = Budget(1.0)
    ds = st.dispersion_summary(IRROT)
    assert abs(ds.theta_c - 1.0) < 1e-10
    assert abs(ds.R_c - 1.5) < 1e-10
    assert abs(st.froude_of_theta(IRROT, ds.theta_c) - 1.0) < 1e-10
    b.done(1, "theta_c = 1, R_c = 1.5, F(theta_c) = 1 to 1e-10")


def test_criterion_02_flow_force_identity():
    b = Budget(5.0)
    # samples stay clear of theta -> 0 and of the integrable singularity at
    # theta0, where third derivatives inflate the O(h^2) difference error
    for spec, lo, hi in ((IRROT, 0.8, 2.8), (CONST1, 1.6, 3.5)):
        thetas = np.linspace(lo, hi, 20)
        for theta in thetas:
            defect = st.check_flow_force_identity(spec, float(theta), 1e-4)
            assert defect < 1e-6, f"identity defect {defect} at theta={theta}"
    b.done(2, "d(S)/d(theta) = R'(theta) d(theta) at 20 thetas, both vorticities")


def test_criterion_03_supercritical_flow_force_monotone():
    b = Budget(10.0)
    for spec in (IRROT, CONST1):
        summ = st.dispersion_summary(spec)
        Rgrid = np.linspace(summ.R_c + 0.01, summ.R_c + 1.0, 50)
        S = [st.flow_force_of_R(spec, float(R), "supercritical") for R in Rgrid]
        assert np.all(np.diff(S) > 0)
    b.done(3, "S_-(R) strictly increasing on 50-point grids, both vorticities")


def test_criterion_04_discretization_order_and_taylor():
    b = Budget(30.0)
    # exact uniform stream residual: halving both spacings divides sup by ~4
    theta = 1.8
    sups = []
    for nq, npp in ((21, 17), (41, 33)):
        g = strip.StripGrid(L=5.0, nq=nq, np=npp)
        H = st.stream_profile(CONST1, theta, g.p)
        f = strip.StripField(g, np.tile(H, (g.nq, 1)), st.R_of_theta(CONST1, theta), theta)
        sups.append(strip.residual(f, CONST1).sup)
    ratio = sups[0] / sups[1]
    assert 3.5 <= ratio <= 4.5, f"halves-grid residual ratio {ratio}"

    # Jacobian Taylor test: smooth seeded random unit direction
    g = strip.StripGrid(L=12.0, nq=61, np=17)
    H = st.stream_profile(CONST1, theta, g.p)
    f = strip.StripField(g, np.tile(H, (g.nq, 1)), st.R_of_theta(CONST1, theta), theta)
    f.h *= 1 + 0.15 * np.exp(-(((g.q[:, None] - 3) / 2.0) ** 2)) * g.p[None, :]
    rng = np.random.default_rng(7)
    qs, ps = np.meshgrid(g.q, g.p, indexing="ij")
    v = np.zeros((g.nq, g.np))
    for _ in range(4):
        v += rng.normal() * np.sin(rng.integers(1, 3) * np.pi * ps) * np.cos(
            rng.uniform(0.2, 0.8) * qs + rng.uniform(0, 2 * np.pi)
        )
    v[-1, :] = 0.0
    v[:, 0] = 0.0
    vec = v[: g.nq - 1, 1:].ravel()
    vec /= np.linalg.norm(vec)
    J = strip.assemble_jacobian(f, CONST1)
    eps = 1e-5
    xp = strip.unpack(f, strip.pack(f) + eps * vec)
    xm = strip.unpack(f, strip.pack(f) - eps * vec)
    cd = (strip.residual_vector(xp, CONST1) - strip.residual_vector(xm, CONST1)) / (2 * eps)
    defect = np.abs(cd - J @ vec).max()
    assert defect < 1e-8, f"Taylor defect {defect}"
    b.done(4, f"residual order ratio {ratio:.2f}; Taylor defect {defect:.2e} < 1e-8")


def test_criterion_05_irrotational_solitary_wave_at_R_1_55():
    """Does an irrotational solitary wave exist at R = 1.55 on the default grid?

    No.  R is not monotone along the solitary branch: it rises from R_c = 1.5
    to a fold and falls toward the extreme wave, so the fold caps R.  The
    classical continuum fold sits at Froude ~1.294, R ~ 1.5472 (Longuet-Higgins
    & Fenton 1974; Hunter & Vanden-Broeck 1983), while the R = 1.55 far field
    has Froude 1.3036.  The criterion is answered with positive evidence:

    - the stream oracle gives F(1.55) = theta^(3/2) > 1.294;
    - continuation on the default grid (301x41, L = 30 d_-(1.54)) turns once,
      at R* ~ 1.5460 < 1.55, with F(R*) within 0.01 of 1.294 (the gap is
      discretization error);
    - Newton at R = 1.55 from the standard seed ends in a named numerical
      failure (StalledError or NonConvergenceError), never in a wave.
    """
    b = Budget(300.0)
    R = 1.55
    F_FOLD = 1.294  # classical largest irrotational solitary-wave Froude number
    summ = strip.cached_summary(IRROT)

    # stream oracle: irrotational far field has F = theta^(3/2) exactly
    theta = st.solve_theta_for_R(IRROT, R, "supercritical", summary=summ)
    F_R = st.froude_of_theta(IRROT, theta)
    assert abs(F_R - theta**1.5) < 1e-10
    assert F_R > F_FOLD

    # fold on the default grid, with the fold_branch fixture's step settings
    grid = strip.default_grid(IRROT, 1.54)
    sol = strip.newton_solve(strip.initial_guess(IRROT, 1.54, grid), IRROT, tol=1e-10)
    start = branch.branch_point_from_field(sol, IRROT, nu0_grid_n=512)
    ctrl = branch.StepControl(margin_fraction=5e-2)
    pts, status = branch.continue_branch(
        start, IRROT, steps=24, ds=0.01, ctrl=ctrl, nu0_grid_n=512
    )
    turnings = [e for e in branch.detect_events(pts) if isinstance(e, branch.Turning)]
    assert len(turnings) == 1, f"expected one fold, got {len(turnings)} ({status})"
    R_star = turnings[0].R
    R_top = max(p.R for p in pts)
    assert R_star < R and R_top < R, (
        f"default-grid branch reached R = {max(R_star, R_top)} >= {R}"
    )
    F_star = st.froude_of_theta(
        IRROT, st.solve_theta_for_R(IRROT, R_star, "supercritical", summary=summ)
    )
    assert F_star < F_R
    assert abs(F_star - F_FOLD) < 0.01, f"F(R*) = {F_star} is not the classical fold"

    # beyond the fold Newton must fail by name, not return a wave
    guess = strip.initial_guess(IRROT, R, strip.default_grid(IRROT, R))
    with pytest.raises((StalledError, NonConvergenceError)) as failure:
        strip.newton_solve(guess, IRROT, tol=1e-10, max_iter=60)
    b.done(
        5,
        f"no wave at R = {R}: fold R* = {R_star:.6f} ({R - R_star:.2e} below {R}); "
        f"F(R*) = {F_star:.4f} vs {F_FOLD} (|diff| {abs(F_star - F_FOLD):.1e} < 0.01); "
        f"F({R}) = {F_R:.5f}; Newton at {R}: {type(failure.value).__name__}",
    )


def test_criterion_06_small_amplitude_spectrum_structure():
    """Spectrum structure at three small-amplitude branch points.

    The points are obtained by walking the branch down toward the critical
    stream with the arclength driver (the bordered system stays well posed
    where plain Newton would drift to the trivial stream): crest/depth ratios
    of a few percent.  At moderate amplitudes (a/d >~ 0.13) the linearization
    carries a second bound state at ~0.756 nu0 (positive; the half line
    mu <= 0 holds exactly one eigenvalue at every amplitude); at the
    small-amplitude points selected here that near-edge state extends beyond
    the localization cut at the default truncation and exactly one localized,
    negative eigenvalue remains.
    """
    b = Budget(300.0)
    grid = strip.default_grid(IRROT, 1.505)
    sol = strip.newton_solve(strip.initial_guess(IRROT, 1.505, grid), IRROT, tol=1e-10)
    start = branch.branch_point_from_field(sol, IRROT, nu0_grid_n=1024)
    ctrl = branch.StepControl(ds_max_factor=4.0)
    try:
        pts, _ = branch.continue_branch(
            start, IRROT, steps=30, ds=0.003, ctrl=ctrl, nu0_grid_n=1024, direction=-1
        )
    except NumericalError as exc:
        # at vanishing amplitude even mu0 delocalizes at finite truncation;
        # the accepted points before that collapse are what the criterion needs
        pts = exc.partial_points
    small = [p for p in pts if p.mu0 is not None and p.R - 1.5 < 2e-3][-3:]
    assert len(small) == 3, "downward continuation did not reach small amplitudes"
    for p in small:
        a_over_d = p.field.xi[0] * p.field.theta - 1.0
        assert a_over_d < 0.15, "point is not small-amplitude"
        info = branch.spectrum_at(p.field, IRROT, nu0_grid_n=2048)
        assert info.nu0 > 0.0
        # exactly one localized eigenvalue below nu0, and it is negative
        n_loc_below = int(
            np.sum(info.localized & (info.eigenvalues < info.nu0 * (1 - 1e-9)))
        )
        assert n_loc_below == 1, (
            f"expected exactly one localized eigenvalue below nu0 at R={p.R}, "
            f"got {n_loc_below}"
        )
        assert info.mu0 is not None and info.mu0 < 0.0
        # transcendental oracle tan(sqrt(nu) d) = sqrt(nu) theta^2
        s = st.stream_at(IRROT, p.field.theta)
        f = lambda x: math.tan(x * s.depth) - x * s.theta**2  # noqa: E731
        oracle = brentq(f, 1e-12, math.pi / (2 * s.depth) * (1 - 1e-12), xtol=1e-15) ** 2
        assert abs(info.nu0 - oracle) < 1e-4
    b.done(
        6,
        "exactly one localized negative eigenvalue below nu0 at 3 small-amplitude "
        f"points (R - R_c down to {small[-1].R - 1.5:.1e}); nu0 matches the oracle to 1e-4",
    )


def test_criterion_07_continuation_run(tmp_path):
    b = Budget(900.0)
    args = [
        "continue", "--omega", "0", "--R-start", "1.52", "--steps", "40",
        "--ds", "0.0015", "--ds-grow", "1.0",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0

    lines = (out1 / "branch.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 41  # start + 40 accepted steps
    Rs = np.array([float(r[1]) for r in rows])
    xis = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(Rs) > 0), "R(t) not monotone"
    assert np.all(np.diff(xis) > 0), "xi(0; t) not monotone"

    # checkpoint replay invariant on a sample of the written checkpoints;
    # point 0 is the fixed-R Newton solve the run starts from
    moves = []
    for idx in (0, 1, 20, 40):
        fld, spec = strip.read_checkpoint(str(out1 / f"point_{idx:04d}.txt"))
        move = branch.replay_checkpoint(fld, spec)
        assert move < 1e-12, f"replay moved {move} at point {idx}"
        moves.append(move)

    # deterministic re-run: byte-identical outputs
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()
    for idx in (0, 17, 40):
        a = (out1 / f"point_{idx:04d}.txt").read_bytes()
        c = (out2 / f"point_{idx:04d}.txt").read_bytes()
        assert a == c
    b.done(7, f"40 accepted steps, monotone R and xi0, largest replay movement "
              f"{max(moves):.1e} < 1e-12 (points 0, 1, 20, 40), byte-identical rerun")


def test_criterion_08_lyapunov_schmidt_model_and_gallery():
    b = Budget(300.0)
    fam = ly.pitchfork_family()
    # zero set matches lambda = s^2 - s^4 with max error < 1e-8 over |s| <= 0.3
    lb = ly.local_branches(fam, s_max=0.3, lam_max=0.12, ns=15, nlam=41)
    for c in lb.curves:
        assert np.abs(c.lam - (c.s**2 - c.s**4)).max() < 1e-8
    # complement scaling exponent in [1.9, 2.1]
    svals = np.geomspace(1e-3, 1e-1, 7)
    norms = [np.linalg.norm(ly.solve_complement(fam, s, 0.0)) for s in svals]
    expo = np.polyfit(np.log(svals), np.log(norms), 1)[0]
    assert 1.9 <= expo <= 2.1

    # gallery: branch-pair counts <= m, odd-m existence, against dense scans
    def dense_count(family, s_probe, lam_max):
        lam_dense = np.linspace(-lam_max, lam_max, 801)
        most = 0
        for s in s_probe:
            Bv = np.array([ly.reduced_map(family, s, float(l))[0] for l in lam_dense])
            if np.abs(Bv).max() < 1e-10:
                continue
            most = max(most, int(np.sum(Bv[:-1] * Bv[1:] < 0)))
        return most

    # each case on the gallery's own chart, with its crossing order
    for name, m in (("pitchfork", 1), ("cubic", 3), ("vertical", None)):
        make, lam_max = ly.MODEL_GALLERY[name]
        lb = ly.gallery_branches(name)
        pos = [c for c in lb.curves if c.side > 0]
        neg = [c for c in lb.curves if c.side < 0]
        assert len(pos) == len(neg), name
        if m is not None:
            assert lb.m_estimate == m, name
            assert 1 <= len(pos) <= m, name  # odd-m existence and upper bound
            oracle = dense_count(make(), [0.12, 0.22, 0.29], lam_max)
            assert len(pos) == oracle, f"{name}: count {len(pos)} vs dense scan {oracle}"
        else:
            assert all(c.classification == "vertical" for c in lb.curves), name
    b.done(8, f"pitchfork zero set < 1e-8; w-exponent {expo:.3f}; gallery counts verified")


def test_criterion_09_event_detection_oracles():
    b = Budget(60.0)
    # synthetic fold: Turning within one sample spacing of the brute-force argmax
    ts = np.linspace(0.0, 2.0, 200)
    Rs = 2.0 - (ts - 1.0) ** 2
    pts = [
        branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None, mu1=1.0, nu0=1.0)
        for t, r in zip(ts, Rs)
    ]
    turns = [e for e in branch.detect_events(pts) if isinstance(e, branch.Turning)]
    assert len(turns) == 1
    assert abs(turns[0].t - ts[int(np.argmax(Rs))]) <= ts[1] - ts[0]

    # synthetic cubic mu1 trace: t* within 1e-3 and m-estimate = 3
    ts2 = np.linspace(0.3, 1.1, 81)
    mu1 = (ts2 - 0.7) ** 3
    pts2 = [
        branch.BranchPoint(field=None, t=float(t), R=1.5 + float(t), mu0=None,
                           mu1=float(m), nu0=2.0)
        for t, m in zip(ts2, mu1)
    ]
    crossings = [e for e in branch.detect_events(pts2) if isinstance(e, branch.EigenCrossing)]
    assert len(crossings) == 1
    assert abs(crossings[0].t - 0.7) < 1e-3
    assert crossings[0].m_estimate == 3
    b.done(9, "fold within one spacing of argmax; crossing t* to 1e-3 with m = 3")


def test_criterion_10_pair_finder(fold_branch):
    b = Budget(600.0)
    # synthetic non-monotone R(t): 10 R-values against the exhaustive pair scan
    ts = np.linspace(0.0, 2.0, 201)
    Rs = 2.0 - (ts - 1.0) ** 2
    pts = [
        branch.BranchPoint(field=None, t=float(t), R=float(r), mu0=None, mu1=1.0, nu0=1.0)
        for t, r in zip(ts, Rs)
    ]
    events = branch.detect_events(pts)
    pairs = physical.find_pairs([(t, r, None) for t, r in zip(ts, Rs)], events, n_r=10)
    assert len(pairs) == 10
    spacing = ts[1] - ts[0]
    for p in pairs:
        # exhaustive scan: closest sampled pre-/post-fold samples at this R
        left = np.argmin(np.abs(Rs[: len(ts) // 2] - p.R))
        right = len(ts) // 2 + np.argmin(np.abs(Rs[len(ts) // 2 :] - p.R))
        assert abs(p.t1 - ts[left]) <= spacing
        assert abs(p.t2 - ts[right]) <= spacing
        # inversion reproduces R within the monotone-interpolation fidelity
        assert abs((2.0 - (p.t1 - 1.0) ** 2) - p.R) < 1e-6
        # equal-R tolerance between the two members (the criterion's contract)
        assert abs((2.0 - (p.t1 - 1.0) ** 2) - (2.0 - (p.t2 - 1.0) ** 2)) < 1e-10

    # a genuine Turning occurs within the computed PDE branch range: the
    # PDE-mode criterion applies (both members re-solved, equal R, distinct)
    pde_pts, status = fold_branch
    pde_events = branch.detect_events(pde_pts)
    assert any(isinstance(e, branch.Turning) for e in pde_events)
    irrot = VorticitySpec([0.0])

    def resolve(Rv, ref):
        return strip.resolve_at(ref.field, irrot, Rv)

    pde_pairs = physical.find_pairs(
        [(p.t, p.R, p) for p in pde_pts], pde_events, n_r=4, resolve=resolve
    )
    assert pde_pairs
    for p in pde_pairs:
        assert p.distance > 10 * 1e-10
    R_gap = max(abs((2.0 - (p.t1 - 1.0) ** 2) - (2.0 - (p.t2 - 1.0) ** 2)) for p in pairs)
    b.done(
        10,
        f"synthetic pairs match the exhaustive scan, max |R(t1) - R(t2)| {R_gap:.2e} "
        f"< 1e-10; {len(pde_pairs)} genuine PDE pairs around the fold, min sup-distance "
        f"{min(p.distance for p in pde_pairs):.2e} > 10*tol = 1e-09",
    )
