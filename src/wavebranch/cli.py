"""Command-line orchestration: configuration, persistence layout, CSV/JSON
output.

Exit codes: 0 success, 1 numerical failure (named module error), 2 usage or
configuration error.  All floats are serialized with shortest round-trip
decimal representation, so outputs are byte-reproducible and checkpoints
round-trip exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import branch as branch_mod
from . import lyapunov as ly
from . import physical as phys
from . import spectrum1d as sp1
from . import stream as stream_mod
from . import strip as strip_mod
from .errors import (
    BranchStallError,
    CheckpointFormatError,
    NoSecondaryBranchError,
    NumericalError,
    PreconditionError,
    WavebranchError,
)
from .vorticity import VorticitySpec

__all__ = ["RunConfig", "main"]

# Layout of a branch directory: one checkpoint per accepted point in branch
# order, the per-point table, and the same-R pairs found on the branch.
POINT_NAME = "point_{:04d}.txt"
BRANCH_CSV = "branch.csv"
PAIRS_JSON = "pairs.json"


@dataclass
class RunConfig:
    """Run configuration; round-trips losslessly through JSON."""

    omega: list = field(default_factory=lambda: [0.0])
    L_factor: float = strip_mod.DEFAULT_L_FACTOR  # L = L_factor * d_-(R)
    nq: int = 301
    np: int = 41
    ds: float = 0.002
    steps: int = 40
    ds_grow: float = 1.3
    margin_fraction: float = 1e-2
    nu0_grid_n: int = 1024
    out_dir: str | None = None

    def __post_init__(self):
        if self.ds <= 0 or self.margin_fraction <= 0:
            raise ValueError("ds and margin_fraction must be positive")
        if self.nq < 9 or self.np < 9:
            raise ValueError("grid counts below minimum (9)")
        if not self.L_factor > 0:
            raise ValueError(f"L_factor must be positive, got {self.L_factor}")
        if self.nu0_grid_n < 64:
            raise ValueError(f"nu0_grid_n must be at least 64, got {self.nu0_grid_n}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Configuration from a JSON object; an unknown key or a value of the
        wrong type raises ValueError (an integer stands for a float)."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: configuration is not a JSON object")
        hints = typing.get_type_hints(cls)
        for key, val in data.items():
            if key not in hints:
                raise ValueError(f"{path}: unknown configuration key {key!r}")
            kinds = typing.get_args(hints[key]) or (hints[key],)
            if float in kinds:
                kinds += (int,)
            if isinstance(val, bool) or not isinstance(val, kinds):
                raise ValueError(
                    f"{path}: configuration key {key!r} cannot be {type(val).__name__}"
                )
        return cls(**data)


def _fmt(x) -> str:
    return repr(float(x))


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.__post_init__()
    return cfg


def _spec_of(cfg: RunConfig) -> VorticitySpec:
    return VorticitySpec(cfg.omega)


def _grid_of(cfg: RunConfig, spec: VorticitySpec, R: float) -> strip_mod.StripGrid:
    return strip_mod.default_grid(spec, R, nq=cfg.nq, npp=cfg.np, L_factor=cfg.L_factor)


def _cmd_stream(args, cfg: RunConfig) -> int:
    spec = _spec_of(cfg)
    thetas = np.linspace(args.theta_min, args.theta_max, args.n)
    lines = ["theta,d,R,F,S"]
    for th in thetas:
        s = stream_mod.stream_at(spec, float(th), n_profile=17)
        lines.append(
            ",".join(_fmt(v) for v in (s.theta, s.depth, s.R, s.froude, s.flow_force))
        )
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_critical(args, cfg: RunConfig) -> int:
    spec = _spec_of(cfg)
    ds = stream_mod.dispersion_summary(spec)
    F_c = stream_mod.froude_of_theta(spec, ds.theta_c)
    print(f"theta_c {_fmt(ds.theta_c)}")
    print(f"R_c {_fmt(ds.R_c)}")
    print(f"R_0 {'inf' if np.isinf(ds.R_0) else _fmt(ds.R_0)}")
    print(f"F(theta_c) {_fmt(F_c)}")
    return 0


def _cmd_spectrum1d(args, cfg: RunConfig) -> int:
    spec = _spec_of(cfg)
    theta = stream_mod.solve_theta_for_R(spec, args.R, "supercritical")
    problem = sp1.robin_problem(spec, theta, grid_n=cfg.nu0_grid_n)
    print(f"nu0 {_fmt(sp1.nu0(problem))}")
    print(f"rho0 {_fmt(problem.rho0)}")
    return 0


def _cmd_solve(args, cfg: RunConfig) -> int:
    spec = _spec_of(cfg)
    grid = _grid_of(cfg, spec, args.R)
    guess = strip_mod.initial_guess(spec, args.R, grid)
    sol, info = strip_mod.newton_solve(guess, spec, return_info=True)
    profile = phys.reconstruct(sol, spec)
    defect = phys.verify_flow_force_selection(profile, spec)
    print(f"iterations {info.iterations}")
    print(f"chord_steps {info.chord_steps}")
    print(f"residual_sup {_fmt(info.residual_sup)}")
    print(f"xi0 {_fmt(sol.xi[0])}")
    print(f"d_far {_fmt(profile.depth_far)}")
    print(f"flow_force {_fmt(profile.flow_force)}")
    print(f"flow_force_variation {_fmt(profile.flow_force_variation)}")
    print(f"selection_defect {_fmt(defect)}")
    if args.out:
        strip_mod.write_checkpoint(args.out, sol, spec)
        print(f"checkpoint {args.out}")
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            fh.write(phys.profile_csv(profile))
        print(f"profile {args.profile_out}")
    return 0


# the columns of branch.csv, in order
_BRANCH_CSV_HEADER = (
    "t,R,xi0,mu0,mu1,nu0,max_surface_slope,surface_margin,bottom_margin,min_hp"
)


def _branch_csv_lines(points) -> list:
    lines = [_BRANCH_CSV_HEADER]
    for p in points:
        d = p.diag
        mu0 = "nan" if p.mu0 is None else _fmt(p.mu0)
        lines.append(
            ",".join(
                [
                    _fmt(p.t),
                    _fmt(p.R),
                    _fmt(p.field.xi[0]),
                    mu0,
                    _fmt(p.mu1),
                    _fmt(p.nu0),
                    _fmt(d.max_surface_slope),
                    _fmt(d.surface_margin),
                    _fmt(d.bottom_margin),
                    _fmt(d.min_hp),
                ]
            )
        )
    return lines


def _point_names(dirpath: str) -> list:
    """Names of the consecutive checkpoints of a branch directory, from
    POINT_NAME.format(0) up to the first one missing."""
    names = []
    while os.path.exists(os.path.join(dirpath, POINT_NAME.format(len(names)))):
        names.append(POINT_NAME.format(len(names)))
    return names


def _write_branch(out_dir: str, points, spec: VorticitySpec, cfg: RunConfig) -> None:
    """The checkpoints, branch.csv and config.json of a continuation run.

    A branch directory holds one run: the checkpoints of an earlier, longer
    run past the last point, and its pairs.json, are deleted."""
    for idx, p in enumerate(points):
        strip_mod.write_checkpoint(os.path.join(out_dir, POINT_NAME.format(idx)), p.field, spec)
    for name in _point_names(out_dir)[len(points):]:
        os.remove(os.path.join(out_dir, name))
    if os.path.exists(os.path.join(out_dir, PAIRS_JSON)):
        os.remove(os.path.join(out_dir, PAIRS_JSON))
    with open(os.path.join(out_dir, BRANCH_CSV), "w") as fh:
        fh.write("\n".join(_branch_csv_lines(points)) + "\n")
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(cfg.to_json() + "\n")


def _cmd_continue(args, cfg: RunConfig) -> int:
    spec = _spec_of(cfg)
    R0 = args.R_start
    grid = _grid_of(cfg, spec, R0)
    out_dir = args.out or cfg.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    guess = strip_mod.initial_guess(spec, R0, grid)
    sol = strip_mod.newton_solve(guess, spec)
    start = branch_mod.branch_point_from_field(sol, spec, nu0_grid_n=cfg.nu0_grid_n)
    ctrl = branch_mod.StepControl(margin_fraction=cfg.margin_fraction, grow=cfg.ds_grow)
    try:
        points, status = branch_mod.continue_branch(
            start, spec, steps=cfg.steps, ds=cfg.ds, ctrl=ctrl, nu0_grid_n=cfg.nu0_grid_n
        )
    except (BranchStallError, NumericalError) as exc:
        # a failed run keeps the points it accepted before the failure
        _write_branch(out_dir, exc.partial_points, spec, cfg)
        raise
    _write_branch(out_dir, points, spec, cfg)
    print(f"status {status}")
    print(f"accepted {len(points)}")
    print(f"out {out_dir}")
    return 0


def _check_same_run(fld, spec, ref_fld, ref_spec, ref_name: str) -> None:
    """Raise CheckpointFormatError unless the checkpoint read as fld and spec
    has the vorticity and the grid of the one read from ref_name."""
    if spec != ref_spec:
        raise CheckpointFormatError(
            f"vorticity {list(spec.coeffs)} differs from {ref_name}'s {list(ref_spec.coeffs)}")
    if fld.grid != ref_fld.grid:
        raise CheckpointFormatError(f"grid {fld.grid} differs from {ref_name}'s {ref_fld.grid}")


def _read_branch_dir(dirpath: str, audit=None):
    """The checkpoints and branch.csv of a branch directory, checked by the
    rules every reader of one applies: each checkpoint reads, all have the
    vorticity and the grid of the first one that reads, and branch.csv
    exists with the header the writer writes, one row of as many numbers per
    checkpoint, t strictly increasing and each row's R its checkpoint's.

    Returns (checkpoints, rows, faults): name -> (field, spec) of each
    checkpoint of the run, in branch order; branch.csv's rows as {column:
    float}; and the faults as "<file>: <fault>" lines, each checkpoint's in
    name order, then branch.csv's.  audit(name, field, spec), when given,
    runs on each checkpoint of the run, and a package error it raises is that
    checkpoint's fault.  A missing directory, or one without checkpoints,
    raises FileNotFoundError (a usage error)."""
    names = _point_names(dirpath)
    if not names:
        raise FileNotFoundError(f"no checkpoints found in {dirpath}")
    read, rows, faults = {}, [], []
    for name in names:
        try:
            fld, spec = strip_mod.read_checkpoint(os.path.join(dirpath, name))
            if read:
                ref = next(iter(read))
                _check_same_run(fld, spec, *read[ref], ref)
            read[name] = (fld, spec)
            if audit:
                audit(name, fld, spec)
        except WavebranchError as exc:
            faults.append(f"{name}: {exc}")
    csv_path = os.path.join(dirpath, BRANCH_CSV)
    if not os.path.exists(csv_path):
        faults.append(f"{BRANCH_CSV}: missing")
        return read, rows, faults
    with open(csv_path) as fh:
        header = fh.readline().strip()
        lines = [line.split(",") for line in fh if line.strip()]
    if header != _BRANCH_CSV_HEADER:
        faults.append(f"{BRANCH_CSV}: header is not {_BRANCH_CSV_HEADER}")
        return read, rows, faults
    columns = header.split(",")
    for idx, vals in enumerate(lines):
        if len(vals) != len(columns):
            faults.append(f"{BRANCH_CSV} row {idx}: {len(vals)} fields vs {len(columns)} columns")
            return read, [], faults
        try:
            rows.append(dict(zip(columns, map(float, vals))))
        except ValueError:
            faults.append(f"{BRANCH_CSV} row {idx}: not a number")
            return read, [], faults
    if len(rows) != len(names):
        faults.append(f"{BRANCH_CSV}: {len(rows)} rows vs {len(names)} checkpoints")
        return read, rows, faults
    ts = [row["t"] for row in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        faults.append(f"{BRANCH_CSV}: t not strictly increasing")
    for idx, (row, name) in enumerate(zip(rows, names)):
        if name in read and row["R"] != read[name][0].R:
            faults.append(f"{BRANCH_CSV} row {idx}: R mismatch with checkpoint")
            break
    return read, rows, faults


def _cmd_pairs(args, cfg: RunConfig) -> int:
    checkpoints, rows, faults = _read_branch_dir(args.branch)
    if faults:
        raise CheckpointFormatError(f"{args.branch}: {faults[0]}")
    if len(rows) < 3:
        raise PreconditionError(f"{args.branch}: {len(rows)} points, pairs need at least 3")
    points = [
        branch_mod.BranchPoint(field=fld, t=row["t"], R=row["R"], mu1=row["mu1"], nu0=row["nu0"],
                               mu0=None if np.isnan(row["mu0"]) else row["mu0"])
        for (fld, _), row in zip(checkpoints.values(), rows)
    ]
    _, spec = checkpoints[POINT_NAME.format(0)]
    events = branch_mod.detect_events(points)
    summary = [(p.t, p.R, p) for p in points]

    def resolve(Rv, ref):
        return strip_mod.resolve_at(ref.field, spec, Rv)

    pairs = phys.find_pairs(summary, events, n_r=args.n_r, resolve=resolve)
    payload = {
        "events": [
            {"kind": e.__class__.__name__, "t": e.t}
            | ({"R": e.R} if isinstance(e, branch_mod.Turning) else {})
            for e in events
        ],
        "pairs": [
            {"t1": p.t1, "t2": p.t2, "R": p.R, "distance": p.distance} for p in pairs
        ],
    }
    out = args.out or os.path.join(args.branch, PAIRS_JSON)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"pairs {len(pairs)}")
    print(f"out {out}")
    return 0


def _cmd_ls_reduce(args, cfg: RunConfig) -> int:
    fld_a, spec = strip_mod.read_checkpoint(args.checkpoint_a)
    fld_b, spec_b = strip_mod.read_checkpoint(args.checkpoint_b)
    _check_same_run(fld_b, spec_b, fld_a, spec, args.checkpoint_a)
    pa = branch_mod.branch_point_from_field(fld_a, spec, nu0_grid_n=cfg.nu0_grid_n)
    pb = branch_mod.branch_point_from_field(fld_b, spec, nu0_grid_n=cfg.nu0_grid_n)
    payload = {"mu1_a": pa.mu1, "mu1_b": pb.mu1, "nu0_a": pa.nu0, "nu0_b": pb.nu0}
    bracketed = branch_mod.crossing_bracket(pa, pb)
    payload["crossing_bracketed"] = bracketed
    if not bracketed:
        payload["note"] = "no mu1 sign change strictly below nu0 between the checkpoints"
    else:
        # b lies one weighted secant length from a along the unit secant,
        # which is the way switch_branch walks from a
        x_a, x_b = strip_mod.pack(fld_a), strip_mod.pack(fld_b)
        weight = fld_a.grid.ip_weight
        pa.tangent_x, pa.tangent_lam = branch_mod.tangent(x_a, pa.R, x_b, pb.R, weight)
        pb.t = pa.t + branch_mod.secant_length(x_a, pa.R, x_b, pb.R, weight)
        try:
            seed = ly.switch_branch((pa, pb), spec, cfg.nu0_grid_n)
            payload["switched"] = True
            payload["seed_R"] = seed.R
            if args.out_checkpoint:
                strip_mod.write_checkpoint(args.out_checkpoint, seed, spec)
        except NoSecondaryBranchError as exc:
            payload["switched"] = False
            payload["note"] = str(exc)
    with open(args.out or "ls-reduce.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(json.dumps(payload))
    if not bracketed:
        raise PreconditionError(payload["note"])
    return 0


def _cmd_model_bifurcate(args, cfg: RunConfig) -> int:
    if args.case not in ly.MODEL_GALLERY:
        raise PreconditionError(f"unknown model case {args.case!r}")
    lb = ly.gallery_branches(args.case)
    payload = {
        "case": args.case,
        "m_estimate": lb.m_estimate,
        "mu_m": lb.mu_m,
        "certified": lb.certified,
        "curves": [
            {
                "side": c.side,
                "classification": c.classification,
                "partner": c.partner,
                "s": [float(v) for v in c.s],
                "lambda": [float(v) for v in c.lam],
            }
            for c in lb.curves
        ],
    }
    out = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _taylor_spot_check(fld, spec) -> float:
    """Directional-derivative defect of the Jacobian along one smooth
    perturbation drawn with seed 0 (eps = 1e-5)."""
    grid = fld.grid
    rng = np.random.default_rng(0)
    qs, ps = np.meshgrid(grid.q, grid.p, indexing="ij")
    v = np.zeros((grid.nq, grid.np))
    for _ in range(3):
        v += rng.normal() * np.sin(rng.integers(1, 3) * np.pi * ps) * np.cos(
            rng.uniform(0.2, 0.8) * qs + rng.uniform(0, 2 * np.pi)
        )
    vec = grid.unknowns(v)
    vec /= np.linalg.norm(vec)
    J = strip_mod.assemble_jacobian(fld, spec)
    eps = 1e-5
    xp = strip_mod.unpack(fld, strip_mod.pack(fld) + eps * vec)
    xm = strip_mod.unpack(fld, strip_mod.pack(fld) - eps * vec)
    cd = (strip_mod.residual_vector(xp, spec) - strip_mod.residual_vector(xm, spec)) / (2 * eps)
    return float(np.abs(cd - J @ vec).max())


class _AuditFailure(WavebranchError):
    """An invariant that a checkpoint breaks under `verify`."""


def _audit_checkpoint(path, fld, spec) -> str:
    """Re-assert the invariants of the checkpoint at path, read as fld and
    spec; returns the details of its ok line.  A broken invariant raises
    _AuditFailure, and a check that the library cannot run raises its own
    WavebranchError."""
    # byte round-trip, compared in memory: verify writes nothing
    with open(path, "rb") as fh:
        if fh.read() != strip_mod._checkpoint_text(fld, spec).encode():
            raise _AuditFailure("round-trip not byte-identical")
    strip_mod.check_unidirectional(fld)
    theta_err = abs(stream_mod.R_of_theta(spec, fld.theta) - fld.R)
    if theta_err > 1e-8:
        raise _AuditFailure(f"far-field theta inconsistent with R ({theta_err:.2e})")
    col_err = np.abs(fld.h[-1] - stream_mod.stream_profile(spec, fld.theta, fld.grid.p)).max()
    if col_err > 1e-9:
        raise _AuditFailure(f"far-field column mismatch ({col_err:.2e})")
    move = branch_mod.replay_checkpoint(fld, spec)
    if move > 1e-12:
        raise _AuditFailure(f"Newton replay moved {move:.2e} > 1e-12")
    res = strip_mod.residual(fld, spec)
    if res.sup > 10 * strip_mod.NEWTON_TOL:
        raise _AuditFailure(f"residual {res.sup:.2e} above 10*tol")
    defect = _taylor_spot_check(fld, spec)
    if defect > 1e-6:
        raise _AuditFailure(f"Jacobian Taylor spot-check defect {defect:.2e}")
    return f"replay {move:.2e}, taylor {defect:.2e}"


def _cmd_verify(args, cfg: RunConfig) -> int:
    def audit(name, fld, spec):
        details = _audit_checkpoint(os.path.join(args.dir, name), fld, spec)
        print(f"{name}: ok ({details})")

    checkpoints, _, faults = _read_branch_dir(args.dir, audit)
    for fault in faults:
        print(f"FAIL {fault}")
    if faults:
        return 1
    print(f"verified {len(checkpoints)} checkpoints")
    return 0


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavebranch",
        description="Rotational solitary water waves: solver, continuation, "
        "bifurcation analysis, and same-Bernoulli-constant pairs.",
    )
    # no abbreviations: a stale `--L 21.3` must not parse as `--L-factor 21.3`
    sub = ap.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    # option groups; each command takes the groups its function reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON configuration file")
    omega = argparse.ArgumentParser(add_help=False)
    omega.add_argument("--omega", type=float, nargs="+", help="vorticity coefficients")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--L-factor", type=float, dest="L_factor",
                      help="truncation L in far-field depths d_-(R)")
    grid.add_argument("--nq", type=int)
    grid.add_argument("--np", type=int, dest="np")
    edge = argparse.ArgumentParser(add_help=False)
    edge.add_argument("--nu0-grid-n", type=int, dest="nu0_grid_n")

    p = sub.add_parser("stream", parents=[config, omega],
                       help="tabulate the uniform-stream family")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("critical", parents=[config, omega],
                       help="critical stream: theta_c, R_c, R_0")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("spectrum1d", parents=[config, omega, edge],
                       help="1-D Robin eigenvalue nu0 and rho0")
    p.add_argument("--R", type=float, required=True)
    p.set_defaults(func=_cmd_spectrum1d)

    p = sub.add_parser("solve", parents=[config, omega, grid],
                       help="solve one solitary wave at fixed R")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--profile-out", dest="profile_out",
                   help="write the reconstructed profile as CSV (X, xi, psi_y_surface)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("continue", parents=[config, omega, grid, edge],
                       help="pseudo-arclength branch continuation")
    p.add_argument("--R-start", type=float, required=True, dest="R_start")
    p.add_argument("--steps", type=int)
    p.add_argument("--ds", type=float)
    p.add_argument("--ds-grow", type=float, dest="ds_grow")
    p.add_argument("--margin-fraction", type=float, dest="margin_fraction")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_continue)

    p = sub.add_parser("pairs", help="same-R pair finding on a branch directory")
    p.add_argument("--branch", required=True)
    p.add_argument("--n-r", type=_at_least_one, default=10, dest="n_r",
                   help="values of R on each side of a Turning (at least 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("ls-reduce", parents=[config, edge],
                       help="Lyapunov-Schmidt reduction at a PDE crossing")
    p.add_argument("--checkpoint-a", required=True, dest="checkpoint_a")
    p.add_argument("--checkpoint-b", required=True, dest="checkpoint_b")
    p.add_argument("--out")
    p.add_argument("--out-checkpoint", dest="out_checkpoint")
    p.set_defaults(func=_cmd_ls_reduce)

    p = sub.add_parser("model-bifurcate", help="finite-dimensional bifurcation gallery")
    p.add_argument("--case", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_model_bifurcate)

    p = sub.add_parser("verify", help="replay checkpoints and re-assert invariants")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = _load_config(args)
    except (FileNotFoundError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WavebranchError as exc:
        print(f"error ({exc.__class__.__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
