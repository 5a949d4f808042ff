#!/usr/bin/env python3
"""Continue the irrotational solitary branch through its fold and exhibit
pairs of distinct waves sharing one Bernoulli constant.

Writes the checkpoints point_NNNN.txt and pairs.json under --out (default
./fold_run) and prints a summary table.
"""

import argparse
import json
import os

import numpy as np

from wavebranch import branch, physical, strip
from wavebranch.vorticity import VorticitySpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fold_run")
    ap.add_argument("--R-start", type=float, default=1.54, dest="R_start")
    ap.add_argument("--nq", type=int, default=201)
    ap.add_argument("--np", type=int, default=31, dest="npp")
    ap.add_argument("--steps", type=int, default=24)
    ap.add_argument("--ds", type=float, default=0.01)
    ap.add_argument("--n-pairs", type=int, default=5, dest="n_pairs")
    args = ap.parse_args()

    spec = VorticitySpec([0.0])
    os.makedirs(args.out, exist_ok=True)

    print(f"solving the start wave at R = {args.R_start} ...")
    grid = strip.default_grid(spec, args.R_start, nq=args.nq, npp=args.npp, L_factor=25.0)
    sol = strip.newton_solve(strip.initial_guess(spec, args.R_start, grid), spec, tol=1e-10)
    start = branch.branch_point_from_field(sol, spec, nu0_grid_n=512)

    print("continuing through the fold ...")
    ctrl = branch.StepControl(margin_fraction=5e-2)
    points, status = branch.continue_branch(
        start, spec, steps=args.steps, ds=args.ds, ctrl=ctrl, nu0_grid_n=512
    )
    print(f"  status: {status}, accepted points: {len(points)}")
    for idx, p in enumerate(points):
        strip.write_checkpoint(os.path.join(args.out, f"point_{idx:04d}.txt"), p.field, spec)

    events = branch.detect_events(points)
    for ev in events:
        print(f"  event: {ev.__class__.__name__} at t = {ev.t:.5f}"
              + (f", R* = {ev.R:.7f}" if isinstance(ev, branch.Turning) else ""))

    def resolve(Rv, ref):
        return strip.resolve_at(ref.field, spec, Rv, 1e-10)

    pairs = physical.find_pairs(
        [(p.t, p.R, p) for p in points], events, n_r=args.n_pairs, resolve=resolve
    )
    print(f"\n{len(pairs)} same-R pairs (both members re-solved):")
    print(f"{'R':>12} {'t1':>9} {'t2':>9} {'sup-distance':>13}")
    for p in pairs:
        print(f"{p.R:12.8f} {p.t1:9.4f} {p.t2:9.4f} {p.distance:13.6f}")

    with open(os.path.join(args.out, "pairs.json"), "w") as fh:
        json.dump(
            [{"R": p.R, "t1": p.t1, "t2": p.t2, "distance": p.distance} for p in pairs],
            fh, indent=2,
        )
    print(f"\nwrote {args.out}/pairs.json")


if __name__ == "__main__":
    main()
