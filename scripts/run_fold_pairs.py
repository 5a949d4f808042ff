#!/usr/bin/env python3
"""Continue the irrotational solitary branch through its fold and exhibit
pairs of distinct waves sharing one Bernoulli constant.

Runs `wavebranch continue` and `wavebranch pairs` at the fold settings
(L = 25 d_-(R_start), 5% surface margin, nu0 on 512 nodes), so --out
(default ./fold_run) holds the checkpoints point_NNNN.txt, branch.csv,
config.json and pairs.json; then prints a summary table read from
pairs.json.  Exits with the CLI's exit code.
"""

import argparse
import json
import os
import sys

from wavebranch import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fold_run")
    ap.add_argument("--R-start", type=float, default=1.54, dest="R_start")
    ap.add_argument("--nq", type=int, default=201)
    ap.add_argument("--np", type=int, default=31, dest="npp")
    ap.add_argument("--steps", type=int, default=24)
    ap.add_argument("--ds", type=float, default=0.01)
    ap.add_argument("--n-pairs", type=int, default=5, dest="n_pairs")
    args = ap.parse_args(argv)

    code = cli.main([
        "continue", "--omega", "0", "--R-start", repr(args.R_start), "--L-factor", "25",
        "--nq", str(args.nq), "--np", str(args.npp), "--steps", str(args.steps),
        "--ds", repr(args.ds), "--margin-fraction", "0.05", "--nu0-grid-n", "512",
        "--out", args.out,
    ])
    if code == 0:
        code = cli.main(["pairs", "--branch", args.out, "--n-r", str(args.n_pairs)])
    if code != 0:
        return code

    with open(os.path.join(args.out, cli.PAIRS_JSON)) as fh:
        payload = json.load(fh)
    for ev in payload["events"]:
        print(f"  event: {ev['kind']} at t = {ev['t']:.5f}"
              + (f", R* = {ev['R']:.7f}" if "R" in ev else ""))
    pairs = payload["pairs"]
    print(f"\n{len(pairs)} same-R pairs (both members re-solved):")
    print(f"{'R':>12} {'t1':>9} {'t2':>9} {'sup-distance':>13}")
    for p in pairs:
        print(f"{p['R']:12.8f} {p['t1']:9.4f} {p['t2']:9.4f} {p['distance']:13.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
