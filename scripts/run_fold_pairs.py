#!/usr/bin/env python3
"""Continue the irrotational solitary branch through its fold and exhibit
pairs of distinct waves sharing one Bernoulli constant.

    python3 scripts/run_fold_pairs.py [--out fold_run]

Runs `wavebranch continue` from R = 1.54 and `wavebranch pairs` at the fold
settings FOLD_SETTINGS, so --out (default ./fold_run) holds the checkpoints
point_NNNN.txt, branch.csv, config.json and pairs.json; then prints a
summary table read from pairs.json.  Exits with the CLI's exit code.
"""

import argparse
import json
import os
import sys

from wavebranch import cli

# options of `continue` (past the vorticity and the start R) and of `pairs`
# at the fold settings: L = 25 d_-(R_start) on 201x31, 24 steps from ds 0.01,
# 5% surface margin, nu0 on 512 nodes, and 5 values of R on each side of a
# Turning for the pairs
FOLD_SETTINGS = {"continue": "--L-factor 25 --nq 201 --np 31 --steps 24 --ds 0.01 "
                             "--margin-fraction 0.05 --nu0-grid-n 512".split(),
                 "pairs": ["--n-r", "5"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fold_run")
    args = ap.parse_args(argv)

    code = cli.main(["continue", "--omega", "0", "--R-start", "1.54",
                     *FOLD_SETTINGS["continue"], "--out", args.out])
    if code == 0:
        code = cli.main(["pairs", "--branch", args.out, *FOLD_SETTINGS["pairs"]])
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
