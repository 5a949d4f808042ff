#!/usr/bin/env python3
"""Run the Lyapunov-Schmidt reduction over the finite-dimensional model
gallery and print zero-curve counts, classifications and crossing orders."""

import argparse

import numpy as np

from wavebranch import lyapunov as ly


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s-max", type=float, default=0.3, dest="s_max")
    ap.add_argument("--ns", type=int, default=13)
    ap.add_argument("--nlam", type=int, default=61)
    args = ap.parse_args(argv)

    lam_max = {"pitchfork": 0.12, "cubic": 0.5, "vertical": 0.2, "even": 0.35}
    for name, make in ly.MODEL_GALLERY.items():
        fam = make()
        lb = ly.local_branches(fam, s_max=args.s_max, lam_max=lam_max[name],
                               ns=args.ns, nlam=args.nlam)
        pos = [c for c in lb.curves if c.side > 0]
        print(f"{name}: m = {lb.m_estimate}, certified = {lb.certified}, "
              f"curve pairs = {len(pos)}")
        for c in lb.curves:
            tail = ""
            if c.classification == "regular":
                k = int(np.argmax(np.abs(c.s)))
                tail = f", lambda({c.s[k]:+.2f}) = {c.lam[k]:+.4f}"
            print(f"  side {c.side:+d}: {c.classification}{tail}")


if __name__ == "__main__":
    main()
