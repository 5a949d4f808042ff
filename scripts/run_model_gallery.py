#!/usr/bin/env python3
"""Run the Lyapunov-Schmidt reduction over the finite-dimensional model
gallery, each case on its chart (lyapunov.gallery_branches), and print
zero-curve counts, classifications and crossing orders."""

import argparse

import numpy as np

from wavebranch import lyapunov as ly


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for name in ly.MODEL_GALLERY:
        lb = ly.gallery_branches(name)
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
