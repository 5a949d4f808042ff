#!/usr/bin/env python3
"""Byte-identity check: the outputs of a parent commit against the working tree.

    python3 scripts/same_outputs.py --parent <commit>

Run from anywhere inside a checkout.  The parent commit is exported with
`git archive` (bench_pair.export_commit), and the working tree's tracked and
untracked, not ignored files are copied (bench_pair.export_worktree), each
into its own temporary directory, which is deleted at the end.  On both
trees, with OPENBLAS_NUM_THREADS=1 and each command run in an empty output
directory of its side so that every path it writes or prints is relative, it
runs:

- `wavebranch solve --out --profile-out` for omega [0], [1, -2] and [-0.5],
  each at R_c + 0.005 and R_c + 0.03 (R_c from the working tree);
- `wavebranch spectrum1d` for omega [0] and [1, -2] at the same R and the
  default edge grid (nu0 on 1024 nodes);
- `scripts/run_fold_pairs.py` with its defaults, then, on the branch it
  writes to fold_run/, `wavebranch ls-reduce` from point_0001.txt to
  point_0003.txt with nu0 on 512 nodes (no crossing: its JSON holds both
  points' mu1 and nu0) and `wavebranch verify`;
- `wavebranch continue` for omega [1, -2] from R = 1.70, then `wavebranch
  pairs` and `wavebranch verify` on the branch it writes to rot_run/, at the
  fold settings of run_fold_pairs.py (its FOLD_SETTINGS): a rotational far
  field, a Turning and two eigenvalue crossings;
- `wavebranch model-bifurcate` for every case of the model gallery;
- `scripts/run_model_gallery.py` with its defaults.

Every command's stdout, stderr and exit code are kept as files next to what
it wrote.  The script prints every file that differs between the two sides,
or exists on one side only, and exits 1 on any difference, 0 when the two
output trees are byte-identical.  For a differing file whose numeric tokens
(split at white space and at the punctuation of JSON and CSV) are as many on
both sides, it also prints the largest absolute difference between them.
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import ROOT, export_commit, export_worktree  # noqa: E402

SOLVE_OMEGAS = ([0.0], [1.0, -2.0], [-0.5])
SOLVE_DR = (0.005, 0.03)
SPECTRUM1D_OMEGAS = ([0.0], [1.0, -2.0])
MODEL_CASES = ("pitchfork", "cubic", "vertical", "even")
ROT_OMEGA, ROT_R_START = [1.0, -2.0], 1.70


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, argv relative to the side's tree root."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from run_fold_pairs import FOLD_SETTINGS
    from wavebranch.stream import dispersion_summary
    from wavebranch.vorticity import VorticitySpec

    cli = ["-m", "wavebranch.cli"]
    runs = []
    for k, omega in enumerate(SOLVE_OMEGAS):
        R_c = dispersion_summary(VorticitySpec(omega)).R_c
        for dR in SOLVE_DR:
            tag = f"solve_{k}_{dR}"
            runs.append((tag, cli + [
                "solve", "--omega", *map(repr, omega), "--R", repr(R_c + dR),
                "--out", f"{tag}.txt", "--profile-out", f"{tag}.csv",
            ]))
    for k, omega in enumerate(SPECTRUM1D_OMEGAS):
        R_c = dispersion_summary(VorticitySpec(omega)).R_c
        for dR in SOLVE_DR:
            runs.append((f"spectrum1d_{k}_{dR}", cli + [
                "spectrum1d", "--omega", *map(repr, omega), "--R", repr(R_c + dR),
            ]))
    runs.append(("fold_pairs", ["scripts/run_fold_pairs.py"]))
    runs.append(("ls_reduce", cli + [
        "ls-reduce", "--checkpoint-a", "fold_run/point_0001.txt",
        "--checkpoint-b", "fold_run/point_0003.txt", "--nu0-grid-n", "512",
        "--out", "ls_reduce.json",
    ]))
    runs.append(("verify", cli + ["verify", "--dir", "fold_run"]))
    runs.append(("rot_continue", cli + [
        "continue", "--omega", *map(repr, ROT_OMEGA), "--R-start", repr(ROT_R_START),
        *FOLD_SETTINGS["continue"], "--out", "rot_run",
    ]))
    runs.append(("rot_pairs", cli + ["pairs", "--branch", "rot_run", *FOLD_SETTINGS["pairs"]]))
    runs.append(("rot_verify", cli + ["verify", "--dir", "rot_run"]))
    for case in MODEL_CASES:
        runs.append((f"model_{case}", cli + ["model-bifurcate", "--case", case,
                                             "--out", f"model_{case}.json"]))
    runs.append(("model_gallery", ["scripts/run_model_gallery.py"]))
    return runs


def run_side(tree: str, out: str, runs) -> None:
    """Every run on the source tree `tree`, writing into the directory `out`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    for name, argv in runs:
        if not argv[0].startswith("-"):
            argv = [os.path.join(tree, argv[0])] + argv[1:]
        proc = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("code", f"{proc.returncode}\n")):
            with open(os.path.join(out, f"{name}.{suffix}"), "w") as fh:
                fh.write(text)


def differing_files(a: str, b: str) -> list[str]:
    """Relative paths of the files that differ between the trees a and b,
    or exist in one of them only, sorted."""

    def files(top):
        return {
            os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top)
            for f in names
        }

    fa, fb = files(a), files(b)
    both = fa & fb
    changed = {
        rel for rel in both
        if not filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel), shallow=False)
    }
    return sorted((fa ^ fb) | changed)


def _numbers(path: str) -> list[float]:
    """The tokens of the file that parse as floats, in order."""
    with open(path, errors="replace") as fh:
        tokens = re.split(r"[\s,:;=\[\]{}()\"']+", fh.read())
    numbers = []
    for tok in tokens:
        try:
            numbers.append(float(tok))
        except ValueError:
            pass
    return numbers


def max_abs_difference(a: str, b: str) -> float | None:
    """Largest |x - y| over the numeric tokens of the files a and b, paired in
    order; None when either file is missing or their counts differ."""
    if not (os.path.isfile(a) and os.path.isfile(b)):
        return None
    xs, ys = _numbers(a), _numbers(b)
    if len(xs) != len(ys):
        return None
    diffs = [0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
             for x, y in zip(xs, ys)]
    return max(diffs, default=0.0)


def report(parent_out: str, change_out: str, parent: str) -> int:
    """Print every file that differs between the two output trees, with the
    largest absolute difference of its numbers where they pair up; 1 if any
    file differs, else 0."""
    diff = differing_files(parent_out, change_out)
    n = sum(len(names) for _, _, names in os.walk(change_out))
    for rel in diff:
        d = max_abs_difference(os.path.join(parent_out, rel), os.path.join(change_out, rel))
        print(f"differs: {rel}" if d is None else f"differs: {rel}  max |diff| {d:.3g}")
    print(f"{len(diff)} of {n} files differ from {parent}")
    return 1 if diff else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    args = ap.parse_args(argv)

    runs = commands()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        parent, change = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        os.mkdir(parent)
        export_commit(args.parent, parent)
        export_worktree(change)
        outs = {}
        for side, tree in (("parent", parent), ("change", change)):
            outs[side] = os.path.join(tmp, f"out-{side}")
            os.mkdir(outs[side])
            run_side(tree, outs[side], runs)
        return report(outs["parent"], outs["change"], args.parent)


if __name__ == "__main__":
    sys.exit(main())
