#!/usr/bin/env python3
"""A/B benchmark: a parent commit against the working tree, in alternating pairs.

    python3 scripts/bench_pair.py --parent <commit> [--workload fold-pairs ...]
                                  [--pairs 10]

Run from the root of a checkout.  The parent commit is exported with
`git archive`, and the working tree's tracked and untracked, not ignored
files are copied, each into its own temporary directory, which is deleted at
the end, so that both sides start from a fresh tree alike.  Pair
i runs `perfbench/run.py --trace 0` with seed 101 + i (the seeds of
`perfbench/baseline.json`) for the `run_seconds` of BENCHMARK.json, once on
each side, the parent first in even pairs and the working tree first in odd
ones, so that a slow drift of the host's speed falls on both sides alike.

For every workload and end-to-end metric it prints each side's median and
quartiles over the pairs and the number of pairs the working tree won (ties
count for neither side), with one mark:

- GAIN: at least ten pairs ran, the working tree wins at least nine tenths
  of them, the medians differ by more than the interquartile range of the
  parent's runs, and the working tree failed no more ops than the parent;
- REGRESSION: the working tree's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- UNRESOLVED: either side's interquartile range exceeds the bound times its
  median and not every working-tree run beats every parent run, so the runs
  spread too widely to tell;
- `-`: none of these.

For every workload whose units record an output digest (fold-pairs: the
checkpoints and pairs.json), it also reports, seed by seed, whether the
working tree's digest equals the parent's, so that a change claiming the same
outputs is checked on every pair.  Each side's digest is read from its own
`.perfbench_out/digests.json` before the exports are deleted, under the key
that side's perfbench/run.py gives its source tree.

After the pairs, every workload runs once more on each side with
`perfbench/run.py --trace 1` (seed 101), its process tree pinned to one CPU.
On one CPU the continuation computes its spectra inline rather than in a
forked worker, so the spans of every layer, the spectral ones included, are
recorded in the traced unit's own process.  The traced fold-pairs output must
also match the digest of the untraced runs of the same seed and tree.

Everything perfbench writes goes into the `.perfbench_out/` of each side's
export and is deleted with it.  The per-pair results are saved as
`.perfbench_out/bench_pair.json` in the checkout, with the parent as
its short hash (`git rev-parse --short`), a "summary" that
holds, per workload: each side's failed and attempted ops and env lines, per
end-to-end metric each side's median, q1 and q3 with the win count and the
mark, and, seed by seed, whether the output digests match; and a "trace"
that holds, per workload, each side's per-layer metrics.  That file is the
whole `BENCH_<n>.json` record of a change.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 101
MIN_PAIRS_FOR_GAIN = 10


def short_hash(commit: str) -> str:
    """The abbreviated hash of `commit` (a hash, branch, tag or `HEAD`), so
    that what is recorded still names the commit after HEAD moves."""
    return subprocess.run(["git", "rev-parse", "--short", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export_commit(commit: str, dest: str) -> None:
    """Write the tree of `commit` into the empty directory `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def export_worktree(dest: str) -> None:
    """Copy the working tree's tracked files and its untracked files that
    are not ignored, as they are on disk, into the directory `dest`, which it
    creates; a tracked file deleted from the working tree is left out."""
    git = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    listed = subprocess.run(git, cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for rel in listed.split("\0"):
        if rel and os.path.isfile(os.path.join(ROOT, rel)):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy(os.path.join(ROOT, rel), os.path.join(dest, rel))


def pin_to_one_cpu() -> None:
    """Restrict the calling process, and so every process it starts, to the
    lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_side(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in the checkout at `root`, untraced or (trace=1)
    traced on one CPU; returns its summary line (correct, attempted, failed,
    metrics) with its env line (machine and library versions) under "env"."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    pin = pin_to_one_cpu if trace and hasattr(os, "sched_setaffinity") else None
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, preexec_fn=pin,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    env = [ln for ln in proc.stdout.splitlines() if ln.startswith("env ")]
    if proc.returncode != 0 or not lines or not env:
        raise RuntimeError(f"perfbench failed in {root} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "env": json.loads(env[-1][len("env "):])}


def output_digests(root: str, workload: str, seeds: list[int]) -> list:
    """The output digest perfbench recorded for each seed in the checkout at
    `root` under its current source tree (None where it recorded none)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(root, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    source = run._source_digest()
    path = os.path.join(root, ".perfbench_out", "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    return [known.get(f"{workload}:{seed}:0:{source}") for seed in seeds]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int]) -> dict:
    """Compare one metric over the pairs; `failed` is (parent, change) failed ops."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(parent)
            and sign * (pmed - cmed) > pq3 - pq1 and failed[1] <= failed[0])
    regression = sign * (cmed - pmed) > bound * abs(pmed)
    wide = pq3 - pq1 > bound * abs(pmed) or cq3 - cq1 > bound * abs(cmed)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    unresolved = wide and not separated
    mark = ("GAIN" if gain and not unresolved else "REGRESSION" if regression
            else "UNRESOLVED" if unresolved else "-")
    return {"parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "wins": wins, "pairs": len(parent), "mark": mark}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    args.parent = short_hash(args.parent)
    workloads = args.workload or names
    seconds = spec["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(args.pairs)]

    results = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        os.mkdir(sides["parent"])
        export_commit(args.parent, sides["parent"])
        export_worktree(sides["change"])
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    out = run_side(sides[side], w, seed, seconds)
                    results[w][side].append(out)
                    vals = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                    print(f"pair {i} {w} {side}: failed {out['failed']}/{out['attempted']} "
                          f"{json.dumps(vals)}", flush=True)
        traces = {}
        for w in workloads:
            traces[w] = {"command": f"python3 perfbench/run.py --workload {w} --seed "
                                    f"{FIRST_SEED} --seconds {seconds} --trace 1, on one CPU",
                         "seed": FIRST_SEED}
            for side in ("parent", "change"):
                out = run_side(sides[side], w, FIRST_SEED, seconds, trace=1)
                traces[w][side] = out
                print(f"trace {w} {side}: failed {out['failed']}/{out['attempted']}", flush=True)
        # read both sides' digests before their exports are deleted
        digests = {w: {side: output_digests(root, w, seeds) for side, root in sides.items()}
                   for w in workloads}

    summary = {}
    for w in workloads:
        summary[w] = {"failed": {}, "attempted": {}, "env": {}}
        print(f"\n{w} ({args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, {seconds} s runs)")
        failed = summary[w]["failed"]
        for side in ("parent", "change"):
            failed[side] = sum(r["failed"] for r in results[w][side])
            summary[w]["attempted"][side] = sum(r["attempted"] for r in results[w][side])
            envs = {json.dumps(r["env"], sort_keys=True) for r in results[w][side]}
            summary[w]["env"][side] = [json.loads(e) for e in sorted(envs)]
            print(f"  {side}: {failed[side]} of {summary[w]['attempted'][side]} ops failed")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in results[w]["parent"]]
            c = [r["metrics"][name]["value"] for r in results[w]["change"]]
            v = verdict(p, c, m["better"], m["bound"], (failed["parent"], failed["change"]))
            summary[w][name] = v
            pv, cv = v["parent"], v["change"]
            print(f"  {name:9s} parent {pv['median']:.4f} [{pv['q1']:.4f}, {pv['q3']:.4f}]  "
                  f"change {cv['median']:.4f} [{cv['q1']:.4f}, {cv['q3']:.4f}] {m['unit']}  "
                  f"wins {v['wins']}/{v['pairs']}  {v['mark']}")
        pd, cd = digests[w]["parent"], digests[w]["change"]
        if any(pd) or any(cd):
            same = [p is not None and p == c for p, c in zip(pd, cd)]
            summary[w]["outputs_identical"] = dict(zip(map(str, seeds), same))
            differ = [seed for seed, ok in zip(seeds, same) if not ok]
            print(f"  outputs  byte-identical to the parent on {sum(same)}/{len(same)} seeds"
                  + (f"; differ or missing on seeds {differ}" if differ else ""))
        pm, cm = traces[w]["parent"]["metrics"], traces[w]["change"]["metrics"]
        print(f"  traced seed {FIRST_SEED}, one CPU (parent -> change):")
        for name in pm:
            print(f"    {name:32s} {pm[name]['value']:.6g} -> {cm[name]['value']:.6g}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench_pair.json"), "w") as fh:
        json.dump({"parent": args.parent, "seeds": seeds, "seconds": seconds,
                   "runs": results, "digests": digests, "summary": summary,
                   "trace": traces}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
