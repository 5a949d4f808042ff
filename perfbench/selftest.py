#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about two minutes on 2 cores).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema, that every workload prints
one result line with exactly the declared metrics and no failed operation,
that per-layer counts repeat exactly across two traced runs of one seed, and
that the benchmark refuses to run without the wavebranch sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names)), names


def run(cmd, workload, trace, cwd=ROOT):
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc, expected):
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected, res["metrics"]
    return res["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_schema(spec)
    cmd = spec["command"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        metrics = result_of(run(cmd, name, 0), e2e)
        assert all(v["value"] > 0 for v in metrics.values()), metrics
        first = result_of(run(cmd, name, 1), layers)
        second = result_of(run(cmd, name, 1), layers)
        for key, unit in layers.items():
            if unit in ("count", "bytes"):
                assert first[key]["value"] == second[key]["value"], (name, key)
        print(f"ok {name}")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(cmd, spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
    sys.exit(0)
