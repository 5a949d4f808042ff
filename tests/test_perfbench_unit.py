"""One smoke-size unit of each benchmark workload, run as the benchmark runs
it: perfbench/unit.py in a fresh interpreter, on the jobs of perfbench/run.py
--smoke.  Guards the library calls the benchmark makes."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run_module():
    path = os.path.join(PERFBENCH, "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", ["solve-sweep", "fold-pairs"])
def test_smoke_unit_passes(workload, tmp_path):
    run = _run_module()
    job = run.WORKLOADS[workload][0](7, 0, True)
    job.update(workload=workload, seed=7, trace=False, probe=False,
               out=str(tmp_path / "out"), result=str(tmp_path / "result.json"),
               spans=str(tmp_path / "spans.jsonl"))
    pythonpath = os.pathsep.join(filter(None, [run.SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, run.UNIT, json.dumps(job)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(job["result"]) as fh:
        result = json.load(fh)
    assert result["ops"] and all(op["ok"] for op in result["ops"]), result["ops"]
    assert result["problems"] == []
