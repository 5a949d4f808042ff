"""One unit of a benchmark workload, run in a fresh interpreter.

Usage: python3 perfbench/unit.py '<job json>'

The job names the workload, its generated inputs, whether to trace, and the
path of the result file.  The unit imports wavebranch, computes the
dispersion summaries its operations take as given (set-up), runs its
operations, stamps ``time.monotonic()`` (one system-wide clock, so the parent
can subtract its spawn time), then checks the outputs against the
correctness gates and writes the result as JSON.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import resource
import shutil
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from wavebranch import branch, physical, stream, strip  # noqa: E402
from wavebranch.vorticity import VorticitySpec  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

REPLAY_GATE = 1e-12
NEWTON_TOL = 1e-10


def _time_steps(stamps):
    """Stamp the start of continuation and the end of every accepted step
    (after its spectrum), so that one operation is one accepted step."""
    original = branch.arclength_continue
    sig = inspect.signature(original)

    def hooked(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        on_accept = bound.arguments.get("on_accept")

        def stamped(step):
            reason = on_accept(step) if on_accept is not None else None
            stamps.append(time.monotonic())
            return reason

        bound.arguments["on_accept"] = stamped
        stamps.append(time.monotonic())
        return original(*bound.args, **bound.kwargs)

    branch.arclength_continue = hooked


def _op(ops, fn):
    """Run one operation; any exception or failed gate marks it failed."""
    t0 = time.monotonic()
    try:
        problem = fn()
    except Exception as exc:  # the benchmark records the failure and goes on
        problem = f"{exc.__class__.__name__}: {exc}"
    ops.append({"s": time.monotonic() - t0, "ok": problem is None, "why": problem})


# ---------------------------------------------------------------------------
# workloads: setup(job) -> state; run(state, job) -> ops; check(state, job) ->
# problems that fail every op of the unit
# ---------------------------------------------------------------------------


class SolveSweep:
    """Fixed-R solve as `wavebranch solve` runs it."""

    def setup(self, job):
        spec = VorticitySpec(job["omega"])
        return {"spec": spec, "R": strip.cached_summary(spec).R_c + job["dR"]}

    def run(self, state, job):
        spec, R = state["spec"], state["R"]
        ops = []

        def solve():
            g = job["grid"]
            grid = strip.default_grid(spec, R, nq=g["nq"], npp=g["np"], L_factor=g["L_factor"])
            guess = strip.initial_guess(spec, R, grid)
            sol, info = strip.newton_solve(guess, spec, tol=NEWTON_TOL, return_info=True)
            profile = physical.reconstruct(sol, spec)
            defect = physical.verify_flow_force_selection(profile, spec)
            if not info.residual_sup <= NEWTON_TOL:
                return f"residual {info.residual_sup:.3e} > tol {NEWTON_TOL}"
            if not np.isfinite(defect):
                return f"flow-force selection defect {defect}"
            return None

        _op(ops, solve)
        return ops

    def check(self, state, job):
        return []


class FoldPairs:
    """scripts/run_fold_pairs.py with its defaults, as library calls."""

    def setup(self, job):
        spec = VorticitySpec([0.0])
        strip.cached_summary(spec)
        return {"spec": spec, "stamps": []}

    def run(self, state, job):
        stamps = state["stamps"]
        _time_steps(stamps)
        out = job["out"]
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        try:
            self._fold(state, job, out)
        except Exception as exc:  # the benchmark records the failure and goes on
            state["error"] = f"{exc.__class__.__name__}: {exc}"
        steps = np.diff(stamps).tolist() if len(stamps) > 1 else []
        return [{"s": s, "ok": True, "why": None} for s in steps]

    def _fold(self, state, job, out):
        spec = state["spec"]
        R0 = job["R_start"]
        g = job["grid"]
        grid = strip.default_grid(spec, R0, nq=g["nq"], npp=g["np"], L_factor=g["L_factor"])
        sol = strip.newton_solve(strip.initial_guess(spec, R0, grid), spec, tol=NEWTON_TOL)
        start = branch.branch_point_from_field(sol, spec, nu0_grid_n=job["nu0_grid_n"])
        ctrl = branch.StepControl(margin_fraction=job["margin"])
        points, status = branch.continue_branch(
            start, spec, steps=job["steps"], ds=job["ds"], ctrl=ctrl,
            nu0_grid_n=job["nu0_grid_n"],
        )
        for idx, p in enumerate(points):
            strip.write_checkpoint(os.path.join(out, f"point_{idx:04d}.txt"), p.field, spec)
        events = branch.detect_events(points)
        summ = strip.cached_summary(spec)
        solved = []

        def resolve(Rv, ref):
            fld = ref.field.copy()
            theta = stream.solve_theta_for_R(spec, Rv, "supercritical", summary=summ)
            fld.h[-1, :] = stream.stream_profile(spec, theta, grid.p)
            fld.R = Rv
            fld.theta = theta
            sol = strip.newton_solve(fld, spec, tol=NEWTON_TOL)
            solved.append(sol)
            return sol

        pairs = physical.find_pairs(
            [(p.t, p.R, p) for p in points], events, n_r=job["n_pairs"], resolve=resolve
        )
        with open(os.path.join(out, "pairs.json"), "w") as fh:
            json.dump([{"R": p.R, "t1": p.t1, "t2": p.t2, "distance": p.distance}
                       for p in pairs], fh, indent=2)
        state.update(points=points, status=status, events=events, pairs=pairs, solved=solved)

    def check(self, state, job):
        out = job["out"]
        if "error" in state:
            shutil.rmtree(out, ignore_errors=True)
            return [state["error"]]
        problems = self._check_pairs(state)
        names = sorted(n for n in os.listdir(out) if n.startswith("point_"))
        digest = hashlib.sha256()
        for name in names + ["pairs.json"]:
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
        state["digest"] = digest.hexdigest()
        picks = random.Random(job["seed"]).sample(range(1, len(names)), job["replays"])
        for idx in sorted(picks):
            fld, spec = strip.read_checkpoint(os.path.join(out, names[idx]))
            move = branch.replay_checkpoint(fld, spec)
            if not move < REPLAY_GATE:
                problems.append(f"{names[idx]}: replay moved {move:.3e}")
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def _check_pairs(self, state):
        problems = []
        turnings = [e for e in state["events"] if isinstance(e, branch.Turning)]
        if len(turnings) != 1:
            problems.append(f"{len(turnings)} turning points, expected 1")
        pairs, solved = state["pairs"], state["solved"]
        if not pairs or len(solved) != 2 * len(pairs):
            problems.append(f"{len(pairs)} pairs from {len(solved)} re-solves")
        for k in range(min(len(pairs), len(solved) // 2)):
            f1, f2 = solved[2 * k], solved[2 * k + 1]
            if not abs(f1.R - f2.R) <= 1e-10:
                problems.append(f"pair {k}: R differs by {abs(f1.R - f2.R):.3e}")
            if not np.abs(f1.h - f2.h).max() > 1e-6:
                problems.append(f"pair {k}: members coincide")
        return problems


WORKLOADS = {
    "solve-sweep": SolveSweep(),
    "fold-pairs": FoldPairs(),
}


def main():
    job = json.loads(sys.argv[1])
    work = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    state = work.setup(job)
    result = {"t_ready": time.monotonic()}
    if not job.get("probe"):
        ops = work.run(state, job)
        result["t_done"] = time.monotonic()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        if not ops:
            ops = [{"s": result["t_done"] - result["t_ready"], "ok": False,
                    "why": "no operation completed"}]
        unit_problems = work.check(state, job)
        if unit_problems:
            for o in ops:
                o["ok"] = False
        problems = [o["why"] for o in ops if o["why"]] + unit_problems
        result.update(ops=ops, problems=problems, digest=state.get("digest"))
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
            tracer.write(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
