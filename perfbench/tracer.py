"""In-memory span tracer for the wavebranch layers.

The tracer wraps, from outside the package, every module-level function of
``stream``, ``strip``, ``branch``, ``spectrum1d`` and ``physical``, the
continuation system's methods, and the scipy entry points those modules call
(``spsolve``, ``splu``, the solves of a returned factorization, ``eigs``,
``quad``).  Nothing under ``src/`` changes: each wrapper replaces every
binding of the original function object in the loaded ``wavebranch``
modules, so ``from .strip import residual_vector`` style imports are
covered too.

A span is ``[name, start, end, parent, raised, extra]``; ``parent`` is the
index of the enclosing span (-1 at top level).  ``eval_Omega`` runs once per
quadrature node, so it is counted, not spanned.

Which end-to-end metric each layer metric should move:
  linalg.spsolve/splu/lu_solve, strip.assemble_jacobian
      op_s.p50 on solve-sweep and fold-pairs
  branch.corrector.*, branch.dresidual_dlam, branch.far_column.misses
      op_s.p50 and wall_s on fold-pairs; corrector rejects: op_s.p90 there
  linalg.eigs, branch.spectrum_at.*
      op_s.p50 on fold-pairs; no change on solve-sweep
  stream.*, vorticity.eval_Omega, spectrum1d.*
      setup_s everywhere, and wall_s on fold-pairs (far column, re-solves)
  strip.residual, strip.newton_solve.*   solve-sweep, fold-pairs re-solves
  strip.write_checkpoint.*               fold-pairs
  physical.find_pairs / reconstruct      fold-pairs / solve-sweep
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import warnings
from collections import Counter

NAME, START, END, PARENT, RAISED, EXTRA = range(6)

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Span-recording wrapper.  ``before(args, kwargs)`` may return
        (args, kwargs, extra); ``after(out, args, kwargs, extra)`` returns the
        value handed back to the caller and may update ``extra``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if before is not None:
                args, kwargs, extra = before(args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0, extra]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                out = after(out, args, kwargs, rec)
            return out

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement, holders):
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if val is original:
                    self._restore.append((holder, attr, val))
                    setattr(holder, attr, replacement)

    # -- installation -----------------------------------------------------

    def install(self):
        import scipy.integrate
        import scipy.sparse.linalg

        from wavebranch import branch, physical, spectrum1d, stream, strip, vorticity

        pkg_modules = [m for name, m in sys.modules.items() if name.startswith("wavebranch.")]

        special = {
            "strip.newton_solve": self._newton_hooks,
            "strip.write_checkpoint": self._checkpoint_hooks,
            "branch._corrector": self._corrector_hooks,
        }
        for mod in (stream, strip, branch, spectrum1d, physical):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                before, after = special.get(name, lambda _: (None, None))(fn)
                self._replace_everywhere(fn, self.wrap(name, fn, before, after), pkg_modules)

        system = getattr(branch, "SolitarySystem", None)
        if system is not None:
            for attr, fn in list(vars(system).items()):
                if inspect.isfunction(fn) and not attr.startswith("__"):
                    before = self._far_column_before if attr == "far_column" else None
                    self._restore.append((system, attr, fn))
                    setattr(system, attr, self.wrap(f"branch.SolitarySystem.{attr}", fn, before))

        eval_Omega = vorticity.eval_Omega
        self._replace_everywhere(
            eval_Omega, self.count("vorticity.eval_Omega", eval_Omega), pkg_modules
        )

        scipy_points = [
            (scipy.sparse.linalg, "spsolve", "linalg.spsolve", None),
            (scipy.sparse.linalg, "splu", "linalg.splu", self._factor_after),
            (scipy.sparse.linalg, "factorized", "linalg.factorized", self._factor_after),
            (scipy.sparse.linalg, "eigs", "linalg.eigs", None),
            (scipy.integrate, "quad", "quad", None),
        ]
        for holder, attr, name, after in scipy_points:
            fn = getattr(holder, attr)
            self._replace_everywhere(fn, self.wrap(name, fn, None, after), [holder] + pkg_modules)

        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        shown = warnings.showwarning

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, scipy.integrate.IntegrationWarning):
                self.counts["quad.warnings"] += 1
            return shown(message, category, *args, **kwargs)

        self._restore.append((warnings, "showwarning", shown))
        warnings.showwarning = showwarning

    def uninstall(self):
        for holder, attr, val in reversed(self._restore):
            setattr(holder, attr, val)
        self._restore.clear()

    # -- per-function hooks -------------------------------------------------

    def _factor_after(self, out, args, kwargs, rec):
        """A factorization's solves are spans of their own (linalg.lu_solve)."""
        if callable(out) and not hasattr(out, "solve"):
            return self.wrap("linalg.lu_solve", out)
        return _Factor(out, self.wrap("linalg.lu_solve", out.solve))

    @staticmethod
    def _newton_hooks(fn):
        """Ask newton_solve for its NewtonInfo to record the iteration count,
        then hand the caller what it asked for."""
        sig = inspect.signature(fn)
        if "return_info" not in sig.parameters:
            return None, None

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            asked = bound.arguments.get("return_info", False)
            bound.arguments["return_info"] = True
            return bound.args, bound.kwargs, asked

        def after(out, args, kwargs, rec):
            field, info = out
            asked = rec[EXTRA]
            rec[EXTRA] = int(info.iterations)
            return out if asked else field

        return before, after

    @staticmethod
    def _checkpoint_hooks(fn):
        def after(out, args, kwargs, rec):
            path = args[0] if args else kwargs["path"]
            rec[EXTRA] = os.path.getsize(path)
            return out

        return None, after

    @staticmethod
    def _corrector_hooks(fn):
        def after(out, args, kwargs, rec):
            rec[EXTRA] = int(out[2])
            return out

        return None, after

    @staticmethod
    def _far_column_before(args, kwargs):
        self_, R = args[0], args[1] if len(args) > 1 else kwargs["R"]
        return args, kwargs, int(R not in getattr(self_, "_col_cache", {}))

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _Factor:
    """Stand-in for a SuperLU object whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _children(spans):
    kids = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def _under(spans, i, pred):
    """True when an ancestor of span i satisfies pred(name)."""
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, counts) -> dict:
    """Per-layer counts and seconds of one traced unit.

    ``.s`` is inclusive time of outermost spans of that name; ``self`` time
    subtracts the direct children's spans (single-threaded, so children never
    overlap).
    """
    kids = _children(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def incl(name):
        return sum(
            spans[i][END] - spans[i][START]
            for i in by_name.get(name, ())
            if not _under(spans, i, lambda n: n == name)
        )

    def self_time(name):
        return sum(
            (spans[i][END] - spans[i][START])
            - sum(spans[k][END] - spans[k][START] for k in kids[i])
            for i in by_name.get(name, ())
        )

    def extra_sum(name):
        return sum(spans[i][EXTRA] or 0 for i in by_name.get(name, ()))

    m = {}
    for short, name in (
        ("linalg.spsolve", "linalg.spsolve"),
        ("linalg.splu", "linalg.splu"),
        ("linalg.lu_solve", "linalg.lu_solve"),
        ("linalg.eigs", "linalg.eigs"),
        ("strip.assemble_jacobian", "strip.assemble_jacobian"),
        ("strip.residual", "strip.residual"),
        ("branch.spectrum_at", "branch.spectrum_at"),
    ):
        m[f"{short}.calls"] = calls(name)
        m[f"{short}.s"] = incl(name)

    corr = by_name.get("branch._corrector", ())
    m["branch.corrector.attempts"] = len(corr)
    m["branch.corrector.rejects"] = sum(spans[i][RAISED] for i in corr)
    m["branch.corrector.iters"] = extra_sum("branch._corrector")
    m["branch.dresidual_dlam.calls"] = calls("branch.SolitarySystem.dresidual_dlam")
    m["branch.far_column.misses"] = extra_sum("branch.SolitarySystem.far_column")

    deepen = 0
    for i in by_name.get("branch.spectrum_at", ()):
        todo, n_eigs = list(kids[i]), 0
        while todo:
            k = todo.pop()
            n_eigs += spans[k][NAME] == "linalg.eigs"
            todo.extend(kids[k])
        deepen += max(n_eigs - 1, 0)
    m["branch.spectrum_at.deepen"] = deepen

    m["stream.s"] = sum(
        spans[i][END] - spans[i][START]
        for i, rec in enumerate(spans)
        if rec[NAME].startswith("stream.")
        and not _under(spans, i, lambda n: n.startswith("stream."))
    )
    m["stream.quad.calls"] = calls("quad")
    m["stream.quad.warnings"] = counts.get("quad.warnings", 0)
    m["vorticity.eval_Omega.calls"] = counts.get("vorticity.eval_Omega", 0)
    m["spectrum1d.robin_problem.s"] = incl("spectrum1d.robin_problem")
    m["spectrum1d.nu0.s"] = incl("spectrum1d.nu0")

    # newton_solve evaluates the residual once up front, once per accepted
    # iterate, once per rejected (backtracked) trial and once for the polish
    # step, which is the only Jacobian assembly beyond one per iterate.
    iters = backtracks = 0
    for i in by_name.get("strip.newton_solve", ()):
        n_it = spans[i][EXTRA] or 0
        direct_res = sum(spans[k][NAME] == "strip.residual" for k in kids[i])
        direct_jac = sum(spans[k][NAME] == "strip.assemble_jacobian" for k in kids[i])
        iters += n_it
        backtracks += max(direct_res - 1 - direct_jac, 0)
    m["strip.newton_solve.iters"] = iters
    m["strip.newton_solve.backtracks"] = backtracks

    m["strip.write_checkpoint.s"] = incl("strip.write_checkpoint")
    m["strip.write_checkpoint.bytes"] = extra_sum("strip.write_checkpoint")
    m["physical.reconstruct.s"] = self_time("physical.reconstruct")
    m["physical.find_pairs.s"] = self_time("physical.find_pairs")
    return m
