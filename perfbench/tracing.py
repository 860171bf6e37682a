"""Per-layer tracing for the sfm benchmark, applied from outside the package.

A ``Tracer`` replaces every module global of the ``sfm`` package that names
one of the traced public functions (``sfm.solver.residual_array``,
``sfm.cli.solve``, ``sfm.solve`` ...) with a wrapper that records a span:
its call count, busy time and self time (busy time minus the time its child
spans cover). The wrappers also record the layer counts the metrics need
(rows loaded, solver iterations, manifold points, Monte Carlo streams).
Spans are aggregated in memory as they close; ``snapshot()`` returns the
totals as plain JSON data and ``uninstall()`` restores the originals.

This module imports only the standard library, so the traced CLI shim can
load it before it starts timing the program's own imports.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# Traced public functions, by sfm module. Each one feeds a per-layer metric.
TRACED = {
    "dataset": ("load_series", "growth_series"),
    "moments": ("estimate_moments",),
    "model": ("residual_array", "jacobian_array"),
    "solver": ("solve", "trace_manifold", "rank_diagnostics"),
    "mc": ("validate_identities", "sample_pairs"),
    "classify": ("build_reports",),
    "cli": ("run_command", "to_json"),
}

# A solve "hits the floor" when its norm lies this close to residual_floor.
FLOOR_TOL = 1e-9

_RAISED = object()


class _Frame:
    __slots__ = ("name", "child_ns", "norm")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0
        self.norm = None        # solve frames: norm of the last accepted residual


class Tracer:
    """Aggregated spans and counts of one traced run (or one traced process)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self.streams: set[str] = set()
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "dataset.load_series": self._after_load_series,
            "model.residual_array": self._after_residual_array,
            "solver.solve": self._after_solve,
            "solver.trace_manifold": self._after_trace_manifold,
            "mc.sample_pairs": self._after_sample_pairs,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every sfm module global that refers to a traced function."""
        for layer in TRACED:
            importlib.import_module(f"sfm.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sfm" or name.startswith("sfm.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"sfm.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            frame = _Frame(name)
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                self.calls[name] += 1
                self.busy_ns[name] += busy
                self.self_ns[name] += busy - frame.child_ns
                if hook is not None:
                    hook(args, kwargs, result)
                if stack:
                    # The parent's self time excludes this span and its wrapper cost.
                    stack[-1].child_ns += clock() - entered

        return wrapper

    # -- counts ----------------------------------------------------------------

    def _after_load_series(self, args, kwargs, result) -> None:
        if result is not _RAISED:
            self.counts["dataset.rows_loaded"] += len(result)

    def _after_residual_array(self, args, kwargs, result) -> None:
        # Inside solve, replay the solver's monotone acceptance rule: the first
        # evaluation sets the norm; a later one is accepted iff finite and no worse.
        if not self._stack or self._stack[-1].name != "solver.solve":
            return
        frame = self._stack[-1]
        norm = math.inf
        if result is not _RAISED:
            norm = math.hypot(*(float(v) for v in result))
        if frame.norm is None:
            frame.norm = norm
            return
        self.counts["solver.residual_evals"] += 1
        if math.isfinite(norm) and norm <= frame.norm:
            self.counts["solver.accepted_steps"] += 1
            frame.norm = norm

    def _after_solve(self, args, kwargs, result) -> None:
        if result is _RAISED:
            return
        from sfm.solver import residual_floor

        moments = args[0] if args else kwargs["m"]
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        options = getattr(cfg, "options", None)
        floor = residual_floor(moments) if options is None else residual_floor(moments, options)
        self.counts["solver.iterations"] += result.iterations
        if abs(result.residuals.norm - floor) <= FLOOR_TOL:
            self.counts["solver.floor_hits"] += 1

    def _after_trace_manifold(self, args, kwargs, result) -> None:
        if result is not _RAISED:
            self.counts["solver.manifold_points"] += len(result)

    def _after_sample_pairs(self, args, kwargs, result) -> None:
        names = ("spec", "n", "seed")
        spec, n, seed = (args[i] if i < len(args) else kwargs[k] for i, k in enumerate(names))
        self.counts["mc.draws_requested"] += n
        self.streams.add(repr((spec, int(n), int(seed))))

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "streams": sorted(self.streams),
        }


def merge(snapshots) -> dict:
    """Sum snapshots (one per traced process) into one; streams are unioned."""
    total = {"calls": defaultdict(int), "busy_ns": defaultdict(int),
             "self_ns": defaultdict(int), "counts": defaultdict(float)}
    streams: set[str] = set()
    for snap in snapshots:
        for key, acc in total.items():
            for name, value in snap.get(key, {}).items():
                acc[name] += value
        streams.update(snap.get("streams", ()))
    merged = {key: dict(acc) for key, acc in total.items()}
    merged["streams"] = sorted(streams)
    return merged
