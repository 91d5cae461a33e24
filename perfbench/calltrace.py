"""Call tracer that times thpalloc's layers from outside the package.

Every public module-level function of each layer module is found by
object identity and replaced at every binding site (a function imported
into another module is bound there too), so the tracer needs no list of
functions and no edit of the package. Each call becomes a span; a
span's self time is its duration minus the time of the traced calls
made inside it. Spans and counters stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "thpalloc"
LAYERS = ("channel", "partition", "precoding", "loading", "assignment",
          "baselines", "sim", "cli")

# span columns, one int64 array each
_COLUMNS = ("id", "parent", "fid", "unit", "drop", "start_ns", "dur_ns",
            "child_ns")


def public_functions(module):
    """Public functions defined in `module` (not ones it imports)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def rebind(original, replacement) -> None:
    """Replace `original` by `replacement` in every loaded module of the
    package."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or
                                  mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []       # fid -> "layer.function"
        self.layer_of: list[str] = []    # fid -> layer
        self.spans = {c: array("q") for c in _COLUMNS}
        self.stack: list[list] = []      # frames: [span id, child ns, layer]
        self.next_id = 0
        self.unit = -1                   # set by the caller per work unit
        self.drop = -1                   # from generate_drop's drop_index
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self._wrappers: list[tuple] = []  # (function, traced wrapper)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Bind the traced wrappers in place of the package's functions."""
        if not self._wrappers:
            for layer in LAYERS:
                name = f"{PACKAGE}.{layer}"
                __import__(name)
                for fname, fn in public_functions(sys.modules[name]).items():
                    fid = len(self.names)
                    self.names.append(f"{layer}.{fname}")
                    self.layer_of.append(layer)
                    self._wrappers.append(
                        (fn, self._wrap(fid, layer, fname, fn)))
        for fn, traced in self._wrappers:
            rebind(fn, traced)

    def uninstall(self) -> None:
        """Bind the package's own functions again."""
        for fn, traced in self._wrappers:
            rebind(traced, fn)

    def _wrap(self, fid, layer, name, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        observe = getattr(self, f"_observe_{layer}_{name}", None)
        entry_observe = getattr(self, f"_entry_{layer}", None)
        drop_arg = None
        if layer == "channel" and name == "generate_drop":
            drop_arg = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if drop_arg is not None:
                bound = drop_arg.bind(*args, **kwargs).arguments
                tracer.drop = int(bound.get("drop_index", -1))
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0, layer]
            stack.append(frame)
            result = None
            raised = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                spans["id"].append(span_id)
                spans["parent"].append(parent[0] if parent else -1)
                spans["fid"].append(fid)
                spans["unit"].append(tracer.unit)
                spans["drop"].append(tracer.drop)
                spans["start_ns"].append(t0)
                spans["dur_ns"].append(dur)
                spans["child_ns"].append(frame[1])
                if observe is not None:
                    observe(args, kwargs, result, raised, dur)
                if entry_observe is not None and (parent is None
                                                  or parent[2] != layer):
                    entry_observe(args, kwargs, result, raised, dur)

        return traced

    # -- observations at layer boundaries -----------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def _entry_assignment(self, args, kwargs, result, raised, dur):
        self._count("assignment.entries")
        self._sample("assignment.solve_ms", dur / 1e6)
        for a in list(args) + list(kwargs.values()):
            if getattr(a, "ndim", None) == 2:
                self._sample("assignment.cells", float(a.size))
                break
        if raised:
            self._count("assignment.infeasible")

    def _observe_precoding_null_space_basis(self, args, kwargs, result,
                                            raised, dur):
        if getattr(result, "rank_deficient", False):
            self._count("precoding.rank_deficient")

    def _observe_precoding_thp_precode(self, args, kwargs, result, raised,
                                       dur):
        self._count("precoding.thp_precode_ns", dur)

    def _entry_baselines(self, args, kwargs, result, raised, dur):
        if isinstance(result, float):
            self._count("baselines.float_returns")
            if math.isinf(result):
                self._count("baselines.inf_returns")

    def _observe_loading_effective_gains(self, args, kwargs, result, raised,
                                         dur):
        self._count("loading.effective_gains")
        if result is None and not raised:
            self._count("loading.rank_short")

    def _observe_sim_run_drop(self, args, kwargs, result, raised, dur):
        self._count("sim.run_drop")
        self._sample("sim.run_drop_ms", dur / 1e6)
        if raised or not getattr(result, "feasible", False):
            self._count("sim.infeasible")
        if getattr(result, "plans", ()):
            self._count("sim.plans_built")

    def _observe_sim_link_level_verify(self, args, kwargs, result, raised,
                                       dur):
        drop_result = kwargs.get("drop_result", args[2] if len(args) > 2
                                 else None)
        if getattr(drop_result, "plans", ()):
            self._count("sim.plans_used")

    # -- results ------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for fid, dur, child in zip(self.spans["fid"], self.spans["dur_ns"],
                                   self.spans["child_ns"]):
            out[self.layer_of[fid]] += dur - child
        return out

    def metrics(self, drops: int,
                traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit). The tracing
        overhead needs an untraced run and is added by the caller."""
        per = 1.0 / drops
        calls = {layer: 0 for layer in LAYERS}
        fn_calls = [0] * len(self.names)
        root_ns = 0
        for fid, parent, dur in zip(self.spans["fid"], self.spans["parent"],
                                    self.spans["dur_ns"]):
            calls[self.layer_of[fid]] += 1
            fn_calls[fid] += 1
            if parent < 0:
                root_ns += dur
        self_ns = self.layer_self_ns()
        count = self.counts.get

        def frac(num, den):
            return num / den if den else 0.0

        def fn_count(qualified):
            return sum(n for fid, n in enumerate(fn_calls)
                       if self.names[fid] == qualified)

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.self_ms_per_drop"] = (self_ns[layer] / 1e6 * per,
                                              "ms/drop")
        for layer in ("assignment", "precoding", "baselines", "loading"):
            m[f"{layer}.calls_per_drop"] = (calls[layer] * per, "calls/drop")
        solve = self.samples.get("assignment.solve_ms", [])
        m["assignment.solve_ms_p50"] = (_percentile(solve, 0.50), "ms")
        m["assignment.solve_ms_p95"] = (_percentile(solve, 0.95), "ms")
        cells = self.samples.get("assignment.cells", [])
        m["assignment.cells_mean"] = (sum(cells) / len(cells) if cells
                                      else 0.0, "cells")
        m["assignment.infeasible_frac"] = (
            frac(count("assignment.infeasible", 0),
                 count("assignment.entries", 0)), "ratio")
        m["precoding.rank_deficient"] = (
            count("precoding.rank_deficient", 0) * per, "bases/drop")
        m["precoding.thp_precode_ms_per_drop"] = (
            count("precoding.thp_precode_ns", 0) / 1e6 * per, "ms/drop")
        m["baselines.inf_cost_frac"] = (
            frac(count("baselines.inf_returns", 0),
                 count("baselines.float_returns", 0)), "ratio")
        m["loading.rank_short_frac"] = (
            frac(count("loading.rank_short", 0),
                 count("loading.effective_gains", 0)), "ratio")
        m["channel.generate_per_drop"] = (
            fn_count("channel.generate_drop") * per, "calls/drop")
        run_drop_ms = self.samples.get("sim.run_drop_ms", [])
        m["sim.run_drop_per_drop"] = (count("sim.run_drop", 0) * per,
                                      "calls/drop")
        m["sim.run_drop_ms_p50"] = (_percentile(run_drop_ms, 0.50), "ms")
        m["sim.run_drop_ms_p95"] = (_percentile(run_drop_ms, 0.95), "ms")
        m["sim.infeasible_frac"] = (frac(count("sim.infeasible", 0),
                                         count("sim.run_drop", 0)), "ratio")
        m["sim.plans_built_per_drop"] = (count("sim.plans_built", 0) * per,
                                         "plans/drop")
        m["sim.plan_use_frac"] = (frac(count("sim.plans_used", 0),
                                       count("sim.plans_built", 0)), "ratio")
        m["trace.unattributed_ms_per_drop"] = (
            max(traced_wall_s * 1e9 - root_ns, 0) / 1e6 * per, "ms/drop")
        return m

    def sample_counts(self) -> dict[str, int]:
        return {key: len(v) for key, v in self.samples.items()}

    def write(self, path: str) -> None:
        """Write spans (one int64 column each) and function names."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            **{c: np.frombuffer(self.spans[c], dtype=np.int64)
               for c in _COLUMNS})
