"""Span tracing of hyperbin's layers, installed from outside the package.

`Tracer.install()` replaces the names that `hyperbin.cli`, `hyperbin.optimize`
and `hyperbin.encoding` import from the other modules with timing wrappers,
wraps the hot `IntervalCostEngine`/`MarginState` methods with counters, and
swaps `hyperbin.optimize.heapq` for a shim that counts pops. `uninstall()`
puts every original back. Nothing under `src/` is edited.

Coarse calls become spans (name, layer, start, end, parent, run id) kept in
memory. Hot leaf calls, which run hundreds of thousands of times per pass,
are only counted and timed in aggregate; their time is charged to the
enclosing span as child time, so each layer's self time stays exact.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("events", "combinatorics", "encoding", "optimize", "cli", "metrics")

# (module, attribute, span name, layer): calls recorded as spans
SPAN_TARGETS = [
    ("hyperbin.cli", "cmd_bin", "cli.cmd_bin", "cli"),
    ("hyperbin.cli", "cmd_metrics", "cli.cmd_metrics", "cli"),
    ("hyperbin.cli", "_result_entry", "cli._result_entry", "cli"),
    ("hyperbin.cli", "_write_series_csv", "cli._write_series_csv", "cli"),
    ("hyperbin.cli", "read_events_csv", "events.read_events_csv", "events"),
    ("hyperbin.cli", "discretize", "events.discretize", "events"),
    ("hyperbin.cli", "discretize_by_width", "events.discretize", "events"),
    ("hyperbin.cli", "discretize_on_grid", "events.discretize", "events"),
    ("hyperbin.cli", "build_snapshot", "events.build_snapshot", "events"),
    ("hyperbin.cli", "induce_partition", "events.induce_partition", "events"),
    ("hyperbin.cli", "total_dl_exact", "encoding.total_dl_exact", "encoding"),
    ("hyperbin.cli", "solve_dp", "optimize.solve_dp", "optimize"),
    ("hyperbin.cli", "solve_greedy", "optimize.solve_greedy", "optimize"),
    ("hyperbin.cli", "baseline_uniform_duration", "optimize.baseline", "optimize"),
    ("hyperbin.cli", "baseline_uniform_count", "optimize.baseline", "optimize"),
    ("hyperbin.cli", "ccami", "metrics.ccami", "metrics"),
    ("hyperbin.cli", "jsd_edges", "metrics.jsd_edges", "metrics"),
    ("hyperbin.cli", "gap_ratio_alpha", "metrics.gap_ratio_alpha", "metrics"),
    ("hyperbin.optimize", "IntervalCostEngine", "encoding.engine_build", "encoding"),
    ("hyperbin.optimize", "total_dl_exact", "encoding.total_dl_exact", "encoding"),
    ("hyperbin.optimize", "canonical_binning", "events.canonical_binning", "events"),
    ("hyperbin.optimize", "induce_partition", "events.induce_partition", "events"),
    ("hyperbin.encoding", "build_snapshot", "events.build_snapshot", "events"),
    ("hyperbin.encoding", "induce_partition", "events.induce_partition", "events"),
]

# (module, class or None, attribute, name, layer): counted and timed in aggregate
LEAF_TARGETS = [
    ("hyperbin.encoding", "IntervalCostEngine", "interval_cost", "encoding.interval_cost", "encoding"),
    ("hyperbin.encoding", "MarginState", "add_counts", "encoding.add_counts", "encoding"),
    ("hyperbin.encoding", "MarginState", "merged", "encoding.merged", "encoding"),
    ("hyperbin.encoding", None, "ec_bits", "combinatorics.ec_bits", "combinatorics"),
]


class Tracer:
    """Records spans and leaf aggregates while installed.

    A span is [name, layer, start, end, parent index, run id, child seconds];
    `run_id` is set by the caller, one per CLI call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.heap = Counter()
        self.run_id = 0
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][6] += rec[3] - rec[2]

        return wrapper

    def _leaf(self, name: str, layer: str, fn):
        agg = self.leaves.setdefault(name, [layer, 0, 0.0])
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[1] += 1
                agg[2] += dt
                if stack:
                    spans[stack[-1]][6] += dt

        return wrapper

    def root(self, name: str, fn):
        """Wrap one CLI entry call as the root span of a run."""
        return self._span(name, "cli", fn)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, attr, name, layer in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            if attr not in mod.__dict__:
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            self._patch(mod, attr, self._span(name, layer, getattr(mod, attr)))
        for mod_name, cls_name, attr, name, layer in LEAF_TARGETS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in owner.__dict__:
                self.skipped.append(f"{mod_name}.{cls_name or ''}.{attr}")
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._leaf(name, layer, raw.__func__)))
            else:
                self._patch(owner, attr, self._leaf(name, layer, raw))
        self._install_shims()

    def _install_shims(self) -> None:
        cli = importlib.import_module("hyperbin.cli")
        if isinstance(cli.__dict__.get("json"), types.ModuleType):
            shim = types.SimpleNamespace(**vars(cli.json))
            shim.dump = self._span("cli.json_dump", "cli", cli.json.dump)
            self._patch(cli, "json", shim)
        else:
            self.skipped.append("hyperbin.cli.json")
        opt = importlib.import_module("hyperbin.optimize")
        if isinstance(opt.__dict__.get("heapq"), types.ModuleType):
            heap, real = self.heap, opt.heapq
            shim = types.SimpleNamespace(**vars(real))

            def heappop(h):
                heap["pop"] += 1
                return real.heappop(h)

            shim.heappop = heappop
            self._patch(opt, "heapq", shim)
        else:
            self.skipped.append("hyperbin.optimize.heapq")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting -------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span or leaf name: layer, calls, inclusive and self seconds."""
        out: dict[str, dict] = {}
        for name, layer, t0, t1, _parent, _run, child in self.spans:
            row = out.setdefault(name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        for name, (layer, calls, secs) in self.leaves.items():
            out[name] = {"layer": layer, "calls": calls, "total_s": secs, "self_s": secs}
        return out

    def layer_self(self) -> dict[str, float]:
        acc: dict[str, float] = defaultdict(float)
        for row in self.by_name().values():
            acc[row["layer"]] += row["self_s"]
        return {layer: acc.get(layer, 0.0) for layer in LAYERS}

    def dump(self, path: Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "run_id", "child_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                    "leaves": {n: dict(zip(("layer", "calls", "seconds"), v)) for n, v in self.leaves.items()},
                    "heap": dict(self.heap),
                    "skipped": self.skipped,
                },
                fh,
            )
