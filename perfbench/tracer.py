"""Outside-in span tracer for the treehopf package.

The tracer never edits treehopf.  It replaces every binding of each traced
function in every loaded ``treehopf.*`` module namespace with a wrapper that
records a span (name, start, end, parent, run id).  Re-binding matters because
modules import kernels by name (``from .trees import graft_many``), so
patching only the defining module would miss most calls.  Wrappers sit
outside ``functools.lru_cache``, so cache hits count as calls, and hit ratios
come from the cache's own ``cache_info()``.

Trivial helpers called more than ~10M times per workload (``tree_degree``,
``add_to``, ``Tree.__eq__``) are deliberately not wrapped: their cost stays in
the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, function, the end-to-end metric and workload it should move).
# This table is the benchmark's layer -> metric mapping.
TRACED = (
    ("trees", "graft_many", "wall_s on grafting"),
    ("trees", "natural_growth_terms", "wall_s on grafting"),
    ("trees", "admissible_cuts", "wall_s on cuts"),
    ("trees", "enumerate_trees", "setup_s and latency_p50_ms on oneshot"),
    ("trees", "enumerate_forests", "latency_p50_ms on oneshot"),
    ("grossman_larson", "tree_product", "wall_s on grafting; hits on dual"),
    ("grossman_larson", "product", "wall_s on grafting"),
    ("grossman_larson", "tree_coproduct", "wall_s on grafting"),
    ("grossman_larson", "tree_antipode", "wall_s on grafting"),
    ("operators", "n_tree", "wall_s on grafting"),
    ("operators", "n_apply", "wall_s on grafting"),
    ("operators", "x_k", "wall_s on grafting"),
    ("operators", "m_tree", "wall_s on grafting"),
    ("operators", "m_apply", "wall_s on grafting"),
    ("connes_kreimer", "tree_coproduct_by_cuts", "wall_s on cuts"),
    ("connes_kreimer", "forest_coproduct", "wall_s on cuts"),
    ("connes_kreimer", "tree_antipode", "wall_s on cuts"),
    ("connes_kreimer", "forest_antipode", "wall_s on cuts"),
    ("connes_kreimer", "product", "wall_s on cuts"),
    ("connes_kreimer", "multiply_tensors", "wall_s on cuts"),
    ("connes_kreimer", "forest_growth", "wall_s on cuts"),
    ("connes_kreimer", "delta", "wall_s on cuts"),
    ("connes_kreimer", "delta_membership", "wall_s on cuts"),
    ("connes_kreimer", "delta_coproduct_membership", "wall_s on cuts"),
    ("exactlin", "solve_membership", "wall_s on cuts"),
    ("exactlin", "rank", "wall_s on cuts"),
    ("exactlin", "tensor", "wall_s on cuts and grafting"),
    ("exactlin", "map_left", "wall_s on cuts and grafting"),
    ("exactlin", "map_right", "wall_s on cuts and grafting"),
    ("tree_lie", "star", "latency_p50_ms on oneshot"),
    ("tree_lie", "bracket", "latency_p50_ms on oneshot"),
    ("tree_lie", "phi", "latency_p50_ms on oneshot"),
    ("tree_lie", "psi", "latency_p50_ms on oneshot"),
    ("graded_dual", "pair", "wall_s on dual"),
    ("graded_dual", "dual_coproduct", "wall_s on dual"),
    ("graded_dual", "m_dual", "wall_s on dual"),
    ("graded_dual", "dual_product", "wall_s on dual"),
    ("graded_dual", "hochschild_check", "wall_s on dual"),
    ("verify", "run_suite", "wall_s on dual (self time: the suites' own loops)"),
    ("serialize", "lincomb_to_json", "latency_p50_ms on oneshot"),
    ("serialize", "lincomb_to_text", "latency_p50_ms on oneshot"),
    ("serialize", "lincomb_from_obj", "latency_p50_ms on oneshot"),
    ("cli", "run", "latency_p50_ms on oneshot (self time: argparse and dispatch)"),
)

# Classes whose constructions are counted (no spans: millions per workload).
COUNTED = (
    ("trees", "Tree", "wall_s on grafting"),
    ("trees", "Forest", "wall_s on grafting and cuts"),
    ("exactlin", "LinComb", "wall_s on dual and cuts"),
)

# Traced functions backed by functools.lru_cache; each gets a hit ratio.
CACHED = (
    ("trees", "admissible_cuts"),
    ("trees", "enumerate_trees"),
    ("trees", "enumerate_forests"),
    ("grossman_larson", "tree_product"),
    ("grossman_larson", "tree_coproduct"),
    ("grossman_larson", "tree_antipode"),
    ("connes_kreimer", "tree_coproduct_by_cuts"),
    ("connes_kreimer", "forest_coproduct"),
    ("connes_kreimer", "tree_antipode"),
)


PACKAGE = "treehopf"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans around the traced treehopf functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.run_starts: list[int] = []
        self.constructed: dict[str, list[int]] = {}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def begin_run(self) -> None:
        """Start a new run id; spans recorded from now on belong to it."""
        self.run_starts.append(len(self.starts))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function and counted class of the loaded package."""
        loaded = {name: mod for name, mod in sys.modules.items() if mod is not None}
        for module, func, _ in TRACED:
            name = f"{module}.{func}"
            mod = loaded.get(f"{PACKAGE}.{module}")
            original = getattr(mod, func, None) if mod is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self.originals[name] = original
            self._rebind(original, self._wrap(name, original))
        for module, cls_name, _ in COUNTED:
            name = f"{module}.{cls_name}"
            mod = loaded.get(f"{PACKAGE}.{module}")
            cls = getattr(mod, cls_name, None) if mod is not None else None
            if not isinstance(cls, type):
                self.absent.append(name)
                continue
            self.constructed[name] = counter = [0]
            original_init = cls.__init__

            def counting_init(obj, *args, _init=original_init, _n=counter, **kwargs):
                _n[0] += 1
                _init(obj, *args, **kwargs)

            self._undo.append((cls, "__init__", original_init))
            cls.__init__ = counting_init

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_totals(self) -> dict:
        """Calls and self time per traced name, plus cache and construction counts.

        Self time is a span's duration minus the durations of its direct child
        spans, so time in untraced helpers stays with the nearest traced caller.
        """
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.name_ids):
            calls[name_id] += 1
            self_s[name_id] += durations[i] - child_time[i]
        layers = {name: {"calls": calls[i], "self_s": self_s[i]}
                  for i, name in enumerate(self.names)}
        caches = {}
        for module, func in CACHED:
            info = getattr(self.originals.get(f"{module}.{func}"), "cache_info", None)
            if info is not None:
                stats = info()
                caches[f"{module}.{func}"] = {"hits": stats.hits, "misses": stats.misses}
        return {"layers": layers, "caches": caches,
                "constructed": {k: v[0] for k, v in self.constructed.items()},
                "absent": list(self.absent), "spans": n}

    def dump_spans(self, path: str) -> None:
        """Write the spans as a header line of JSON followed by raw arrays.

        Layout: one JSON line ``{"names", "count", "run_starts", "columns"}``,
        then the columns in that order as native-endian arrays.
        """
        header = {"names": self.names, "count": len(self.starts),
                  "run_starts": self.run_starts,
                  "columns": ["name_id:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)
