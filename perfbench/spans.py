"""Spans recorded around calls into the package's layers, from outside it.

A traced run replaces module-global names such as
``interdict.solver.combine_serial`` with wrappers that record a span
(name, start, end, parent span, op id) and, for some names, counts read
from the call's arguments and result. Layers are named after the modules.
A target whose module or name no longer exists, or whose result no longer
has the fields a counter reads, is reported as absent instead of failing
the run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

perf = time.perf_counter

LAYERS = ("instances", "tree", "decompose", "chains", "solver", "budget",
          "oracle", "cli")


def _decompose_counts(args, dec):
    leaves = args[0].leaves
    return {"decompose.junctions": len(dec.order),
            "decompose.chains": len(dec.chains),
            "decompose.leaf_chains": sum(1 for b in dec.chains if b in leaves)}


def _g_cells(args, table):
    return {"chains.g_cells": len(table.g0) + len(table.g1)}


def _slice_counts(args, sl):
    return {"solver.table_cells": len(sl.f0) + len(sl.f1),
            "solver.widest_row": max(len(sl.f0), len(sl.f1))}


MAX_COUNTS = frozenset({"solver.widest_row"})

# (module, global name, span name, counter). Each name is wrapped where the
# caller looks it up, so a call made through another module's import of the
# same function is not seen.
TARGETS = (
    ("interdict.instances", "build_tree", "tree.build", None),
    ("interdict.instances", "parse_instance", "instances.parse", None),
    ("interdict.solver", "build_tables", "solver.build_tables", None),
    ("interdict.solver", "decompose", "decompose.decompose", _decompose_counts),
    ("interdict.solver", "chain_g_table", "chains.g_table", _g_cells),
    ("interdict.solver", "combine_serial", "solver.serial", _slice_counts),
    ("interdict.solver", "combine_parallel", "solver.parallel", _slice_counts),
    ("interdict.solver", "evaluate_min_distance", "tree.evaluate", None),
    ("interdict.solver", "apply_upgrades", "tree.apply", None),
    ("interdict.tree", "evaluate_min_distance", "tree.evaluate", None),
    ("interdict.budget", "solve_max", "solver.solve_max", None),
    ("interdict.cli", "load_instance", "instances.load", None),
    ("interdict.cli", "solve_max", "solver.solve_max", None),
    ("interdict.cli", "solve_cost", "budget.solve_cost", None),
    ("interdict.cli", "brute_force_max", "oracle.brute_force_max", None),
)


class Tracer:
    """In-memory span recorder; ``op`` labels the spans of the current op."""

    def __init__(self):
        # Finished spans as (sid, parent, op, name, start, end) tuples, which
        # the garbage collector stops tracking, so a long trace costs it little.
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []  # open spans: (sid, parent, name, start)
        self.next_sid = 0
        self.active = False
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = self.next_sid
        self.next_sid += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, parent, name, perf()))
        return sid

    def end(self, sid: int) -> None:
        end = perf()
        top, parent, name, start = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} ended while span {top} is open")
        self.spans.append((sid, parent, self.op, name, start, end))

    def count(self, counter, args, result) -> None:
        try:
            values = counter(args, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            self.absent.add(f"counter {counter.__name__}")
            return
        for key, value in values.items():
            self.counts[key] = (max(self.counts[key], value)
                                if key in MAX_COUNTS else self.counts[key] + value)

    def adopt(self, record: dict, parent: int) -> None:
        """Adopt what :meth:`dump` wrote in a child process, under ``parent``."""
        offset = self.next_sid
        for sid, par, _, name, start, end in record["spans"]:
            self.spans.append((sid + offset,
                               parent if par is None else par + offset,
                               self.op, name, start, end))
            self.next_sid = max(self.next_sid, sid + offset + 1)
        for key, value in record["counts"].items():
            self.counts[key] = (max(self.counts[key], value)
                                if key in MAX_COUNTS else self.counts[key] + value)
        self.absent.update(record["absent"])

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for module_name, attr, span_name, counter in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, span_name, counter))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def wrap(self, fn, name, counter=None):
        """``fn`` recording a span named ``name`` while the tracer is active."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if counter is not None:
                tracer.count(counter, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": sorted(self.absent)}, fh)


def summarize(spans: list[tuple]) -> dict:
    """Inclusive time and count per span name, self time per layer.

    A span's self time is its duration minus its direct children's. Ops run
    one at a time, so children never overlap and never outlive the parent.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    names = {s[0]: s[3] for s in spans}
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    probes = probe_time = 0.0
    for sid, parent, _, name, start, end in spans:
        dur = end - start
        own = dur - child_time[sid]
        total[name] += dur
        calls[name] += 1
        self_by_name[name] += own
        layer_self[name.split(".")[0]] += own
        if name == "solver.solve_max" and names.get(parent) == "budget.solve_cost":
            probes += 1
            probe_time += dur
    return {"total": total, "calls": calls, "self": self_by_name,
            "layer_self": layer_self, "probes": probes,
            "probe_time": probe_time}
