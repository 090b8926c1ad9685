"""In-memory span tracer that wraps tieralloc's layer functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` swaps each traced
function for a wrapper in every ``tieralloc`` module that holds a reference
to it (``harness`` calls ``allocate_music`` through its own import, for
example), and swaps traced methods on their classes. Each call records one
span (name, start, end, parent) in flat arrays; counters sit beside them.
``summary`` turns the spans into per-layer statistics and ``write_spans``
dumps them when the run is over.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter

# (defining module, function) pairs; the span name is "<module>.<function>"
FUNCTIONS = (
    ("harness", "run_experiment"),
    ("harness", "carry_plans"),
    ("harness", "rows_to_csv"),
    ("scenario", "build_deployment"),
    ("scenario", "build_population"),
    ("mobility", "generate_trajectory"),
    ("mobility", "inject_uncertainty"),
    ("allocation", "allocate_music"),
    ("allocation", "allocate_greedy"),
    ("allocation", "allocate_rsa"),
    ("allocation", "music"),
    ("allocation", "find_service"),
    ("allocation", "brute_force_optimal"),
    ("allocation", "objective_from_plans"),
)

# (module, class, method, span name)
METHODS = (
    ("allocation", "UserInstance", "__init__", "allocation.UserInstance"),
    ("allocation", "UserInstance", "evaluate", "allocation.evaluate"),
    ("registry", "ServiceDirectory", "range_query", "registry.range_query"),
    ("registry", "CapacityLedger", "try_admit", "registry.try_admit"),
)


def _count_refusal(counters: Counter, admitted: bool) -> None:
    counters["registry.try_admit.refused"] += not admitted


def _count_mispredictions(counters: Counter, pop) -> None:
    """Predicted LTW entries whose workflow object is not the true one; these
    are the entries carry-over re-draws at run time."""
    for uid, true_ltw in pop.true_ltws.items():
        for t, p in zip(true_ltw.entries, pop.predicted_ltws[uid].entries):
            counters["scenario.build_population.entries"] += 1
            counters["scenario.build_population.mispredicted"] += \
                p.workflow is not t.workflow


OBSERVERS = {
    "registry.try_admit": _count_refusal,
    "scenario.build_population": _count_mispredictions,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """A wrapper around fn that records one span per call."""
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop the spans and counters recorded so far; the wrappers stay."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self.counters.clear()
        self._stack.clear()

    def install(self) -> None:
        """Wrap every traced function and method of the imported package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tieralloc" or n.startswith("tieralloc.")]
        for modname, attr in FUNCTIONS:
            original = getattr(
                importlib.import_module(f"tieralloc.{modname}"), attr)
            wrapper = self.wrap(f"{modname}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"tieralloc.{modname}"),
                          clsname)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def summary(self) -> dict[str, float]:
        """Per-layer statistics: calls, busy_s (inclusive time), self_s
        (busy time not covered by child spans), raised-exception counts and
        the per-target latency of the annealer."""
        n_names = len(self.names)
        calls = [0] * n_names
        busy = [0.0] * n_names
        child = [0.0] * n_names
        music = self.names.index("allocation.music")
        music_ms = []
        for nid, parent, start, end in zip(self.span_name, self.span_parent,
                                           self.span_start, self.span_end):
            dur = end - start
            calls[nid] += 1
            busy[nid] += dur
            if parent >= 0:
                child[self.span_name[parent]] += dur
            if nid == music:
                music_ms.append(1000.0 * dur)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_s"] = busy[nid]
            out[f"{name}.self_s"] = busy[nid] - child[nid]
        out.update(self.counters)
        if len(music_ms) >= 2:
            q = statistics.quantiles(music_ms, n=100, method="inclusive")
            out["allocation.music.target_ms_p50"] = q[49]
            out["allocation.music.target_ms_p95"] = q[94]
        elif music_ms:
            out["allocation.music.target_ms_p50"] = music_ms[0]
            out["allocation.music.target_ms_p95"] = music_ms[0]
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the layers, then one
        [name index, start_s, end_s, parent span index] row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "spans": len(self.span_start)}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                fh.write(json.dumps(row) + "\n")
