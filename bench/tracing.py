"""Per-layer tracing of antimagic from outside the library.

install() rebinds every public function of every loaded ``antimagic``
module, in each module that holds a reference to it, to a wrapper that
records one span per call: name, start, end and the span that was open
when the call began.  Generator functions get one span per ``next``.
Nothing under ``src/`` changes; the wrappers live only in this process.

Spans stay in memory in flat arrays and are folded into per-name totals
when the run ends, with every timestamp read on the reference clock of
speed.py, so that span times are reference seconds like the rest of the
benchmark's times.  A span's self time is its duration minus the
durations of its child spans.  Worker processes forked by ``jobs=2`` run
the wrappers as plain pass-throughs, so their work shows only as the
parent's wait inside ``exhaustive_labeling_search``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array
from collections import defaultdict
from math import factorial

SWEEPS = ("magic_bound_sweep", "check_tree_characterization", "duality_sweep",
          "duality_sweep_graph", "survey_neighborhood_sufficiency",
          "check_forest_lemmas", "check_path_characterizations",
          "check_union_counterexample")
CONSTRUCTORS = ("label_unidirectional_path", "label_theta_prime",
                "label_theta_double_prime", "label_mpn", "label_mpn_general",
                "label_forest")
LOADERS = ("load_graph", "load_labels", "graph_from_dict", "labels_from_dict")
PACKAGE = "antimagic"
TOP_SPANS = 12

WORKER_NOTE = ("worker processes started with jobs=2 are not traced; their "
               "work shows only as the parent's wait inside "
               "search.exhaustive_labeling_search")


def _checked(result) -> int:
    """Cases a sweep function covered, whatever shape it returns."""
    if isinstance(result, tuple):
        return sum(_checked(item) for item in result)
    if hasattr(result, "checked"):
        return result.checked
    if hasattr(result, "pairs"):
        return result.pairs
    return 4  # the union breakdown runs four searches


# Counts taken from a call's arguments and result, keyed by span name.
OBSERVERS = {
    "search.exhaustive_labeling_search": lambda a, k, r: {
        "candidates": r.candidates_examined, "found": int(r.found)},
    "search.exhaustive_magic_search": lambda a, k, r: {
        "labelings": factorial(a[0].n), "hits": int(bool(r))},
    "search.find_magic_graph": lambda a, k, r: {
        "candidates": r.candidates_examined},
    "labeling.necessary_condition_distinct_neighborhoods": lambda a, k, r: {
        "shortcut": int(r is not None)},
    "serialize.write_text": lambda a, k, r: {
        "bytes": len(a[1].encode("utf-8"))},
}
OBSERVERS.update({f"search.{name}": lambda a, k, r: {"checked": _checked(r)}
                  for name in SWEEPS})


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # ---- recording ----

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _add(self, name: str, counts: dict[str, int]) -> None:
        slot = self.counts[name]
        for key, value in counts.items():
            slot[key] += value

    def _stepped(self, nid: int, name: str, inner):
        while True:
            idx = self._open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self._add(name, {"items": 1})
            yield item

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if os.getpid() != tracer.pid:
                    return inner
                return tracer._stepped(nid, name, inner)
            return traced_generator

        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer._add(name, observe(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Rebind PACKAGE's public functions wherever they are imported."""
        prefix = PACKAGE + "."
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(prefix)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(prefix)):
                    continue
                if id(value) not in wrappers:
                    span = f"{value.__module__[len(prefix):]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(span, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # ---- folding ----

    def totals(self, clock) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s.

        clock maps a perf_counter timestamp to the clock the times are
        read on, such as the reference clock of speed.py.
        """
        count = len(self.start)
        durations = [clock(self.end[i]) - clock(self.start[i])
                     for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names}
        for i in range(count):
            slot = out[self.names[self.name_id[i]]]
            slot["calls"] += 1
            slot["total_s"] += durations[i]
            slot["self_s"] += durations[i] - child[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called name that have an ancestor span called ancestor."""
        target, above = self._ids.get(name), self._ids.get(ancestor)
        if target is None or above is None:
            return 0
        hits = 0
        for i in range(len(self.start)):
            if self.name_id[i] != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != above:
                p = self.parent[p]
            hits += p >= 0
        return hits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, totals: dict, extra: dict) -> dict:
    """Per-layer metrics: name -> (value, unit, samples).

    totals is tracer.totals(...) on the clock the times should be read on.
    extra holds what the traced spans cannot give, as (value, samples):
    pool start-up, the untraced j2 throughput and j2/j1 scaling, and the
    tracing overhead ratio.  A span metric's samples are the calls of the
    spans it is taken from.
    """
    c = tracer.counts

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name, key):
        return c[name][key] if name in c else 0

    out = {}

    def put(metric, value, unit, *spans):
        out[metric] = (value, unit, calls(*spans))

    apd = "digraph.all_pairs_distances"
    nec = "labeling.necessary_condition_distinct_neighborhoods"
    # The span's full name plus ".shortcut_ratio" exceeds the 64-character
    # limit on metric names, so both of its metrics use a shorter prefix.
    nec_metric = "labeling.necessary_condition"
    magic = "search.exhaustive_magic_search"
    scan = "search.exhaustive_labeling_search"
    put(f"{apd}.calls", calls(apd), "count", apd)
    put(f"{apd}.self_s", self_s(apd), "s", apd)
    put(f"{apd}.us_per_call", _ratio(self_s(apd) * 1e6, calls(apd)), "us", apd)
    name = "digraph.is_strongly_connected"
    put(f"{name}.calls", calls(name), "count", name)
    put(f"{name}.self_s", self_s(name), "s", name)
    name = "generators.enumerate_trees"
    put(f"{name}.graphs", count(name, "items"), "count", name)
    put(f"{name}.self_s", self_s(name), "s", name)
    for name in ("generators.build_path", "generators.build_forest",
                 "labeling.neighborhood_table", "labeling.weight_profile",
                 "labeling.check_duality"):
        put(f"{name}.calls", calls(name), "count", name)
        put(f"{name}.self_s", self_s(name), "s", name)
    put("labeling.weight_profile.calls_per_duality_check",
        _ratio(tracer.calls_under("labeling.weight_profile",
                                  "labeling.check_duality"),
               calls("labeling.check_duality")),
        "count", "labeling.check_duality")
    put(f"{nec_metric}.calls", calls(nec), "count", nec)
    put(f"{nec_metric}.shortcut_ratio",
        _ratio(count(nec, "shortcut"), calls(nec)), "ratio", nec)
    name = "search.enumerate_oriented_graphs"
    put(f"{name}.graphs", count(name, "items"), "count", name)
    put(f"{name}.self_s", self_s(name), "s", name)
    name = "search.find_magic_graph"
    put(f"{name}.self_s", self_s(name), "s", name)
    put(f"{name}.candidates", count(name, "candidates"), "count", name)
    put(f"{magic}.calls", calls(magic), "count", magic)
    put(f"{magic}.self_s", self_s(magic), "s", magic)
    put(f"{magic}.labelings", count(magic, "labelings"), "count", magic)
    put(f"{magic}.ns_per_labeling",
        _ratio(self_s(magic) * 1e9, count(magic, "labelings")), "ns", magic)
    put(f"{magic}.hit_ratio", _ratio(count(magic, "hits"), calls(magic)),
        "ratio", magic)
    put(f"{scan}.calls", calls(scan), "count", scan)
    put(f"{scan}.self_s", self_s(scan), "s", scan)
    put(f"{scan}.candidates", count(scan, "candidates"), "count", scan)
    put(f"{scan}.ns_per_candidate",
        _ratio(self_s(scan) * 1e9, count(scan, "candidates")), "ns", scan)
    put(f"{scan}.found_ratio", _ratio(count(scan, "found"), calls(scan)),
        "ratio", scan)
    for metric, unit in (("search.pool.startup_ms", "ms"),
                         ("search.labelings_per_s_j2", "1/s"),
                         ("search.scaling_j2", "ratio")):
        value, samples = extra[metric]
        out[metric] = (value, unit, samples)
    for name in SWEEPS:
        span = f"search.{name}"
        put(f"search.sweep.{name}.self_s", self_s(span), "s", span)
        put(f"search.sweep.{name}.checked", count(span, "checked"), "count",
            span)
    ctors = tuple(f"constructions.{n}" for n in CONSTRUCTORS)
    put("constructions.construct.calls", calls(*ctors), "count", *ctors)
    put("constructions.construct.self_s", self_s(*ctors), "s", *ctors)
    name = "serialize.canonical_json"
    put(f"{name}.self_s", self_s(name), "s", name)
    name = "serialize.write_text"
    put(f"{name}.calls", calls(name), "count", name)
    put(f"{name}.self_s", self_s(name), "s", name)
    put(f"{name}.bytes", count(name, "bytes"), "B", name)
    loads = tuple(f"serialize.{n}" for n in LOADERS[:2])
    put("serialize.load.calls", calls(*loads), "count", *loads)
    put("serialize.load.self_s",
        self_s(*(f"serialize.{n}" for n in LOADERS)), "s", *loads)
    name = "cli.main"
    put(f"{name}.calls", calls(name), "count", name)
    put(f"{name}.self_s", self_s(name), "s", name)
    value, samples = extra["trace.overhead_ratio"]
    out["trace.overhead_ratio"] = (value, "ratio", samples)
    out["trace.spans"] = (len(tracer.start), "count", len(tracer.start))
    return out


def top_spans(totals: dict) -> list[tuple[str, int, float]]:
    """(name, calls, self_s) of the TOP_SPANS spans with the most self time."""
    rows = [(name, int(v["calls"]), v["self_s"]) for name, v in totals.items()]
    return sorted(rows, key=lambda row: -row[2])[:TOP_SPANS]
