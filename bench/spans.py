"""Spans around driftnet's layers, recorded from outside the package.

``instrument`` attaches timing wrappers to a freshly built
``ScaleFreeRegressor`` through public seams only:

* the expert prototype is a ``TimedLearner`` (an ``OnlineRegressor``
  wrapping the real learner), so every clone the ensemble makes is timed;
* ``model.detector`` is replaced by a ``TimedAdwin`` (an ``Adwin``
  subclass with the same parameters) before it has seen a value;
* ``model.network``'s public methods are replaced by wrappers on the
  instance, and each node's ``NodeStats`` is re-classed to a subclass
  whose ``record_error`` is timed.

While a pass runs, each wrapped call appends a begin event (its span
name) and an end event, each with a ``perf_counter_ns`` stamp, to two
flat arrays in memory; that is the cheapest record that still fixes
every span. ``spans_from_events`` turns the log into spans (name,
start, end, parent) after the pass, and ``self_times`` derives each
span's self time: its duration minus its direct children's.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from driftnet import Adwin, OnlineRegressor
from driftnet.network import NodeStats

# Span names. Root spans are one "ensembles.process" and one
# "evaluation.score" per instance; the rest are children of the process
# span that caused them.
SPAN_NAMES = (
    "ensembles.process",
    "evaluation.score",
    "learners.predict",
    "learners.update",
    "learners.warmstart",
    "network.record_error",
    "network.centrality",
    "network.rewire",
    "adwin.add",
    "adwin.cut",
)
PROCESS, SCORE, PREDICT, UPDATE, WARMSTART, RECORD, CENTRALITY, REWIRE, ADD, CUT = range(len(SPAN_NAMES))
END = 255  # event code closing the innermost open span

_clock = time.perf_counter_ns


class Tracer:
    """Event log of one pass, plus counts taken at the same seams."""

    def __init__(self):
        self.events = array("B")
        self.times = array("q")
        self.request = -1  # position of the instance being processed
        self.scans = 0
        self.dropped = 0
        self.newcomers = 0  # experts cloned while an instance was processed

    def wrap(self, fn, kind: int):
        ev, ts, clock = self.events.append, self.times.append, _clock

        def timed(*args, **kwargs):
            ev(kind)
            ts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ts(clock())
                ev(END)
        return timed

    def wrap_process(self, process):
        """Root span around ``model.process``; advances the request position."""
        timed = self.wrap(process, PROCESS)

        def advance(instance):
            self.request += 1
            return timed(instance)
        return advance

    def spans(self) -> dict[str, np.ndarray]:
        return spans_from_events(np.frombuffer(self.events, dtype=np.uint8),
                                 np.frombuffer(self.times, dtype=np.int64))

    def save(self, path) -> None:
        """Write the event log: codes, first stamp and stamp deltas (ns)."""
        times = np.frombuffer(self.times, dtype=np.int64)
        np.savez_compressed(path, names=np.array(SPAN_NAMES), end_code=END,
                            events=np.frombuffer(self.events, dtype=np.uint8),
                            t0=times[:1], dt=np.diff(times).astype(np.uint32))


def spans_from_events(events: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
    """Spans in begin order: kind, start, end, parent (-1 for roots), request.

    Spans nest properly, so at each depth begins and ends alternate;
    pairing them per depth recovers every span. A span's parent is the
    last span one level up that began before it.
    """
    is_begin = events != END
    depth = np.cumsum(np.where(is_begin, 1, -1))
    if depth.size and (depth.min() < 0 or depth[-1] != 0):
        raise ValueError("unbalanced span events")
    level = np.where(is_begin, depth, depth + 1)
    order = np.argsort(level, kind="stable")
    begins = order[is_begin[order]]
    ends = order[~is_begin[order]]
    if begins.size != ends.size or (level[begins] != level[ends]).any() or (begins > ends).any():
        raise ValueError("span events do not nest")
    by_start = np.argsort(begins, kind="stable")
    begins, ends = begins[by_start], ends[by_start]
    lvl = level[begins]
    parent = np.full(begins.size, -1, dtype=np.int64)
    for depth_here in range(2, int(lvl.max(initial=1)) + 1):
        child = np.flatnonzero(lvl == depth_here)
        above = np.flatnonzero(lvl == depth_here - 1)
        parent[child] = above[np.searchsorted(begins[above], begins[child]) - 1]
    kind = events[begins]
    return {
        "kind": kind,
        "start": times[begins],
        "end": times[ends],
        "parent": parent,
        # the spans of one instance open with its process span
        "request": np.cumsum(kind == PROCESS) - 1,
    }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time in ns: duration minus direct children's durations."""
    dur = end - start
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)


class TimedLearner(OnlineRegressor):
    """Expert wrapper timing ``predict`` and ``update``.

    An update on an expert cloned while the current instance is being
    processed is a warm start; any later update is regular training.
    """

    def __init__(self, inner: OnlineRegressor, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.born = tracer.request
        self._ev = tracer.events.append
        self._ts = tracer.times.append

    def predict(self, x) -> float:
        self._ev(PREDICT)
        self._ts(_clock())
        try:
            return self.inner.predict(x)
        finally:
            self._ts(_clock())
            self._ev(END)

    def update(self, x, y: float) -> None:
        self._ev(WARMSTART if self.born == self.tracer.request else UPDATE)
        self._ts(_clock())
        try:
            self.inner.update(x, y)
        finally:
            self._ts(_clock())
            self._ev(END)

    def clone_fresh(self) -> "TimedLearner":
        if self.tracer.request >= 0:
            self.tracer.newcomers += 1
        return TimedLearner(self.inner.clone_fresh(), self.tracer)


class TimedAdwin(Adwin):
    """Adwin whose ``add`` is a span; a call that cuts is named "adwin.cut"."""

    def __init__(self, tracer: Tracer, **params):
        super().__init__(**params)
        self.tracer = tracer

    def add(self, value: float) -> bool:
        tr = self.tracer
        at = len(tr.events)
        tr.events.append(ADD)
        tr.times.append(_clock())
        try:
            cut = super().add(value)
        finally:
            tr.times.append(_clock())
            tr.events.append(END)
        if self.n_added % self.check_interval == 0:
            tr.scans += 1
        if cut:
            tr.events[at] = CUT
            width_before, width_after = self.last_cut
            tr.dropped += width_before - width_after
        return cut


def _timed_node_class(tracer: Tracer) -> type:
    class TimedNodeStats(NodeStats):
        __slots__ = ()
        record_error = tracer.wrap(NodeStats.record_error, RECORD)

    return TimedNodeStats


def instrument(model, tracer: Tracer) -> None:
    """Attach the timing wrappers to a model built with a ``TimedLearner`` prototype.

    Must run before the model has processed an instance.
    """
    if model.instances_seen:
        raise ValueError("instrument a model before it processes instances")
    if not isinstance(model.prototype, TimedLearner):
        raise ValueError("build the model with a TimedLearner prototype")
    if model.detector is not None:
        cfg = model.config
        model.detector = TimedAdwin(tracer, delta=cfg.delta, capacity=cfg.adwin_capacity,
                                    check_interval=cfg.adwin_check_interval)
    net = model.network
    node_class = _timed_node_class(tracer)
    for stats in net.nodes.values():
        stats.__class__ = node_class
    add_node = net.add_node

    def add_node_timed(node_id, *args, **kwargs):
        add_node(node_id, *args, **kwargs)
        net.nodes[node_id].__class__ = node_class

    net.add_node = tracer.wrap(add_node_timed, REWIRE)
    net.remove_node = tracer.wrap(net.remove_node, REWIRE)
    net.worst_node = tracer.wrap(net.worst_node, REWIRE)
    net.centrality = tracer.wrap(net.centrality, CENTRALITY)


class LayerTotals:
    """Per-layer counts and times summed over traced passes."""

    def __init__(self):
        self.passes = 0
        self.calls = np.zeros(len(SPAN_NAMES))
        self.self_ns = np.zeros(len(SPAN_NAMES))
        self.total_ns = np.zeros(len(SPAN_NAMES))
        self.evolve_ns = 0.0
        self.scans = 0
        self.dropped = 0
        self.newcomers = 0

    def add_pass(self, tracer: Tracer, evolved_requests) -> None:
        s = tracer.spans()
        dur = s["end"] - s["start"]
        own = self_times(s["start"], s["end"], s["parent"])
        n = len(SPAN_NAMES)
        self.passes += 1
        self.calls += np.bincount(s["kind"], minlength=n)[:n]
        self.self_ns += np.bincount(s["kind"], weights=own, minlength=n)[:n]
        self.total_ns += np.bincount(s["kind"], weights=dur, minlength=n)[:n]
        process_spans = np.flatnonzero(s["kind"] == PROCESS)
        self.evolve_ns += float(dur[process_spans[np.asarray(evolved_requests, dtype=np.int64)]].sum())
        self.scans += tracer.scans
        self.dropped += tracer.dropped
        self.newcomers += tracer.newcomers
