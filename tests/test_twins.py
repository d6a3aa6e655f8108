"""One differential harness: every fast path against its slow twin, on seeded draws.

Each fast path of the pipeline must give the same bytes as a slow twin
that computes the same thing the plain way:

* bank: ``ExpertBank``'s rows against learner objects (a ``PassThrough``
  prototype keeps its experts objects), in both SFNR modes and in AddExp
* trainee: the trainee row that learns a newcomer's window as it
  arrives, against the ``warm_start`` replay of that window (SFNR's
  period mode, on the same two banks)
* scan: ``Adwin``'s window buffer and jump scan against ``OneValueAtATime``
* ring: the list ring of ``NodeStats`` and ``PrequentialWindow`` against
  ``DequeWindow``
* generator: ``generate_drift_stream``'s blocks against ``reference_stream``,
  every ``DRIFTS`` table at every length of ``LENGTHS`` in a drawn dimension and seed
* parse: both parsers' bulk step against their line reader, and both
  against the numbers the text was written from, reading the whole file
  as one block or blocks of a few lines, from text and from a one-shot
  iterator of lines; the result's reads by index and by slice against
  its iteration

Each test is parametrized over fixed cases. A case is a number that
draws its configuration from ``make_rng``, or a tuple that names its
input (a generator table at a length, a window's kind and length, a
detector stream's levels, capacity and interval), so a failing id names
its draw or its input. Every case also counts what it exercised
(detector cuts, evolutions at capacity, trainee promotions and drops,
clipped SGD steps, clamped detector values, bulk-step fallbacks,
hand-offs to the line reader after a block read in bulk, results read
across blocks, blocks of dates that the bulk step read in one pass or
line by line), and ``test_the_pass_exercises_every_twin`` fails when
a count over the whole pass falls below its floor. The cases are cached, so that test
repeats no work.

``MUTATIONS`` holds seeded faults, at least five per fast path, that
this module must catch: ``python3 tools/mutants.py`` applies each one to
a copy of ``src/driftnet`` and reruns this module alone against it.
Another test module makes a twin comparison only in a row that also
pins something else, such as a hand-driven bank scenario or the tiny
windows that cannot cut; ``tests/test_network.py`` and
``tests/test_adwin.py`` also run the fixed ring and scan cases under
the ids they had before they moved here, at no cost, as each case's
result is cached. The twins and the shared test streams are
defined here alone; other test modules import them from here.
"""

import functools
import io
import itertools
import math
from collections import Counter, deque
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from driftnet import streams
from driftnet.adwin import Adwin
from driftnet.ensembles import AddExpRegressor, ScaleFreeRegressor, SfnrConfig
from driftnet.evaluation import PrequentialWindow
from driftnet.learners import ExpertBank, OnlineRegressor, SgdLinearRegressor
from driftnet.network import CENTRALITY_METRICS, ExpertNetwork, NodeStats
from driftnet.prng import make_rng
from driftnet.streams import Instance

# ---------------------------------------------------------------------------
# The slow twins.
# ---------------------------------------------------------------------------


class PassThrough(OnlineRegressor):
    """Wrapper expert that only delegates, as the benchmark's timing wrapper does."""

    def __init__(self, inner: OnlineRegressor):
        self.inner = inner

    def predict(self, x) -> float:
        return self.inner.predict(x)

    def update(self, x, y: float) -> None:
        self.inner.update(x, y)

    def clone_fresh(self) -> "PassThrough":
        return PassThrough(self.inner.clone_fresh())


class OneValueAtATime:
    """Reference detector: the cut rule applied literally.

    After every drop of the oldest value it rebuilds the window's sums
    and re-tests every split, so it shares no scan state with the
    detector. ``add`` returns ``(width_before, width_after)`` on a cut.
    """

    def __init__(self, delta, capacity, check_interval):
        self.delta, self.capacity, self.check_interval = delta, capacity, check_interval
        self.values = []
        self.n_added = self.n_clamped = 0

    def add(self, value):
        self.n_clamped += not 0.0 <= value <= 1.0
        self.values.append(min(max(value, 0.0), 1.0))
        if len(self.values) > self.capacity:
            del self.values[0]
        self.n_added += 1
        if self.n_added % self.check_interval != 0:
            return None
        width_before = len(self.values)
        arr = np.array(self.values)
        while not splits_ok(arr, self.delta):
            arr = arr[1:]
        if arr.size == width_before:
            return None
        self.values = self.values[width_before - arr.size:]
        return width_before, arr.size


def splits_ok(window, delta, tol=0.0):
    """True iff no split of the array ``window`` reaches the cut threshold by ``tol``.

    Vectorized and written against the cut formula directly: the gap
    between the means on either side of each split, against its epsilon.
    """
    n = window.size
    if n < 2:
        return True
    prefix = np.cumsum(window)
    n0 = np.arange(1, n, dtype=float)
    n1 = n - n0
    gap = np.abs(prefix[:-1] / n0 - (prefix[-1] - prefix[:-1]) / n1)
    eps = np.sqrt(0.5 * (1.0 / n0 + 1.0 / n1) * math.log(4.0 * n / delta))
    return not (gap - eps >= tol).any()


class DequeWindow:
    """Reference window: the deque-based squared-error window the ring replaced.

    A literal copy, kept so the ring's every result can be compared for
    byte equality with the code it stands for.
    """

    def __init__(self, length):
        self._squares = deque(maxlen=length)
        self._sum = 0.0
        self._pushes = 0

    def __len__(self):
        return len(self._squares)

    def record_error(self, error):
        error = float(error)
        sq = error * error
        squares = self._squares
        if len(squares) == squares.maxlen:
            self._sum -= squares[0]
        squares.append(sq)
        self._sum += sq
        self._pushes += 1
        if self._pushes == squares.maxlen:
            self._sum = math.fsum(squares)
            self._pushes = 0

    def rmse(self):
        if not self._squares:
            return 0.0
        return math.sqrt(max(self._sum, 0.0) / len(self._squares))


def reference_stream(spec):
    """The instance-by-instance loop the block generator replaced, kept as its oracle."""
    rng = make_rng(spec.seed)
    for t in range(spec.length):
        x = rng.random(spec.dim)
        active = 0
        for j, (t0, width) in enumerate(zip(spec.drift_times, spec.drift_widths), 1):
            if rng.random() < streams.sigmoid_mix_probability(t, t0, width):
                active = j
        yield Instance(x=x, y=streams.hyperplane_target(spec.concepts[active], x), index=t)


# ---------------------------------------------------------------------------
# Oracles: slow restatements that share no code with the package. The
# centrality ones take a connected graph of two or more nodes.
# ---------------------------------------------------------------------------

def _bfs_dist(adj, source):
    dist, queue = {source: 0}, deque([source])
    while queue:
        v = queue.popleft()
        for u in sorted(adj[v] - dist.keys()):
            dist[u] = dist[v] + 1
            queue.append(u)
    return dist


def oracle_closeness(adj):
    return {v: (len(adj) - 1) / sum(_bfs_dist(adj, v).values()) for v in adj}


def _all_simple_paths(adj, s, t):
    paths, stack = [], [(s, [s])]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
        else:
            stack.extend((u, path + [u]) for u in sorted(adj[v]) if u not in path)
    return paths


def oracle_betweenness(adj):
    """Exhaustive shortest-path enumeration, pair-normalized."""
    n = len(adj)
    raw = dict.fromkeys(adj, 0.0)
    for s, t in itertools.combinations(sorted(adj), 2):
        paths = sorted(_all_simple_paths(adj, s, t), key=len)
        sp = [p for p in paths if len(p) == len(paths[0])]
        for v in adj.keys() - {s, t}:
            raw[v] += sum(v in p for p in sp) / len(sp)
    return {v: raw[v] / ((n - 1) * (n - 2) / 2.0) if n > 2 else 0.0 for v in adj}


def oracle_eigenvector(adj):
    """Power iteration on A + I, whose shift keeps it from oscillating, to a step below 1e-14."""
    ids = sorted(adj)
    n = len(ids)
    shifted = np.eye(n)
    for i, v in enumerate(ids):
        for u in adj[v]:
            shifted[i, ids.index(u)] += 1.0
    vec = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(100_000):
        nxt = shifted @ vec
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - vec)) < 1e-14:
            vec = nxt
            break
        vec = nxt
    return {v: abs(vec[i]) for i, v in enumerate(ids)}


def oracle_pagerank(adj, damping=0.85):
    ids = sorted(adj)
    n = len(ids)
    m = np.array([[(u in adj[v]) / len(adj[v]) for v in ids] for u in ids])  # v shares its rank among adj[v]
    pr = np.full(n, 1.0 / n)
    for _ in range(100_000):
        pr, last = (1.0 - damping) / n + damping * (m @ pr), pr
        if np.max(np.abs(pr - last)) < 1e-13:
            break
    return dict(zip(ids, pr))


def random_connected_graph(rng, max_nodes=8):
    """Random tree plus a few chords; returns an adjacency dict."""
    n = int(rng.integers(2, max_nodes + 1))
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        parent = int(rng.integers(v))
        adj[v].add(parent)
        adj[parent].add(v)
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(n), rng.integers(n)
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return adj


def net_from_adj(adj):
    edges = {(min(u, v), max(u, v)) for u in adj for v in adj[u]}
    return ExpertNetwork.from_edges(sorted(adj), sorted(edges))


ORACLES = {"closeness": oracle_closeness, "betweenness": oracle_betweenness,
           "eigenvector": oracle_eigenvector, "pagerank": oracle_pagerank}


def worst_oracle_gaps(rng, graphs, metrics):
    """The largest gap of each metric from its oracle over ``graphs`` random connected graphs."""
    worst = dict.fromkeys(metrics, 0.0)
    for _ in range(graphs):
        adj = random_connected_graph(rng)
        net = net_from_adj(adj)
        for metric in metrics:
            got = net.centrality(metric)
            for v, expected in ORACLES[metric](adj).items():
                worst[metric] = max(worst[metric], abs(got[v] - expected))
    return worst


def naive_splits_ok(values, delta):
    """Oracle: True iff no split of the window violates the cut threshold.

    Deliberately naive (quadratic, plain Python sums) so it shares no
    code with the detector's own scan.
    """
    n = len(values)
    for n0 in range(1, n):
        m = 1.0 / (1.0 / n0 + 1.0 / (n - n0))
        eps = math.sqrt(math.log(4.0 * n / delta) / (2.0 * m))
        if abs(sum(values[:n0]) / n0 - sum(values[n0:]) / (n - n0)) >= eps:
            return False
    return True


# ---------------------------------------------------------------------------
# Shared test streams.
# ---------------------------------------------------------------------------


def hostile_instance(rng, t, d=3):
    """(x, y) at time ``t``: every third block of 50 scales the first feature
    and the target by 1e6, and the last feature is constant, so SGD steps clip."""
    scale = 1e6 if (t // 50) % 3 == 0 else 1.0
    x = np.array([rng.random() * scale, *(rng.random(d - 2) - 0.5), 3.25])
    return x, (rng.random() - 0.5) * scale


def switching_stream(rng, n, every, w=np.array([0.8, -0.3, 0.4])):
    """A linear target whose weights ``w`` flip sign every ``every`` instances."""
    return [Instance(x=(x := rng.random(w.size)), y=float((-1) ** (i // every) * (w @ x)), index=i)
            for i in range(n)]


def drawn_stream(rng, kind, n, d):
    """``n`` instances of dimension ``d``: clipping-hostile, constant, one step, or a sawtooth."""
    if kind == "hostile":
        return [Instance(*hostile_instance(rng, t, d), index=t) for t in range(n)]
    w = rng.uniform(-1.0, 1.0, d)
    if kind == "step":
        return switching_stream(rng, n, int(rng.integers(1, n)), w)
    x, tooth = rng.random((n, d)), int(rng.integers(2, n))
    y = np.full(n, rng.normal()) if kind == "constant" else x @ w + 3.0 * (np.arange(n) % tooth) / tooth
    return list(map(Instance, x, y.tolist(), range(n)))


def window_errors(length, kind, rng):
    """Errors for a window of ``length``: zero, tiny, huge, or huge among ordinary ones."""
    n = 3 * length + length // 2 + 2  # at least three wraps, ending mid-window
    if kind == "zero":
        return [0.0] * n
    if kind == "tiny":
        return [1e-150 * float(v) for v in rng.normal(size=n)]
    if kind == "huge":
        return [1e150 * float(v) for v in rng.normal(size=n)]
    # huge errors among ordinary ones, so the running sum loses the
    # ordinary ones when a huge square leaves the window
    scale = np.where(rng.random(n) < 0.1, 1e150, 1.0)
    return [float(s * v) for s, v in zip(scale, rng.normal(size=n))]


CHUNK = streams._CHUNK
LENGTHS = (0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1)
# (drift time, drift width) per transition; the drifts straddle the block boundary, and
# the edges of their ``_mix_window``s fall on it, beside it, before the stream and past its end
DRIFTS = {"none": (), "abrupt": ((CHUNK, 1),), "gradual": ((CHUNK // 2, 2000),),
          "two": ((3, 1), (CHUNK - 200, 2000)),
          "edges-on-the-boundary": ((CHUNK - 10, 1), (CHUNK + 187, 1)),
          "edges-inside-the-boundary": ((CHUNK - 11, 1), (CHUNK + 188, 1)),
          "edges-outside-the-boundary": ((CHUNK - 9, 1), (CHUNK + 186, 1)),
          "at-the-start": ((0, 7),), "past-the-end": ((CHUNK + 2, 1),),
          "overlapping-windows": ((5, 3), (9, 2))}


# ---------------------------------------------------------------------------
# The checks: a fast path and its twin on the same input, byte for byte.
# ---------------------------------------------------------------------------


def learner_state(learner):
    """An SGD expert's state in bytes; a wrapper's is its inner one's."""
    learner = getattr(learner, "inner", learner)
    if not learner.n_updates:
        return learner.learning_rate
    return (learner.learning_rate, learner.n_updates, learner.bias.hex(), learner.weights.tobytes(),
            learner._mean.tobytes(), learner._m2.tobytes(), learner._inv_std.tobytes())


def _model_state(model):
    state = [model.bank.ids, [learner_state(v) for v in model.bank.learners().values()], model.scale.scale]
    if isinstance(model, AddExpRegressor):
        return state + [model.weights]
    nodes = [(v, node.phi.hex(), node.zeta.hex()) for v, node in sorted(model.network.nodes.items())]
    return state + [model.network.edges(), nodes, model.detector and model.detector.contents()]


class _CountedClip(float):
    """The SGD gradient cap, counting the steps it clips: ``norm > cap`` asks the cap first."""

    def __lt__(self, norm):
        clipped = float.__lt__(self, norm)
        self.counts["clipped SGD steps"] += clipped
        return clipped


def check_ensemble(make, stream, learning_rate, watch=None):
    """Run ``make(prototype)`` over ``stream`` with SGD experts on rows and as objects, in step.

    After every instance it asserts that both gave the same forecast and
    the same forecasts of each expert, and that both hold the same drift
    log, experts, weights, graph, node errors and detector window.
    ``watch(model, instance)`` runs on each after every instance.
    Returns the counts of what the runs exercised, and the model on rows.
    """
    counts, said, clip = Counter(), [], _CountedClip(SgdLinearRegressor._GRAD_CLIP)
    clip.counts = counts
    add_trained, drop_trainee, predict = ExpertBank.add_trained, ExpertBank.drop_trainee, ExpertBank.predict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SgdLinearRegressor, "_GRAD_CLIP", clip)
        patch.setattr(ExpertBank, "add_trained", lambda bank, *args: (
            counts.update({"trainee promotions": bank._trainee}), add_trained(bank, *args)))
        patch.setattr(ExpertBank, "drop_trainee", lambda bank: (
            counts.update({"trainee drops": bank._trainee}), drop_trainee(bank)))

        def told(bank, x):  # each expert's forecasts, in bytes, as the ensemble asks for them
            forecasts = predict(bank, x)
            said.append(np.array(forecasts, dtype=float).tobytes())
            return forecasts

        patch.setattr(ExpertBank, "predict", told)
        rows, objects = (make(p) for p in (SgdLinearRegressor(learning_rate),
                                           PassThrough(SgdLinearRegressor(learning_rate))))
        for inst in stream:
            outputs, events = [], len(rows.drift_log)
            for model in (rows, objects):
                full = model.size == model.bank.capacity
                said.clear()
                outputs.append((float(model.process(inst)).hex(), said[:]))
                counts[f"{type(model).__name__} evolutions at capacity"] += full and len(model.drift_log) > events
            assert outputs[0] == outputs[1], f"instance {inst.index}"
            # a drift log only grows, so comparing what this instance logged compares it all
            assert rows.drift_log[events:] == objects.drift_log[events:], f"instance {inst.index}"
            assert _model_state(rows) == _model_state(objects), f"instance {inst.index}"
            if watch:
                watch(rows, inst)
                watch(objects, inst)
    if getattr(rows, "detector", None):
        counts.update({"detector cuts": rows.detector.n_detections,
                       "clamped detector values": rows.detector.n_clamped})
    return counts, rows


def check_detector(delta, capacity, check_interval, values):
    """Feed ``values`` to ``Adwin`` and to its twin: the same cut and the same window after
    every addition, and the same count of clamped values. Returns the counts of cuts and clamped values."""
    det = Adwin(delta=delta, capacity=capacity, check_interval=check_interval)
    ref = OneValueAtATime(delta, capacity, check_interval)
    for t, value in enumerate(values):
        cut = det.add(value)
        assert (det.last_cut if cut else None) == ref.add(value), f"addition {t}"
        assert det.contents() == ref.values, f"addition {t}"
    assert det.n_clamped == ref.n_clamped
    return Counter({"detector cuts": det.n_detections, "clamped detector values": det.n_clamped})


def check_windows(length, errors):
    """Push ``errors`` to a node's window and to a prequential one: each result equals the deque's."""
    ref, node, score = DequeWindow(length), NodeStats(window_len=length), PrequentialWindow(length)
    assert node.phi == score.rmse() == 0.0 and len(node) == len(score) == 0
    for t, e in enumerate(errors):
        node.record_error(e)
        ref.record_error(e)
        # the prequential window sees the same error as forecast - truth
        assert score.update(e, 0.0) == node.phi == ref.rmse(), t
        assert len(node) == len(ref) == len(score) == min(t + 1, length), t


def row_types_ok(instances):
    """Every instance holds a float target and a C-contiguous 1-D float64 row."""
    return all(type(inst.y) is float and inst.x.dtype == np.float64 and inst.x.ndim == 1
               and inst.x.flags.c_contiguous for inst in instances)


def refuse(*args, **kwargs):
    raise ValueError("refused, so another reader reads the rows")


def fields(instances):
    """Each instance's features in bytes, target and index."""
    return [(inst.x.tobytes(), inst.y, inst.index) for inst in instances]


def read_at_random(parsed):
    """Each instance's fields, iterated; reads by index and a slice across blocks give the same.

    The indices are the first, the last and both sides of every block
    edge, each counted from the start and from the end.
    """
    want, n = fields(parsed), len(parsed)
    edges = parsed.edges[1:-1]
    for i in {0, n - 1, *edges, *(edge - 1 for edge in edges)} & set(range(n)):
        assert fields([parsed[i], parsed[i - n]]) == [want[i], want[i]], i
    assert fields(parsed[1:n - 1]) == want[1:n - 1]
    return want


def outcome(parse, text, bulk=True):
    """``parse(text)`` as its error message or each instance's fields, and the rows read one by one.

    With ``bulk`` False the bulk step is refused, so the line reader reads every row.
    The fields are read at random too.
    """
    by_row, row_values = [], streams._row_values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_row_values", lambda *args: by_row.append(args) or row_values(*args))
        if not bulk:
            patch.setattr(streams, "_columns", refuse)
        try:
            instances = parse(text)
        except streams.StreamFormatError as exc:
            return str(exc), len(by_row)
    assert row_types_ok(instances)
    return read_at_random(instances), len(by_row)


# ---------------------------------------------------------------------------
# The drawn cases.
# ---------------------------------------------------------------------------

@functools.cache
def ensemble_case(case):
    """SFNR in the case's mode and AddExp, both drawn, on rows and as objects."""
    rng = make_rng(case)
    d, k_max, period = int(rng.integers(2, 21)), int(rng.integers(2, 13)), int(rng.integers(20, 300))
    buffer_size = (int(rng.integers(1, period)), period, period + int(rng.integers(1, 300)))[case // 8]
    error_scale = (None, float(10.0 ** rng.uniform(-1, 2)))[int(rng.integers(2))]
    lr = 10.0 ** rng.uniform(-2.5, -0.5)
    config = dict(mode=("adwin", "period")[case // 4 % 2], k_max=k_max, period=period,
                  buffer_size=buffer_size, error_scale=error_scale,
                  threshold=(0.0, float(10.0 ** rng.uniform(-3, 0)))[int(rng.integers(2))],
                  metric=CENTRALITY_METRICS[int(rng.integers(len(CENTRALITY_METRICS)))],
                  delta=float(10.0 ** rng.uniform(-3, -0.3)), adwin_capacity=int(rng.integers(50, 3000)),
                  adwin_check_interval=int(rng.integers(1, 65)))
    stream = drawn_stream(rng, ("hostile", "constant", "step", "sawtooth")[case % 4], 1200, d)
    counts, _ = check_ensemble(lambda p: ScaleFreeRegressor(p, SfnrConfig(**config), seed=case), stream, lr)
    more, _ = check_ensemble(lambda p: AddExpRegressor(p, k_max=k_max, error_scale=error_scale), stream, lr)
    return counts + more


# a fixed scan stream's levels: near 0 and 1, with wide noise, so its window holds clamped values
SCAN_LEVELS = {"steps": [0.05, 0.95, 0.4, 0.9], "level": [0.92]}


@functools.cache
def detector_case(case):
    """A detector of drawn delta, capacity and interval on a noisy stream of drawn levels.

    A fixed case (levels, capacity, interval) has delta 0.1 and makes
    3 x capacity additions, so the buffer compacts mid-stream; it must
    clamp some values, and cut at least twice on the stepped levels.
    """
    if isinstance(case, tuple):
        name, capacity, check_interval = case
        steps, levels, n = name == "steps", SCAN_LEVELS[name], 3 * capacity
        rng = make_rng(100 * capacity + 10 * check_interval + steps)
        values = [levels[t * len(levels) // n] + 0.5 * (rng.random() - 0.5) for t in range(n)]
        counts = check_detector(0.1, capacity, check_interval, values)
        assert counts["clamped detector values"] > 0 and counts["detector cuts"] >= 2 * steps
        return counts
    rng = make_rng(case)
    capacity = int(rng.integers(2, 400))
    n = 3 * capacity  # the buffer compacts mid-stream
    levels = rng.random(int(rng.integers(1, 6)))
    values = levels[np.arange(n) * levels.size // n] + rng.uniform(0.0, 0.6) * (rng.random(n) - 0.5)
    return check_detector(float(10.0 ** rng.uniform(-4, -0.05)), capacity,
                          int(rng.integers(1, 50)), values.tolist())


# one defect per case, or none; those of AS_WRITTEN leave the numbers as written, the bulk step
# reads those of IN_BULK itself, and only the block cases draw the last two; a date's defect edits
# the first cell, which holds a number in the numeric layout
DEFECTS = ("none", "blank-lines", "spaced-cell", "blank-carriage-return", "quoted-cell", "crlf",
           "extra-field", "missing-field", "non-finite", "empty-cell", "underscore", "bad-date",
           "padded-date", "basic-date", "week-date", "year-zero", "leap-day", "long-date",
           "non-ascii-date", "nul-date", "straddling-cell", "late-crlf")
AS_WRITTEN = {"none", "blank-lines", "spaced-cell", "quoted-cell", "crlf", "padded-date", "straddling-cell",
              "late-crlf"}
IN_BULK = {"none", "blank-lines", "spaced-cell", "padded-date", "basic-date"}
WHOLE_FILE_CASES = 64  # the cases past these read blocks of a few lines


@functools.cache
def parse_case(case):
    """Drawn numbers written in one layout with a defect, read back in bulk and line by line.

    The first ``WHOLE_FILE_CASES`` cases read the file as one block. Each
    later case patches ``streams._BLOCK`` down to a few lines and writes at
    least three blocks of rows, with the defect in the first, a middle or
    the last one; a blank run or a cell over two lines sits at a block's
    last line, and a late CRLF ends every line from the defect's row on.
    Every case is also read from a one-shot iterator of its lines. A
    block case of quotes in date order keeps its blocks, so that their
    edges are read at random.
    """
    rng = make_rng(case)
    blocks = case >= WHOLE_FILE_CASES
    defects = DEFECTS if blocks else DEFECTS[:-2]
    n, defect = int(rng.integers(1, 30)), defects[case // 2 % len(defects)]
    if blocks:
        size = int(rng.integers(2, 6))
        n = size * int(rng.integers(3, 6)) + int(rng.integers(size))
    numbers = rng.choice([-1.0, 1.0], (n, 6)) * 10.0 ** rng.uniform(-300, 300, (n, 6))
    if case % 2:  # quotes, dated out of order with duplicates; Close is the target
        days = [(date(2000, 1, 1) + timedelta(days=int(k))).isoformat() for k in rng.integers(0, n, n)]
        if blocks and case % 4 == 3:
            days.sort()
        ordered = days == sorted(days)  # else the rows are sorted into one block
        rows = [[day, *map(repr, row)] for day, row in zip(days, numbers.tolist())]
        header, delimiter, target, parse = ",".join(streams.YAHOO_HEADER), ",", 3, streams.parse_yahoo_csv
        numbers = numbers[sorted(range(n), key=days.__getitem__)]
    else:
        width = int(rng.integers(2, 7))
        numbers, target, delimiter = numbers[:, :width], int(rng.integers(width)), ",;"[int(rng.integers(2))]
        header = delimiter.join(f"c{j}" for j in range(width)) if rng.random() < 0.7 else None
        column = (target, target - width, f"c{target}")[int(rng.integers(3 if header else 2))]
        rows = [list(map(repr, row)) for row in numbers.tolist()]
        parse = lambda text: streams.parse_regression_csv(text, column)  # noqa: E731
        ordered = True
    row, cell = int(rng.integers(n)), int(rng.integers(len(rows[0])))
    if blocks:  # the first, a middle or the last block
        last = (n - 1) // size
        at = (0, int(rng.integers(1, last)), last)[int(rng.integers(3))]
        at_edge = defect in ("blank-lines", "blank-carriage-return", "straddling-cell")
        row = max(at * size - 1, 0) if at_edge else min(at * size + int(rng.integers(size)), n - 1)
    numeric = -int(rng.integers(1, numbers.shape[1] + 1))  # a number's cell, counted from the end
    # each edit: (the cell, the template its text takes); the date is the Yahoo layout's first cell
    edits = {"spaced-cell": (cell, " {} "), "quoted-cell": (cell, '"{}"'), "straddling-cell": (cell, '"{}\n"'),
             "non-finite": (numeric, ("nan", "inf", "-inf")[int(rng.integers(3))]),
             "empty-cell": (numeric, ""), "underscore": (numeric, "1_000"), "bad-date": (0, "2014-13-01"),
             "padded-date": (0, "  {}  "), "basic-date": (0, "20140102"), "week-date": (0, "2014-W01-4"),
             "year-zero": (0, "0000-01-01"), "long-date": (0, "{}T12:00:00"), "nul-date": (0, "{}\0"),
             "leap-day": (0, ("2013-02-29", "2012-02-29")[int(rng.integers(2))]),
             # the tenth character becomes one that Latin-1 holds, or one that it does not
             "non-ascii-date": (0, "{:.9}" + ("\u00e9", "\u0665")[int(rng.integers(2))])}
    cells = rows[row]
    if defect == "extra-field":
        cells.append("9")
    if defect == "missing-field":
        cells.pop()
    if defect in edits:
        at, template = edits[defect]
        cells[at] = template.format(cells[at])
    lines = [delimiter.join(cells) + ("\r\n" if defect == "late-crlf" and i >= row else "\n")
             for i, cells in enumerate(rows)]
    if defect == "blank-lines":
        lines[row:row] = ["\n", "   \n", "\t\n"]
    if defect == "blank-carriage-return":  # the csv module's error
        lines[row:row] = [" \r \n"]
    if header:
        lines.insert(0, header + "\n")
    text = "".join(lines)
    if defect == "crlf":
        text = text.replace("\n", "\r\n")
    tried, columns, singly, dated = [], streams._columns, [], []

    class SinglyDate(date):  # notes each date read on its own
        @classmethod
        def fromisoformat(cls, text):
            singly.append(text)
            return date.fromisoformat(text)

    def counted(*args):
        """``_columns(*args)``, noting for a block of dates whether they were read one at a time."""
        tried.append(args)
        before = len(singly)
        days, table = columns(*args)
        if len(table) and days is not None:
            dated.append(len(singly) > before)
        return days, table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_BLOCK", size if blocks else streams._BLOCK)
        patch.setattr(streams, "_columns", counted)
        patch.setattr(streams, "date", SinglyDate)
        bulk, by_row = outcome(parse, text)
        handed_off = by_row > 0 and len(tried) > 1  # the line reader took over after a bulk block
        by_line = dated.count(True)
        in_one_pass = dated.count(False)
        one_shot = iter(io.StringIO(text, newline="\n").readlines())  # split after "\n" alone, as text is
        assert outcome(parse, one_shot) == (bulk, by_row), text
        assert bulk == outcome(parse, text, bulk=False)[0], text
    if defect in AS_WRITTEN:
        assert bulk == [(np.delete(v, target).tobytes(), float(v[target]), i) for i, v in enumerate(numbers)]
    # the bulk step reads these itself, also a block of blank lines alone
    assert by_row == 0 or defect not in IN_BULK, text
    across = blocks and ordered and by_row == 0 and isinstance(bulk, list)
    return Counter({"bulk-step fallbacks": by_row > 0, "hand-offs after a bulk block": handed_off,
                    "results read across blocks": across, "date blocks read in one pass": in_one_pass,
                    "date blocks read line by line": by_line})


WINDOW_KINDS = ("zero", "tiny", "huge", "mixed")


@functools.cache
def window_case(case):
    """A node window and a prequential one on errors of one of ``WINDOW_KINDS``.

    A fixed case (kind, length) draws its errors from ``make_rng(length)``;
    a drawn case draws its length too.
    """
    if isinstance(case, tuple):
        kind, length = case
        rng = make_rng(length)
    else:
        rng, kind = make_rng(case), WINDOW_KINDS[case % 4]
        length = int(rng.choice([1, 2, 3, 7, int(rng.integers(8, 300))]))
    check_windows(length, window_errors(length, kind, rng))
    return Counter()


@functools.cache
def generator_case(case):
    """The ``DRIFTS`` table ``name`` at ``length``, in a drawn dimension and seed."""
    length, name = case
    rng = make_rng(LENGTHS.index(length) * len(DRIFTS) + list(DRIFTS).index(name))
    dim, seed, drifts = int(rng.integers(2, 21)), int(rng.integers(2 ** 32)), DRIFTS[name]
    concepts = tuple(streams.make_hyperplane_concept(seed + j, dim) for j in range(len(drifts) + 1))
    spec = streams.DriftStreamSpec(concepts=concepts, drift_times=tuple(t for t, _ in drifts),
                                   drift_widths=tuple(w for _, w in drifts), length=length, seed=seed)
    assert fields(streams.generate_drift_stream(spec)) == fields(reference_stream(spec)), (dim, seed)
    return Counter()


# each pass: its case function and fixed cases, the cheap ones first; the 24 ensemble cases
# take every stream kind in each SFNR mode with the period below, at and above the buffer
PASSES = {"parse": (parse_case, range(WHOLE_FILE_CASES + 88)),
          "ring": (window_case, [*itertools.product(WINDOW_KINDS, (1, 2, 7, 100)), *range(40)]),
          "generator": (generator_case, list(itertools.product(LENGTHS, DRIFTS))),
          "scan": (detector_case, [*itertools.product(SCAN_LEVELS, (64, 2000), (1, 32)), *range(60)]),
          "ensembles": (ensemble_case, range(24))}
CASES = [(name, case) for name, (_, cases) in PASSES.items() for case in cases]


def case_id(name, case):
    """``<pass>-<case>``, with a tuple case's parts joined by ``-``."""
    return "-".join(map(str, (name, *case))) if isinstance(case, tuple) else f"{name}-{case}"


@pytest.mark.parametrize("name,case", CASES, ids=[case_id(*pair) for pair in CASES])
def test_fast_path_matches_its_twin(name, case):
    PASSES[name][0](case)


# about half what the pass counted when they were set
FLOORS = {"detector cuts": 150, "clamped detector values": 2500, "trainee promotions": 35,
          "trainee drops": 13, "ScaleFreeRegressor evolutions at capacity": 70, "clipped SGD steps": 30000,
          "AddExpRegressor evolutions at capacity": 17000, "bulk-step fallbacks": 34,
          "hand-offs after a bulk block": 12, "results read across blocks": 4,
          "date blocks read in one pass": 48, "date blocks read line by line": 4}


def test_the_pass_exercises_every_twin():
    counts = sum((run(case) for run, cases in PASSES.values() for case in cases), Counter())
    short = {name: counts[name] for name, floor in FLOORS.items() if counts[name] < floor}
    assert not short, f"counts below their floors {FLOORS}: {short}"


# ---------------------------------------------------------------------------
# Seeded faults the harness must catch: (src module, old text, new text, fast path).
# ---------------------------------------------------------------------------

MUTATIONS = [
    ("learners", "g *= SgdLinearRegressor._GRAD_CLIP /", "g *= 2 * SgdLinearRegressor._GRAD_CLIP /", "bank"),
    ("learners", "divisor = n - 1.0", "divisor = n - 0.0", "bank"),
    ("learners", "np.vecdot(w, (x - mean) * inv_std)", "np.sum(w * ((x - mean) * inv_std), axis=1)", "bank"),
    ("learners", "mean += delta / n\n        xs = x - mean", "mean += delta * (1.0 / n)\n        xs = x - mean",
     "bank"),
    ("learners", "self._inv_std[i] = learner._inv_std", "self._inv_std[i] = 1.0", "bank"),
    ("ensembles", "== self._trainee_at:", "== self._trainee_at + 1:", "trainee"),
    ("ensembles", "max(0, self.config.period", "max(1, self.config.period", "trainee"),
    ("learners", "n = k + self._trainee", "n = k", "trainee"),
    ("learners", "top = len(self.ids) + self._trainee", "top = len(self.ids)", "trainee"),
    ("learners", "self._clear_row(len(self.ids))", "pass", "trainee"),
    ("adwin", "passes[0]", "passes[-1]", "scan"),
    ("adwin", "j = j + 1 + int(", "j = j + 2 + int(", "scan"),
    ("adwin", "math.log(4.0 * n / self.delta)", "math.log(4.0 * (n + 1) / self.delta)", "scan"),
    ("adwin", "tail - self._head == self.capacity", "tail - self._head > self.capacity", "scan"),
    ("adwin", "self.n_added % self.check_interval", "(self.n_added - 1) % self.check_interval", "scan"),
    ("network", "self._sum = self._sum - ring[pos] + sq", "self._sum = self._sum + sq - ring[pos]", "ring"),
    ("network", "self._sum = math.fsum(ring)", "pass", "ring"),
    ("network", "return self._full or len(self._ring) - 1 - self._pos",
     "return self._full or len(self._ring) - self._pos", "ring"),
    ("network", "n = self._full or len(self._ring) - 1 - self._pos", "n = self._full or len(self._ring) - self._pos",
     "ring"),
    ("network", "if pos:", "if pos > 1:", "ring"),
    ("network", "max(self._sum, 0.0)", "abs(self._sum)", "ring"),
    ("streams", "(max(edge - start, 0) for", "(max(edge - start, 1) for", "generator"),
    ("streams", "x = draws[:, :d].copy()", "x = draws[:, len(drifts):d + len(drifts)].copy()", "generator"),
    ("streams", "active[draws[:, d + j - 1] < mix]", "active[draws[:, d - j] < mix]", "generator"),
    ("streams", "mix = np.ones(len(times))", "mix = np.zeros(len(times))", "generator"),
    ("streams", ".reshape(len(times), -1)", ".reshape(-1, len(times)).T", "generator"),
    ("streams", "ndmin=1)", "ndmin=1, usecols=range(width))", "parse"),
    ("streams", 'if not np.isfinite(table["numbers"]).all():', "if False:", "parse"),
    ("streams", "if (days > 0).all():", "if True:", "parse"),
    ("streams", 'b"9999-99-99".ljust(16, b"\\0")', 'b"9999-99-99".ljust(16, b"\\xff")', "parse"),
    ("streams", ' or "\\0" in line', "", "parse"),
    ("streams", 'astype("M8[D]")', 'astype("M8[M]")', "parse"),
    ("streams", "block if line.strip()]", "block[1:] if line.strip()]", "parse"),
    ("streams", "np.argsort(days, kind=\"stable\")", "np.argsort(-days, kind=\"stable\")[::-1]", "parse"),
    ("streams", 'if any("\\r" in line', 'if data or any("\\r" in line', "parse"),
    ("streams", '"\\r" in line or ', "", "parse"),
    ("streams", "_rows(chain(block, lines), delimiter, after)", "_rows(lines, delimiter, after + len(block))",
     "parse"),
    ("streams", "after += len(block)", "after += len(block) - 1", "parse"),
    ("streams", "taken[first - 1:]", "taken[first:]", "parse"),
    ("streams", "bisect.bisect_right(", "bisect.bisect_left(", "parse"),
    ("streams", "self.y[start:stop].tolist()", "self.y[start + 1:stop + 1].tolist()", "parse"),
    ("streams", "max(lo, first)", "lo", "parse"),
]
SRC = Path(__file__).resolve().parent.parent / "src" / "driftnet"


# each fast path of ``MUTATIONS``: the pass that runs it
RUN_BY = {"bank": "ensembles", "trainee": "ensembles", "scan": "scan", "ring": "ring",
          "generator": "generator", "parse": "parse"}


def test_every_mutation_names_text_its_module_holds_once():
    for module, old, _, _ in MUTATIONS:
        assert (SRC / f"{module}.py").read_text().count(old) == 1, (module, old)
    paths = Counter(path for *_, path in MUTATIONS)
    # every fast path has its faults, and a pass of this module runs it
    assert set(paths) == RUN_BY.keys() and set(RUN_BY.values()) == PASSES.keys()
    assert min(paths.values()) >= 5
