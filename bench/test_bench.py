"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from driftnet import PrequentialWindow  # noqa: E402

# Short streams that still evolve: three period blocks, or a few regimes.
SHORT = {"period-hyperplane": 3000, "regime-csv": 6000, "quotes-ema": 15000}


def _load(name, seed, workdir):
    workload = WORKLOADS[name].with_length(SHORT[name])
    instances, _, _ = workload.load(workload.prepare(seed, workdir))
    return workload, instances


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name, tmp_path):
    _, a = _load(name, 7, tmp_path / "a")
    _, b = _load(name, 7, tmp_path / "b")
    _, c = _load(name, 8, tmp_path / "c")
    assert len(a) == SHORT[name]
    assert run.instances_digest(a) == run.instances_digest(b)
    assert run.instances_digest(a) != run.instances_digest(c)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_repeats_untraced_pass_byte_for_byte(name, tmp_path):
    workload, instances = _load(name, 3, tmp_path)
    plain_model = workload.build_model(3)
    plain = run.run_pass(plain_model, instances, PrequentialWindow())
    model, tracer = run.fresh_model(workload, 3, traced=True)
    traced = run.run_pass(model, instances, PrequentialWindow(), tracer)

    assert plain.drift_log, "the short stream must still evolve"
    assert plain.preds.tobytes() == traced.preds.tobytes()
    assert traced.drift_log == plain.drift_log
    checker = run.Checker(None)
    checker.account(plain, plain_model, instances, "untraced")
    checker.account(traced, model, instances, "traced")
    assert checker.failures == [] and checker.failed == 0
    assert tracer.newcomers == len(plain.drift_log)

    totals = spans.LayerTotals()
    totals.add_pass(tracer, traced.evolved)
    calls = totals.calls
    n = len(instances)
    assert calls[spans.PROCESS] == calls[spans.SCORE] == n
    # every expert present when an instance arrives predicts, records and trains once
    assert calls[spans.PREDICT] == calls[spans.RECORD] == calls[spans.UPDATE]
    assert n <= calls[spans.PREDICT] <= traced.size_sum
    if model.detector is not None:
        assert calls[spans.ADD] + calls[spans.CUT] == n
        assert calls[spans.CUT] == len(plain.drift_log)
    assert calls[spans.CENTRALITY] == len(plain.drift_log)


def test_tail_percentile_is_highest_with_ten_samples_beyond():
    assert run.tail_percentile(100_000) == "99.99"   # 10 beyond
    assert run.tail_percentile(99_999) == "99.95"    # p99.99 would leave 9
    assert run.tail_percentile(36_000) == "99.95"    # 18 beyond; p99.99 leaves 3
    assert run.tail_percentile(10_000) == "99.9"     # 10 beyond
    assert run.tail_percentile(1_000) == "99"        # 10 beyond
    assert run.tail_percentile(100) == "90"
    assert run.tail_percentile(10) is None
    for n in (100, 1_000, 28_000, 36_000, 100_000, 123_457):
        q = run.tail_percentile(n)
        assert n - run.nearest_rank(q, n) >= 10
        higher = run.TAIL_LADDER[run.TAIL_LADDER.index(q) + 1:]
        assert all(n - run.nearest_rank(h, n) < 10 for h in higher)


def test_spans_from_events_recovers_nesting_and_self_times():
    end = spans.END
    # process(0..100) holds predict(10..20) and adwin.add(30..70); then score(100..110)
    events = np.array([spans.PROCESS, spans.PREDICT, end, spans.ADD, end, end,
                       spans.SCORE, end], dtype=np.uint8)
    times = np.array([0, 10, 20, 30, 70, 100, 100, 110], dtype=np.int64)
    s = spans.spans_from_events(events, times)
    assert s["kind"].tolist() == [spans.PROCESS, spans.PREDICT, spans.ADD, spans.SCORE]
    assert s["parent"].tolist() == [-1, 0, 0, -1]
    assert s["request"].tolist() == [0, 0, 0, 0]
    assert spans.self_times(s["start"], s["end"], s["parent"]).tolist() == [50, 10, 40, 10]
    with pytest.raises(ValueError):
        spans.spans_from_events(events[:-1], times[:-1])
