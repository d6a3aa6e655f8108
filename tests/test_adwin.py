"""Change-detector tests, anchored by a brute-force split oracle."""

import math

import pytest

from driftnet.adwin import Adwin, epsilon_cut
from driftnet.prng import make_rng
from test_twins import OneValueAtATime, check_detector, detector_case, naive_splits_ok


def test_epsilon_cut_worked_value():
    # n0 = n1 = 50, delta = 0.1: m = 25, eps = sqrt(ln(4000)/50)
    assert epsilon_cut(50, 50, 100, 0.1) == pytest.approx(0.40728490372470294, abs=1e-12)


def test_epsilon_cut_shrinks_with_more_data():
    assert epsilon_cut(500, 500, 1000, 0.1) < epsilon_cut(50, 50, 100, 0.1)


def test_epsilon_cut_validation():
    with pytest.raises(ValueError):
        epsilon_cut(0, 50, 50, 0.1)
    with pytest.raises(ValueError):
        epsilon_cut(50, 50, 101, 0.1)
    with pytest.raises(ValueError):
        epsilon_cut(50, 50, 100, 0.0)
    with pytest.raises(ValueError):
        epsilon_cut(50, 50, 100, 1.0)


def test_constant_stream_never_cuts():
    det = Adwin(delta=0.1, check_interval=1)
    for _ in range(2000):
        assert det.add(0.5) is False
    assert det.n_detections == 0
    assert det.width == 2000


def test_step_change_is_detected_quickly():
    rng = make_rng(42)
    det = Adwin(delta=0.1, check_interval=1)
    for _ in range(1000):
        det.add(0.2 + 0.1 * (rng.random() - 0.5))
    detected_at = None
    for i in range(1000):
        if det.add(0.8 + 0.1 * (rng.random() - 0.5)) and detected_at is None:
            detected_at = i
    assert detected_at is not None and detected_at < 100
    # repeated cuts eventually evict the old regime entirely
    assert det.mean() > 0.75


def test_window_invariant_matches_naive_oracle():
    # After every addition the retained window must contain no split the
    # oracle flags. Short streams keep the quadratic oracle affordable.
    rng = make_rng(7)
    for trial in range(30):
        det = Adwin(delta=0.1, check_interval=1)
        level = rng.random()
        for t in range(300):
            if t == 150 and trial % 2 == 0:
                level = rng.random()  # half the trials get a mid-stream step
            det.add(min(max(level + 0.2 * (rng.random() - 0.5), 0.0), 1.0))
            assert naive_splits_ok(det.contents(), 0.1)


def test_clamping_is_counted_not_rejected():
    det = Adwin()
    det.add(-0.3)
    det.add(1.7)
    det.add(0.5)
    assert det.n_clamped == 2
    assert det.contents() == [0.0, 1.0, 0.5]


def test_non_finite_value_rejected():
    det = Adwin()
    with pytest.raises(ValueError):
        det.add(float("nan"))
    with pytest.raises(ValueError):
        det.add(float("inf"))


def test_capacity_eviction_is_not_a_detection():
    det = Adwin(delta=0.1, capacity=100, check_interval=1)
    for _ in range(250):
        assert det.add(0.5) is False
    assert det.width == 100
    assert det.n_detections == 0


def test_check_interval_defers_scans():
    # with interval 64 the first 63 additions cannot report a cut even
    # on a blatant step; the deferred scan then catches up
    det = Adwin(delta=0.1, check_interval=64)
    flagged = []
    for i in range(64):
        value = 0.0 if i < 32 else 1.0
        flagged.append(det.add(value))
    assert not any(flagged[:63])
    assert flagged[63] is True


def test_last_cut_reports_widths():
    det = Adwin(delta=0.1, check_interval=1)
    for _ in range(400):
        det.add(0.1)
    for _ in range(400):
        if det.add(0.9):
            break
    before, after = det.last_cut
    assert before > after >= 1
    assert det.width == after


def test_detection_count_accumulates():
    rng = make_rng(3)
    det = Adwin(delta=0.1, check_interval=1)
    levels = [0.1, 0.9, 0.1, 0.9]
    for level in levels:
        for _ in range(500):
            det.add(min(max(level + 0.05 * (rng.random() - 0.5), 0.0), 1.0))
    assert det.n_detections >= 3
    assert det.n_added == 2000


@pytest.mark.parametrize("check_interval", [1, 32])
@pytest.mark.parametrize("capacity", [64, 2000])
@pytest.mark.parametrize("steps", [False, True])
def test_cut_sequence_matches_one_value_at_a_time(check_interval, capacity, steps):
    # the harness's fixed case scan-<steps|level>-<capacity>-<interval> under its older id,
    # with its pins; the case is cached
    detector_case(("steps" if steps else "level", capacity, check_interval))


@pytest.mark.parametrize("capacity", [2, 3])
def test_tiny_windows_scan_like_one_value_at_a_time(capacity):
    # The smallest scans: a width-2 window has one split and a width-3
    # one has two, then one. No split of three or fewer values can cut,
    # since eps_cut > 1 there, so these scans pin the edges of the count
    # tables without a cut; the harness's fixed scan cases cannot take
    # these capacities, because they ask a stepped stream for two cuts.
    assert min(epsilon_cut(n0, n - n0, n, 0.999) for n in (2, 3) for n0 in range(1, n)) > 1.0
    rng = make_rng(capacity)
    values = [(0.0 if t % 20 < 10 else 1.0) + 0.5 * (rng.random() - 0.5) for t in range(200)]
    counts = check_detector(0.1, capacity, 1, values)
    assert counts["detector cuts"] == 0 and counts["clamped detector values"] > 0


def test_window_survives_eviction_and_compaction():
    det = Adwin(delta=0.1, capacity=5, check_interval=1)
    values = [0.5 + 0.01 * i for i in range(23)]
    for value in values:
        det.add(value)
    assert det.n_detections == 0
    assert det.width == 5
    assert det.contents() == values[-5:]
    assert det.mean() == math.fsum(values[-5:]) / 5


def test_capacity_one_keeps_the_latest_value():
    det = Adwin(delta=0.1, capacity=1, check_interval=1)
    for value in (0.0, 1.0, 0.25, 2.0, 0.75):
        assert det.add(value) is False
        assert det.width == 1
    assert det.contents() == [0.75]
    assert det.mean() == 0.75
    assert det.n_clamped == 1


def test_narrowest_cut_keeps_the_new_regime():
    # A window of fewer than 7 values in [0, 1] never fails a split for
    # any delta in (0, 1), so no cut can leave a single value; a long
    # run of zeros followed by a few ones gives the narrowest cut the
    # rule allows, and it must match the reference.
    values = [0.0] * 1000 + [1.0] * 7
    det = Adwin(delta=0.1, capacity=5000, check_interval=len(values))
    ref = OneValueAtATime(0.1, 5000, len(values))
    for value in values:
        cut = det.add(value)
        ref_cut = ref.add(value)
    assert cut is True
    before, after = det.last_cut
    assert (before, after) == ref_cut
    assert before == len(values) and 7 < after < 20
    assert det.width == after
    assert det.contents() == values[-after:]
    assert all(type(v) is float for v in det.contents())
    assert det.mean() == 7.0 / after
