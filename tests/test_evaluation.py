"""Harness tests: prequential window, runner, CSV emission, presets."""

import datetime
import math
import statistics

import numpy as np
import pytest

import driftnet.evaluation as evaluation
import driftnet.streams as streams
from driftnet.evaluation import (
    PRESETS,
    ExperimentConfig,
    PrequentialWindow,
    ResultRow,
    describe_presets,
    emit_csv,
    parse_result_csv,
    run_experiment,
    run_experiment_detailed,
    summarize,
)
from driftnet.ensembles import DriftEvent
from driftnet.learners import OnlineRegressor, RunningMeanRegressor
from driftnet.prng import make_rng


def test_window_zero_errors():
    win = PrequentialWindow(10)
    for _ in range(3):
        win.update(1.0, 1.0)
    assert win.rmse() == 0.0


def test_window_worked_example():
    win = PrequentialWindow(10)
    win.update(1.0, 1.0)
    assert win.update(2.0, 4.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_window_evicts_oldest():
    win = PrequentialWindow(2)
    win.update(0.0, 3.0)   # sq err 9
    win.update(0.0, 1.0)   # sq err 1
    rmse = win.update(0.0, 1.0)  # evicts the 9
    assert rmse == pytest.approx(1.0)
    assert len(win) == 2


def test_window_matches_recomputation_after_wraps():
    rng = make_rng(15)
    win = PrequentialWindow(100)
    errs = []
    for _ in range(5000):
        p, t = float(rng.random()), float(rng.random())
        win.update(p, t)
        errs.append((p - t) ** 2)
        expected = math.sqrt(math.fsum(errs[-100:]) / min(len(errs), 100))
        assert abs(win.rmse() - expected) < 1e-9


def test_window_validation():
    with pytest.raises(ValueError):
        PrequentialWindow(0)


# ---------------------------------------------------------------------------
# Experiment runner.
# ---------------------------------------------------------------------------

def _tiny_config(**overrides):
    base = dict(algorithm="single_learner", length=250, dim=3, seeds=(1,),
                report_every=100, window_size=100, record_timing=False)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_rows_at_report_interval_plus_final():
    rows = run_experiment(_tiny_config())
    assert [r.instance_index for r in rows] == [100, 200, 250]
    assert all(r.algorithm == "single_learner" for r in rows)
    assert all(r.network_size == 1 for r in rows)


def test_no_partial_final_row_when_length_divides():
    rows = run_experiment(_tiny_config(length=300))
    assert [r.instance_index for r in rows] == [100, 200, 300]


def test_multi_seed_rows_grouped_ascending():
    rows = run_experiment(_tiny_config(seeds=(5, 1, 3)))
    assert [r.seed for r in rows] == [1, 1, 1, 3, 3, 3, 5, 5, 5]


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(algorithm="boosting").validate()
    with pytest.raises(ValueError):
        _tiny_config(learner="forest").validate()
    with pytest.raises(ValueError):
        _tiny_config(seeds=()).validate()
    with pytest.raises(ValueError):
        _tiny_config(drift_times=(10,)).validate()
    # the ensemble's own settings are checked with the run's
    for bad in (dict(k_max=1), dict(buffer_size=0), dict(period=0)):
        with pytest.raises(ValueError):
            _tiny_config(algorithm="sfnr_period", **bad).validate()
    # a setting the run does not read is still checked by its owner, and
    # a valid one is accepted
    with pytest.raises(ValueError, match="period must be positive"):
        _tiny_config(algorithm="sfnr_adwin", period=0).validate()
    _tiny_config(algorithm="sfnr_adwin", period=500).validate()
    with pytest.raises(ValueError, match="k_max must be at least 2, got 1"):
        _tiny_config(algorithm="addexp", k_max=1).validate()
    # every other setting is checked by the component built from it
    for algorithm, bad, message in (
            ("sfnr_adwin", dict(metric="katz"), "unknown metric 'katz'"),
            ("sfnr_adwin", dict(delta=1.5), r"delta must lie in \(0, 1\)"),
            ("sfnr_adwin", dict(m_a=0), "m_a must be positive"),
            ("sfnr_adwin", dict(adwin_capacity=0), "capacity must be positive"),
            ("sfnr_adwin", dict(error_scale=0.0), "error_scale must be positive"),
            ("addexp", dict(k_max=0), "k_max must be at least 2, got 0"),
            ("addexp", dict(tau=0.0), "gamma and tau must be positive"),
            ("single_learner", dict(learning_rate=0.0), "learning_rate must be positive"),
            ("single_learner", dict(learner="ema", ema_window=0), "EMA window must be positive"),
            ("single_learner", dict(window_size=0), "window_size must be positive")):
        with pytest.raises(ValueError, match=message):
            _tiny_config(algorithm=algorithm, **bad).validate()
    # a data file without a target is Yahoo quotes, whose target is Close
    ExperimentConfig(data_path="x.csv").validate()


class PoisonSpy(OnlineRegressor):
    """Forecasts the most recent target it was trained on.

    On a strictly increasing target sequence a correct test-then-train
    loop can only ever forecast stale values, so every error is >= 1;
    a leak of the current target would produce a zero error instead.
    """

    def __init__(self):
        self.value = 0.0

    def predict(self, x) -> float:
        return self.value

    def update(self, x, y: float) -> None:
        self.value = y

    def clone_fresh(self) -> "PoisonSpy":
        return PoisonSpy()


def test_test_then_train_order(monkeypatch, tmp_path):
    path = tmp_path / "ramp.csv"
    rng = make_rng(16)
    with open(path, "w") as fh:
        fh.write("a,b,y\n")
        for t in range(300):
            fh.write(f"{rng.random()!r},{rng.random()!r},{float(t + 1)!r}\n")
    monkeypatch.setattr(evaluation, "_build_prototype",
                        lambda config: PoisonSpy())
    for algorithm in ("single_learner", "sfnr_adwin", "sfnr_period", "addexp"):
        config = ExperimentConfig(
            algorithm=algorithm, data_path=str(path), target="y",
            seeds=(1,), report_every=300, window_size=300,
            period=20, threshold=0.0, record_timing=False)
        rows = run_experiment(config)
        assert rows[-1].windowed_rmse >= 0.999, algorithm


@pytest.mark.parametrize("algorithm", evaluation.ALGORITHMS)
def test_every_algorithm_builds_a_model_with_the_run_protocol(algorithm):
    config = _tiny_config(algorithm=algorithm, length=50)
    model = evaluation._build_algorithm(config, 1)
    for instance in evaluation._build_instances(config, 1):
        assert math.isfinite(model.process(instance))
    assert model.size >= 1
    assert all(isinstance(event, DriftEvent) for event in model.drift_log)
    indices = [event.index for event in model.drift_log]
    assert all(a < b for a, b in zip(indices, indices[1:]))


def test_bare_learner_process_forecasts_before_training():
    config = _tiny_config(length=20)
    model = evaluation._build_algorithm(config, 1)
    twin = model.clone_fresh()
    for instance in evaluation._build_instances(config, 1):
        expected = twin.predict(instance.x)
        twin.update(instance.x, instance.y)
        assert model.process(instance) == expected
        assert model.predict(instance.x) == twin.predict(instance.x)
    assert model.size == 1
    assert len(model.drift_log) == 0


def test_addexp_logs_one_drift_event_per_addition():
    config = _tiny_config(algorithm="addexp", k_max=1000)
    model = evaluation._build_algorithm(config, 1)
    for instance in evaluation._build_instances(config, 1):
        model.process(instance)
    assert model.drift_log
    assert all(isinstance(event, DriftEvent) for event in model.drift_log)
    indices = [event.index for event in model.drift_log]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    # below capacity nothing is pruned: one expert per addition plus the first
    assert model.size == 1 + len(model.drift_log)


class _NanRunner:
    size = 1

    drift_log = ()

    def process(self, instance):
        return float("nan") if instance.index == 3 else 0.0


def test_nan_prediction_aborts_with_diagnostic(monkeypatch):
    monkeypatch.setattr(evaluation, "_build_algorithm",
                        lambda config, seed: _NanRunner())
    with pytest.raises(RuntimeError) as exc:
        run_experiment(_tiny_config())
    assert "single_learner" in str(exc.value)
    assert "3" in str(exc.value)


class _InfiniteFourthForecast(RunningMeanRegressor):
    def predict(self, x):
        return math.inf if self._count == 3 else super().predict(x)

    def clone_fresh(self):
        return _InfiniteFourthForecast()


@pytest.mark.parametrize("algorithm", ["sfnr_adwin", "sfnr_period", "addexp"])
def test_non_finite_ensemble_forecast_is_named_by_the_runner(monkeypatch, algorithm):
    # the adwin trigger passes a non-finite error to neither its scale nor
    # its detector, so every ensemble leaves the diagnosis to the runner
    monkeypatch.setattr(evaluation, "_build_prototype", lambda config: _InfiniteFourthForecast())
    with pytest.raises(RuntimeError, match=f"^{algorithm} produced a non-finite prediction "
                                           r"at instance 3 \(seed 1\)$"):
        run_experiment(_tiny_config(algorithm=algorithm))


def test_missing_dataset_fails_before_processing():
    config = ExperimentConfig(algorithm="single_learner",
                              data_path="/nonexistent/file.csv", target=0)
    with pytest.raises(FileNotFoundError):
        run_experiment(config)


def test_single_learner_converges_on_file_stream(tmp_path):
    # drift-free realizable linear data: the lone learner should reach
    # a small windowed error by the end
    rng = make_rng(19)
    w = np.array([0.6, -0.2, 0.3, 0.1])
    path = tmp_path / "linear.csv"
    with open(path, "w") as fh:
        fh.write("a,b,c,d,y\n")
        for _ in range(10_000):
            x = rng.random(4)
            fh.write(",".join(repr(float(v)) for v in x) + f",{float(w @ x) + 0.25!r}\n")
    config = ExperimentConfig(algorithm="single_learner", learner="linear",
                              data_path=str(path), target="y",
                              seeds=(1,), report_every=1000, window_size=10_000,
                              record_timing=False)
    rows = run_experiment(config)
    assert rows[-1].instance_index == 10_000
    assert rows[-1].windowed_rmse < 0.1


def test_drift_counts_accumulate_in_rows():
    config = _tiny_config(algorithm="sfnr_period", length=100, period=20,
                          threshold=0.0, report_every=20)
    rows, drifts = run_experiment_detailed(config)
    assert [r.cumulative_drifts for r in rows] == [1, 2, 3, 4, 5]
    assert [d[2] for d in drifts] == [19, 39, 59, 79, 99]
    assert rows[-1].network_size == 6


# ---------------------------------------------------------------------------
# CSV emission.
# ---------------------------------------------------------------------------

def test_emit_header_and_round_trip(tmp_path):
    rows = run_experiment(_tiny_config(seeds=(2, 1)))
    path = tmp_path / "results.csv"
    emit_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == ("algorithm,seed,instance_index,windowed_rmse,"
                       "network_size,cumulative_drifts,elapsed_ns")
    assert parse_result_csv(path) == sorted(
        rows, key=lambda r: (r.seed, r.instance_index))


def test_emit_empty_rows_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == ("algorithm,seed,instance_index,windowed_rmse,"
                                "network_size,cumulative_drifts,elapsed_ns\n")


def test_parse_rejects_foreign_header(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        parse_result_csv(path)


@pytest.mark.parametrize("row, message", [
    pytest.param(row, message, id=row) for row, message in (
        ("sfnr_adwin,1,500,0.25,1,0", "expected 7 fields"),  # a field short
        ("sfnr_adwin,1,500,0.25,1,0,0,7", "expected 7 fields"),  # a field over
        ("sfnr_adwin,x,500,0.25,1,0,0", r"invalid literal for int\(\) with base 10: 'x'"),
    )
])
def test_parse_rejects_a_malformed_row(tmp_path, row, message):
    path = tmp_path / "ragged.csv"
    path.write_text(evaluation.RESULT_HEADER + "\nsfnr_adwin,1,250,0.5,1,0,0\n" + row + "\n")
    with pytest.raises(ValueError, match=r"ragged\.csv: line 3: " + message):
        parse_result_csv(path)


def test_rerun_is_byte_identical(tmp_path):
    config = _tiny_config(algorithm="sfnr_period", period=50, threshold=0.0,
                          length=400, seeds=(1, 2))
    paths = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        run_experiment_detailed(
            ExperimentConfig(**{**config.__dict__, "out": str(path)}))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parallel_equals_serial(tmp_path):
    config = _tiny_config(algorithm="sfnr_adwin", length=400, seeds=(1, 2, 3))
    serial = run_experiment(config, max_workers=1)
    parallel = run_experiment(config, max_workers=3)
    assert serial == parallel
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_csv(serial, a)
    emit_csv(parallel, b)
    assert a.read_bytes() == b.read_bytes()


def test_run_parses_a_data_file_once_for_every_seed_and_worker(monkeypatch, tmp_path):
    path = tmp_path / "quotes.csv"
    rng = make_rng(21)
    day = datetime.date(2014, 1, 2)
    price = 20.0
    with open(path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Volume,Adj Close\n")
        for t in range(600):
            price *= 1.0 + (0.002 if t < 300 else 0.1) * (rng.random() - 0.5)
            fh.write(f"{day + datetime.timedelta(days=t)},{price!r},{price + 0.5!r},"
                     f"{price - 0.5!r},{price!r},{1000 + t},{price!r}\n")
    calls = []
    parse = evaluation.parse_yahoo_csv
    monkeypatch.setattr(evaluation, "parse_yahoo_csv",
                        lambda fh: calls.append(parse(fh)) or calls[-1])
    # read whole, and in blocks of 128 lines, so the pool's workers are sent five feature blocks
    for block, blocks in ((streams._BLOCK, 1), (128, 5)):
        monkeypatch.setattr(streams, "_BLOCK", block)
        outputs = []
        for workers in (1, 3):
            out, log = tmp_path / f"rows{workers}.csv", tmp_path / f"drifts{workers}.csv"
            config = ExperimentConfig(
                algorithm="sfnr_adwin", data_path=str(path),
                learner="ema", seeds=(1, 2, 3), report_every=100, window_size=100,
                adwin_check_interval=1, error_scale=1.0, record_timing=False,
                out=str(out), drift_log_out=str(log))
            calls.clear()
            run_experiment_detailed(config, max_workers=workers)
            assert len(calls) == 1 and len(calls[0].blocks) == blocks
            outputs.append((out.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") > 1


def test_elapsed_is_monotone_within_a_seed():
    rows = run_experiment(_tiny_config(length=500, record_timing=True))
    elapsed = [r.elapsed_ns for r in rows]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert elapsed[-1] > 0


def test_drift_log_emission(tmp_path):
    config = _tiny_config(algorithm="sfnr_period", length=100, period=20,
                          threshold=0.0, report_every=50,
                          drift_log_out=str(tmp_path / "drifts.csv"))
    run_experiment_detailed(config)
    lines = (tmp_path / "drifts.csv").read_text().splitlines()
    assert lines[0] == "algorithm,seed,instance_index"
    assert lines[1] == "sfnr_period,1,19"
    assert len(lines) == 6


def test_summarize_mean_and_stdev():
    rows = [
        ResultRow("a", 1, 100, 0.5, 1, 0, 0),
        ResultRow("a", 2, 100, 0.7, 1, 0, 0),
        ResultRow("a", 3, 100, 0.6, 1, 0, 0),
        ResultRow("b", 1, 100, 0.9, 1, 0, 0),
    ]
    summary = summarize(rows)
    assert summary[0][0:2] == ("a", 100)
    assert summary[0][2] == pytest.approx(0.6)
    assert summary[0][3] == pytest.approx(statistics.stdev([0.5, 0.7, 0.6]))
    assert summary[0][4] == 3
    assert summary[1] == ("b", 100, 0.9, 0.0, 1)


# ---------------------------------------------------------------------------
# Presets.
# ---------------------------------------------------------------------------

def test_preset_catalog():
    assert set(PRESETS) == {"rhpr-1", "rhpr-2", "rhpr-3", "rhpr-4"}
    full = PRESETS["rhpr-1"].full
    assert (full.length, full.drift_times, full.drift_widths) == (
        1_000_000, (500_000,), (1,))
    assert full.window_size == 100_000
    desk = PRESETS["rhpr-1"].desk
    assert (desk.length, desk.drift_times, desk.window_size) == (
        100_000, (50_000,), 10_000)
    rhpr3 = PRESETS["rhpr-3"].full
    assert rhpr3.drift_times == (333_333, 750_000)
    assert PRESETS["rhpr-2"].full.drift_widths == (1000,)
    # every preset is synthetic: a real file is read through the data key
    assert all(p.full.data_path is None for p in PRESETS.values())


def test_preset_description_pins_full_scale():
    text = describe_presets()
    assert "rhpr-1" in text
    assert "t0=500000 W=1" in text
    assert "t0=333333,750000" in text
    assert len(text.splitlines()) == len(PRESETS)


def test_default_error_scale_is_half_target_range():
    synthetic = _tiny_config(dim=9)
    assert evaluation._resolved_error_scale(synthetic) == pytest.approx(1.5)
    file_based = ExperimentConfig(data_path="x.csv", target=0)
    assert evaluation._resolved_error_scale(file_based) is None
    pinned = _tiny_config(error_scale=2.5)
    assert evaluation._resolved_error_scale(pinned) == 2.5
