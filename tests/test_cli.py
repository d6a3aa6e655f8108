"""Command-line behavior: subcommands, config files, exit codes."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import pytest

import driftnet.evaluation as evaluation
from driftnet.cli import _UsageError, config_from_mapping, main, parse_config_file
from driftnet.ensembles import AddExpRegressor, SfnrConfig
from driftnet.evaluation import ExperimentConfig, parse_result_csv
from driftnet.learners import EmaForecaster, RunningMeanRegressor, SgdLinearRegressor
from driftnet.streams import parse_regression_csv


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = """\
# tiny synthetic run
algorithm = sfnr_adwin
length = 300
dim = 3
seeds = 1,2
report_every = 100
window_size = 100
timing = false
"""


def test_run_writes_results(tmp_path, capsys):
    out = tmp_path / "results.csv"
    cfg = write_config(tmp_path, BASIC + f"out = {out}\n")
    assert main(["run", cfg]) == 0
    rows = parse_result_csv(out)
    assert [r.instance_index for r in rows] == [100, 200, 300] * 2
    assert {r.seed for r in rows} == {1, 2}
    assert all(r.elapsed_ns == 0 for r in rows)


def test_run_without_out_prints_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC.replace("seeds = 1,2", "seeds = 4"))
    assert main(["run", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("algorithm,seed,instance_index")
    assert len(lines) == 4
    assert lines[1].startswith("sfnr_adwin,4,100,")


def test_run_flag_overrides(tmp_path):
    out = tmp_path / "r.csv"
    cfg = write_config(tmp_path, BASIC + f"out = {out}\n")
    assert main(["run", cfg, "--seed", "9", "--length", "150",
                 "--window-size", "50"]) == 0
    rows = parse_result_csv(out)
    assert {r.seed for r in rows} == {9}
    assert rows[-1].instance_index == 150


def test_run_missing_config_is_usage_error(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_unknown_key_is_usage_error(tmp_path, capsys):
    # format is no key: a data file with a target is a generic csv, one without is Yahoo quotes
    for key, value in (("bogus", "1"), ("format", "yahoo")):
        cfg = write_config(tmp_path, f"algorithm = sfnr_adwin\n{key} = {value}\n")
        assert main(["run", cfg]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_run_bad_value_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "length = ten\n")
    assert main(["run", cfg]) == 1


def test_run_unknown_algorithm_is_usage_error(tmp_path, capsys):
    # ema is no algorithm: the EMA baseline is single_learner with learner = ema
    for name in ("boosting", "ema"):
        cfg = write_config(tmp_path, f"algorithm = {name}\n")
        assert main(["run", cfg]) == 1
        assert f"unknown algorithm {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, flags", [("1,18446744073709551617", []), ("-1", []),
                                          ("1", ["--seed", str(2 ** 64)])],
                         ids=["2**64-past-1", "negative", "flag"])
def test_run_seed_outside_64_bits_is_usage_error(tmp_path, capsys, seeds, flags):
    # make_rng reduces a seed modulo 2**64, so 1 and 2**64 + 1 would run one stream under two labels
    cfg = write_config(tmp_path, BASIC.replace("seeds = 1,2", f"seeds = {seeds}"))
    assert main(["run", cfg, *flags]) == 1
    assert "seeds must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ["drift_times = 50\ndrift_widths = 0\n",
                                   "drift_times = 50,30\ndrift_widths = 1,1\n"],
                         ids=["width-0", "times-decreasing"])
def test_run_bad_stream_shape_is_usage_error(tmp_path, capsys, shape):
    cfg = write_config(tmp_path, BASIC + shape)
    assert main(["run", cfg]) == 1
    assert "synthetic streams need" in capsys.readouterr().err


@pytest.mark.parametrize("settings, flags, message", [
    ("", ["--kmax", "0"], "k_max must be at least 2"),
    ("", ["--kmax", "1"], "k_max must be at least 2"),
    ("period = 0\n", [], "period must be positive"),
    ("buffer_size = 0\n", [], "buffer_size must be positive"),
], ids=["kmax-0", "kmax-1", "period-0", "buffer-0"])
def test_run_bad_sfnr_setting_is_usage_error(tmp_path, capsys, monkeypatch, settings, flags, message):
    def no_seed_runs(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(evaluation, "_run_single_seed", no_seed_runs)
    cfg = write_config(tmp_path, BASIC.replace("sfnr_adwin", "sfnr_period") + settings)
    assert main(["run", cfg, *flags]) == 1
    assert message in capsys.readouterr().err


_FLOAT_KEYS = ("learning_rate", "threshold", "error_scale", "gamma", "tau")


@pytest.mark.parametrize("settings, message", [
    ("metric = katz\n", "unknown metric 'katz'"),
    ("delta = 1.5\n", "delta must lie in (0, 1), got 1.5"),
    ("ma = 0\n", "m_a must be positive"),
    ("capacity = 0\n", "capacity must be positive"),
    ("check_interval = 0\n", "check_interval must be positive"),
    ("error_scale = 0\n", "error_scale must be positive, got 0.0"),
    ("learning_rate = 0\n", "learning_rate must be positive"),
    ("algorithm = addexp\nbeta = 1.5\n", "beta must lie in (0, 1)"),
    ("algorithm = addexp\ngamma = 0\n", "gamma and tau must be positive"),
    ("algorithm = addexp\ntau = -1\n", "gamma and tau must be positive"),
    ("algorithm = addexp\nkmax = 0\n", "k_max must be at least 2, got 0"),
    ("algorithm = addexp\nkmax = 1\n", "k_max must be at least 2, got 1"),
    ("learner = ema\nema_window = 0\n", "EMA window must be positive, got 0"),
    ("algorithm = addexp\nerror_scale = -1\n", "error_scale must be positive, got -1.0"),
    # a non-finite value would run silently: an infinite error_scale, say, makes every normalized error 0
    *((f"{key} = {value}\n", f"{'gamma and tau' if key in ('gamma', 'tau') else key} must be finite")
      for key in _FLOAT_KEYS for value in ("nan", "inf")),
    # settings the run does not read: the run's own model reports first
    ("learner = ema\nperiod = 0\nthreshold = -1\nlearning_rate = -5\nbeta = 7\n",
     "period must be positive"),
    ("algorithm = sfnr_period\ncapacity = 0\ncheck_interval = 0\nema_window = 0\n",
     "capacity must be positive"),
], ids=["metric", "delta", "ma", "capacity", "check_interval", "error_scale", "learning_rate",
        "beta", "gamma", "tau", "kmax-addexp", "kmax-1-addexp", "ema_window",
        "error_scale-addexp", *(f"{key}-{value}" for key in _FLOAT_KEYS for value in ("nan", "inf")),
        "unread-by-adwin-ema", "unread-by-period"])
def test_run_setting_checked_by_its_owner_is_usage_error(tmp_path, capsys, monkeypatch,
                                                         settings, message):
    # each setting is checked once, by the component built from it, before any seed runs
    def no_seed_runs(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(evaluation, "_run_single_seed", no_seed_runs)
    cfg = write_config(tmp_path, BASIC.replace("algorithm = sfnr_adwin\n", "") + settings)
    assert main(["run", cfg]) == 1
    assert message in capsys.readouterr().err


def test_run_setting_checked_by_its_owner_before_the_pool_starts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = write_config(tmp_path, BASIC + "metric = katz\n")
    assert main(["run", cfg, "--workers", "2"]) == 1
    assert "unknown metric 'katz'" in capsys.readouterr().err
    assert _RecordingPool.sizes == []


def test_run_csv_without_target_is_read_as_yahoo_quotes(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    data.write_text("a,b,y\n0.5,0.25,1.0\n")
    cfg = write_config(tmp_path, f"data = {data}\ntiming = false\n")
    assert main(["run", cfg]) == 2
    assert "line 1: expected header Date,Open,High,Low,Close,Volume,Adj Close" in (
        capsys.readouterr().err)


def test_run_non_finite_quote_names_the_line(tmp_path, capsys):
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("Date,Open,High,Low,Close,Volume,Adj Close\n"
                      "2014-01-02,18.0,18.5,17.5,18.2,2000,18.1\n"
                      "2014-01-03,19.0,19.5,18.5,19.2,nan,19.1\n")
    cfg = write_config(tmp_path, f"data = {quotes}\nlearner = ema\ntiming = false\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "line 3: non-finite training input 'nan' in column 'Volume'" in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs each task inline.

    The pool branch imports the pool from ``concurrent.futures`` when it
    starts one, so the tests put this class there.
    """

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_run_pool_is_no_larger_than_the_seed_list(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    cfg = write_config(tmp_path, BASIC)
    assert main(["run", cfg, "--out", str(serial)]) == 0
    assert main(["run", cfg, "--out", str(pooled), "--workers", "500"]) == 0
    assert _RecordingPool.sizes == [2]
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "pool"])
@pytest.mark.parametrize("text, settings", [
    ("Date,Open,High,Low,Close,Volume,Adj Close\n", "learner = ema\n"),
    ("x,y\n", "target = y\n"),
], ids=["quotes", "numeric"])
def test_run_of_a_file_with_no_data_rows_is_runtime_error(tmp_path, capsys, monkeypatch,
                                                          workers, text, settings):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    data = tmp_path / "header-only.csv"
    data.write_text(text)
    cfg = write_config(tmp_path, f"data = {data}\nseeds = 1,2\ntiming = false\n" + settings)
    assert main(["run", cfg, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert f"data file {str(data)!r} holds no data rows" in captured.err
    assert captured.out == ""
    assert _RecordingPool.sizes == []  # the file is parsed, and fails, before any pool starts


def test_importing_the_package_loads_no_process_pool():
    # a single-process run never starts a pool, so importing driftnet must not load one
    src = str(Path(evaluation.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    code = ("import sys, driftnet, driftnet.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_run_of_length_zero_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_seed_runs(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(evaluation, "_run_single_seed", no_seed_runs)
    cfg = write_config(tmp_path, BASIC)
    assert main(["run", cfg, "--length", "0"]) == 1
    assert "length = 0 makes an empty stream" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_run_workers_below_one_is_usage_error(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = write_config(tmp_path, BASIC)
    assert main(["run", cfg, "--workers", workers]) == 1
    assert "--workers must be positive" in capsys.readouterr().err
    assert _RecordingPool.sizes == []


def test_run_missing_dataset_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "data = /no/such/data.csv\ntarget = y\n")
    assert main(["run", cfg]) == 2
    assert "/no/such/data.csv" in capsys.readouterr().err


def test_run_unwritable_output_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC + "out = /no/such/dir/results.csv\n")
    assert main(["run", cfg]) == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC)
    assert main(["run", cfg, "--frobnicate"]) == 1


# ---------------------------------------------------------------------------
# gen subcommand.
# ---------------------------------------------------------------------------

def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["gen", "--length", "200", "--seed", "7", "--dim", "4",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "x0,x1,x2,x3,y"


def test_gen_output_is_pinned(tmp_path):
    # the bytes written before the generator drew in blocks: the same
    # draws, the same targets and the same repr of every float
    path = tmp_path / "s.csv"
    assert main(["gen", "--seed", "1", "--length", "3000", "--dim", "4", "--drift-times", "1500",
                 "--drift-widths", "200", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "95ae28130a9d3fcd150524ea5dffb26535903c9c3610031c96968dd130a32d23")


def test_gen_seed_changes_content(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "--length", "50", "--seed", "1", "--out", str(a)])
    main(["gen", "--length", "50", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_gen_output_round_trips_as_stream(tmp_path):
    path = tmp_path / "s.csv"
    main(["gen", "--length", "100", "--seed", "3", "--dim", "5",
          "--drift-times", "50", "--drift-widths", "1", "--out", str(path)])
    with open(path) as fh:
        instances = parse_regression_csv(fh, "y")
    assert len(instances) == 100
    assert instances[0].x.shape == (5,)
    assert all(0.0 <= inst.y <= 5.0 ** 0.5 for inst in instances)


def test_gen_to_stdout(capsys):
    assert main(["gen", "--length", "5", "--dim", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x0,x1,y"
    assert len(lines) == 6


@pytest.mark.parametrize("seed", ["18446744073709551617", "-1"], ids=["2**64-past-1", "negative"])
def test_gen_seed_outside_64_bits_is_usage_error(capsys, seed):
    # make_rng reduces a seed modulo 2**64: 2**64 + 1 would write the stream of seed 1
    assert main(["gen", "--length", "50", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert "seeds must lie in [0, 2**64)" in captured.err
    assert captured.out == ""


def test_gen_mismatched_drift_args_rejected(capsys):
    assert main(["gen", "--length", "10", "--drift-times", "5"]) == 1


def test_gen_of_length_zero_is_usage_error(capsys):
    assert main(["gen", "--length", "0"]) == 1
    captured = capsys.readouterr()
    assert "length = 0 makes an empty stream" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--dim", "1"],
    ["--length", "-3"],
    ["--length", "10", "--drift-times", "5", "--drift-widths", "0"],
    ["--length", "10", "--drift-times", "5,3", "--drift-widths", "1,1"],
], ids=["dim-1", "length--3", "width-0", "times-decreasing"])
def test_gen_bad_stream_shape_is_usage_error(capsys, flags):
    assert main(["gen", *flags]) == 1
    assert "synthetic streams need" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list-presets subcommand.
# ---------------------------------------------------------------------------

def test_list_presets_pins_table_parameters(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "rhpr-1" in out
    assert "t0=500000 W=1" in out
    assert "rhpr-4" in out
    # every preset is a synthetic stream; a real file is read through the data key
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "rhpr-1", "rhpr-2", "rhpr-3", "rhpr-4"]


# ---------------------------------------------------------------------------
# Config file parsing.
# ---------------------------------------------------------------------------

def test_parse_config_comments_and_blanks(tmp_path):
    path = write_config(tmp_path, """
# leading comment

length = 500   # trailing comment
metric = degree
""")
    assert parse_config_file(path) == {"length": "500", "metric": "degree"}


def test_parse_config_duplicate_key(tmp_path):
    path = write_config(tmp_path, "length = 1\nlength = 2\n")
    with pytest.raises(_UsageError):
        parse_config_file(path)


def test_parse_config_missing_equals(tmp_path):
    path = write_config(tmp_path, "length 500\n")
    with pytest.raises(_UsageError) as exc:
        parse_config_file(path)
    assert ":1:" in str(exc.value)


def test_config_mapping_preset_expansion():
    config = config_from_mapping({"preset": "rhpr-1"})
    assert config.length == 100_000  # desk scale by default
    assert config.drift_times == (50_000,)
    full = config_from_mapping({"preset": "rhpr-1"}, full_scale=True)
    assert full.length == 1_000_000
    assert full.drift_times == (500_000,)
    # explicit keys override the preset
    overridden = config_from_mapping({"preset": "rhpr-1", "length": "5000"})
    assert overridden.length == 5000


def test_config_mapping_value_types():
    config = config_from_mapping({
        "drift_times": "10,20",
        "drift_widths": "1,2",
        "seeds": "3",
        "error_scale": "auto",
        "timing": "false",
    })
    assert config.drift_times == (10, 20)
    assert config.drift_widths == (1, 2)
    assert config.seeds == (3,)
    assert config.error_scale is None
    assert config.record_timing is False
    assert config_from_mapping({"data": "wine.csv", "target": "quality"}).target == "quality"
    assert config_from_mapping({"data": "wine.csv", "target": "-1"}).target == -1


@pytest.mark.parametrize("mapping", [{"target": "3"}], ids=["synthetic"])
def test_config_mapping_rejects_a_target_the_run_ignores(mapping):
    with pytest.raises(_UsageError, match="target"):
        config_from_mapping(mapping)


@pytest.mark.parametrize("line", ["length = 5", "dim = 3", "drift_times = 3", "drift_widths = 2",
                                  "--length",
                                  # a written default is rejected too
                                  "length = 100000", "dim = 10", "drift_times = none",
                                  "--length 100000"])
def test_run_rejects_a_stream_shape_a_file_run_ignores(tmp_path, capsys, line):
    data = tmp_path / "plain.csv"
    data.write_text("a,y\n0.5,1.0\n")
    text = f"data = {data}\ntarget = y\ntiming = false\n"
    if line.startswith("--length"):
        value = line.removeprefix("--length").strip() or "5"
        assert main(["run", write_config(tmp_path, text), "--length", value]) == 1
        key = "length"
    else:
        assert main(["run", write_config(tmp_path, text + line + "\n")]) == 1
        key = line.split(" = ")[0]
    assert f"{key} shape a synthetic stream only" in capsys.readouterr().err


def test_config_mapping_unknown_preset():
    with pytest.raises(_UsageError):
        config_from_mapping({"preset": "rhpr-9"})


# every accepted config key, each with a non-default value, and the field
# it must land in
EVERY_KEY = {
    "algorithm": ("sfnr_period", "algorithm", "sfnr_period"),
    "length": ("1234", "length", 1234),
    "dim": ("5", "dim", 5),
    "drift_times": ("10,20", "drift_times", (10, 20)),
    "drift_widths": ("1,3", "drift_widths", (1, 3)),
    "data": ("quotes.csv", "data_path", "quotes.csv"),
    "target": ("3", "target", 3),
    "learner": ("ema", "learner", "ema"),
    "learning_rate": ("0.25", "learning_rate", 0.25),
    "ema_window": ("7", "ema_window", 7),
    "metric": ("pagerank", "metric", "pagerank"),
    "kmax": ("4", "k_max", 4),
    "ma": ("3", "m_a", 3),
    "period": ("50", "period", 50),
    "threshold": ("0.2", "threshold", 0.2),
    "delta": ("0.3", "delta", 0.3),
    "buffer_size": ("40", "buffer_size", 40),
    "check_interval": ("8", "adwin_check_interval", 8),
    "capacity": ("900", "adwin_capacity", 900),
    "error_scale": ("2.5", "error_scale", 2.5),
    "beta": ("0.25", "beta", 0.25),
    "gamma": ("0.2", "gamma", 0.2),
    "tau": ("0.1", "tau", 0.1),
    "seeds": ("3,4", "seeds", (3, 4)),
    "report_every": ("10", "report_every", 10),
    "window_size": ("20", "window_size", 20),
    "out": ("r.csv", "out", "r.csv"),
    "drift_log": ("d.csv", "drift_log_out", "d.csv"),
    "timing": ("false", "record_timing", False),
}


def test_config_mapping_accepts_every_key():
    # a run reads a synthetic stream or a data file, never both: the
    # stream-shape keys go into one config, the file keys into the other,
    # and every other key into both
    file_keys, shape_keys = ("data", "target"), ("length", "dim", "drift_times", "drift_widths")
    default = ExperimentConfig()
    assert len(EVERY_KEY) == 29
    assert sorted(field for _, field, _ in EVERY_KEY.values()) == sorted(
        f.name for f in fields(ExperimentConfig))
    for left_out in (file_keys, shape_keys):
        config = config_from_mapping({key: text for key, (text, _, _) in EVERY_KEY.items()
                                      if key not in left_out})
        for key, (_, field, expected) in EVERY_KEY.items():
            assert expected != getattr(default, field), key
            assert getattr(config, field) == (getattr(default, field) if key in left_out
                                              else expected), key


def test_every_sfnr_setting_is_reachable_from_a_config_file():
    # mode comes from the algorithm name; every other SfnrConfig field is
    # copied from the same-named ExperimentConfig field
    experiment = {f.name for f in fields(ExperimentConfig)}
    unreachable = [f.name for f in fields(SfnrConfig) if f.name not in experiment]
    assert unreachable == ["mode"]
    # error_scale of None means "resolve per stream" in an experiment but
    # "running max" in SfnrConfig; every other shared default agrees
    shared = [f.name for f in fields(SfnrConfig) if f.name not in ("mode", "error_scale")]
    assert len(shared) == 9
    for name in shared:
        assert getattr(ExperimentConfig(), name) == getattr(SfnrConfig(), name), name
    # the learner and AddExp settings default to what their owners build with
    addexp = AddExpRegressor(RunningMeanRegressor())
    owned = {"learning_rate": SgdLinearRegressor().learning_rate, "ema_window": EmaForecaster().window,
             "beta": addexp.beta, "gamma": addexp.gamma, "tau": addexp.tau}
    for name, default in owned.items():
        assert getattr(ExperimentConfig(), name) == default, name


@pytest.mark.parametrize("field_name", ["k_max", "data_path", "record_timing"])
def test_config_mapping_rejects_aliased_field_names(field_name):
    with pytest.raises(_UsageError, match="unknown config key"):
        config_from_mapping({field_name: "1"})
