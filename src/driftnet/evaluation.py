"""Prequential evaluation harness and experiment orchestration.

Every instance is tested (the forecast is scored against the target)
and then used for training, exactly once. Reported error is the RMSE
over a sliding window of recent squared errors, so recovery after a
drift is visible as the window drains old errors.

An experiment is a declarative ``ExperimentConfig``: a stream (either a
synthetic drifting-hyperplane description or a dataset file), one
algorithm with its parameters, and a list of seeds. Each seed produces
an independent run; runs are deterministic given (config, seed), and
the emitted CSV is byte-stable when timing capture is disabled. Seeds
can be executed in parallel processes without changing any output byte:
result assembly is ordered by seed, never by completion.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
import time
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .ensembles import AddExpRegressor, ScaleFreeRegressor, SfnrConfig
from .learners import EmaForecaster, OnlineRegressor, RunningMeanRegressor, SgdLinearRegressor
from .network import SquaredErrorWindow
from .prng import derive_seed
from .streams import (
    DriftStreamSpec,
    Instance,
    StreamFormatError,
    _target_bound,
    check_stream_shape,
    generate_drift_stream,
    make_hyperplane_concept,
    parse_regression_csv,
    parse_yahoo_csv,
)

DRIFT_LOG_HEADER = "algorithm,seed,instance_index"

ALGORITHMS = ("sfnr_adwin", "sfnr_period", "addexp", "single_learner")
LEARNERS = ("linear", "ema", "mean")


class PrequentialWindow(SquaredErrorWindow):
    """Sliding window of squared prediction errors reporting windowed RMSE."""

    def __init__(self, window_size: int = 10_000):
        if window_size < 1:
            raise ValueError("window_size must be positive")
        super().__init__(window_size)

    def update(self, prediction: float, truth: float) -> float:
        """Push one squared error; return the current windowed RMSE."""
        self.record_error(float(prediction) - float(truth))
        return self.rmse()


@dataclass(frozen=True)
class ResultRow:
    """One reporting checkpoint of one seeded run."""

    algorithm: str
    seed: int
    instance_index: int
    windowed_rmse: float
    network_size: int
    cumulative_drifts: int
    elapsed_ns: int


# results-CSV columns, in field order, each with the type that parses it;
# str() of every field value round-trips through that type
_RESULT_TYPES = get_type_hints(ResultRow)
RESULT_HEADER = ",".join(_RESULT_TYPES)


def _default(owner, name: str):
    """The default of argument ``name`` to ``owner``'s constructor."""
    return inspect.signature(owner).parameters[name].default


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    A synthetic stream is described by ``length``, ``dim``,
    ``drift_times`` and ``drift_widths`` (concepts are derived from the
    run seed); setting ``data_path`` switches to file ingestion instead:
    a file with a ``target`` column is a generic numeric CSV, and one
    without is read as Yahoo quotes, whose target is Close. ``k_max``
    caps the pool of either ensemble, SFNR or AddExp.
    ``error_scale`` of None resolves to the known target half-range for
    synthetic streams and to a frozen running max for file streams.
    ``record_timing`` controls whether wall-clock nanoseconds are
    captured into rows; disable it when byte-identical output matters
    more than timing.
    """

    algorithm: str = "sfnr_adwin"
    length: int = 100_000
    dim: int = 10
    drift_times: tuple[int, ...] = ()
    drift_widths: tuple[int, ...] = ()
    data_path: str | None = None
    target: str | int | None = None
    learner: str = "linear"
    learning_rate: float = _default(SgdLinearRegressor, "learning_rate")
    ema_window: int = _default(EmaForecaster, "window")
    metric: str = SfnrConfig.metric
    k_max: int = SfnrConfig.k_max
    m_a: int = SfnrConfig.m_a
    period: int = SfnrConfig.period
    threshold: float = SfnrConfig.threshold
    delta: float = SfnrConfig.delta
    buffer_size: int = SfnrConfig.buffer_size
    adwin_check_interval: int = SfnrConfig.adwin_check_interval
    adwin_capacity: int = SfnrConfig.adwin_capacity
    error_scale: float | None = None
    beta: float = _default(AddExpRegressor, "beta")
    gamma: float = _default(AddExpRegressor, "gamma")
    tau: float = _default(AddExpRegressor, "tau")
    seeds: tuple[int, ...] = (1,)
    report_every: int = 1000
    window_size: int = 10_000
    out: str | None = None
    drift_log_out: str | None = None
    record_timing: bool = True

    def validate(self) -> None:
        """Raise ValueError for any setting a run would reject.

        Settings that belong to a component (the ensemble, detector,
        graph, learner or error window) are checked by their owners:
        first by building what one seed of this run builds, then every
        other algorithm and learner with the same settings, so a value
        the run does not read is still checked.
        """
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}; choose from {LEARNERS}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if bad := [seed for seed in self.seeds if not 0 <= seed < 2 ** 64]:
            raise ValueError(f"seeds must lie in [0, 2**64), got {bad}")
        if self.report_every < 1:
            raise ValueError("report_every must be positive")
        if self.data_path is None:
            if self.target is not None:
                raise ValueError(f"target {self.target!r} is read only from a data file, "
                                 "and this run reads none")
            check_stream_shape(self.length, self.dim, self.drift_times, self.drift_widths)
            if self.length == 0:
                raise ValueError("length = 0 makes an empty stream")
        else:
            _reject_stream_shape(self, lambda key: getattr(self, key) != getattr(ExperimentConfig, key))
        for algorithm in dict.fromkeys((self.algorithm, *ALGORITHMS)):
            _build_algorithm(replace(self, algorithm=algorithm), self.seeds[0])
        for learner in LEARNERS:
            if learner != self.learner:
                _build_prototype(replace(self, learner=learner))
        PrequentialWindow(self.window_size)


def _reject_stream_shape(config: ExperimentConfig, is_set) -> None:
    """Raise ValueError if ``is_set`` holds for a synthetic-stream key of a file run."""
    if shape := [key for key in ("length", "dim", "drift_times", "drift_widths") if is_set(key)]:
        raise ValueError(f"{', '.join(shape)} shape a synthetic stream only, "
                         f"and this run reads the data file {config.data_path!r}")


def _resolved_error_scale(config: ExperimentConfig) -> float | None:
    if config.error_scale is None and config.data_path is None:
        return _target_bound(config.dim)
    return config.error_scale


def _build_instances(config: ExperimentConfig, seed: int):
    """The run's stream: a data file's instances, the same for every seed, or a generator.

    A data file with no data rows is a StreamFormatError that names it.
    """
    if config.data_path is not None:
        with open(config.data_path, "r", encoding="utf-8") as fh:
            target = config.target
            instances = parse_yahoo_csv(fh) if target is None else parse_regression_csv(fh, target)
        if not instances:
            raise StreamFormatError(f"data file {config.data_path!r} holds no data rows")
        return instances
    concepts = tuple(
        make_hyperplane_concept(derive_seed(seed, 1 + j), config.dim)
        for j in range(len(config.drift_times) + 1)
    )
    spec = DriftStreamSpec(
        concepts=concepts,
        drift_times=tuple(config.drift_times),
        drift_widths=tuple(config.drift_widths),
        length=config.length,
        seed=seed,
    )
    return generate_drift_stream(spec)


def _build_prototype(config: ExperimentConfig) -> OnlineRegressor:
    if config.learner == "linear":
        return SgdLinearRegressor(config.learning_rate)
    if config.learner == "ema":
        return EmaForecaster(config.ema_window)
    return RunningMeanRegressor()


def _sfnr_config(config: ExperimentConfig) -> SfnrConfig:
    """The network ensemble's parameters for an ``sfnr_*`` run."""
    shared = {f.name: getattr(config, f.name) for f in fields(SfnrConfig) if hasattr(config, f.name)}
    return SfnrConfig(**{**shared, "mode": config.algorithm.removeprefix("sfnr_"),
                         "error_scale": _resolved_error_scale(config)})


def _build_algorithm(config: ExperimentConfig, seed: int):
    """The model for one seed: anything with ``process``, ``size`` and ``drift_log``."""
    prototype = _build_prototype(config)
    if config.algorithm.startswith("sfnr_"):
        return ScaleFreeRegressor(prototype, _sfnr_config(config), seed=derive_seed(seed, 0))
    if config.algorithm == "addexp":
        return AddExpRegressor(
            prototype, beta=config.beta, gamma=config.gamma, tau=config.tau,
            k_max=config.k_max, error_scale=_resolved_error_scale(config),
        )
    return prototype


def _run_single_seed(config: ExperimentConfig, seed: int, instances=None
                     ) -> tuple[list[ResultRow], list[tuple[str, int, int]]]:
    """Run one seed; ``instances``, when given, is a file stream already parsed."""
    if instances is None:
        instances = _build_instances(config, seed)
    model = _build_algorithm(config, seed)
    window = PrequentialWindow(config.window_size)
    rows: list[ResultRow] = []
    count = 0
    start_ns = time.perf_counter_ns() if config.record_timing else 0

    def checkpoint() -> ResultRow:
        elapsed = time.perf_counter_ns() - start_ns if config.record_timing else 0
        return ResultRow(
            algorithm=config.algorithm,
            seed=seed,
            instance_index=count,
            windowed_rmse=window.rmse(),
            network_size=model.size,
            cumulative_drifts=len(model.drift_log),
            elapsed_ns=elapsed,
        )

    for instance in instances:
        prediction = model.process(instance)
        if not math.isfinite(prediction):
            raise RuntimeError(
                f"{config.algorithm} produced a non-finite prediction at instance "
                f"{instance.index} (seed {seed})"
            )
        window.update(prediction, instance.y)
        count += 1
        if count % config.report_every == 0:
            rows.append(checkpoint())
    if count % config.report_every != 0:
        rows.append(checkpoint())
    drift_entries = [(config.algorithm, seed, event.index) for event in model.drift_log]
    return rows, drift_entries


def run_experiment_detailed(config: ExperimentConfig, max_workers: int = 1
                            ) -> tuple[list[ResultRow], list[tuple[str, int, int]]]:
    """Run every seed; return (result rows, drift-log entries).

    Rows are assembled in ascending seed order regardless of execution
    order, so serial and parallel runs produce identical output.
    """
    config.validate()
    if config.data_path is not None and not os.path.isfile(config.data_path):
        raise FileNotFoundError(f"dataset file not found: {config.data_path}")
    seeds = sorted(set(config.seeds))
    # a file stream does not depend on the seed: parse it once, and ship its blocks and targets to a pool
    parsed = _build_instances(config, seeds[0]) if config.data_path is not None else None
    if max_workers > 1 and len(seeds) > 1:
        # fork starts every worker up front, so never more than there are seeds
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for multiprocessing

        with ProcessPoolExecutor(max_workers=min(max_workers, len(seeds))) as pool:
            futures = {seed: pool.submit(_run_single_seed, config, seed, parsed) for seed in seeds}
            per_seed = {seed: futures[seed].result() for seed in seeds}
    else:
        per_seed = {seed: _run_single_seed(config, seed, parsed) for seed in seeds}
    rows: list[ResultRow] = []
    drift_entries: list[tuple[str, int, int]] = []
    for seed in seeds:
        seed_rows, seed_drifts = per_seed[seed]
        rows.extend(seed_rows)
        drift_entries.extend(seed_drifts)
    if config.out is not None:
        emit_csv(rows, config.out)
    if config.drift_log_out is not None:
        emit_drift_log(drift_entries, config.drift_log_out)
    return rows, drift_entries


def run_experiment(config: ExperimentConfig, max_workers: int = 1) -> list[ResultRow]:
    """Run every seed of the experiment; return all result rows."""
    return run_experiment_detailed(config, max_workers=max_workers)[0]


def _write_lines(target, header: str, lines, what: str) -> None:
    """Write a header and lines to an open stream or to a file path."""
    if hasattr(target, "write"):
        target.write(header + "\n")
        target.writelines(line + "\n" for line in lines)
        return
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write_lines(fh, header, lines, what)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {target}: {exc}") from exc


def emit_csv(rows, path) -> None:
    """Write result rows as CSV, ordered by (seed, instance index).

    ``path`` is a file path or an open text stream.
    """
    ordered = sorted(rows, key=lambda r: (r.seed, r.instance_index, r.algorithm))
    lines = (",".join(str(getattr(r, name)) for name in _RESULT_TYPES) for r in ordered)
    _write_lines(path, RESULT_HEADER, lines, "results")


def parse_result_csv(path) -> list[ResultRow]:
    """Read back a results CSV produced by emit_csv."""
    rows: list[ResultRow] = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != RESULT_HEADER:
            raise ValueError(f"{path}: unexpected results header {header!r}")
        for rec in reader:
            if len(rec) != len(_RESULT_TYPES):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(_RESULT_TYPES)} fields, got {len(rec)}")
            try:
                values = [parse(v) for parse, v in zip(_RESULT_TYPES.values(), rec)]
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
            rows.append(ResultRow(*values))
    return rows


def emit_drift_log(entries, path) -> None:
    """Write drift events as CSV rows (algorithm, seed, instance_index)."""
    ordered = sorted(entries, key=lambda e: (e[1], e[2], e[0]))
    _write_lines(path, DRIFT_LOG_HEADER,
                 (f"{algorithm},{seed},{index}" for algorithm, seed, index in ordered), "drift log")


def summarize(rows) -> list[tuple[str, int, float, float, int]]:
    """Aggregate rows across seeds.

    Returns (algorithm, instance_index, mean windowed RMSE, sample
    stdev, seed count) sorted by algorithm then index. Single-seed
    groups report a stdev of 0.
    """
    groups: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        groups.setdefault((r.algorithm, r.instance_index), []).append(r.windowed_rmse)
    out = []
    for (algorithm, index), values in sorted(groups.items()):
        n = len(values)
        mean = math.fsum(values) / n
        if n > 1:
            var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            stdev = math.sqrt(var)
        else:
            stdev = 0.0
        out.append((algorithm, index, mean, stdev, n))
    return out


# ---------------------------------------------------------------------------
# Built-in experiment presets.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    desk: ExperimentConfig
    full: ExperimentConfig


def _hyperplane_preset(name: str, desc: str, full_times: tuple[int, ...],
                       widths: tuple[int, ...]) -> Preset:
    full = ExperimentConfig(
        algorithm="sfnr_adwin",
        length=1_000_000,
        dim=10,
        drift_times=full_times,
        drift_widths=widths,
        window_size=100_000,
        report_every=10_000,
        seeds=(1,),
    )
    desk_times = tuple(t // 10 for t in full_times)
    desk = replace(full, length=100_000, drift_times=desk_times,
                   window_size=10_000, report_every=1000)
    return Preset(name, desc, desk=desk, full=full)


PRESETS: dict[str, Preset] = {
    p.name: p for p in (
        _hyperplane_preset("rhpr-1", "rotating hyperplane, one abrupt drift",
                           (500_000,), (1,)),
        _hyperplane_preset("rhpr-2", "rotating hyperplane, one gradual drift",
                           (500_000,), (1000,)),
        _hyperplane_preset("rhpr-3", "rotating hyperplane, two abrupt drifts",
                           (333_333, 750_000), (1, 1)),
        _hyperplane_preset("rhpr-4", "rotating hyperplane, two gradual drifts",
                           (333_333, 750_000), (1000, 1000)),
    )
}


def describe_presets() -> str:
    """Human-readable preset listing for the command line."""
    lines = []
    for preset in PRESETS.values():
        full, desk = preset.full, preset.desk
        t0 = ",".join(str(t) for t in full.drift_times) or "none"
        w = ",".join(str(w) for w in full.drift_widths) or "-"
        lines.append(
            f"{preset.name}: {preset.description}; t0={t0} W={w} "
            f"length={full.length} window={full.window_size} "
            f"(desk scale: t0={','.join(str(t) for t in desk.drift_times)} "
            f"length={desk.length} window={desk.window_size})"
        )
    return "\n".join(lines)
