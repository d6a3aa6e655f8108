"""The benchmark's workloads: seeded inputs and the models that consume them.

Each workload has two halves. ``prepare`` is the benchmark's own input
generator: it turns a seed into what the program is given (a stream
description or a CSV file) and is not timed. ``load`` and
``build_model`` are the program's set-up, timed as ``setup_s``: they go
through driftnet's public API only (``generate_drift_stream``,
``parse_regression_csv``, ``parse_yahoo_csv``, ``ScaleFreeRegressor``).

All randomness comes from ``driftnet.prng.make_rng`` seeded from the
workload seed, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

from driftnet import (
    DriftStreamSpec,
    EmaForecaster,
    ScaleFreeRegressor,
    SfnrConfig,
    SgdLinearRegressor,
    derive_seed,
    generate_drift_stream,
    make_hyperplane_concept,
    make_rng,
    parse_regression_csv,
    parse_yahoo_csv,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``stream`` names the input kind: "hyperplane" (generated in memory
    by driftnet), "regime" (numeric CSV) or "quotes" (Yahoo CSV).
    ``stream_params`` parameterize the benchmark's input generator and
    ``sfnr`` the ensemble; ``learner`` picks the expert prototype.
    ``pass_s`` is the measured time of one pass over the stream, set-up
    included (median on a 2-core x86-64 VM, Python 3.11), which turns a
    run's ``--seconds`` into a number of passes. ``notes`` says why
    the workload is in the benchmark; BENCHMARK.json has the one-line why.
    """

    name: str
    stream: str
    length: int
    pass_s: float
    learner: str
    sfnr: dict
    stream_params: dict = field(default_factory=dict)
    notes: str = ""

    def with_length(self, length: int) -> "Workload":
        """Same workload on a shorter or longer stream (used by self-tests)."""
        params = dict(self.stream_params)
        if "drift_at" in params:
            params["drift_at"] = length // 2
        return replace(self, length=length, stream_params=params)

    # -- benchmark input generation (not timed) ---------------------------

    def prepare(self, seed: int, workdir: Path):
        """Make the program's input for ``seed``; returns what ``load`` takes."""
        if self.stream == "hyperplane":
            return hyperplane_spec(seed, self.length, **self.stream_params)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{self.name}-seed{seed}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if self.stream == "regime":
                write_regime_csv(fh, seed, self.length, **self.stream_params)
            else:
                write_quotes_csv(fh, seed, self.length, **self.stream_params)
        return path

    # -- program set-up (timed) --------------------------------------------

    def load(self, source) -> tuple[list, float, float]:
        """Materialize the instances; returns (instances, generate_s, parse_s)."""
        t0 = time.perf_counter()
        if self.stream == "hyperplane":
            instances = list(generate_drift_stream(source))
            return instances, time.perf_counter() - t0, 0.0
        with open(source, "r", encoding="utf-8") as fh:
            if self.stream == "regime":
                instances = parse_regression_csv(fh, "y")
            else:
                instances = parse_yahoo_csv(fh)
        return instances, 0.0, time.perf_counter() - t0

    def prototype(self):
        if self.learner == "linear":
            return SgdLinearRegressor(learning_rate=0.01)
        return EmaForecaster(window=5)

    def build_model(self, seed: int, prototype=None) -> ScaleFreeRegressor:
        """Fresh ensemble; ``prototype`` overrides the expert prototype."""
        proto = self.prototype() if prototype is None else prototype
        return ScaleFreeRegressor(proto, SfnrConfig(**self.sfnr), seed=derive_seed(seed, 0))


# -- input generators ---------------------------------------------------------

def hyperplane_spec(seed: int, length: int, dim: int, drift_at: int) -> DriftStreamSpec:
    """The desk rotating-hyperplane stream, built as the experiment harness builds it."""
    concepts = tuple(make_hyperplane_concept(derive_seed(seed, 1 + j), dim) for j in range(2))
    return DriftStreamSpec(concepts=concepts, drift_times=(drift_at,), drift_widths=(1,),
                           length=length, seed=seed)


def write_regime_csv(fh, seed: int, length: int, dim: int, regime_len: int,
                     sigmas: tuple[float, ...]) -> None:
    """Signed linear target w.(x - 0.5) + noise, redrawn every ``regime_len`` rows.

    At each regime start w is redrawn uniformly from [-1, 1]^dim and the
    noise standard deviation steps to the next entry of ``sigmas``.
    """
    rng = make_rng(seed)
    fh.write(",".join([f"x{j}" for j in range(dim)] + ["y"]) + "\n")
    w = None
    sigma = sigmas[0]
    for t in range(length):
        if t % regime_len == 0:
            w = rng.uniform(-1.0, 1.0, dim)
            sigma = sigmas[(t // regime_len) % len(sigmas)]
        x = rng.random(dim)
        y = float(w @ (x - 0.5)) + sigma * float(rng.standard_normal())
        fh.write(",".join(f"{v:.6f}" for v in x) + f",{y:.6f}\n")


def write_quotes_csv(fh, seed: int, length: int, regime_len: int,
                     step_sigmas: tuple[float, ...], start_price: float) -> None:
    """Yahoo-format daily quotes whose Close is a random walk.

    The walk's step standard deviation steps through ``step_sigmas``
    every ``regime_len`` days. It reflects at 1.0 so prices stay
    positive. Open is the previous close; High, Low and Volume are
    noise around it.
    """
    rng = make_rng(seed)
    fh.write("Date,Open,High,Low,Close,Volume,Adj Close\n")
    day0 = date(1900, 1, 1)
    close = start_price
    for t in range(length):
        sigma = step_sigmas[(t // regime_len) % len(step_sigmas)]
        opn = close
        close = opn + sigma * float(rng.standard_normal())
        if close < 1.0:
            close = 2.0 - close
        spread = abs(float(rng.standard_normal())) * sigma
        high = max(opn, close) + spread
        low = max(min(opn, close) - spread, 0.5)
        volume = int(rng.integers(100_000, 10_000_000))
        fh.write(f"{(day0 + timedelta(days=t)).isoformat()},{opn:.4f},{high:.4f},"
                 f"{low:.4f},{close:.4f},{volume},{close:.4f}\n")


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="period-hyperplane",
        stream="hyperplane",
        length=36_000,
        pass_s=9.6,
        learner="linear",
        sfnr=dict(mode="period", k_max=10, period=1000, threshold=0.08,
                  error_scale=math.sqrt(10) / 2.0),
        stream_params=dict(dim=10, drift_at=18_000),
        notes=("The A8 acceptance configuration (dim 10, one abrupt drift at mid-stream), "
               "shortened from 100k to 36k instances so five passes fit in a 48-second run."),
    ),
    Workload(
        name="regime-csv",
        stream="regime",
        length=28_000,
        pass_s=9.0,
        learner="linear",
        sfnr=dict(mode="adwin"),
        stream_params=dict(dim=10, regime_len=2000, sigmas=(0.05, 0.5)),
        notes=("Default SfnrConfig (delta 0.1, capacity 5000, check interval 32, "
               "running-max error scale). The only workload where learners, detector and "
               "evolution all carry real shares."),
    ),
    Workload(
        name="quotes-ema",
        stream="quotes",
        length=100_000,
        pass_s=9.6,
        learner="ema",
        sfnr=dict(mode="adwin", error_scale=8.0),
        stream_params=dict(regime_len=5000, step_sigmas=(0.5, 2.0), start_price=100.0),
        notes=("The error scale is fixed at 8.0. With the default running-max scale the "
               "first EMA forecast (0 against a price near 100) freezes the scale near 100 "
               "and the detector never cuts (0 evolutions). That defect is recorded here "
               "and left for a later fix, not hidden."),
    ),
)}
