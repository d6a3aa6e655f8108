"""driftnet benchmark: prequential test-then-train loops, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload quotes-ema --seed 1 --seconds 48 --trace 0

One process, one thread, closed loop: each instance goes through
``ScaleFreeRegressor.process`` and then ``PrequentialWindow.update``, and
the next instance is sent only after both return. A run makes whole
passes over the stream; before each pass it sets the workload up afresh
(stream generation or file parsing, plus model construction), so every
pass has its own stream and model and set-up is sampled across the run.
``--seconds`` fixes the amount of work, not a deadline: the run makes
``--seconds`` divided by the workload's measured pass time passes (at
least 3), so every run of a workload does the same work however fast the
machine is at that moment.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then the remaining passes traced, with spans around every
call into driftnet's layers (see spans.py), and reports the per-layer
metrics as means per traced pass. Span logs go to ``.bench_out/spans/``.

Every pass is checked: each prediction is finite, the network never
exceeds k_max, the benchmark's own count of evolution triggers equals the
length of ``drift_log`` and its observed evolution indices equal the
logged ones, every pass repeats the first byte for byte (so traced passes
repeat the untraced one), and for seeds stored in ``reference.json`` the
whole-pass RMSE matches within 1e-9 relative and the evolution indices
match exactly. A failed instance, or every instance of a failed pass,
counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import struct
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
P50_WINDOW = 1000  # instances per window of latency_p50_us
REFERENCE_RTOL = 1e-9
# Candidate tail percentiles; the reported one is the highest with at
# least TAIL_MIN_BEYOND samples of a pass above it.
TAIL_LADDER = ("90", "99", "99.5", "99.9", "99.95", "99.99", "99.995", "99.999")
TAIL_MIN_BEYOND = 10


def nearest_rank(q: str, n: int) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile whose nearest rank leaves TAIL_MIN_BEYOND of ``n`` samples above it."""
    best = None
    for q in TAIL_LADDER:
        if n - nearest_rank(q, n) >= TAIL_MIN_BEYOND:
            best = q
    return best


def instances_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.x.tobytes())
        h.update(struct.pack("<dq", inst.y, inst.index))
    return h.hexdigest()


def prequential_rmse(preds, ys) -> float:
    return math.sqrt(math.fsum((p - y) ** 2 for p, y in zip(preds, ys)) / len(ys))


def expected_triggers(model, preds, ys) -> int:
    """The benchmark's own count of evolution triggers in one pass.

    Period mode: the RMSE of each full block of ``period`` instances,
    summed in stream order as the trigger sums it, is compared with the
    threshold. Adwin mode: the detector's count of cuts.
    """
    cfg = model.config
    if cfg.mode == "adwin":
        return model.detector.n_detections
    fired = 0
    for lo in range(0, len(ys) - cfg.period + 1, cfg.period):
        sq = 0.0
        for p, y in zip(preds[lo:lo + cfg.period], ys[lo:lo + cfg.period]):
            d = p - y
            sq += d * d
        if math.sqrt(sq / cfg.period) > cfg.threshold:
            fired += 1
    return fired


class PassResult:
    """Outputs and timings of one pass over the stream, and of the set-up before it."""

    def __init__(self, preds, lat_ns, loop_ns, bad, errors, evolved, size_sum, drift_log):
        self.preds = preds  # array('d'); dropped once checked, except for the first pass
        self.lat_ns = lat_ns  # array('q')
        self.loop_ns = loop_ns
        self.bad = bad  # instances that raised, were non-finite, or left size > k_max
        self.errors = errors
        self.evolved = evolved  # positions at which drift_log grew
        self.size_sum = size_sum
        self.drift_log = drift_log
        self.setup_s = self.generate_s = self.parse_s = self.peak_rss_mb = 0.0


def run_pass(model, instances, window, tracer=None) -> PassResult:
    """Closed-loop test-then-train over ``instances``, timing process plus scoring."""
    process, score = model.process, window.update
    if tracer is not None:
        from spans import SCORE
        process, score = tracer.wrap_process(process), tracer.wrap(score, SCORE)
    clock = time.perf_counter_ns
    isfinite = math.isfinite
    k_max = model.config.k_max
    drift_log = model.drift_log
    logged = len(drift_log)
    preds, lat = array("d"), array("q")
    evolved, errors = [], []
    bad = size_sum = 0
    begin = clock()
    for pos, inst in enumerate(instances):
        t0 = clock()
        try:
            p = process(inst)
            score(p, inst.y)
        except Exception:  # a failing instance is counted and the run goes on
            p = math.nan
            if not errors:
                errors.append(traceback.format_exc())
        t1 = clock()
        lat.append(t1 - t0)
        preds.append(p)
        size = model.size
        size_sum += size
        if size > k_max or not isfinite(p):
            bad += 1
        if len(drift_log) != logged:
            logged = len(drift_log)
            evolved.append(pos)
    return PassResult(preds, lat, clock() - begin, bad, errors, evolved, size_sum, list(drift_log))


class Checker:
    """Checks every pass and keeps the attempted and failed counts.

    The first pass fixes the instances (by digest) and the outputs that
    every later pass must repeat byte for byte.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.reference_matched = reference is not None
        self.digest: str | None = None
        self.indices: list[int] = []
        self.ys: list[float] = []
        self.first: PassResult | None = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def problems(self, res: PassResult, model, instances) -> list[str]:
        out = []
        digest = instances_digest(instances)
        if self.digest is None:
            self.digest = digest
            self.indices = [inst.index for inst in instances]
            self.ys = [inst.y for inst in instances]
        elif digest != self.digest:
            out.append("set-up produced other instances than the first set-up")
        logged = [e.index for e in res.drift_log]
        triggers = expected_triggers(model, res.preds, self.ys)
        if triggers != len(logged):
            out.append(f"{triggers} evolution triggers but drift_log has {len(logged)} entries")
        if [self.indices[p] for p in res.evolved] != logged:
            out.append("observed evolution indices differ from drift_log")
        if self.first is not None:
            if res.preds.tobytes() != self.first.preds.tobytes():
                out.append("predictions differ from the first pass")
            if res.drift_log != self.first.drift_log:
                out.append("drift log differs from the first pass")
        if self.reference is not None:
            rmse = prequential_rmse(res.preds, self.ys)
            want = self.reference["prequential_rmse"]
            if not math.isclose(rmse, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                out.append(f"prequential_rmse {rmse!r} differs from the reference {want!r}")
                self.reference_matched = False
            if logged != self.reference["evolution_indices"]:
                out.append("evolution indices differ from the reference")
                self.reference_matched = False
        return out

    def account(self, res: PassResult, model, instances, label: str, extra: list[str] = ()) -> None:
        n = len(res.preds)
        problems = self.problems(res, model, instances) + list(extra)
        if self.first is None:
            self.first = res
        else:
            res.preds = None  # the first pass keeps the predictions every pass is compared with
        self.attempted += n
        self.failed += n if problems else res.bad
        self.failures += [f"{label}: {p}" for p in problems]
        self.failures += [f"{label}: {e}" for e in res.errors]
        if res.bad:
            self.failures.append(f"{label}: {res.bad} instances non-finite, raising or over k_max")


def fresh_model(workload, seed: int, traced: bool):
    """A new model, and the tracer instrumenting it when ``traced``."""
    if not traced:
        return workload.build_model(seed), None
    from spans import TimedLearner, Tracer, instrument
    tracer = Tracer()
    model = workload.build_model(seed, prototype=TimedLearner(workload.prototype(), tracer))
    instrument(model, tracer)
    return model, tracer


def pass_count(workload, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def run_passes(workload, seed: int, source, passes: int, checker: Checker, label: str,
               traced: bool = False, after=None) -> list[PassResult]:
    """``passes`` times: set the workload up (timed), then run one pass and check it.

    Each set-up loads the stream afresh and builds a fresh model, so
    set-up times are sampled across the whole run, as the loop is.
    ``after(res, model, tracer)`` may return extra problems of a pass.
    """
    from driftnet import PrequentialWindow

    results = []
    for i in range(passes):
        instances = model = tracer = None  # free the last pass's stream and model first
        gc.collect()
        t0 = time.perf_counter()
        instances, generate_s, parse_s = workload.load(source)
        model, tracer = fresh_model(workload, seed, traced)
        setup_s = time.perf_counter() - t0
        gc.collect()
        res = run_pass(model, instances, PrequentialWindow(), tracer)
        res.setup_s, res.generate_s, res.parse_s = setup_s, generate_s, parse_s
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = after(res, model, tracer) if after is not None else []
        checker.account(res, model, instances, f"{label} {i + 1}", extra)
        results.append(res)
    return results


def end_to_end(results: list[PassResult], checker: Checker) -> tuple[dict, str]:
    """The end-to-end metrics of an untraced run.

    On a shared virtual machine the CPU can run the same code at two
    speeds about 1.6x apart, switching every second or so, for reasons
    outside the process (the loop's CPU time tracks its wall time). A
    median over a whole run then jumps between the two levels; so
    latency_p50_us is the median of each window of P50_WINDOW instances,
    averaged over the windows of all passes, and the tail is taken over
    each instance's median latency across passes.
    """
    lat = np.array([r.lat_ns for r in results], dtype=np.int64)  # passes x instances
    passes, n = lat.shape
    q = tail_percentile(n)
    rank = nearest_rank(q, n)
    per_instance = np.sort(np.median(lat, axis=0))
    windows = [statistics.median(r.lat_ns[lo:lo + P50_WINDOW])
               for r in results for lo in range(0, n, P50_WINDOW)]
    loop_s = sum(r.loop_ns for r in results) / 1e9
    note = (f"{passes} passes; latency_tail_us is p{q} of the per-instance medians "
            f"({n - rank} of {n} instances beyond it); latency_p50_us averages "
            f"{len(windows)} medians of {P50_WINDOW}-instance windows")
    return {
        "instances_per_s": _m(n * passes / loop_s, "1/s"),
        "latency_p50_us": _m(statistics.fmean(windows) / 1e3, "us"),
        "latency_tail_us": _m(per_instance[rank - 1] / 1e3, "us"),
        "setup_s": _m(statistics.median(r.setup_s for r in results), "s"),
        # read after the first pass, before the harness's per-pass records pile up
        "peak_rss_mb": _m(results[0].peak_rss_mb, "MB"),
        "prequential_rmse": _m(prequential_rmse(checker.first.preds, checker.ys), "target"),
    }, note


def traced(workload, seed: int, source, passes: int, checker: Checker) -> tuple[dict, str]:
    from spans import (ADD, CENTRALITY, CUT, PREDICT, PROCESS, RECORD, REWIRE, SCORE, UPDATE,
                       WARMSTART, LayerTotals)

    base = run_passes(workload, seed, source, 1, checker, "untraced pass")[0]
    n = len(checker.ys)
    totals = LayerTotals()
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    clamped = []
    sizes = []

    def after(res: PassResult, model, tracer) -> list[str]:
        totals.add_pass(tracer, res.evolved)
        tracer.save(spans_dir / f"{workload.name}-seed{seed}-pass{totals.passes}.npz")
        clamped.append(model.detector.n_clamped if model.detector is not None else 0)
        sizes.append(res.size_sum / n)
        if tracer.newcomers != len(res.drift_log):
            return [f"{tracer.newcomers} experts cloned by evolutions "
                    f"but drift_log has {len(res.drift_log)} entries"]
        return []

    results = run_passes(workload, seed, source, passes - 1, checker, "traced pass",
                         traced=True, after=after)
    p = totals.passes
    calls = totals.calls / p
    secs = totals.self_ns / 1e9 / p
    loop_s = sum(r.loop_ns for r in results) / 1e9 / p
    scans = totals.scans / p
    cuts = calls[CUT]

    def pair(prefix, kind, count_name="calls"):
        return {f"{prefix}_{count_name}": _m(calls[kind], "count"), f"{prefix}_s": _m(secs[kind], "s")}

    metrics = {
        "streams.generate_s": _m(statistics.median(r.generate_s for r in results), "s"),
        "streams.parse_s": _m(statistics.median(r.parse_s for r in results), "s"),
        **pair("learners.predict", PREDICT),
        **pair("learners.update", UPDATE),
        **pair("learners.warmstart", WARMSTART, "updates"),
        "adwin.adds": _m(calls[ADD] + cuts, "count"),
        "adwin.add_s": _m(secs[ADD] + secs[CUT], "s"),
        "adwin.scans": _m(scans, "count"),
        "adwin.cuts": _m(cuts, "count"),
        "adwin.cut_s": _m(secs[CUT], "s"),
        "adwin.dropped_values": _m(totals.dropped / p, "count"),
        "adwin.clamped": _m(statistics.fmean(clamped), "count"),
        "adwin.cut_ratio": _m(cuts / scans if scans else 0.0, "ratio"),
        **pair("network.centrality", CENTRALITY),
        **pair("network.record_error", RECORD),
        **pair("network.rewire", REWIRE),
        "ensembles.process_calls": _m(calls[PROCESS], "count"),
        "ensembles.self_s": _m(secs[PROCESS], "s"),
        "ensembles.evolutions": _m(totals.newcomers / p, "count"),
        "ensembles.evolve_s": _m(totals.evolve_ns / 1e9 / p, "s"),
        "ensembles.size_mean": _m(statistics.fmean(sizes), "experts"),
        **pair("evaluation.score", SCORE),
        "trace.loop_s": _m(loop_s, "s"),
        "trace.untraced_loop_s": _m(base.loop_ns / 1e9, "s"),
        "trace.accounted_frac": _m((totals.total_ns[PROCESS] + totals.total_ns[SCORE]) / 1e9 / p / loop_s,
                                   "fraction"),
        "trace.overhead_frac": _m(loop_s / (base.loop_ns / 1e9) - 1.0, "fraction"),
    }
    return metrics, f"1 untraced pass, {p} traced passes; span logs in {spans_dir}"


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_record(name: str, seed: int, trace: int, checker: Checker, metrics: dict, note: str) -> None:
    """Full outputs of the run, for comparing two commits on any seed."""
    first = checker.first
    record = {
        "workload": name, "seed": seed, "trace": trace, "note": note,
        "prequential_rmse": prequential_rmse(first.preds, checker.ys),
        "evolution_indices": [e.index for e in first.drift_log],
        "attempted": checker.attempted, "failed": checker.failed,
        "failures": checker.failures, "metrics": metrics,
    }
    out = OUT_DIR / "records"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "driftnet" / "__init__.py").is_file():
        print(f"driftnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = references.get(workload.name, {}).get(str(args.seed))

    source = workload.prepare(args.seed, OUT_DIR / "inputs" / str(os.getpid()))
    checker = Checker(reference)
    passes = pass_count(workload, args.seconds)
    try:
        if args.trace:
            metrics, note = traced(workload, args.seed, source, passes, checker)
        else:
            results = run_passes(workload, args.seed, source, passes, checker, "pass")
            metrics, note = end_to_end(results, checker)
    finally:
        if isinstance(source, Path):
            source.unlink()
            source.parent.rmdir()
    print(f"{workload.name} seed {args.seed}: {len(checker.ys)} instances per pass, "
          f"input sha256 {checker.digest}")

    logged = [e.index for e in checker.first.drift_log]
    verdict = ("not stored for this seed" if reference is None
               else "matched" if checker.reference_matched else "MISMATCH")
    print(note)
    print(f"prequential_rmse {prequential_rmse(checker.first.preds, checker.ys)!r}; "
          f"{len(logged)} evolutions, indices sha256 "
          f"{hashlib.sha256(repr(logged).encode()).hexdigest()[:16]}; reference: {verdict}")
    write_record(workload.name, args.seed, args.trace, checker, metrics, note)
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"  {'failed_frac':28s} {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} instances)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
