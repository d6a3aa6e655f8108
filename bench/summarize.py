"""Summarize benchmark run records into medians and spreads per workload.

Each run of run.py leaves ``.bench_out/records/<workload>-seed<n>-trace<t>.json``.
This script groups them by workload and mode and reports, for every
metric, the median, the quartiles and the spread (interquartile range
over the median) across seeds:

    python3 bench/summarize.py                      # print
    python3 bench/summarize.py --out bench/baseline.json

With ``--out`` it also records the machine (core count, Python and numpy
versions, CPU model) and each workload's parameters and rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = ROOT / ".bench_out" / "records"  # where run.py writes its records


def summarize(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], "per_layer" if r["trace"] else "end_to_end")].append(r)
    out = defaultdict(dict)
    for (workload, mode), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "unit": first["unit"]}
        out[workload][mode] = {
            "seeds": [r["seed"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    return dict(out)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*.json"))]
    summary = summarize(records)
    for workload, modes in summary.items():
        for mode, s in modes.items():
            print(f"{workload} {mode}: seeds {s['seeds']}, failed {s['failed']} of {s['attempted']}")
            for name, m in s["metrics"].items():
                print(f"  {name:28s} median {m['median']:<12.6g} spread {m['spread']:.4f} {m['unit']}")
    if args.out:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        whys = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
        doc = {
            "machine": machine(),
            "workloads": {name: {"listed": name in whys, "why": whys.get(name, w.notes), **asdict(w)}
                          for name, w in WORKLOADS.items()},
            "results": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
