"""The benchmark's stored reference outputs, checked on every test run.

``bench/reference.json`` holds each workload's seed-1 RMSE (to 1e-9
relative) and exact evolution indices. This runs one untraced seed-1
pass of each workload through the benchmark's own ``run_passes`` and
``Checker``, so a change that moves those outputs fails here and not
only when the benchmark is run by hand.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_matches_the_bench_reference(name, tmp_path):
    workload = WORKLOADS[name]
    checker = run.Checker(REFERENCES[name]["1"])
    source = workload.prepare(1, tmp_path)
    run.run_passes(workload, 1, source, 1, checker, "pass")
    assert checker.failures == []
    assert checker.reference_matched
    assert checker.failed == 0
    assert checker.attempted == workload.length
