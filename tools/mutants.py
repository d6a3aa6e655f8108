"""Rerun the differential harness against each seeded fault of its table.

    python3 tools/mutants.py

For every entry of ``MUTATIONS`` in ``tests/test_twins.py`` (src module,
old text, new text, fast path) this copies ``src/driftnet`` to a
temporary directory, replaces the old text with the new one in the
copy, and runs the harness, which is that one file, against the copy,
stopping at the first failure. It prints one line per mutation, killed
when the harness fails and survived when it passes, then a count per
fast path. It exits 1 if any mutation survived or the harness could not run,
else 0. It takes no flags.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "driftnet"
HARNESS = ROOT / "tests" / "test_twins.py"


def _mutations() -> list[tuple[str, str, str, str]]:
    sys.path[:0] = [str(HARNESS.parent), str(SRC.parent)]
    from test_twins import MUTATIONS

    return MUTATIONS


def _verdict(module: str, old: str, new: str) -> str:
    """Run the harness against a copy of the package with ``old`` replaced by ``new`` in ``module``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "driftnet"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / f"{module}.py"
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": tmp}
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              str(HARNESS)], cwd=ROOT, env=env, capture_output=True)
    return {0: "survived", 1: "killed"}.get(run.returncode, f"error (pytest exit {run.returncode})")


def main() -> int:
    killed, total = Counter(), Counter()
    failed = False
    for module, old, new, fast_path in _mutations():
        verdict = _verdict(module, old, new)
        total[fast_path] += 1
        killed[fast_path] += verdict == "killed"
        failed |= verdict != "killed"
        print(f"{verdict:<9} {fast_path:<9} {module}.py: {old.strip()!r} -> {new.strip()!r}", flush=True)
    for fast_path in total:
        print(f"{fast_path:<9} {killed[fast_path]} of {total[fast_path]} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
