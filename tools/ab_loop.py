"""In-process A/B of two driftnet source trees on the benchmark's workloads.

    python3 tools/ab_loop.py --base HEAD~1                  # a commit of this repository
    python3 tools/ab_loop.py OTHER/src/driftnet --workload period-hyperplane
    python3 tools/ab_loop.py --base HEAD~1 --chunk 2000 --passes 3 --length 20000

Side A is the given tree: a path to a ``driftnet`` package directory,
or ``--base REV``, extracted from this repository with ``git archive``
into a temporary directory. Side B is this checkout's ``src/driftnet``.
Every import inside the package is relative, so each tree is imported
under its own package name and both run in one process.

``bench/workloads.py`` is read, never changed: its source is executed
once per side with ``driftnet`` bound to that side's tree, so each
workload's input is made, loaded and modelled through that tree's
public API. Each side's input is made and loaded once, untimed.

Each pass first sets up both sides, as a benchmark pass does: each
side drops its instances and collects garbage, then its ``load`` turns
its input into instances, timed. Which side loads first alternates from
pass to pass. Both sides must load the same instances on every pass,
or the tool exits 1. The pass then builds a fresh model and
``PrequentialWindow`` per side and feeds both the stream in alternating
chunks of ``--chunk`` instances; which side takes a chunk first
alternates too. Each instance costs ``process`` plus the window's
``update``, as in ``bench/run.py``. A chunk is read from the loaded
instances inside the clock, so where a parsed file makes each instance
when it is read, that cost is timed, as ``bench/run.py``'s ``loop_ns``
times it. Interleaving puts both sides through the same fast and slow
phases of the machine, which separate runs do not. Forecasts and drift logs must be identical, or
the tool exits 1. It prints each side's path and total loop time, the
speedup (A's time over B's) and the quartiles of the per-chunk ratio,
then the total set-up time of each side and its speedup, and notes when
A and B resolve to the same tree, which measures only the noise of the
machine.

Memory gets the same in-process pairing. ``ru_maxrss`` is one figure
for the whole process, so before the timed passes each side loads its
input once more, untimed, under ``tracemalloc``. The report gives each
side's traced peak during that set-up and the memory still traced after
it, which is what the loaded instances keep. Neither figure can see what
importing a tree costs, since both trees share the process, so each side
is also imported once in a fresh ``python3 -c`` that has imported numpy
first, and the report gives the peak RSS that the import added there.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
import types
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "driftnet"
WORKLOADS_PY = ROOT / "bench" / "workloads.py"


def import_tree(path: Path, name: str) -> types.ModuleType:
    """Import the ``driftnet`` package at ``path`` under the package name ``name``.

    Modules an earlier import left under that name are dropped first.
    """
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


# ru_maxrss would start from the parent's peak, which a child inherits
# across exec on Linux; the VmHWM line of /proc/self/status is its own.
_IMPORT_RSS = """\
import importlib.util, sys
import numpy

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kib()
spec = importlib.util.spec_from_file_location(
    "driftnet", sys.argv[1] + "/__init__.py", submodule_search_locations=[sys.argv[1]])
package = importlib.util.module_from_spec(spec)
sys.modules["driftnet"] = package
spec.loader.exec_module(package)
print(peak_kib() - before)
"""


def import_rss(path: Path) -> float:
    """MB of peak RSS that importing the tree at ``path`` adds to a fresh process holding numpy."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_RSS, str(path)],
                         check=True, capture_output=True, text=True).stdout
    return int(out) / 1024


def bind_workloads(tree: types.ModuleType) -> types.ModuleType:
    """Execute bench/workloads.py with ``driftnet`` bound to ``tree``."""
    module = types.ModuleType(f"{tree.__name__}_workloads")
    module.__file__ = str(WORKLOADS_PY)
    saved = sys.modules.get("driftnet")
    sys.modules["driftnet"] = tree
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        code = compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec")
        exec(code, module.__dict__)
    finally:
        if saved is None:
            del sys.modules["driftnet"]
        else:
            sys.modules["driftnet"] = saved
    return module


def extract_rev(rev: str, into: Path) -> Path:
    """Write ``src/driftnet`` of commit ``rev`` under ``into``; return the package directory."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/driftnet"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "driftnet"


class Side:
    """One tree's workload, and the per-pass model, window and outputs."""

    def __init__(self, tree, workload_name: str, length: int | None, seed: int, workdir: Path):
        self.tree = tree
        workload = bind_workloads(tree).WORKLOADS[workload_name]
        self.workload = workload if length is None else workload.with_length(length)
        self.seed = seed
        self.source = self.workload.prepare(seed, workdir)
        self.load()  # untimed, so that the other side's instances are live at every timed load

    def load(self) -> int:
        """Set up the instances from the input; return the nanoseconds it took."""
        self.instances = None  # the last pass's instances go before the clock starts
        gc.collect()
        t0 = time.perf_counter_ns()
        self.instances = self.workload.load(self.source)[0]
        return time.perf_counter_ns() - t0

    def traced_load(self) -> tuple[int, int]:
        """Load once more under tracemalloc; return the bytes traced at the peak and after it."""
        tracemalloc.start()
        try:
            self.load()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, retained

    def start_pass(self) -> None:
        self.model = self.workload.build_model(self.seed)
        self.window = self.tree.PrequentialWindow()
        self.preds = array("d")

    def run(self, lo: int, hi: int) -> int:
        """Test-then-train instances [lo, hi); return the nanoseconds it took."""
        process, score, preds = self.model.process, self.window.update, self.preds
        t0 = time.perf_counter_ns()
        for inst in self.instances[lo:hi]:  # a parsed file makes the chunk's instances here
            p = process(inst)
            score(p, inst.y)
            preds.append(p)
        return time.perf_counter_ns() - t0

    def outputs(self):
        return self.preds.tobytes(), [tuple(vars(e).values()) for e in self.model.drift_log]


def same_instances(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        p.index == q.index and p.y == q.y and p.x.tobytes() == q.x.tobytes() for p, q in zip(a, b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, help="side A's driftnet package directory")
    parser.add_argument("--base", metavar="REV", help="take side A from this commit instead")
    parser.add_argument("--workload", default="quotes-ema")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--length", type=int, help="shorten or lengthen the workload's stream")
    parser.add_argument("--chunk", type=int, default=2000, help="instances per chunk")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if (args.tree is None) == (args.base is None):
        parser.error("give side A as one of: a package path, or --base REV")
    if args.chunk < 1 or args.passes < 1:
        parser.error("--chunk and --passes must be positive")
    if args.tree is not None and not (args.tree / "__init__.py").is_file():
        parser.error(f"{args.tree} is not a package directory: it has no __init__.py")

    with tempfile.TemporaryDirectory(prefix="ab_loop-") as tmp:
        tmp = Path(tmp)
        try:
            tree_a = extract_rev(args.base, tmp / "base") if args.base else args.tree.resolve()
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.base!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        a = Side(import_tree(tree_a, "driftnet_ab_a"), args.workload, args.length, args.seed, tmp / "a")
        b = Side(import_tree(SRC, "driftnet_ab_b"), args.workload, args.length, args.seed, tmp / "b")
        return compare(a, b, args, tree_a)


def compare(a: Side, b: Side, args, tree_a: Path) -> int:
    """Run ``args.passes`` passes of set-up and loop on both sides; print the report."""
    (peak_a, kept_a), (peak_b, kept_b) = a.traced_load(), b.traced_load()
    import_a, import_b = import_rss(tree_a), import_rss(SRC)
    setup_a = setup_b = total_a = total_b = 0
    ratios = []
    for pass_no in range(args.passes):
        if pass_no % 2 == 0:
            sa, sb = a.load(), b.load()
        else:
            sb, sa = b.load(), a.load()
        setup_a += sa
        setup_b += sb
        if not same_instances(a.instances, b.instances):
            print(f"pass {pass_no + 1}: the two trees load different instances", file=sys.stderr)
            return 1
        n = len(b.instances)
        a.start_pass()
        b.start_pass()
        for k, lo in enumerate(range(0, n, args.chunk)):
            hi = min(lo + args.chunk, n)
            if (pass_no + k) % 2 == 0:
                ta, tb = a.run(lo, hi), b.run(lo, hi)
            else:
                tb, ta = b.run(lo, hi), a.run(lo, hi)
            total_a += ta
            total_b += tb
            ratios.append(ta / tb)
        if a.outputs() != b.outputs():
            print(f"pass {pass_no + 1}: forecasts or drift logs differ", file=sys.stderr)
            return 1

    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    side_a = args.base or str(args.tree)
    print(f"{args.workload} seed {args.seed}: {n} instances x {args.passes} passes, "
          f"chunks of {args.chunk}")
    print(f"  A ({side_a}): {total_a / 1e9:.3f} s   B ({SRC}): {total_b / 1e9:.3f} s   "
          f"speedup {total_a / total_b:.3f}x")
    if tree_a == SRC:
        print("  (A and B are the same tree)")
    print(f"  chunk ratio A/B: median {median:.3f} [{q1:.3f}, {q3:.3f}] over {len(ratios)} chunks")
    print(f"  set-up: A {setup_a / 1e9:.3f} s   B {setup_b / 1e9:.3f} s   "
          f"speedup {setup_a / setup_b:.3f}x over {args.passes} loads each")
    print(f"  traced set-up: A peak {peak_a / 2**20:.3f} MB, retained {kept_a / 2**20:.3f} MB   "
          f"B peak {peak_b / 2**20:.3f} MB, retained {kept_b / 2**20:.3f} MB")
    print(f"  import after numpy, fresh process: A +{import_a:.3f} MB   B +{import_b:.3f} MB of peak RSS")
    print("  forecasts and drift logs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
