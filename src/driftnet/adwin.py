"""Adaptive-windowing change detection over a stream of bounded reals.

The detector keeps a window of the most recent values and repeatedly
asks: is there a split of the window into an old part and a new part
whose means differ more than sampling noise can explain? While any
split fails that test, the oldest value is dropped. The window that
survives is, with confidence 1 - delta, a window over which the mean
never changed.

The threshold for "more than sampling noise" on a split with n0 old and
n1 new values out of n total is

    eps_cut = sqrt( ln(4 n / delta) / (2 m) ),   m = 1 / (1/n0 + 1/n1)

i.e. a two-sample Hoeffding bound with the confidence shared across the
n candidate splits. Values are expected in [0, 1]; anything outside is
clamped (and counted) rather than rejected, since upstream normalizers
can overshoot transiently.

This is the plain stored-window variant: every value is kept (up to
``capacity``), and the split scan is run every ``check_interval``
additions. Capacity evictions are bookkeeping, not change detections.
The window lives in a preallocated numpy buffer of twice the capacity;
evicting and cutting only advance its head, and the window is copied
back to the front once the tail reaches the end.

A scan finds where that dropping stops without re-testing the window
after each drop. It builds one prefix sum of the window. From the
current start, one vectorized pass over every split finds the failing
split w with the largest gap relative to its threshold; if no split
fails, the scan stops. Every later start at which w still fails would
be dropped as well, so a second pass tests w alone against those
starts, and the scan jumps to the first one that w passes (or to w
itself) and repeats. The cut lands on the first start with no failing
split, exactly where dropping one value at a time would stop, and
costs O(width) per pass instead of O(width) per dropped value.

Both passes read the split sizes, their reciprocals and ln(4 n / delta)
as slices of three tables built once, for counts 0 .. capacity; each
entry equals the correctly rounded division or ``math.log`` it replaces.
"""

from __future__ import annotations

import math

import numpy as np


def epsilon_cut(n0: int, n1: int, n: int, delta: float) -> float:
    """Split threshold for subwindow sizes ``n0`` and ``n1``.

    ``n`` is the full window length (n0 + n1); delta is the overall
    confidence, internally tightened to delta/n to cover all splits.
    """
    if n0 < 1 or n1 < 1:
        raise ValueError(f"both subwindows need at least one value, got {n0}, {n1}")
    if n != n0 + n1:
        raise ValueError(f"n must equal n0 + n1, got {n} != {n0} + {n1}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    m = 1.0 / (1.0 / n0 + 1.0 / n1)
    return math.sqrt(math.log(4.0 * n / delta) / (2.0 * m))


class Adwin:
    """ADWIN detector with a stored window of recent values.

    Parameters
    ----------
    delta : float
        Confidence level in (0, 1); smaller means fewer, surer cuts.
    capacity : int
        Hard cap on stored values; the oldest are evicted silently. At
        most ``MAX_CAPACITY``, checked before the buffer and the tables
        are allocated for it.
    check_interval : int
        Run the split scan every this many additions (1 = every add).
    """

    MAX_CAPACITY = 10 ** 6

    def __init__(self, delta: float = 0.1, capacity: int = 5000, check_interval: int = 32):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if capacity > self.MAX_CAPACITY:
            raise ValueError(f"capacity must be at most {self.MAX_CAPACITY:_}, got {capacity}")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        self.delta = float(delta)
        self.capacity = int(capacity)
        self.check_interval = int(check_interval)
        self.n_detections = 0
        self.n_clamped = 0
        self.n_added = 0
        self.last_cut: tuple[int, int] | None = None  # (width_before, width_after)
        self._buf = np.empty(2 * self.capacity)
        self._head = 0
        self._tail = 0
        # ln(4 n / delta) for window widths n = 1 .. capacity (slot 0 unused)
        self._log_terms = np.array(
            [0.0] + [math.log(4.0 * n / self.delta) for n in range(1, self.capacity + 1)])
        # sub-window sizes 0 .. capacity as floats, and their reciprocals (slot 0 unused)
        self._counts = np.arange(self.capacity + 1, dtype=float)
        self._inverses = 1.0 / np.maximum(self._counts, 1.0)

    @property
    def width(self) -> int:
        return self._tail - self._head

    def contents(self) -> list[float]:
        """Retained window, oldest value first."""
        return self._buf[self._head:self._tail].tolist()

    def mean(self) -> float:
        if self._tail == self._head:
            raise ValueError("mean of an empty window")
        return math.fsum(self.contents()) / self.width

    def add(self, value: float) -> bool:
        """Append one value; return True iff a change was detected.

        A detection means the split test dropped at least one old value
        on this call. ``n_detections`` counts such calls.
        """
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if value < 0.0:
            value = 0.0
            self.n_clamped += 1
        elif value > 1.0:
            value = 1.0
            self.n_clamped += 1
        tail = self._tail
        if tail - self._head == self.capacity:
            self._head += 1
        if tail == 2 * self.capacity:
            tail -= self._head
            self._buf[:tail] = self._buf[self._head:]
            self._head = 0
        self._buf[tail] = value
        self._tail = tail + 1
        self.n_added += 1
        if self.n_added % self.check_interval != 0:
            return False
        dropped = self._shrink()
        if dropped:
            self.n_detections += 1
            return True
        return False

    def _shrink(self) -> int:
        """Drop oldest values while any split fails the mean test."""
        n_total = self._tail - self._head
        prefix = np.zeros(n_total + 1)
        np.cumsum(self._buf[self._head:self._tail], out=prefix[1:])
        j = 0  # oldest surviving value, as an offset into the window
        while n_total - j >= 2:
            m = n_total - j
            gap, eps = self._split_test(prefix, j, slice(j + 1, n_total),
                                        slice(1, m), slice(m - 1, 0, -1), m)
            fails = gap >= eps
            if not fails.any():
                break
            # Every later start at which split w still fails would be
            # dropped too. The most significant failing split tends to
            # keep failing longest, so test it alone at each of them.
            w = j + 1 + int(np.where(fails, gap / eps, 0.0).argmax())
            gap, eps = self._split_test(prefix, slice(j + 1, w), w, slice(w - j - 1, 0, -1),
                                        n_total - w, slice(m - 1, n_total - w, -1))
            passes = np.flatnonzero(gap < eps)
            j = j + 1 + int(passes[0]) if passes.size else w
        if j:
            self._head += j
            self.last_cut = (n_total, n_total - j)
        return j

    def _split_test(self, prefix, start, split, old, new, width):
        """Mean gap and ``eps_cut`` of the window from ``start`` split at ``split``.

        Each index is an int or a slice: ``start`` and ``split`` into the
        prefix sum (leading zero), ``old`` and ``new`` into the count
        tables, ``width`` into the log terms. Both passes use this, so a
        split gets the same verdict at a start whichever pass tests it.
        """
        counts, inverses = self._counts, self._inverses
        gap = np.abs((prefix[split] - prefix[start]) / counts[old]
                     - (prefix[-1] - prefix[split]) / counts[new])
        eps = np.sqrt(0.5 * (inverses[old] + inverses[new]) * self._log_terms[width])
        return gap, eps
