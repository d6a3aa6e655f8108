"""Instance streams: synthetic drifting regression data and CSV ingestion.

Synthetic streams draw feature vectors uniformly from the unit cube and
set the target to the unsigned distance between the point and a random
hyperplane through the cube center. Concept drift is simulated by mixing
two (or more) such concepts with a sigmoid schedule: near the drift
point, each instance is drawn from the incoming concept with probability
f(t) = 1 / (1 + exp(-4 (t - t0) / W)), so W controls how gradual the
transition is (W = 1 is effectively abrupt).

File ingestion covers two layouts: the Yahoo historical-quote CSV
(Date, Open, High, Low, Close, Volume, Adj Close) where Close is the
prediction target, and generic rectangular numeric CSVs with a caller-
nominated target column. Each parser checks its header and hands the
rest to one table reader, whose only layout setting is whether the
first column holds dates. It skips only blank lines (an empty line,
or one whitespace cell), numbers every row by its physical line (a
row whose quoted cell spans lines by its first), and turns cells into
numbers under one rule: a row of the wrong width, a bad date, or a
cell that is not a finite number is a StreamFormatError naming its
line. A row of empty cells is not blank, so it is such an error too.

The reader reads its source once, in blocks of 8,192 lines, and reads
each block in bulk: one ``np.loadtxt`` over its data lines, after a
check that every line is as wide as the first row; a block of blank
lines adds no rows. Where that step cannot read a block (a quoted
cell, ``1_000``, a carriage return, an empty or non-finite cell, a line
of another width), the line reader reads the rest of the source from
that block's first line, and that path alone writes the error messages,
so each one still names its line and column. It can start there
because a block read in bulk holds no quote and no carriage return, so
each of its lines is a whole row. The generator, likewise, draws and
computes blocks of instances at once, with the same draws in the same
order as one instance at a time. It evaluates a drift's mix probability
only in a window of times, outside which that probability is exactly
0.0 before and 1.0 after, and copies a block's features out of its
draws, so that no row keeps the drift columns alive. Either way an instance's ``x`` is a C-contiguous row
view of one float64 array that holds features alone.

A parse keeps the feature blocks it read and one float64 array of
targets, and nothing else. A block's text, dates and table go once its
columns are taken, so a parse holds one block of text at a time, and
the feature blocks are never merged into one matrix. It returns them
as a read-only sequence that makes a new instance each time one is
read, so no instance is built up front, and an iteration or a slice
turns one block's targets into floats at a time. Rows already in date
order keep their blocks; rows out of date order are sorted into one.
"""

from __future__ import annotations

import bisect
import csv
import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from datetime import date
from itertools import accumulate, chain, islice

import numpy as np

from .prng import make_rng

YAHOO_HEADER = ("Date", "Open", "High", "Low", "Close", "Volume", "Adj Close")


class StreamFormatError(ValueError):
    """Raised when an input file does not match the documented layout."""


@dataclass(eq=False, slots=True)
class Instance:
    """One stream element: feature vector, target, and stream position.

    Experts trust it unchecked: ``x`` must be a finite 1-D float64 array
    and ``y`` a finite float, as the parsers and the generator ensure.
    It has slots, so it has no ``__dict__`` and takes no other
    attribute, and two instances are equal only when they are one. A
    parsed file makes a new one on every read, so two reads of a row
    are two instances with the same fields.
    """

    x: np.ndarray
    y: float
    index: int


@dataclass(frozen=True)
class HyperplaneConcept:
    """A random hyperplane target function over the unit cube.

    Attributes
    ----------
    w : np.ndarray
        Unit normal of the plane.
    c : np.ndarray
        Anchor point the plane passes through (the cube center).
    d : int
        Feature dimension.
    seed : int
        Seed the concept was drawn from.
    """

    w: np.ndarray
    c: np.ndarray
    d: int
    seed: int


@dataclass(frozen=True)
class DriftStreamSpec:
    """Full description of a synthetic drifting stream.

    ``concepts[0]`` is active at the start; ``concepts[j+1]`` phases in
    around instance ``drift_times[j]`` over roughly ``drift_widths[j]``
    instances. Generation is fully determined by ``seed``.
    """

    concepts: tuple[HyperplaneConcept, ...]
    drift_times: tuple[int, ...] = field(default_factory=tuple)
    drift_widths: tuple[int, ...] = field(default_factory=tuple)
    length: int = 0
    seed: int = 0

    def __post_init__(self):
        if len(self.concepts) < 1:
            raise ValueError("at least one concept is required")
        if len(self.drift_times) != len(self.concepts) - 1:
            raise ValueError(
                "need exactly one drift time per concept transition "
                f"({len(self.concepts) - 1}), got {len(self.drift_times)}"
            )
        dims = {c.d for c in self.concepts}
        if len(dims) != 1:
            raise ValueError(f"concepts disagree on dimension: {sorted(dims)}")
        check_stream_shape(self.length, self.dim, self.drift_times, self.drift_widths)

    @property
    def dim(self) -> int:
        return self.concepts[0].d


def check_stream_shape(length: int, dim: int, drift_times, drift_widths) -> None:
    """Raise ValueError unless these describe a synthetic stream that can be generated."""
    if length < 0 or dim < 2:
        raise ValueError("synthetic streams need length >= 0 and dim >= 2")
    if len(drift_times) != len(drift_widths):
        raise ValueError("drift_times and drift_widths lengths differ")
    if any(w < 1 for w in drift_widths):
        raise ValueError("synthetic streams need every drift width >= 1")
    if list(drift_times) != sorted(set(drift_times)):
        raise ValueError("synthetic streams need strictly increasing drift_times")


def make_hyperplane_concept(seed: int, d: int) -> HyperplaneConcept:
    """Draw a random hyperplane concept.

    The normal is drawn componentwise uniform in [-1, 1] and scaled to
    unit length (redrawn in the measure-zero case of a near-zero norm).
    The anchor is the cube center (0.5, ..., 0.5). Deterministic for a
    given seed.

    Parameters
    ----------
    seed : int
        64-bit seed.
    d : int
        Dimension, at least 2.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rng = make_rng(seed)
    while True:
        w = rng.uniform(-1.0, 1.0, d)
        norm = float(np.linalg.norm(w))
        if norm >= 1e-9:
            break
    w = w / norm
    c = np.full(d, 0.5)
    return HyperplaneConcept(w=w, c=c, d=d, seed=int(seed))


def hyperplane_target(concept: HyperplaneConcept, x: np.ndarray) -> float:
    """Unsigned distance from ``x`` to the concept's hyperplane.

    Equals |w . (x - c)| since w has unit norm.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (concept.d,):
        raise ValueError(f"expected {concept.d} features, got shape {x.shape}")
    return abs(float(concept.w @ (x - concept.c)))


def sigmoid_mix_probability(t: int, t0: int, width: int) -> float:
    """Probability of drawing from the post-drift concept at time t.

    f(t) = 1 / (1 + exp(-4 (t - t0) / width)); the slope constant 4
    makes the transition span roughly one ``width`` of instances.
    Computed in the numerically stable branch form.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    z = 4.0 * (t - t0) / width
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _mix_window(t0: int, width: int) -> tuple[int, int]:
    """The times [lo, hi) outside which ``sigmoid_mix_probability(t, t0, width)`` is decided.

    Below lo, z = 4 (t - t0) / width < -748 < -745.13, where ``exp(z)``
    underflows, so the probability is exactly 0.0. From hi on, z >= 40
    > 36.74, where 1 / (1 + exp(-z)) rounds to exactly 1.0.
    """
    return t0 - 187 * width, t0 + 10 * width


def _target_bound(d: int) -> float:
    """The largest synthetic target in dimension ``d``, half the cube diagonal.

    |w . (x - c)| <= ||x - c|| for a unit w, and x and the center c lie
    in the unit cube.
    """
    return math.sqrt(d) / 2.0


_CHUNK = 8192  # instances drawn per block, so a stream of any length stays lazy


def generate_drift_stream(spec: DriftStreamSpec) -> Iterator[Instance]:
    """Generate the stream described by ``spec``.

    Per instance: x ~ U[0,1]^d, then one Bernoulli draw per drift point
    decides (with probability f(t)) whether that transition's incoming
    concept takes over; the last winning concept produces y. The number
    of generator draws per instance is fixed, so output is bitwise
    reproducible from ``spec.seed`` alone. Instances are finite by
    construction (x in the unit cube, y within the half diagonal).

    The draws come in blocks of up to 8,192 instances, one row of d
    features and then one value per drift point each, which is the
    order an instance-by-instance loop draws them in. The mix
    probability is computed only inside each drift's ``_mix_window``.
    Every ``x`` is a row view of its block's features alone, copied out
    of the draws, so an instance keeps no drift column alive.
    """
    rng = make_rng(spec.seed)
    d = spec.dim
    drifts = tuple(zip(spec.drift_times, spec.drift_widths))
    w = np.array([concept.w for concept in spec.concepts])
    c = np.array([concept.c for concept in spec.concepts])
    bound = _target_bound(d)
    for start in range(0, spec.length, _CHUNK):
        times = range(start, min(start + _CHUNK, spec.length))
        draws = rng.random(len(times) * (d + len(drifts))).reshape(len(times), -1)
        x = draws[:, :d].copy()
        active = np.zeros(len(times), dtype=np.intp)
        for j, (t0, width) in enumerate(drifts, 1):
            lo, hi = (max(edge - start, 0) for edge in _mix_window(t0, width))
            mix = np.ones(len(times))
            mix[:lo] = 0.0
            mix[lo:hi] = [sigmoid_mix_probability(t, t0, width) for t in times[lo:hi]]
            active[draws[:, d + j - 1] < mix] = j
        y = np.abs(np.vecdot(w[active], x - c[active]))
        assert (y <= bound).all(), "target exceeded the half-diagonal bound"
        yield from map(Instance, x, y.tolist(), times)


def _lines(source) -> Iterator[str]:
    """The physical lines of ``source``, each with its line end, read once as they are taken.

    CSV text is split after every ``"\\n"`` and nowhere else, so a
    carriage return stays inside its line; any other iterable of lines
    (an open file works) is taken line by line as it comes.
    """
    if isinstance(source, str):
        return (match[0] for match in re.finditer(".*\n|.+", source))  # "." is all but "\n"
    return iter(source)


def _rows(lines, delimiter: str, before: int) -> Iterator[tuple[int, int, list[str]]]:
    """(first line, last line, cells) for every row of ``lines`` that is not blank.

    ``lines`` follow physical line ``before``, and lines are counted
    from the csv reader's ``line_num``, so a row whose quoted cell spans
    lines is named by its first line, and the next row's number counts
    every line before it. A blank row is an empty line or a single
    whitespace cell; a row of empty cells is not blank, and fails where
    its cells are read. A line the csv module cannot read (a lone
    carriage return) is a StreamFormatError naming it.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    last = before
    try:
        for cells in reader:
            first, last = last + 1, before + reader.line_num
            if cells and (len(cells) > 1 or cells[0].strip()):
                yield first, last, cells
    except csv.Error as exc:
        raise StreamFormatError(f"line {before + reader.line_num}: {exc}") from None


def _row_values(cells: list[str], names: Sequence, lineno: int, dated: bool) -> list:
    """The cells as values, one per name: floats, after a date's ordinal when ``dated``.

    A row of the wrong width, a first cell that is not an ISO date when
    ``dated``, or the first other cell that is not a finite number, is a
    StreamFormatError naming its line (and column).
    """
    if len(cells) != len(names):
        raise StreamFormatError(f"line {lineno}: expected {len(names)} fields, got {len(cells)}")
    values = []
    if dated:
        try:
            values.append(date.fromisoformat(cells[0].strip()).toordinal())
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: bad date {cells[0]!r}: {exc}") from None
    for cell, name in zip(cells[dated:], names[dated:]):
        try:
            values.append(float(cell))
        except ValueError:
            raise StreamFormatError(f"line {lineno}: non-numeric cell {cell.strip()!r} "
                                    f"in column {name!r}") from None
        if not math.isfinite(values[-1]):
            raise StreamFormatError(f"line {lineno}: non-finite training input {cell.strip()!r} "
                                    f"in column {name!r}")
    return values


def _columns(block: list[str], width: int, delimiter: str,
             dated: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """A block of lines read in bulk: the ordinals of their dates (or None) and their numbers.

    A block of blank lines gives no rows. Raises ValueError wherever only
    ``_rows`` can say what the lines hold: a line holds a carriage return
    or is not ``width`` cells wide, a cell is not a finite number that
    ``np.loadtxt`` reads (a quoted cell, ``1_000``, an empty cell), or
    with ``dated`` a first cell is not an ISO date.
    """
    data = [line for line in block if line.strip()]
    # loadtxt ignores the cells past ``usecols``, so the width is checked here
    if any("\r" in line for line in block) or any(line.count(delimiter) != width - 1 for line in data):
        raise ValueError("a line the bulk step does not read")
    table = np.loadtxt(data, delimiter=delimiter, comments=None, quotechar=None, ndmin=2,
                       usecols=range(dated, width)) if data else np.empty((0, width - dated))
    if not np.isfinite(table).all():
        raise ValueError("a non-finite cell")
    days = np.fromiter((date.fromisoformat(line.partition(delimiter)[0].strip()).toordinal()
                        for line in data), np.int64, len(data)) if dated else None
    return days, table


_BLOCK = 8192  # data lines read in bulk at a time, so a parse holds one block of text


def _table(lines: Iterator[str], after: int, names: Sequence, delimiter: str, dated: bool,
           target: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The feature blocks x and the targets y of ``lines``, the physical lines after line ``after``.

    There is one column per name; with ``dated`` the first holds ISO
    dates, which sort the rows stably and are then dropped. Of the
    numbers in a row, the one at ``target`` is y and the others, in
    order, are x. ``lines`` are read once, in blocks of ``_BLOCK``: the
    bulk step reads each block it can, and only the block's columns are
    kept, its features as one array of x and its targets in y. From the
    first block it cannot read, ``_rows`` and ``_row_values`` read the
    rest row by row into one last array of x, and they alone write the
    error messages. The csv reader may start there, since a block the
    bulk step read holds no quote and no carriage return, so each of its
    lines is a whole row. Rows whose dates decrease somewhere are sorted
    into one array of x; rows in date order keep their blocks.
    """
    x, y, days = [], [np.empty(0)], [np.empty(0, np.int64)]
    for block in iter(lambda: list(islice(lines, _BLOCK)), []):
        try:
            day, table = _columns(block, len(names), delimiter, dated)
        except ValueError:  # the line reader reads from this block on, or names the line at fault
            rows = _rows(chain(block, lines), delimiter, after)
            table = np.array([_row_values(cells, names, first, dated) for first, _, cells in rows],
                             dtype=float).reshape(-1, len(names))
            day, table = table[:, 0].astype(np.int64) if dated else None, table[:, dated:]
        x.append(np.delete(table, target, axis=1))
        y.append(table[:, target].copy())
        days.append(day)
        after += len(block)
    y = np.concatenate(y)
    if dated:
        days = np.concatenate(days)
        if (days[1:] < days[:-1]).any():  # a stable sort of dates in order is the identity
            order = np.argsort(days, kind="stable")
            x, y = [np.concatenate(x)[order]], y[order]
    return x, y


class _Parsed(Sequence):
    """A parsed file's instances, made when read from its feature blocks and its targets.

    Item i is ``Instance(x[i], float(y[i]), i)``, where x is the feature
    blocks one after another, made anew on every read, so the sequence
    keeps the blocks, their edges and the float64 targets ``y`` and no
    instance. Iteration and a slice of step 1 make a block's instances
    together, so a read holds one block's targets as floats at a time.
    An int index may be negative; a slice gives a list.
    """

    def __init__(self, blocks: list[np.ndarray], y: np.ndarray):
        self.blocks, self.y = blocks, y
        self.edges = list(accumulate(map(len, blocks), initial=0))  # block k holds rows edges[k] on

    def __len__(self) -> int:
        return len(self.y)

    def __iter__(self) -> Iterator[Instance]:
        return self._span(0, len(self.y))

    def __getitem__(self, i):
        indices = range(len(self.y))[i]  # an int out of range raises IndexError here
        if isinstance(i, slice):
            if indices.step == 1:
                return list(self._span(indices.start, indices.stop))
            return [self[j] for j in indices]
        k = bisect.bisect_right(self.edges, indices) - 1
        return Instance(self.blocks[k][indices - self.edges[k]], float(self.y[indices]), indices)

    def _span(self, lo: int, hi: int) -> Iterator[Instance]:
        """Instances lo to hi - 1, made one block at a time."""
        for block, first, end in zip(self.blocks, self.edges, self.edges[1:]):
            start, stop = max(lo, first), min(hi, end)
            if start < stop:
                yield from map(Instance, block[start - first:stop - first], self.y[start:stop].tolist(),
                               range(start, stop))


def parse_yahoo_csv(source) -> Sequence[Instance]:
    """Parse a Yahoo historical-quotes CSV into instances.

    ``source`` may be a string of CSV text or any iterable of lines
    (an open file, or a generator, which is read once). Rows are
    re-sorted by Date ascending, stably, then each becomes an Instance
    with features (Open, High, Low, Volume, Adj Close) and target
    y = Close. The date itself is used
    only for ordering. A nan or infinite cell is a StreamFormatError.
    The result is a read-only sequence that makes each instance when it
    is read; ``list()`` it for a list to change.
    """
    lines = _lines(source)
    rows = _rows(lines, ",", 0)
    first, last, header = next(rows, (1, 1, YAHOO_HEADER))  # an empty file has no rows to read
    if tuple(h.strip() for h in header) != YAHOO_HEADER:
        raise StreamFormatError(f"line {first}: expected header {','.join(YAHOO_HEADER)}, "
                                f"got {','.join(header)!r}")
    return _Parsed(*_table(lines, last, YAHOO_HEADER, ",", True, 3))


def parse_regression_csv(source, target_column) -> Sequence[Instance]:
    """Parse a rectangular numeric CSV with a nominated target column.

    ``source`` is read, and the result returned, as by
    ``parse_yahoo_csv``. ``target_column`` is either a column index
    (int) or a header name (str; requires a header row). The first
    non-blank row is a header when any of its non-empty cells fails to
    parse as a number, and it sets the delimiter (';' or ',') and the
    width. All remaining columns become features in file order. A nan
    or infinite cell is a StreamFormatError.
    """
    lines = _lines(source)
    opening = []  # the lines up to the first non-blank one, or every line when all are blank
    for line in lines:
        opening.append(line)
        if line.strip():
            break
    # UCI-style files are often semicolon-separated; prefer whichever
    # separator actually splits the first non-blank line.
    first_line = "".join(opening[-1:])
    delimiter = ";" if first_line.count(";") > first_line.count(",") else ","
    taken = []  # the lines the first row's reader takes, from line 1 on
    rows = _rows((taken.append(line) or line for line in chain(opening, lines)), delimiter, 0)
    first, last, cells = next(rows, (1, 1, None))
    if cells is None:
        return _Parsed([], np.empty(0))

    header: list[str] | None = None
    try:  # an empty cell is a missing value, not a name
        list(map(float, filter(str.strip, cells)))
        lines = chain(taken[first - 1:], lines)  # no header: the data start at this row
        last = first - 1
    except ValueError:
        header = [h.strip() for h in cells]

    if isinstance(target_column, str):
        if header is None:
            raise StreamFormatError(f"target column {target_column!r} given by name "
                                    "but the file has no header")
        if target_column not in header:
            raise StreamFormatError(f"target column {target_column!r} not in header {header}")
        target_idx = header.index(target_column)
    else:
        target_idx = int(target_column)

    n_cols = len(cells)
    if not -n_cols <= target_idx < n_cols:  # a negative index counts from the end
        raise StreamFormatError(f"target column index {target_idx} out of range for {n_cols} columns")
    return _Parsed(*_table(lines, last, header or range(n_cols), delimiter, False, target_idx))
