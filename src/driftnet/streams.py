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
nominated target column.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Iterator, Sequence

import numpy as np

from .prng import make_rng

YAHOO_HEADER = ("Date", "Open", "High", "Low", "Close", "Volume", "Adj Close")


class StreamFormatError(ValueError):
    """Raised when an input file does not match the documented layout."""


@dataclass(eq=False)
class Instance:
    """One stream element: feature vector, target, and stream position.

    Experts trust it unchecked: ``x`` must be a finite 1-D float64 array
    and ``y`` a finite float, as the parsers and the generator ensure.
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


def generate_drift_stream(spec: DriftStreamSpec) -> Iterator[Instance]:
    """Generate the stream described by ``spec``.

    Per instance: x ~ U[0,1]^d, then one Bernoulli draw per drift point
    decides (with probability f(t)) whether that transition's incoming
    concept takes over; the last winning concept produces y. The number
    of generator draws per instance is fixed, so output is bitwise
    reproducible from ``spec.seed`` alone. Instances are finite by
    construction (x in the unit cube, y within the half diagonal).
    """
    rng = make_rng(spec.seed)
    d = spec.dim
    n_drifts = len(spec.drift_times)
    bound = math.sqrt(d) / 2.0  # |w.(x-c)| <= ||x-c|| <= half the cube diagonal
    for t in range(spec.length):
        x = rng.random(d)
        active = 0
        for j in range(n_drifts):
            if rng.random() < sigmoid_mix_probability(t, spec.drift_times[j], spec.drift_widths[j]):
                active = j + 1
        y = hyperplane_target(spec.concepts[active], x)
        assert y <= bound, "target exceeded the half-diagonal bound"
        yield Instance(x=x, y=y, index=t)


def _as_lines(source) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _row_values(cells: list[str], names: Sequence, lineno: int) -> list[float]:
    """The cells as floats; the first one that is not a finite number names its line and column."""
    try:
        values = list(map(float, cells))
        if math.isfinite(sum(values)):  # any nan or inf cell; a finite overflow is kept below
            return values
    except ValueError:
        pass
    for cell, name in zip(cells, names):
        try:
            problem = None if math.isfinite(float(cell)) else "non-finite training input"
        except ValueError:
            problem = "non-numeric cell"
        if problem is not None:
            raise StreamFormatError(f"line {lineno}: {problem} {cell.strip()!r} in column {name!r}")
    return values


def parse_yahoo_csv(source) -> list[Instance]:
    """Parse a Yahoo historical-quotes CSV into instances.

    ``source`` may be a string of CSV text or any iterable of lines
    (an open file works). Rows are re-sorted by Date ascending, then
    each becomes an Instance with features (Open, High, Low, Volume,
    Adj Close) and target y = Close. The date itself is used only for
    ordering. A nan or infinite cell is a StreamFormatError.
    """
    reader = csv.reader(_as_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        return []
    if tuple(h.strip() for h in header) != YAHOO_HEADER:
        raise StreamFormatError(
            "line 1: expected header " + ",".join(YAHOO_HEADER) + f", got {','.join(header)!r}"
        )
    names = YAHOO_HEADER[1:]
    parsed: list[tuple[date, list[float], float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise StreamFormatError(f"line {lineno}: expected 7 fields, got {len(row)}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: bad date {row[0]!r}: {exc}") from None
        opn, high, low, close, volume, adj = _row_values(row[1:], names, lineno)
        parsed.append((day, [opn, high, low, volume, adj], close))
    parsed.sort(key=lambda item: item[0])
    return [
        Instance(x=np.array(feats, dtype=float), y=target, index=i)
        for i, (_, feats, target) in enumerate(parsed)
    ]


def _detect_delimiter(line: str) -> str:
    # UCI-style files are often semicolon-separated; prefer whichever
    # separator actually splits the first line.
    if line.count(";") > line.count(","):
        return ";"
    return ","


def parse_regression_csv(source, target_column) -> list[Instance]:
    """Parse a rectangular numeric CSV with a nominated target column.

    ``target_column`` is either a column index (int) or a header name
    (str; requires a header row). A header is assumed present when any
    cell of the first row fails to parse as a number. All remaining
    columns become features in file order. A nan or infinite cell is a
    StreamFormatError.
    """
    lines = [ln for ln in _as_lines(source)]
    delim = _detect_delimiter(next((ln for ln in lines if ln.strip()), ""))
    numbered = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(lines, delimiter=delim), start=1)
        if row and any(cell.strip() for cell in row)
    ]
    if not numbered:
        return []

    header: list[str] | None = None
    try:
        list(map(float, numbered[0][1]))
    except ValueError:
        header = [h.strip() for h in numbered[0][1]]
        numbered = numbered[1:]

    if isinstance(target_column, str):
        if header is None:
            raise StreamFormatError(
                f"target column {target_column!r} given by name but the file has no header"
            )
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise StreamFormatError(
                f"target column {target_column!r} not in header {header}"
            ) from None
    else:
        target_idx = int(target_column)

    n_cols = len(header) if header is not None else len(numbered[0][1]) if numbered else 0
    if n_cols and -n_cols <= target_idx < 0:
        target_idx += n_cols
    if n_cols and not 0 <= target_idx < n_cols:
        raise StreamFormatError(f"target column index {target_idx} out of range for {n_cols} columns")

    names = header or range(n_cols)
    instances: list[Instance] = []
    for lineno, row in numbered:
        if len(row) != n_cols:
            raise StreamFormatError(f"line {lineno}: expected {n_cols} fields, got {len(row)}")
        values = _row_values(row, names, lineno)
        y = values.pop(target_idx)
        instances.append(Instance(x=np.array(values, dtype=float), y=y, index=len(instances)))
    return instances
