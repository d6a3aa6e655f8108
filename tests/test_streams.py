"""Synthetic stream generation and dataset ingestion tests."""

import dataclasses
import gc
import io
import itertools
import math
import pickle
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from driftnet import streams
from driftnet.prng import make_rng
from driftnet.streams import (
    YAHOO_HEADER,
    DriftStreamSpec,
    Instance,
    StreamFormatError,
    generate_drift_stream,
    hyperplane_target,
    make_hyperplane_concept,
    parse_regression_csv,
    parse_yahoo_csv,
    sigmoid_mix_probability,
)
from test_twins import CHUNK, fields, outcome, reference_stream, refuse, row_types_ok


def test_concept_weights_are_unit_norm():
    for seed in range(20):
        concept = make_hyperplane_concept(seed, 10)
        assert np.linalg.norm(concept.w) == pytest.approx(1.0, abs=1e-12)
        assert concept.d == 10
        assert np.all(concept.c == 0.5)


def test_concept_requires_dim_at_least_two():
    with pytest.raises(ValueError):
        make_hyperplane_concept(1, 1)


def test_concept_dimension_is_capped():
    make_hyperplane_concept(1, streams.MAX_DIM)
    with pytest.raises(ValueError, match=r"dimension must lie in \[2, 100_000\], got 100001"):
        make_hyperplane_concept(1, streams.MAX_DIM + 1)
    with pytest.raises(ValueError, match=r"dim in \[2, 100_000\], got 100001"):
        streams.check_stream_shape(10, streams.MAX_DIM + 1, (), ())


def test_concepts_differ_across_seeds():
    a = make_hyperplane_concept(1, 5)
    b = make_hyperplane_concept(2, 5)
    assert not np.allclose(a.w, b.w)


def test_target_is_absolute_plane_distance():
    concept = make_hyperplane_concept(3, 4)
    x = np.full(4, 0.5)
    # a point on the plane through the center has distance zero
    assert hyperplane_target(concept, x) == 0.0
    x2 = np.array([1.0, 0.0, 1.0, 0.0])
    expected = abs(float(concept.w @ (x2 - 0.5)))
    assert hyperplane_target(concept, x2) == pytest.approx(expected, abs=1e-15)
    assert hyperplane_target(concept, x2) >= 0.0


def test_target_shape_mismatch_rejected():
    concept = make_hyperplane_concept(3, 4)
    with pytest.raises(ValueError):
        hyperplane_target(concept, np.zeros(5))


def test_sigmoid_midpoint_is_half():
    assert sigmoid_mix_probability(1000, 1000, 1) == 0.5
    assert sigmoid_mix_probability(1000, 1000, 500) == 0.5


def test_sigmoid_symmetry_and_monotonicity():
    t0, width = 5000, 400
    for delta in (1, 10, 100, 399):
        lo = sigmoid_mix_probability(t0 - delta, t0, width)
        hi = sigmoid_mix_probability(t0 + delta, t0, width)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)
        assert hi > 0.5 > lo
    probs = [sigmoid_mix_probability(t, t0, width) for t in range(4000, 6000, 50)]
    assert probs == sorted(probs)


def test_sigmoid_width_one_is_effectively_abrupt():
    # W=1 puts >98% of the transition inside +/-1 instance of t0
    assert sigmoid_mix_probability(999, 1000, 1) < 0.02
    assert sigmoid_mix_probability(1001, 1000, 1) > 0.98


@pytest.mark.parametrize("width", [1, 2, 3, 7, 1000, 2000])
def test_the_mix_is_decided_outside_its_window(width):
    # the generator fills 0.0 below the window and 1.0 from its end on, unevaluated
    for t0 in (0, 1, 5, 8192, 12_345, 10 ** 9):
        lo, hi = streams._mix_window(t0, width)
        assert sigmoid_mix_probability(lo - 1, t0, width) == 0.0
        assert sigmoid_mix_probability(hi, t0, width) == 1.0


def test_sigmoid_extremes_stay_finite():
    assert sigmoid_mix_probability(0, 10 ** 9, 1) == 0.0
    assert sigmoid_mix_probability(10 ** 9, 0, 1) == 1.0


def _two_concept_spec(length=2000, t0=1000, width=1, seed=42, d=6):
    concepts = (make_hyperplane_concept(seed + 100, d),
                make_hyperplane_concept(seed + 200, d))
    return DriftStreamSpec(concepts=concepts, drift_times=(t0,),
                           drift_widths=(width,), length=length, seed=seed)


def test_spec_validation():
    c = make_hyperplane_concept(1, 4)
    c2 = make_hyperplane_concept(2, 4)
    with pytest.raises(ValueError):
        DriftStreamSpec(concepts=(), length=10)
    with pytest.raises(ValueError):
        DriftStreamSpec(concepts=(c, c2), drift_times=(), drift_widths=(), length=10)
    with pytest.raises(ValueError):
        DriftStreamSpec(concepts=(c, c2), drift_times=(5,), drift_widths=(0,), length=10)
    with pytest.raises(ValueError):
        DriftStreamSpec(concepts=(c, c2, make_hyperplane_concept(3, 4)),
                        drift_times=(7, 5), drift_widths=(1, 1), length=10)
    with pytest.raises(ValueError):
        DriftStreamSpec(concepts=(c, make_hyperplane_concept(2, 5)),
                        drift_times=(5,), drift_widths=(1,), length=10)


def test_stream_is_deterministic():
    spec = _two_concept_spec()
    a = list(generate_drift_stream(spec))
    b = list(generate_drift_stream(spec))
    assert len(a) == len(b) == 2000
    for ia, ib in zip(a, b):
        assert ia.index == ib.index
        assert np.array_equal(ia.x, ib.x)
        assert ia.y == ib.y


def test_stream_indices_and_bounds():
    spec = _two_concept_spec(length=500, t0=250, d=9)
    bound = math.sqrt(9)
    for i, inst in enumerate(generate_drift_stream(spec)):
        assert inst.index == i
        assert inst.x.shape == (9,)
        assert np.all(inst.x >= 0.0) and np.all(inst.x < 1.0)
        assert 0.0 <= inst.y <= bound


def test_abrupt_drift_switches_concepts():
    # far from t0 with W=1 the active concept is unambiguous, so targets
    # must match the corresponding concept exactly
    spec = _two_concept_spec(length=2000, t0=1000, width=1)
    old, new = spec.concepts
    for inst in generate_drift_stream(spec):
        if inst.index < 900:
            assert inst.y == pytest.approx(hyperplane_target(old, inst.x), abs=1e-12)
        elif inst.index > 1100:
            assert inst.y == pytest.approx(hyperplane_target(new, inst.x), abs=1e-12)


def test_gradual_drift_mixes_both_concepts():
    spec = _two_concept_spec(length=3000, t0=1500, width=800, seed=7)
    old, new = spec.concepts
    from_old = from_new = 0
    for inst in generate_drift_stream(spec):
        if 1300 <= inst.index < 1700:
            if inst.y == pytest.approx(hyperplane_target(old, inst.x), abs=1e-12):
                from_old += 1
            elif inst.y == pytest.approx(hyperplane_target(new, inst.x), abs=1e-12):
                from_new += 1
    # inside the transition band both generators contribute
    assert from_old > 50
    assert from_new > 50
    assert from_old + from_new == 400


def test_multi_drift_last_concept_wins():
    d = 5
    concepts = tuple(make_hyperplane_concept(s, d) for s in (11, 22, 33))
    spec = DriftStreamSpec(concepts=concepts, drift_times=(400, 800),
                           drift_widths=(1, 1), length=1200, seed=9)
    last = concepts[2]
    for inst in generate_drift_stream(spec):
        if inst.index > 900:
            assert inst.y == pytest.approx(hyperplane_target(last, inst.x), abs=1e-12)


def test_zero_length_stream():
    spec = _two_concept_spec(length=0)
    assert list(generate_drift_stream(spec)) == []


def test_generated_instances_hold_a_float_target_and_a_contiguous_float64_row():
    spec = _two_concept_spec(length=CHUNK + 5, t0=CHUNK, width=300)
    assert row_types_ok(generate_drift_stream(spec))


def test_generation_is_lazy():
    concepts = (make_hyperplane_concept(1, 10), make_hyperplane_concept(2, 10))
    spec = DriftStreamSpec(concepts=concepts, drift_times=(5 * 10 ** 8,), drift_widths=(1,),
                           length=10 ** 9, seed=1)
    tracemalloc.start()
    try:
        first = next(generate_drift_stream(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.index == 0
    assert peak < 4 * 2 ** 20


class _RecordingRng:
    """A generator that records each size of draws asked of it, and refuses more than 2**20 at once."""

    def __init__(self, seed):
        self.rng, self.sizes = make_rng(seed), []

    def random(self, size):
        self.sizes.append(size)
        assert size <= 2 ** 20, f"asked for {size} draws at once"
        return self.rng.random(size)


def _recorded(monkeypatch, spec, n):
    """The first ``n`` instances of ``spec``'s stream, and the sizes of the draws they took."""
    made = []
    monkeypatch.setattr(streams, "make_rng", lambda seed: made.append(_RecordingRng(seed)) or made[-1])
    return list(itertools.islice(generate_drift_stream(spec), n)), made[0].sizes


def test_a_wide_stream_draws_blocks_of_at_most_2_to_the_20_values(monkeypatch):
    # 2**20 draws hold 2,614 instances of 400 features and one drift, so 6,000 take three blocks
    concepts = tuple(make_hyperplane_concept(j, 400) for j in range(2))
    spec = DriftStreamSpec(concepts=concepts, drift_times=(3000,), drift_widths=(50,), length=6000, seed=5)
    instances, sizes = _recorded(monkeypatch, spec, spec.length)
    assert sizes == [2614 * 401, 2614 * 401, 772 * 401]
    assert fields(instances) == fields(reference_stream(spec))


def test_a_stream_of_the_largest_dimension_draws_a_small_block(monkeypatch):
    concepts = (make_hyperplane_concept(1, streams.MAX_DIM),)
    _, sizes = _recorded(monkeypatch, DriftStreamSpec(concepts=concepts, length=CHUNK, seed=1), 1)
    assert sizes == [10 * streams.MAX_DIM]


# ---------------------------------------------------------------------------
# The instance record.
# ---------------------------------------------------------------------------

def test_an_instance_takes_no_other_attribute():
    inst = Instance(x=np.arange(3.0), y=1.5, index=7)
    with pytest.raises(AttributeError):
        inst.weight = 2.0
    assert not hasattr(inst, "__dict__")


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_instance_keeps_its_bytes(protocol):
    inst = Instance(x=np.array([0.1, -2.5, 3e300, 5e-324]), y=0.1 + 0.2, index=12)
    back = pickle.loads(pickle.dumps(inst, protocol))
    assert back.x.tobytes() == inst.x.tobytes() and back.x.dtype == np.float64
    assert back.y.hex() == inst.y.hex() and back.index == inst.index


def test_an_instance_field_can_be_replaced():
    inst = Instance(x=np.arange(3.0), y=1.5, index=7)
    moved = dataclasses.replace(inst, index=8)
    assert moved.x is inst.x and moved.y == inst.y and moved.index == 8


def test_instances_are_equal_only_to_themselves():
    x = np.arange(3.0)
    a, b = Instance(x=x, y=1.5, index=0), Instance(x=x, y=1.5, index=0)
    assert a == a and a != b


# ---------------------------------------------------------------------------
# Yahoo-format ingestion.
# ---------------------------------------------------------------------------

YAHOO_TEXT = """\
Date,Open,High,Low,Close,Volume,Adj Close
2014-01-03,19.0,19.5,18.5,19.2,1000,19.1
2014-01-02,18.0,18.5,17.5,18.2,2000,18.1
2014-01-06,20.0,20.5,19.5,20.2,1500,20.1
"""


def test_yahoo_rows_sorted_by_date():
    instances = parse_yahoo_csv(io.StringIO(YAHOO_TEXT))
    assert [inst.y for inst in instances] == [18.2, 19.2, 20.2]
    assert [inst.index for inst in instances] == [0, 1, 2]
    # features: Open, High, Low, Volume, Adj Close
    assert instances[0].x.tolist() == [18.0, 18.5, 17.5, 2000.0, 18.1]


def test_yahoo_rows_of_one_date_keep_their_file_order():
    text = YAHOO_TEXT + "2014-01-02,9.0,9.5,8.5,9.2,3000,9.1\n"
    assert [inst.y for inst in parse_yahoo_csv(text)] == [18.2, 9.2, 19.2, 20.2]


def test_yahoo_header_must_match():
    bad = "Date,Open,High,Close,Low,Volume,Adj Close\n2014-01-02,1,1,1,1,1,1\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO(bad))
    assert "line 1" in str(exc.value)


def test_yahoo_bad_row_reports_line_number():
    bad = YAHOO_TEXT + "2014-01-07,oops,20.5,19.5,20.2,1500,20.1\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO(bad))
    assert "line 5" in str(exc.value)


def test_yahoo_bad_date_reports_line_number():
    bad = "Date,Open,High,Low,Close,Volume,Adj Close\nnot-a-date,1,1,1,1,1,1\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO(bad))
    assert "line 2" in str(exc.value)


def test_yahoo_wrong_field_count():
    bad = "Date,Open,High,Low,Close,Volume,Adj Close\n2014-01-02,1,2,3\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO(bad))
    assert "line 2" in str(exc.value)


def test_yahoo_lone_carriage_return_reports_line():
    # CSV text is split only after newlines, so the csv module meets the \r
    bad = YAHOO_TEXT + "2014-01-07,20,20.5,19.5,20.2\r1500,20.1\n"
    with pytest.raises(StreamFormatError, match="^line 5: new-line character"):
        parse_yahoo_csv(bad)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
def test_text_is_split_only_after_newlines(separator):
    # str.splitlines would end a line at each of these, and the row would lose a field
    bad = YAHOO_TEXT + f"2014-01-07,2{separator}0,20.5,19.5,20.2,1500,20.1\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(bad)
    assert str(exc.value) == f"line 5: non-numeric cell {'2' + separator + '0'!r} in column 'Open'"


# ---------------------------------------------------------------------------
# Generic numeric CSV ingestion.
# ---------------------------------------------------------------------------

def test_csv_with_header_and_named_target():
    text = "a,b,quality\n1.0,2.0,5\n3.0,4.0,6\n"
    instances = parse_regression_csv(io.StringIO(text), "quality")
    assert len(instances) == 2
    assert instances[0].x.tolist() == [1.0, 2.0]
    assert instances[0].y == 5.0
    assert instances[1].y == 6.0


def test_csv_semicolon_delimiter_detected():
    # wine-quality style: semicolons, quoted header
    text = '"fixed acidity";"alcohol";"quality"\n7.4;9.4;5\n7.8;9.8;5\n'
    instances = parse_regression_csv(io.StringIO(text), "quality")
    assert instances[0].x.tolist() == [7.4, 9.4]
    assert instances[0].y == 5.0


def test_csv_headerless_with_index_target():
    text = "1.0,2.0,3.0\n4.0,5.0,6.0\n"
    instances = parse_regression_csv(io.StringIO(text), 2)
    assert instances[0].x.tolist() == [1.0, 2.0]
    assert instances[0].y == 3.0


def test_csv_negative_index_counts_from_end():
    text = "1.0,2.0,3.0\n"
    instances = parse_regression_csv(io.StringIO(text), -1)
    assert instances[0].y == 3.0


def test_csv_named_target_requires_header():
    text = "1.0,2.0,3.0\n"
    with pytest.raises(StreamFormatError):
        parse_regression_csv(io.StringIO(text), "quality")


def test_csv_unknown_target_name():
    text = "a,b\n1.0,2.0\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO(text), "nope")
    assert "nope" in str(exc.value)


def test_csv_target_index_out_of_range():
    text = "1.0,2.0\n"
    with pytest.raises(StreamFormatError):
        parse_regression_csv(io.StringIO(text), 7)


def test_csv_non_numeric_cell_reports_line():
    text = "a,b\n1.0,2.0\n1.0,oops\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO(text), "b")
    assert "line 3" in str(exc.value)


def test_csv_ragged_row_reports_line():
    text = "a,b\n1.0,2.0\n1.0\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO(text), "b")
    assert "line 3" in str(exc.value)


def test_csv_lone_carriage_return_reports_line():
    with pytest.raises(StreamFormatError, match="^line 2: new-line character"):
        parse_regression_csv("a,b\n1,2\r3,4\n", 1)


def test_csv_empty_input():
    assert list(parse_regression_csv(io.StringIO(""), 0)) == []


def test_csv_opening_with_blank_lines_keeps_its_delimiter_and_line_numbers():
    text = '\n   \n"a";"b";"y"\n1;2;3\n'
    instances = parse_regression_csv(io.StringIO(text), "y")
    assert instances[0].x.tolist() == [1.0, 2.0]
    assert instances[0].y == 3.0
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO(text + "1;x;3\n"), "y")
    assert str(exc.value) == "line 5: non-numeric cell 'x' in column 'b'"


def test_csv_first_row_of_empty_cells_names_its_line():
    # empty cells never make a header, so such a row is read as data
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO("\n,,\n1,2,3\n"), 2)
    assert str(exc.value) == "line 2: non-numeric cell '' in column 0"


def test_csv_missing_value_in_the_first_row_is_not_a_header():
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO("1,,3\n4,5,6\n"), 2)
    assert str(exc.value) == "line 1: non-numeric cell '' in column 1"
    # a cell that is not a number still makes the row a header
    instances = parse_regression_csv(io.StringIO("1,x,3\n4,5,6\n"), 2)
    assert [(inst.x.tolist(), inst.y) for inst in instances] == [([4.0, 5.0], 6.0)]


def test_yahoo_header_after_blank_lines_is_read_at_its_line():
    assert len(parse_yahoo_csv(io.StringIO("\n \n" + YAHOO_TEXT))) == 3
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO("\n" + YAHOO_TEXT.replace("Low,Close", "Close,Low")))
    assert str(exc.value).startswith("line 2: expected header")


# ---------------------------------------------------------------------------
# Both layouts read their rows under one blank-line rule and one cell rule.
# ---------------------------------------------------------------------------

# layout: (parser, header, a good row, a row whose second cell is not a number)
LAYOUTS = {
    "quotes": (parse_yahoo_csv, ",".join(YAHOO_HEADER),
               "2014-01-02,1,2,3,4,5,6", "2014-01-03,x,2,3,4,5,6"),
    "numeric": (lambda source: parse_regression_csv(source, "y"), "a,b,y",
                "1,2,3", "1,x,3"),
}


def _parse(layout, *lines):
    return LAYOUTS[layout][0](io.StringIO("".join(line + "\n" for line in lines)))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("blank", ["", "   ", "\t"], ids=["empty", "spaces", "tab"])
def test_blank_lines_leave_line_numbers_physical(layout, blank):
    _, header, good, bad = LAYOUTS[layout]
    assert len(_parse(layout, header, blank, good, blank, good)) == 2
    with pytest.raises(StreamFormatError) as exc:
        _parse(layout, header, good, blank, blank, bad)
    assert str(exc.value).startswith("line 5: non-numeric cell 'x' in column ")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_blank_line_holding_a_carriage_return_is_an_error_before_the_header_too(layout):
    # the csv reader reads every line from line 1, so it meets the \r wherever it stands
    _, header, good, _ = LAYOUTS[layout]
    for lines, lineno in [((" \r ", header, good), 1), (("", " \r ", header, good), 2),
                          ((header, " \r ", good), 2), (("", " \r "), 2)]:
        with pytest.raises(StreamFormatError, match=f"^line {lineno}: new-line character"):
            _parse(layout, *lines)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_row_of_empty_cells_names_its_line(layout):
    _, header, good, _ = LAYOUTS[layout]
    with pytest.raises(StreamFormatError) as exc:
        _parse(layout, header, good, "," * good.count(","), good)
    assert str(exc.value).startswith("line 3: ") and "''" in str(exc.value)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("extra", [",9", ",9,9"])
def test_field_count_message(layout, extra):
    _, header, good, _ = LAYOUTS[layout]
    width = good.count(",") + 1
    with pytest.raises(StreamFormatError) as exc:
        _parse(layout, header, good, good + extra)
    assert str(exc.value) == f"line 3: expected {width} fields, got {width + extra.count(',')}"


def _over_two_lines(row, col):
    """``row`` with its cell ``col`` quoted and ending in a line break."""
    cells = row.split(",")
    cells[col] = f'"{cells[col]}\n"'
    return ",".join(cells)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_header_cell_over_two_lines_leaves_line_numbers_physical(layout):
    _, header, good, bad = LAYOUTS[layout]
    header = _over_two_lines(header, 0)
    assert len(_parse(layout, header, good, good)) == 2
    with pytest.raises(StreamFormatError) as exc:
        _parse(layout, header, good, bad)
    assert str(exc.value).startswith("line 4: non-numeric cell 'x' in column ")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_data_cell_over_two_lines_is_named_by_its_first_line(layout):
    _, header, good, bad = LAYOUTS[layout]
    assert len(_parse(layout, header, _over_two_lines(good, 1), good)) == 2
    for lines, lineno in [((_over_two_lines(good, 1), bad), 4), ((good, _over_two_lines(bad, 1)), 3)]:
        with pytest.raises(StreamFormatError) as exc:
            _parse(layout, header, *lines)
        assert str(exc.value).startswith(f"line {lineno}: non-numeric cell 'x' in column ")


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("lines", [(), ("", "  ")], ids=["empty", "blank-lines"])
def test_empty_input_reads_no_instances(layout, lines):
    assert list(_parse(layout, *lines)) == []


# ---------------------------------------------------------------------------
# Non-finite cells are rejected where the stream enters.
# ---------------------------------------------------------------------------

NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("cell", NON_FINITE)
@pytest.mark.parametrize("column", ["Volume", "Close"], ids=["feature", "target"])
def test_yahoo_non_finite_cell_reports_line_and_column(cell, column):
    fields = dict(zip(YAHOO_HEADER, "2014-01-07,21.0,21.5,20.5,21.2,1200,21.1".split(",")))
    fields[column] = cell
    bad = YAHOO_TEXT + ",".join(fields.values()) + "\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_yahoo_csv(io.StringIO(bad))
    message = str(exc.value)
    assert message.startswith("line 5: non-finite training input")
    assert repr(cell) in message and repr(column) in message


@pytest.mark.parametrize("cell", NON_FINITE)
@pytest.mark.parametrize("column,name", [(0, "a"), (2, "y")], ids=["feature", "target"])
@pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
def test_csv_non_finite_cell_reports_line_and_column(cell, column, name, header):
    row = ["1.0", "2.0", "3.0"]
    row[column] = cell
    text = ("a,b,y\n" if header else "") + "4.0,5.0,6.0\n" + ",".join(row) + "\n"
    with pytest.raises(StreamFormatError) as exc:
        parse_regression_csv(io.StringIO(text), 2)
    message = str(exc.value)
    assert message.startswith(f"line {3 if header else 2}: non-finite training input")
    assert repr(cell) in message
    assert f"in column {repr(name) if header else column}" in message


def test_finite_cells_whose_sum_overflows_are_kept():
    instances = parse_regression_csv(io.StringIO("1e308,1e308,-1e308\n"), 2)
    assert instances[0].x.tolist() == [1e308, 1e308]
    assert instances[0].y == -1e308


# ---------------------------------------------------------------------------
# The bulk step reads what the line reader reads, or leaves it to the reader.
# ---------------------------------------------------------------------------

# layout: (parser, header, data rows, index of the first numeric cell)
BULK_LAYOUTS = {
    "quotes": (parse_yahoo_csv, ",".join(YAHOO_HEADER),
               [["2014-01-03", "19.0", "19.5", "18.5", "19.2", "1000", "19.1"],
                ["2014-01-02", "18.0", "18.5", "17.5", "18.2", "2000", "18.1"],
                ["2014-01-06", "20.0", "20.5", "19.5", "20.2", "1500", "20.1"]], 1),
    "numeric": (lambda source: parse_regression_csv(source, "y"), "a,b,y",
                [["1.5", "2", "3"], ["4", "5e-3", "-6"], ["7", "8", "9.25"]], 0),
}


def _text(header, rows):
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def _with_cells(rows, row, col, *values):
    rows = [list(cells) for cells in rows]
    rows[row][col:col + len(values)] = values
    return rows


def _cell_case(value):
    return lambda header, rows, col: _text(header, _with_cells(rows, 1, col, value))


BULK_CASES = {
    "plain": lambda header, rows, col: _text(header, rows),
    "extra-field": lambda header, rows, col: _text(header, [rows[0], rows[1] + ["9"], rows[2]]),
    "missing-field": lambda header, rows, col: _text(header, [rows[0], rows[1][:-1], rows[2]]),
    "quoted-cell": _cell_case('"1.5"'),
    "underscore": _cell_case("1_000"),
    "spaced-cell": _cell_case(" 1.5 "),
    "nan": _cell_case("nan"),
    "inf": _cell_case("inf"),
    "minus-inf": _cell_case("-inf"),
    "overflow-to-inf": _cell_case("1e999"),
    "finite-sum-overflow": lambda header, rows, col: _text(header, _with_cells(rows, 1, col, "1e308", "1e308")),
    "blank-lines": lambda header, rows, col: _text(header, rows).replace("\n", "\n\n   \n\t\n", 2),
    "row-of-empty-cells": lambda header, rows, col: _text(header, [rows[0], [""] * len(rows[0]), rows[2]]),
    "data-cell-over-two-lines": _cell_case('"1.5\n"'),
    "crlf-str": lambda header, rows, col: _text(header, rows).replace("\n", "\r\n"),
    "blank-line-with-carriage-return": lambda header, rows, col: _text(header, rows).replace("\n", "\n \r \n", 2),
    "leading-blank-line-with-carriage-return": lambda header, rows, col: " \r \n" + _text(header, rows),
    "header-alone": lambda header, rows, col: header + "\n",
    "empty": lambda header, rows, col: "",
}
QUOTE_CASES = {
    "dates-in-order": lambda header, rows, col: _text(header, sorted(rows)),
    "unsorted-duplicate-dates": lambda header, rows, col: _text(
        header, [[day, *cells[1:]] for day, cells in
                 zip(["2014-01-03", "2014-01-02", "2014-01-03", "2014-01-02"], rows + rows[::-1])]),
    "basic-date-form": lambda header, rows, col: _text(header, _with_cells(rows, 1, 0, "20200101")),
    "spaced-date": lambda header, rows, col: _text(header, _with_cells(rows, 1, 0, " 2014-01-01 ")),
    "quoted-date": lambda header, rows, col: _text(header, _with_cells(rows, 1, 0, '"2014-01-01"')),
    "bad-date": lambda header, rows, col: _text(header, _with_cells(rows, 1, 0, "2014-13-01")),
}
NUMERIC_CASES = {
    "semicolons": lambda header, rows, col: _text(header, rows).replace(",", ";"),
    "quoted-header": lambda header, rows, col: _text('"a","b","y"', rows),
    "header-cell-over-two-lines": lambda header, rows, col: _text('a,"b\nb",y', rows),
    "unclosed-quote-in-header": lambda header, rows, col: _text('a,b,"y', rows),
    "headerless": lambda header, rows, col: _text(",".join(rows[0]), rows[1:]),
}
# cases the bulk step reads itself; it leaves every other one to the line reader
TAKE_THE_BULK_STEP = {"plain", "spaced-cell", "finite-sum-overflow", "blank-lines",
                      "dates-in-order", "unsorted-duplicate-dates", "basic-date-form", "spaced-date",
                      "semicolons", "quoted-header", "header-cell-over-two-lines"}


def _bulk_cases():
    for layout, cases in (("quotes", {**BULK_CASES, **QUOTE_CASES}),
                          ("numeric", {**BULK_CASES, **NUMERIC_CASES})):
        parse, header, rows, col = BULK_LAYOUTS[layout]
        for name, make in cases.items():
            yield pytest.param(parse, make(header, rows, col), name, id=f"{layout}-{name}")


@pytest.mark.parametrize("parse,text,case", _bulk_cases())
def test_bulk_step_reads_as_the_line_reader(parse, text, case):
    expected, _ = outcome(parse, text, bulk=False)
    got, read_by_row = outcome(parse, text)
    assert got == expected
    if case in TAKE_THE_BULK_STEP:
        assert not read_by_row and expected


# ---------------------------------------------------------------------------
# A parse keeps its feature blocks and targets and makes each instance when it is read.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", BULK_LAYOUTS)
def test_a_parsed_file_reads_the_same_instances_every_way(layout):
    parse, header, rows, _ = BULK_LAYOUTS[layout]
    parsed = parse(_text(header, rows))
    n = len(parsed)
    want = fields(parsed)
    assert n == len(rows) and [index for _, _, index in want] == list(range(n))
    assert fields(parsed) == want  # a second iteration
    assert fields(list(parsed)) == want
    assert fields([parsed[i] for i in range(-n, n)]) == want + want
    for cut in (slice(None, None, 2), slice(2, 1), slice(None, None, -1), slice(-2, None)):
        assert type(parsed[cut]) is list and fields(parsed[cut]) == want[cut]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert fields(pickle.loads(pickle.dumps(parsed, protocol))) == want
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            parsed[i]
    assert parsed[0] is not parsed[0] and parsed[0] != parsed[0]


def _long_text(layout, n=20_000):
    cells = np.random.default_rng(1).uniform(1.0, 100.0, (n, 6))
    if layout == "quotes":
        days = [(date(1990, 1, 1) + timedelta(days=t)).isoformat() for t in range(n)]
        return _text(",".join(YAHOO_HEADER), [[day, *(f"{v:.4f}" for v in row)]
                                             for day, row in zip(days, cells)])
    return _text("a,b,c,d,e,y", [[f"{v:.6f}" for v in row] for row in cells])


# a parse that built its 20,000 instances up front peaked at 5.60 to 5.61 MB
# traced, on either layout (Python 3.11.7, numpy 2.4.6)
PEAK_PER_ROW = 5.61e6 / 20_000
# the feature blocks and float64 targets of the 20,000 rows retain 48.1 bytes a row on
# either layout; one feature matrix and a list of target floats retained 72.0
TARGET_BYTES = 8


@pytest.mark.parametrize("layout", BULK_LAYOUTS)
def test_a_parse_peaks_at_the_instances_it_returns(monkeypatch, layout):
    source = io.StringIO(_long_text(layout))
    monkeypatch.setattr(streams, "_row_values", refuse)  # the bulk step reads it all
    tracemalloc.start()
    try:
        parsed = BULK_LAYOUTS[layout][0](source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed) == 20_000
    features = sum(block.nbytes for block in parsed.blocks)
    assert retained <= 1.05 * features + TARGET_BYTES * len(parsed), \
        f"retained {retained / len(parsed):.1f} bytes a row"
    assert peak <= PEAK_PER_ROW * len(parsed), f"peak {peak / len(parsed):.1f} bytes a row"


# the 20,000-row text of the test above, read in blocks: 138.3 bytes a row (quotes) and
# 135.9 (numeric), from either source; read whole, 277.6 and 238.0 from an iterable of
# lines, 350.0 and 355.0 from text (Python 3.11.7, numpy 2.4.6)
BLOCK_PEAK_PER_ROW = 170


@pytest.mark.parametrize("source", [io.StringIO, str], ids=["lines", "text"])
@pytest.mark.parametrize("layout", BULK_LAYOUTS)
def test_a_parse_holds_one_block_of_text_at_a_time(monkeypatch, layout, source):
    source = source(_long_text(layout))
    monkeypatch.setattr(streams, "_row_values", refuse)  # the bulk step reads it all
    tracemalloc.start()
    try:
        parsed = BULK_LAYOUTS[layout][0](source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 20_000
    assert peak <= BLOCK_PEAK_PER_ROW * len(parsed), f"peak {peak / len(parsed):.1f} bytes a row"


@pytest.mark.parametrize("layout", BULK_LAYOUTS)
def test_a_one_shot_iterator_of_lines_reads_as_the_text(layout):
    parse, text = BULK_LAYOUTS[layout][0], _long_text(layout)
    lines = text.splitlines(keepends=True)
    assert 2 * streams._BLOCK < len(lines) - 1
    assert fields(parse(line for line in lines)) == fields(parse(text))
    row = 2 * streams._BLOCK + 7  # in the third block of data lines
    lines[row] = lines[row].replace(",", ",x", 1)
    with pytest.raises(StreamFormatError) as by_text:
        parse("".join(lines))
    with pytest.raises(StreamFormatError) as by_lines:
        parse(line for line in lines)
    assert str(by_lines.value) == str(by_text.value)
    assert str(by_text.value).startswith(f"line {row + 1}: non-numeric cell 'x")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("layout", BULK_LAYOUTS)
def test_a_parse_leaves_the_collector_as_it_found_it(layout, enabled):
    parse, header, rows, _ = BULK_LAYOUTS[layout]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(parse(_text(header, rows))) == len(rows)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
