"""The shared text-table reader and writer against the per-module readers and
writers they replaced (the referees in ``util``)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcrf import (
    CloudParseError,
    PointCloud,
    read_cloud,
    read_probabilities,
    write_cloud,
    write_probabilities,
)
from pointcrf.cloud import read_table, write_table
from util import (
    reference_fmt,
    reference_parse_csv,
    reference_read_matrix_csv,
    reference_read_probabilities,
    reference_write_cloud,
    reference_write_csv,
    reference_write_probabilities,
)

AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
values = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tables(draw, min_rows=0, min_cols=1):
    rows, cols = draw(st.integers(min_rows, 5)), draw(st.integers(min_cols, 5))
    cells = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@st.composite
def simplex_tables(draw):
    """Probability rows far inside the 1e-6 row-sum bound."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=rows * cols,
                                     max_size=rows * cols)), dtype=np.float64)
    table = weights.reshape(rows, cols) + 0.5
    return table / table.sum(axis=1, keepdims=True)


@st.composite
def texts(draw, table):
    """``table`` as text in several float spellings, with padded cells and blank lines."""
    lines = []
    for row in table.tolist():
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        cells = [draw(st.sampled_from(["{!r}", " {!r}", "{!r}\t", "{:.17g}", "{:.17e}"])).format(v)
                 for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def line_of(exc) -> int:
    return int(re.search(r"(?:line|row) (\d+)", str(exc)).group(1))


@settings(max_examples=60, deadline=None)
@given(tables(min_cols=3))
def test_cloud_files_are_byte_equal_to_the_old_writer(tmp_path_factory, table):
    tmp = tmp_path_factory.mktemp("cloud")
    cloud = PointCloud.from_columns(table)
    for format in ("csv-xyz", "ply-ascii"):
        write_cloud(cloud, tmp / "new", format)
        reference_write_cloud(cloud, tmp / "old", format)
        assert (tmp / "new").read_bytes() == (tmp / "old").read_bytes()


@settings(max_examples=60, deadline=None)
@given(tables())
def test_probability_and_matrix_files_are_byte_equal_to_the_old_writer(tmp_path_factory, table):
    tmp = tmp_path_factory.mktemp("probs")
    write_probabilities(tmp / "new", table)
    reference_write_probabilities(tmp / "old", table)
    assert (tmp / "new").read_bytes() == (tmp / "old").read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=5), st.data())
def test_cli_rows_are_byte_equal_to_the_old_writer(tmp_path_factory, integer_columns, data):
    """Mixed int/float rows, as the CLI writes them, and an integer label column."""
    tmp = tmp_path_factory.mktemp("cli")
    cell = [st.integers(-2**63, 2**63 - 1) if is_int else values for is_int in integer_columns]
    rows = data.draw(st.lists(st.tuples(*cell), max_size=5))
    write_table(tmp / "new", rows, "a,b")
    reference_write_csv(tmp / "old", "a,b", [
        tuple(str(v) if is_int else reference_fmt(v) for v, is_int in zip(row, integer_columns))
        for row in rows
    ])
    assert (tmp / "new").read_bytes() == (tmp / "old").read_bytes()
    if integer_columns[0]:
        labels = np.array([row[0] for row in rows], dtype=np.int64)
        write_table(tmp / "labels", labels[:, None])
        assert (tmp / "labels").read_text() == "".join(f"{int(v)}\n" for v in labels)


@settings(max_examples=60, deadline=None)
@given(tables(min_rows=1))
def test_read_of_write_is_bitwise_equal(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("round") / "t.csv"
    write_table(path, table)
    back, lines = read_table(path)
    assert back.shape == table.shape
    np.testing.assert_array_equal(bits(back), bits(table))  # the sign of zero included
    assert lines == list(range(1, table.shape[0] + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_valid_text_reads_as_each_old_reader_read_it(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("valid") / "t.csv"
    table = data.draw(tables(min_rows=1, min_cols=3))
    path.write_text(data.draw(texts(table)))
    got, lines = read_table(path)
    np.testing.assert_array_equal(bits(got), bits(reference_read_matrix_csv(path)))
    assert len(lines) == table.shape[0]
    old, new = reference_parse_csv(path.read_text()), read_cloud(path, "csv-xyz")
    np.testing.assert_array_equal(bits(new.to_columns()), bits(old.to_columns()))

    path.write_text(data.draw(texts(data.draw(simplex_tables()))))
    np.testing.assert_array_equal(
        bits(read_probabilities(path)), bits(reference_read_probabilities(path))
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ragged_and_non_numeric_text_is_rejected_as_before(tmp_path_factory, data):
    """Every reader rejects the text and names the same line as the reader it replaced."""
    path = tmp_path_factory.mktemp("bad") / "t.csv"
    width = data.draw(st.integers(3, 5))
    good = data.draw(st.lists(st.just(",".join([repr(1 / width)] * width)), min_size=1,
                              max_size=4))
    if data.draw(st.booleans()):
        bad = ",".join(["0.5"] * data.draw(st.integers(1, 7).filter(lambda n: n != width)))
    else:
        token = data.draw(st.sampled_from(["x", "", " ", "1..2", "0x10", "1e", "--1", "one"]))
        cells = [repr(1 / width)] * width
        cells[data.draw(st.integers(0, width - 1))] = token
        bad = ",".join(cells)
    at = data.draw(st.integers(1, len(good)))
    lines = good[:at] + [bad] + good[at:]
    path.write_text("\n".join(lines) + "\n")
    bad_line = at + 1

    with pytest.raises(CloudParseError, match=f"^{re.escape(str(path))}: line {bad_line}: "):
        read_table(path)
    with pytest.raises(CloudParseError, match=f"^{re.escape(str(path))}: line {bad_line}: "):
        read_cloud(path, "csv-xyz")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {bad_line}: "):
        read_probabilities(path)
    for referee in (reference_read_matrix_csv, reference_read_probabilities,
                    lambda p: reference_parse_csv(p.read_text())):
        with pytest.raises(ValueError) as caught:
            referee(path)
        assert line_of(caught.value) == bad_line
