"""The CSV dialect of ``read_dataset`` and ``write_matrix_csv``, pinned to a
reader and a writer that handle one cell at a time (``tests/_oracles.py``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import read_csv_by_cell, write_csv_by_cell
from fpqr import read_dataset
from fpqr.cli import main
from fpqr.exceptions import DataError
from fpqr.io import write_matrix_csv

FORMATS = {
    "repr": repr,
    "25e": lambda v: f"{v:.25e}",
    "15g": lambda v: f"{v:.15g}",
    "padded": lambda v: f"  {v!r}\t ",
    "quoted": lambda v: f'"{v!r}"',
}


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    return path


def assert_reads_alike(path):
    """read_dataset gives the cell reader's values bit for bit, or its error word for word."""
    try:
        expected_header, expected = read_csv_by_cell(path)
    except ValueError as exc:
        with pytest.raises(DataError) as raised:
            read_dataset(path)
        assert str(raised.value) == str(exc)
        return
    header, data = read_dataset(path)
    assert header == expected_header
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()  # signed zeros included


@st.composite
def formatted_tables(draw):
    width = draw(st.integers(1, 4))
    cell = st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(sorted(FORMATS)))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(f"c{j}" for j in range(width))]
    lines += [",".join(FORMATS[kind](value) for value, kind in row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestAgainstCellReader:
    @settings(max_examples=200)
    @given(formatted_tables())
    def test_values_bit_identical(self, tmp_path_factory, text):
        assert_reads_alike(write_text(tmp_path_factory.getbasetemp() / "t.csv", text))

    @settings(max_examples=100)
    @given(formatted_tables())
    def test_line_by_line_reads_the_same_bytes(self, tmp_path_factory, text):
        path = write_text(tmp_path_factory.getbasetemp() / "t.csv", text)
        loadtxt, calls = np.loadtxt, []

        def refuse_whole_body(*args, **kwargs):
            # The first call is the one over the whole body; refusing it
            # sends the table down the line-by-line path.
            calls.append(args)
            if len(calls) == 1:
                raise ValueError("refused")
            return loadtxt(*args, **kwargs)

        # A refused body is walked line by line only to name its fault, so
        # only a faulty table is checked.
        try:
            read_dataset(path)
        except DataError as exc:  # "%.15g" can round a double up to inf
            with pytest.raises(DataError) as raised, mock.patch.object(np, "loadtxt", refuse_whole_body):
                read_dataset(path)
            assert str(raised.value) == str(exc)

    @pytest.mark.parametrize("kind", sorted(FORMATS))
    def test_doubles_across_the_exponent_range(self, tmp_path, kind):
        # Random bit patterns reach subnormals, signed zeros and the extremes.
        bits = np.random.default_rng(17).integers(0, 2**64, size=20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:15_000].reshape(-1, 5)
        lines = ["a,b,c,d,e"] + [",".join(FORMATS[kind](v) for v in row) for row in values.tolist()]
        path = write_text(tmp_path / "m.csv", "\n".join(lines) + "\n")
        assert_reads_alike(path)
        if kind != "15g":  # the others keep enough digits to round-trip
            assert read_dataset(path)[1].tobytes() == values.tobytes()

    # Each mutation inserts one of these, deletes one character or swaps two
    # lines. Quotes, "_" and non-ASCII digits are left out: there the two
    # readers differ on purpose (see TestNarrowedDialect).
    INSERTS = [",", "\n", "\r\n", " ", "\t", "#", "-", ".", "e", "x", "0", "7", "inf", "nan", "1e999"]

    @settings(max_examples=300)
    @given(
        st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10_000), st.sampled_from(INSERTS)), min_size=1, max_size=3),
    )
    def test_same_error_on_the_same_line(self, tmp_path_factory, rows, mutations):
        text = "a,b,c\n" + "".join(",".join(f"{v / 8!r}" for v in row) + "\n" for row in rows)
        for kind, where, insert in mutations:
            at = where % (len(text) + 1)
            if kind == 0:
                text = text[:at] + insert + text[at:]
            elif kind == 1:
                text = text[:at] + text[at + 1 :]
            else:
                lines = text.split("\n")
                i = at % len(lines)
                lines[i], lines[-1] = lines[-1], lines[i]
                text = "\n".join(lines)
        assume(not text.startswith(("\n", "\r")))  # a blank header line (TestNarrowedDialect)
        assert_reads_alike(write_text(tmp_path_factory.getbasetemp() / "t.csv", text))


# Bodies with one fault each: the file line and column the error must name.
FAULTS = [
    ("a,b\n1,2\n3,4#c\n", 3, "b"),  # "#" starts no comment
    ("a,b\n1,2\n\n3,4\n", 3, None),  # blank line inside the body
    ("a,b\n1,2\n3,4\n\n", 4, None),  # trailing blank line
    ("a,b\n1,2\n\n3,x\n", 3, None),  # the blank line comes first
    ("a,b\n1,2\n3,4\n\n5,x\n", 4, None),
    ("a,b\n1,2\n3,4\n5,x\n", 4, "b"),
    ("a,b\n1,2,\n3,4\n", 2, None),  # trailing comma
    ("a,b\n1,2\n3,4,\n", 3, None),
    ("a,b\n1,2,3\n4,5,6\n", 2, None),  # every row one wider than the header
    ("a,b\nx,1,2\n", 2, None),  # too wide and not numeric: the width is reported
    ("a,b\n1,2\n3\n", 3, None),
    ("a,b\n1,2\n \n", 3, None),
    ("a,b\n1,2\n3,inf\n", 3, "b"),
    ("a,b\n1,nan\n3,x\n", 2, "b"),  # non-finite before not numeric
    ("a,b\n1,2\nnan,x\n", 3, "a"),  # the same, within one line
    ("a,b\n1,2\n1e400,4\n", 3, "a"),
    ("a,b\r\n1,2\r\n3,?\r\n", 3, "b"),
    ('a,b\n"1",2\n3,"4"x\n', 3, "b"),
]


@pytest.mark.parametrize("text, line, column", FAULTS)
def test_fault_names_line_and_column(tmp_path, text, line, column):
    assert_fault_named(write_text(tmp_path / "bad.csv", text), line, column)


@pytest.mark.parametrize("text, line, column", FAULTS)
def test_fault_message_does_not_depend_on_numpy_wording(tmp_path, monkeypatch, text, line, column):
    loadtxt = np.loadtxt

    def reworded(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except ValueError:
            raise ValueError("a message worded unlike any numpy release") from None

    monkeypatch.setattr(np, "loadtxt", reworded)
    assert_fault_named(write_text(tmp_path / "bad.csv", text), line, column)


def assert_fault_named(path, line, column):
    with pytest.raises(DataError) as raised:
        read_dataset(path)
    message = str(raised.value)
    assert f"line {line}" in message
    if column is not None:
        assert f"line {line}, column {column!r}" in message
    with pytest.raises(ValueError) as expected:
        read_csv_by_cell(path)
    assert message == str(expected.value)


class TestNarrowedDialect:
    """Where ``read_dataset`` is stricter than the cell-by-cell reader."""

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff13"], ids=["underscore", "arabic-indic", "fullwidth"])
    def test_float_only_spellings_rejected(self, tmp_path, cell):
        path = write_text(tmp_path / "n.csv", f"a,b\n1,2\n{cell},4\n")
        read_csv_by_cell(path)  # float() takes it
        with pytest.raises(DataError, match=r"line 3, column 'a': .* is not numeric"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "text, line",
        [('a\n"1\n2\n', 2), ('a,b\n1,2\n3,"4\n",5\n', 3), ('a\n1\n"2', 3)],
        ids=["spans-lines", "closes-next-line", "open-at-end"],
    )
    def test_quoted_cell_must_close_on_its_line(self, tmp_path, text, line):
        path = write_text(tmp_path / "q.csv", text)
        with pytest.raises(DataError, match=f"line {line}: a quoted cell does not close on its line"):
            read_dataset(path)

    @pytest.mark.parametrize("text", ["\n\n", "\r\n\r\n"], ids=["lf", "crlf"])
    def test_blank_header_line_rejected(self, tmp_path, text):
        # The cell reader takes an empty header and a blank body line as a
        # table with no columns.
        path = write_text(tmp_path / "h.csv", text)
        assert read_csv_by_cell(path)[1].shape == (1, 0)
        with pytest.raises(DataError, match="line 1 is blank"):
            read_dataset(path)


class TestFieldLimit:
    def test_long_header_name(self, tmp_path, capsys):
        path = write_text(tmp_path / "h.csv", "a," + "b" * 200_000 + "\n1,2\n2,3\n")
        with pytest.raises(DataError, match="line 1: field larger than field limit"):
            read_dataset(path)
        code = main(["fit", "--data", str(path), "--response-cols", "a", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "field limit" in capsys.readouterr().err

    def test_long_data_cell(self, tmp_path, capsys):
        path = write_text(tmp_path / "c.csv", "a,b\n1," + "1" * 200_000 + "\n2,3\n")
        with pytest.raises(DataError, match=r"line 2, column 'b': non-finite value '1{40}'\.\.\. \(200000 characters\)"):
            read_dataset(path)
        code = main(["fit", "--data", str(path), "--response-cols", "a", "--out", str(tmp_path / "m.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and len(err) < 200

    def test_long_finite_cell_is_read(self, tmp_path):
        path = write_text(tmp_path / "c.csv", "a\n0." + "0" * 200_000 + "1\n2\n")
        assert read_dataset(path)[1].tolist() == [[0.0], [2.0]]


class TestWriter:
    @settings(max_examples=100)
    @given(
        st.lists(st.lists(st.floats(width=64), min_size=3, max_size=3), min_size=1, max_size=5),
        st.sampled_from([["a", "b", "c"], ["x,y", 'q"uote', " sp "], ["", "é", "line\nbreak"]]),
    )
    def test_bytes_match_the_csv_writer(self, tmp_path_factory, rows, header):
        folder = tmp_path_factory.getbasetemp()
        write_matrix_csv(folder / "fast.csv", header, np.array(rows))
        write_csv_by_cell(folder / "cells.csv", header, np.array(rows))
        assert (folder / "fast.csv").read_bytes() == (folder / "cells.csv").read_bytes()

    def test_header_width_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="matrix has 2 columns, header has 3"):
            write_matrix_csv(tmp_path / "m.csv", ["a", "b", "c"], np.ones((4, 2)))

    def test_a_vector_is_one_column(self, tmp_path):
        write_matrix_csv(tmp_path / "v.csv", ["y"], np.array([1.0, 2.0, 3.0]))
        write_matrix_csv(tmp_path / "m.csv", ["y"], np.array([[1.0], [2.0], [3.0]]))
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "m.csv").read_bytes() == b"y\r\n1.0\r\n2.0\r\n3.0\r\n"

    def test_round_trip_through_the_reader(self, tmp_path):
        values = np.random.default_rng(3).standard_t(2, size=(50, 4)) * 10.0 ** np.arange(-150, 150, 75)
        write_matrix_csv(tmp_path / "m.csv", ["a", "b", "c", "d"], values)
        assert read_dataset(tmp_path / "m.csv")[1].tobytes() == values.tobytes()
