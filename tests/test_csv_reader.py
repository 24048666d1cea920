"""The one validated CSV reader, ``_io.read_csv``: the column pass over
chunks of rows against the row-at-a-time loop it replaced, physical line
numbers, a byte order mark and text that is not UTF-8."""

import csv
import io
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from conftest import TRADEOFF_SCHEMA
from hypothesis import given, settings
from hypothesis import strategies as st

from fairalloc import _io
from fairalloc._io import CsvColumns
from fairalloc.audit import AuditSchema, ingest_csv
from fairalloc.cli import load_population_csv, main
from fairalloc.errors import DataValidationError, SchemaMismatchError


def read_rows_loop(reader, columns):
    """The row-at-a-time reader that the column pass replaced, kept as the
    oracle: the same result, or the same errors in the same order."""
    header = next(reader, None)
    cols = columns(header)
    float_at = [(c, header.index(c)) for c in cols.floats]
    label_at = None if cols.label is None else header.index(cols.label)
    id_at = None if cols.id is None else header.index(cols.id)
    label_index = {name: i for i, name in enumerate(cols.labels)}
    lo, hi = cols.bounds
    ids, floats, labels, errors = [], [], [], []
    flags = {c: [] for c in cols.flags}
    flag_at = [(c, header.index(c)) for c in flags]
    id_lines = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            errors.append(f"schema-mismatch(line {line}): expected {len(header)} fields")
            continue
        n_errors = len(errors)
        values = []
        for c, j in float_at:
            try:
                value = float(row[j])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                errors.append(f"range-violation(line {line}): {c}={row[j]!r} is not finite")
            elif not lo <= value <= hi:
                errors.append(f"range-violation(line {line}): {c}={row[j]!r} "
                              f"not in [{lo:g}, {hi:g}]")
            values.append(value)
        if label_at is not None and row[label_at] not in label_index:
            errors.append(f"label-violation(line {line}): {cols.label}={row[label_at]!r} "
                          f"not one of {list(cols.labels)}")
        for c, j in flag_at:
            if row[j] not in ("0", "1"):
                errors.append(f"range-violation(line {line}): {c}={row[j]!r} must be 0 or 1")
        if id_at is not None:
            first = id_lines.setdefault(row[id_at], line)
            if first != line:
                errors.append(f"duplicate-id(line {line}): {row[id_at]!r} already on line {first}")
        if len(errors) == n_errors:
            ids.append(row[id_at] if id_at is not None else str(len(ids) + 1))
            floats.append(values)
            for c, j in flag_at:
                flags[c].append(row[j] == "1")
            if label_at is not None:
                labels.append(label_index[row[label_at]])
    if errors:
        raise DataValidationError(errors)
    if not ids:
        raise DataValidationError(["schema-mismatch(line 2): no data rows"])
    return (
        ids,
        np.array(floats, dtype=np.float64),
        {c: np.array(v, dtype=np.int8) for c, v in flags.items()},
        np.array(labels, dtype=np.int64),
    )


GOOD = {
    "float": ["0", "1", "0.5", "0.25", "1e-3", " 0.75", "-0.0"],
    "flag": ["0", "1"],
    "label": ["A", "B", "C"],
}
BAD = {
    "float": ["x", "nan", "inf", "-inf", "-0.1", "1_0", "1.5", ""],
    "flag": ["2", "", "01", " 1", "true"],
    "label": ["D", "", "a", "A "],
}


@st.composite
def csv_case(draw):
    """A header of float, flag, label, id and unused columns in any order, the
    columns the reader is asked for, and the text of up to 14 lines."""
    n_floats, n_flags = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    kinds = {f"f{i}": "float" for i in range(n_floats)}
    kinds.update({f"g{i}": "flag" for i in range(n_flags)})
    if draw(st.booleans()):
        kinds["label"] = "label"
    if draw(st.booleans()):
        kinds["id"] = "id"
    kinds["extra"] = "extra"
    header = draw(st.permutations(list(kinds)))
    floats = [c for c in header if kinds[c] == "float"]
    flags = [c for c in header if kinds[c] == "flag"]
    if floats and draw(st.booleans()):
        floats.append(floats[0])  # a column named twice is checked twice
    if flags and draw(st.booleans()):
        flags.append(flags[0])  # and a flag named twice is read once
    columns = CsvColumns(
        floats=floats,
        bounds=draw(st.sampled_from([(0.0, 1.0), (-math.inf, math.inf)])),
        flags=flags,
        label="label" if "label" in kinds else None,
        labels=("A", "B", "C"),
        id="id" if "id" in kinds else None,
    )
    dirty = draw(st.booleans())
    lines = [",".join(header)]
    for number in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(["row"] * 6 + (["blank", "short", "long"] if dirty else [])))
        if shape == "blank":
            lines.append("")
            continue
        row = []
        for c in header:
            kind = kinds[c]
            if kind == "id":
                row.append(draw(st.sampled_from(["a", "b", "c"])) if dirty else f"r{number}")
            elif kind == "extra":
                row.append(draw(st.sampled_from(["", "x", "9"])))
            elif dirty and draw(st.integers(0, 3)) == 0:
                row.append(draw(st.sampled_from(BAD[kind])))
            else:
                row.append(draw(st.sampled_from(GOOD[kind])))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["0"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", columns


def outcome(read, text, columns):
    """The reader's result, or the error list it raised."""
    try:
        return read(csv.reader(io.StringIO(text, newline="")), lambda header: columns)
    except DataValidationError as exc:
        return exc.row_errors


def assert_same_outcome(got, expected):
    """The same errors, or the same ids and arrays of the same dtypes,
    shapes and bytes."""
    if not isinstance(expected, tuple):
        assert got == expected
        return
    ids, floats, flags, labels = expected
    assert list(got[0]) == ids
    assert list(got[2]) == list(flags)
    for want, have in [(floats, got[1]), (labels, got[3]), *zip(flags.values(), got[2].values())]:
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4096])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=csv_case())
def test_column_pass_matches_row_loop(chunk_rows, case):
    text, columns = case
    expected = outcome(read_rows_loop, text, columns)
    with mock.patch.object(_io, "_CHUNK_ROWS", chunk_rows):
        got = outcome(_io._read_rows, text, columns)
    assert_same_outcome(got, expected)


def exit_code_and_stderr(capsys, *argv):
    code = main([*argv])
    return code, capsys.readouterr().err


ID_COLUMNS = CsvColumns(floats=["u_1"], id="id")


def id_csv(ids):
    return "id,u_1\n" + "".join(f"{i},0.5\n" for i in ids)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4096])
@pytest.mark.parametrize("ids", [
    ["a", "b", "c", "d", "ab", "", "ba"],
    ["a", "b", "a", "c", "b", "a", "", "c", ""],
], ids=["distinct", "repeated"])
def test_colliding_id_keys_are_compared_as_text(chunk_rows, ids):
    # every id gets the same key: distinct ids still pass, and each repeat
    # names the lines the row-at-a-time oracle names
    expected = outcome(read_rows_loop, id_csv(ids), ID_COLUMNS)
    with mock.patch.object(_io, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(_io, "_id_hash", lambda text: 7):
        got = outcome(_io._read_rows, id_csv(ids), ID_COLUMNS)
    assert_same_outcome(got, expected)
    if len(set(ids)) < len(ids):
        assert expected == [
            "duplicate-id(line 4): 'a' already on line 2",
            "duplicate-id(line 6): 'b' already on line 3",
            "duplicate-id(line 7): 'a' already on line 2",
            "duplicate-id(line 9): 'c' already on line 5",
            "duplicate-id(line 10): '' already on line 8",
        ]


def test_ids_read_back_in_row_order():
    # the cuts of every chunk but the first continue from the last one's end
    ids = [f"r{i}" for i in range(10)] + ["", "é", "a\nb"]
    with mock.patch.object(_io, "_CHUNK_ROWS", 4):
        got = _io._read_rows(csv.reader(io.StringIO(id_csv(
            [f'"{i}"' for i in ids]), newline="")), lambda header: ID_COLUMNS)[0]
    assert list(got) == ids


class TestPhysicalLines:
    """A record is numbered by the physical line it starts on, also after a
    quoted field that holds a line break."""

    TEXT = (
        "id,u_1,u_2,g\n"
        '"a\nb",0.1,0.2,1\n'  # lines 2-3
        "c,0.3,zz,0\n"  # line 4
        '"a\nb",0.4,0.5,0\n'  # lines 5-6
        "c,0.6,0.7\n"  # line 7
        "c,0.6,0.7,1\n"  # line 8
    )

    def test_errors_name_the_starting_line(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text(self.TEXT, encoding="utf-8")
        with pytest.raises(DataValidationError) as err:
            load_population_csv(str(path))
        assert err.value.row_errors == [
            "range-violation(line 4): u_2='zz' is not finite",
            "duplicate-id(line 5): 'a\\nb' already on line 2",
            "schema-mismatch(line 7): expected 4 fields",
            "duplicate-id(line 8): 'c' already on line 4",
        ]
        code, stderr = exit_code_and_stderr(
            capsys, "solve", "--population", str(path), "--capacities", "3,3",
            "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "range-violation(line 4): u_2='zz'" in stderr


AUDIT_SCHEMA = AuditSchema.from_dict(TRADEOFF_SCHEMA)


def read_audit(path):
    return ingest_csv(path, AUDIT_SCHEMA)


class TestEncoding:
    POPULATION = "id,u_1,u_2,g\na,1.0,0.0,0\nb,0.0,1.0,1\n"
    AUDIT = "id,p_TH,p_RRH,p_ES,observed,children\nh1,0.3,0.5,0.4,TH,0\nh2,0.6,0.2,0.5,RRH,1\n"

    def test_byte_order_mark_is_skipped_by_both_readers(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        for text, reader in [(self.POPULATION, load_population_csv),
                             (self.AUDIT, read_audit)]:
            plain.write_text(text, encoding="utf-8")
            marked.write_text(text, encoding="utf-8-sig")
            assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
            assert repr(reader(str(marked))) == repr(reader(str(plain)))

    def test_byte_order_mark_population_solves(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(self.POPULATION, encoding="utf-8-sig")
        assert main(["solve", "--population", str(path), "--capacities", "1,1",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "allocation.csv").read_text() == "id,service\na,1\nb,2\n"

    @pytest.mark.parametrize("data, line", [
        (b"id,u_1,u_2,\xff\na,1.0,0.0,0\n", 1),
        (b"id,u_1,u_2,g\na,1.0,0.0,0\nb,0.0,\xff,1\n", 3),
        (b"id,u_1,u_2,g\r\na,1.0,0.0,0\rb,0.0,1.0,1\r\nc,\xff,0,0\n", 4),  # every line end
        (b'id,u_1,u_2,g\n"a\nb",1.0,0.0,0\nc,\xc3\xa9\xfe,0,0\n', 4),  # after a valid character
        (b"id,u_1,u_2,g\na,1.0,0.0,0\nb,0.0,1.0,\xc3", 3),  # cut inside a character
        (b"id,u_1,u_2,g\n" + b"".join(b"r%d,0.5,0.5,0\n" % i for i in range(5000))
         + b"x,0.5,0.5,\xe9\n", 5002),  # far past the decoder's first block
    ], ids=["header", "row", "every-line-end", "after-a-character", "cut-character", "far"])
    def test_bad_utf8_names_its_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "pop.csv"
        path.write_bytes(data)
        with pytest.raises(DataValidationError) as err:
            load_population_csv(str(path))
        assert err.value.row_errors == [f"schema-mismatch(line {line}): not valid UTF-8"]
        code, stderr = exit_code_and_stderr(
            capsys, "solve", "--population", str(path), "--capacities", "9999,9999",
            "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"schema-mismatch(line {line}): not valid UTF-8" in stderr

    @pytest.mark.parametrize("rows", [0, 3000], ids=["near", "far"])
    def test_header_fault_comes_before_a_later_bad_byte(self, tmp_path, rows):
        # the header is read and checked before the lines after it, however
        # near the bad byte lies
        path = tmp_path / "pop.csv"
        path.write_bytes(b"id,u_0,u_1\n" + b"a,1,0\n" * rows + b"b,\xff,1\n")
        with pytest.raises(SchemaMismatchError, match="found u_0, u_1"):
            load_population_csv(str(path))

    def test_bad_utf8_in_an_audit_csv(self, tmp_path):
        path = tmp_path / "audit.csv"
        path.write_bytes(self.AUDIT.encode().replace(b"h2", b"h\x802"))
        with pytest.raises(DataValidationError) as err:
            read_audit(str(path))
        assert err.value.row_errors == ["schema-mismatch(line 3): not valid UTF-8"]


def decoded_outcome(data: bytes, columns):
    """What the utf-8-sig codec and the row-loop oracle make of ``data``: the
    oracle's result or errors over the decoded text, the empty-file error,
    or the not-UTF-8 error at the line of the first bad byte."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        text = data.decode("utf-8", errors="replace")
        before = text[: text.index("\ufffd")]
        line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
        return [f"schema-mismatch(line {line}): not valid UTF-8"]
    if not text:
        return "schema-mismatch: file is empty"
    return outcome(read_rows_loop, text, columns(next(csv.reader(io.StringIO(text, newline="")))))


def file_outcome(path, columns):
    """``read_csv``'s result, or the errors it raised."""
    try:
        return _io.read_csv(str(path), columns)
    except DataValidationError as exc:
        return exc.row_errors
    except SchemaMismatchError as exc:
        return str(exc)


BOM = "\ufeff".encode()
ROWS = b"id,u_1,u_2,g\na,1.0,0.0,0\nb,0.0,1.0,1\n"
FAR = b"".join(b"r%d,0.5,0.5,0\n" % i for i in range(2000))  # past the first 8 KB
BOM_CASES = {
    "plain": ROWS,
    "bom": BOM + ROWS,
    "bom-quoted-header": BOM + b'"id","u_1",u_2,g\na,1.0,0.0,0\n',
    "bom-only": BOM,
    "empty": b"",
    "two-boms": BOM + BOM + ROWS,  # the second stays part of the first name
    "bad-utf8": ROWS + b"c,0.5,\xff,1\n",
    "bom-bad-utf8": BOM + ROWS + b"c,0.5,\xff,1\n",
    "bom-bad-utf8-header": BOM + b"\xffid,u_1,u_2,g\na,1.0,0.0,0\n",
    "bom-cut-bom": b"\xef\xbb" + ROWS,
    "bom-bad-utf8-far": BOM + ROWS + FAR + b"x,0.5,0.5,\xe9\n",
    "crlf": ROWS.replace(b"\n", b"\r\n"),
    "bom-crlf": BOM + ROWS.replace(b"\n", b"\r\n"),
    "cr": ROWS.replace(b"\n", b"\r"),
    "bom-cr": BOM + ROWS.replace(b"\n", b"\r"),
    "bom-cr-bad-utf8": BOM + ROWS.replace(b"\n", b"\r") + b"c,\xc3,0.5,1\r",
}


def bom_columns(header):
    # a mark left in the first name makes it an unused column, and the rows
    # are numbered instead
    return CsvColumns(floats=["u_1", "u_2"], flags=["g"], id="id" if "id" in header else None)


@pytest.mark.parametrize("data", BOM_CASES.values(), ids=BOM_CASES.keys())
def test_byte_order_mark_reads_as_utf8_sig(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert_same_outcome(file_outcome(path, bom_columns), decoded_outcome(data, bom_columns))


def through_fifo(tmp_path, data, read):
    """``read(path)`` of a named pipe that a thread writes ``data`` to, or
    None if it gives no answer within 10 s."""
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    got = []
    reader = threading.Thread(target=lambda: got.append(read(str(fifo))), daemon=True)
    reader.start()
    reader.join(timeout=10)
    if reader.is_alive():
        # a reader that opens the pipe a second time waits for a writer:
        # one that writes nothing lets it finish
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
        return None
    writer.join(timeout=10)
    assert not writer.is_alive() and got
    return got[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("data", BOM_CASES.values(), ids=BOM_CASES.keys())
def test_pipe_reads_as_a_file(tmp_path, data):
    # a pipe cannot be read twice; its mark is dropped from the first line,
    # and a bad byte is refused on its own line
    got = through_fifo(tmp_path, data, lambda path: file_outcome(path, bom_columns))
    assert got is not None, "no answer within 10 s"
    assert_same_outcome(got, decoded_outcome(data, bom_columns))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_bad_utf8_through_a_pipe_solves_as_a_file(tmp_path, capsys):
    data = ROWS + b"c,0.5,\xff,1\n"
    path = tmp_path / "data.csv"
    path.write_bytes(data)

    def solve(population):
        return main(["solve", "--population", population, "--capacities", "2,2",
                     "--output-dir", str(tmp_path / "out")])

    assert solve(str(path)) == 2
    from_file = capsys.readouterr().err
    assert through_fifo(tmp_path, data, solve) == 2
    assert capsys.readouterr().err == from_file == (
        "error: 1 invalid row(s): schema-mismatch(line 4): not valid UTF-8\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_repeated_id_through_a_pipe_reads_as_in_a_file(tmp_path):
    # the repeats are found after the last chunk, from what the chunks kept:
    # a pipe, read once, names the same lines as a file
    data = ROWS + FAR + b"b,0.5,0.5,0\nr7,0.5,0.5,1\n"
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    got = through_fifo(tmp_path, data, lambda fifo: file_outcome(fifo, bom_columns))
    assert got == file_outcome(path, bom_columns) == [
        "duplicate-id(line 2004): 'b' already on line 3",
        "duplicate-id(line 2005): 'r7' already on line 11",
    ]
