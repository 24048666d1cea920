"""File input and output helpers: the one validated CSV reader, the CSV
text of every output file, JSON configs and shipped presets, and
deterministic atomic writes."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, SchemaMismatchError

# bare names resolved to shipped preset files; anything else is a path
PRESETS = {
    "experiment1": "experiment1.json",
    "experiment2": "experiment2.json",
    "homeless": "homeless_groups.json",
}
_JSON_TYPES = {
    "object": Mapping,
    "array": (list, tuple),
    "number": numbers.Real,
    "integer": numbers.Integral,
    "string": str,
}


def write_text_atomic(path: str | Path, text: str):
    """Write via a temp file in the target directory, then rename. The temp
    file is created with mode 0o666, which the kernel masks with the process
    umask, so the file gets the mode a plain ``open`` would create."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        break
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Echo:
    """A file for ``csv.writer`` whose ``write`` returns the line it is given."""

    def write(self, line: str) -> str:
        return line


def csv_text(rows: Iterable[Sequence[Any]]) -> str:
    """CSV text of ``rows``, one line each, each ended by a line feed. A
    field is quoted only when it holds a comma, a double quote or a line
    break, so that ``csv.reader`` reads every field back; other fields are
    written as ``str`` gives them, so callers format floats with ``repr``."""
    # the writer quotes a field holding any character of its line terminator;
    # with "\r\n" that covers a lone "\r" on every Python version
    writer = csv.writer(_Echo(), lineterminator="\r\n")
    return "".join(writer.writerow(row)[:-2] + "\n" for row in rows)


def dump_json(obj) -> str:
    """Stable JSON text: sorted keys, full float precision, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path_or_preset: str) -> Any:
    """Parse a JSON file, or the shipped preset a bare name in ``PRESETS`` names."""
    if path_or_preset in PRESETS:
        preset = resources.files("fairalloc.presets").joinpath(PRESETS[path_or_preset])
        return json.loads(preset.read_text(encoding="utf-8"))
    with open(path_or_preset, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expect(value, kind: str, field: str):
    """Return ``value`` if it is a JSON ``kind``: "object", "array", "number",
    "integer", "int64" (an integer in the int64 range) or "string".
    ``kind[]`` is an array of ``kind`` items and ``kind[n]`` an array of
    exactly n; for these a list of the items is returned, so "number[][]"
    reads a matrix row by row. A boolean is never a number or an integer.

    Raises:
        SchemaMismatchError: naming ``field`` (or the item, as
            ``field[i]``) otherwise.
    """
    if kind.endswith("]"):
        item, size = kind[:-1].rsplit("[", 1)
        items = expect(value, "array", field)
        if size and len(items) != int(size):
            raise SchemaMismatchError(
                f"schema-mismatch: {field} must be a JSON array of {size} items, not {len(items)}"
            )
        return [expect(v, item, f"{field}[{i}]") for i, v in enumerate(items)]
    if kind == "int64":
        if not -(2**63) <= expect(value, "integer", field) < 2**63:
            raise SchemaMismatchError(f"schema-mismatch: {field} is outside the int64 range")
        return value
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise SchemaMismatchError(
            f"schema-mismatch: {field} must be a JSON {kind}, not {type(value).__name__}"
        )
    return value


def required(data: Mapping[str, Any], key: str, owner: str):
    """``data[key]``.

    Raises:
        SchemaMismatchError: naming ``owner`` and ``key`` if the key is missing.
    """
    if key not in data:
        raise SchemaMismatchError(f"schema-mismatch: {owner} missing field {key!r}")
    return data[key]


@dataclass(frozen=True)
class CsvColumns:
    """The columns ``read_csv`` parses and the rule each one's values obey."""

    floats: Sequence[str] = ()  # finite, within ``bounds``
    bounds: tuple[float, float] = (-math.inf, math.inf)
    flags: Sequence[str] = ()  # "0" or "1"
    label: str | None = None  # one of ``labels``
    labels: Sequence[str] = ()
    id: str | None = None  # unique across rows


def read_csv(
    path: str, columns: Callable[[list[str]], CsvColumns], delimiter: str = ","
) -> tuple[list[str], np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Read a UTF-8 CSV, with or without a byte order mark, whose first line
    is the header; ``columns`` maps the header to the columns to parse. Blank
    lines are skipped; every other row must have one field per header column.
    All row problems are raised together, each with the 1-based physical line
    its row starts on (the header is line 1). Returns the ids (ordinals "1",
    "2", ... without an id column), the float matrix, the int8 vector of each
    flag column and each row's index into ``labels``.

    Raises:
        ValueError: if ``delimiter`` is not exactly one character.
        SchemaMismatchError: if the file is empty, or a named column is
            missing or appears more than once in the header.
        DataValidationError: if any row is invalid, or there is none, or the
            file is not valid UTF-8.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be exactly one character, not {delimiter!r}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            return _read_rows(reader, columns)
        except UnicodeDecodeError:
            line = f"schema-mismatch(line {_first_bad_utf8_line(path)}): not valid UTF-8"
            raise DataValidationError([line]) from None


def _line_breaks(raw: bytes) -> int:
    r"""Line ends in ``raw`` as a text file with ``newline=""`` splits lines:
    ``\n``, ``\r\n`` and a lone ``\r``."""
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")


def _first_bad_utf8_line(path: str) -> int:
    r"""The physical line holding the first byte that is not valid UTF-8. A
    multi-byte character never holds a ``\n`` byte, so each ``\n``-ended
    piece of the file decodes on its own."""
    line = 1
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return line + _line_breaks(raw[: exc.start])
            line += _line_breaks(raw)
    return line


# full-width rows validated together, one column at a time; this many raw
# rows are held at once, whatever the file size
_CHUNK_ROWS = 4096
_FLAG_VALUES = {"0": 0, "1": 1}


def _to_float(text: str) -> float:
    """``float(text)``, or NaN for text ``float`` rejects."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _csv_error(line: int, exc: csv.Error) -> DataValidationError:
    """An oversized field, or a NUL byte before Python 3.11, in the record
    that starts on ``line``."""
    return DataValidationError([f"schema-mismatch(line {line}): {exc}"])


def _read_rows(reader, columns: Callable[[list[str]], CsvColumns]):
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise _csv_error(1, exc) from None
    if header is None:
        raise SchemaMismatchError("schema-mismatch: file is empty")
    cols = columns(header)
    named = [c for c in (cols.id, cols.label) if c is not None] + [*cols.floats, *cols.flags]
    missing = [c for c in named if c not in header]
    if missing:
        raise SchemaMismatchError(f"schema-mismatch: missing columns {missing}")
    repeated = sorted({c for c in named if header.count(c) > 1})
    if repeated:
        raise SchemaMismatchError(f"schema-mismatch: header repeats columns {repeated}")
    float_at = [(c, header.index(c)) for c in cols.floats]
    label_at = None if cols.label is None else header.index(cols.label)
    id_at = None if cols.id is None else header.index(cols.id)
    label_index = {name: i for i, name in enumerate(cols.labels)}
    lo, hi = cols.bounds
    # a column named twice is read once
    flag_at = [(c, header.index(c)) for c in dict.fromkeys(cols.flags)]
    # each check's place among a row's errors: floats, label, flags, id
    label_order = len(float_at)
    id_order = label_order + 1 + len(flag_at)
    errors: list[tuple[int, int, str]] = []  # (line, place in its row, message)
    id_lines: dict[str, int] = {}
    ids: list[str] = []
    floats: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    flags: dict[str, list[np.ndarray]] = {c: [] for c, _ in flag_at}

    def check(rows: list[tuple[str, ...]], lines: list[int]):
        """Validate and parse a chunk of full-width rows, one column at a time."""
        fields = list(zip(*rows))
        block = np.empty((len(rows), len(float_at)))
        for order, (c, j) in enumerate(float_at):
            col = fields[j]
            try:
                values = np.fromiter(map(float, col), np.float64, len(col))
            except ValueError:
                values = np.fromiter(map(_to_float, col), np.float64, len(col))
            finite = np.isfinite(values)
            for i in np.flatnonzero(~finite):
                errors.append((lines[i], order, f"range-violation(line {lines[i]}): "
                                                f"{c}={col[i]!r} is not finite"))
            for i in np.flatnonzero(finite & ~((lo <= values) & (values <= hi))):
                errors.append((lines[i], order, f"range-violation(line {lines[i]}): "
                                                f"{c}={col[i]!r} not in [{lo:g}, {hi:g}]"))
            block[:, order] = values
        floats.append(block)
        if label_at is not None:
            col = fields[label_at]
            index = np.fromiter(map(label_index.get, col, repeat(-1)), np.int64, len(col))
            for i in np.flatnonzero(index < 0):
                errors.append((lines[i], label_order,
                               f"label-violation(line {lines[i]}): {cols.label}={col[i]!r} "
                               f"not one of {list(cols.labels)}"))
            labels.append(index)
        for order, (c, j) in enumerate(flag_at, start=label_order + 1):
            col = fields[j]
            if set(col) <= _FLAG_VALUES.keys():
                flags[c].append(np.frombuffer("".join(col).encode(), np.int8) - ord("0"))
                continue
            values = np.fromiter(map(_FLAG_VALUES.get, col, repeat(-1)), np.int8, len(col))
            for i in np.flatnonzero(values < 0):
                errors.append((lines[i], order, f"range-violation(line {lines[i]}): "
                                                f"{c}={col[i]!r} must be 0 or 1"))
            flags[c].append(values)
        if id_at is None:
            return
        col = fields[id_at]
        ids.extend(col)
        if len(set(col)) == len(col) and id_lines.keys().isdisjoint(col):
            id_lines.update(zip(col, lines))
            return
        for text, line in zip(col, lines):
            first = id_lines.setdefault(text, line)
            if first != line:
                errors.append((line, id_order, f"duplicate-id(line {line}): {text!r} "
                                               f"already on line {first}"))

    # rows are held as tuples: a tuple of strings leaves the cyclic garbage
    # collector's care at its first pass, while a held list would be rescanned
    rows: list[tuple[str, ...]] = []
    lines: list[int] = []
    start = reader.line_num + 1  # a record's number is the line it starts on
    try:
        for row in reader:
            if not row:
                pass  # a blank line
            elif len(row) != len(header):
                errors.append((start, 0, f"schema-mismatch(line {start}): "
                                         f"expected {len(header)} fields"))
            else:
                rows.append(tuple(row))
                lines.append(start)
                if len(rows) == _CHUNK_ROWS:
                    check(rows, lines)
                    rows, lines = [], []
            start = reader.line_num + 1
    except csv.Error as exc:
        raise _csv_error(start, exc) from None
    if rows:
        check(rows, lines)
    if errors:
        raise DataValidationError([message for _, _, message in sorted(errors)])
    if not floats:
        raise DataValidationError(["schema-mismatch(line 2): no data rows"])
    matrix = np.concatenate(floats)
    return (
        ids if id_at is not None else [str(i) for i in range(1, len(matrix) + 1)],
        matrix,
        {c: np.concatenate(parts) for c, parts in flags.items()},
        np.concatenate(labels) if labels else np.empty(0, np.int64),
    )
