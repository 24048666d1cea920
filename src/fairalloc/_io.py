"""File input and output helpers: the one validated CSV reader, the CSV
text of every output file, JSON configs and shipped presets, and
deterministic atomic writes."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from array import array
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, InputError, SchemaMismatchError

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
    """Parse a JSON file, or the shipped preset a bare name in ``PRESETS`` names.

    Raises:
        InputError: with the decoder's message, if the text is not valid
            UTF-8 or not JSON, or nests too deeply to decode.
    """
    try:
        if path_or_preset in PRESETS:
            # looked up from the package itself: finding the namespace package
            # ``fairalloc.presets`` costs more than reading the file
            preset = resources.files("fairalloc") / "presets" / PRESETS[path_or_preset]
            return json.loads(preset.read_text(encoding="utf-8"))
        with open(path_or_preset, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # a json.JSONDecodeError and a UnicodeDecodeError are ValueErrors, and so
    # is an integer of more digits than int() converts
    except (ValueError, RecursionError) as exc:
        raise InputError(str(exc)) from None


def expect(value, kind: str, field: str):
    """Return ``value`` if it is a JSON ``kind``: "object", "array", "number",
    "integer", "int64" (an integer in the int64 range) or "string". A
    "number" must convert to a float64, which an integer beyond its range
    does not. ``kind[]`` is an array of ``kind`` items and ``kind[n]`` an
    array of exactly n; for these a list of the items is returned, so
    "number[][]" reads a matrix row by row. A boolean is never a number or
    an integer.

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
    if kind == "number":
        try:
            float(value)
        except OverflowError:
            raise SchemaMismatchError(
                f"schema-mismatch: {field} is outside the float64 range"
            ) from None
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
) -> tuple[Iterator[str], np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Read a UTF-8 CSV, with or without a byte order mark, whose first line
    is the header; ``columns`` maps the header to the columns to parse. Blank
    lines are skipped; every other row must have one field per header column.
    All row problems are raised together, each with the 1-based physical line
    its row starts on (the header is line 1). The input is opened and read
    once, so a pipe reads like a file. Returns an iterator over the ids
    (ordinals "1", "2", ... without an id column), the float matrix
    (service-major: one contiguous column per float column), the int8 vector
    of each flag column and each row's index into ``labels``.

    Raises:
        InputError: if ``delimiter`` is not exactly one character.
        SchemaMismatchError: if the file is empty, or a named column is
            missing or appears more than once in the header.
        DataValidationError: if any row is invalid, or there is none, or the
            file is not valid UTF-8.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InputError(f"delimiter must be exactly one character, not {delimiter!r}")
    # a byte that is not UTF-8 decodes to a lone surrogate, which valid
    # UTF-8 never yields, and is refused with the line that holds it
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        # one byte order mark is dropped, as the utf-8-sig codec would; a
        # first line emptied by it was a file holding only the mark
        lines = iter(fh)
        first = next(lines, "").removeprefix("\ufeff")
        rows = chain([first], lines) if first else lines
        reader = csv.reader(map(_utf8, rows), delimiter=delimiter)
        try:
            return _read_rows(reader, columns)
        except UnicodeEncodeError:
            # the reader counts a line once it has passed ``_utf8``
            line = f"schema-mismatch(line {reader.line_num + 1}): not valid UTF-8"
            raise DataValidationError([line]) from None


def _utf8(line: str) -> str:
    """``line``, read with ``errors="surrogateescape"``, if it was valid UTF-8.

    Raises:
        UnicodeEncodeError: if it holds a lone surrogate.
    """
    if not line.isascii():
        line.encode("utf-8")
    return line


# full-width rows validated together, one column at a time; this many raw
# rows are held at once, whatever the file size
_CHUNK_ROWS = 1024
_FLAG_VALUES = {"0": 0, "1": 1}
# an id's int64 key for the repeat search; ids of equal keys are compared
# as text, so keys of different ids may collide
_id_hash = hash


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
    # a chunk's ids are kept as one text, cut at offsets counted over the
    # whole file, and as int64 keys beside each row's line; repeats are
    # sought after the last chunk, among the rows whose keys another row
    # shares
    id_texts: list[str] = []
    id_cuts = array("q", [0])
    id_keys = array("q")
    id_lines = array("q")
    floats: list[np.ndarray] = []  # per chunk, one row per float column
    labels: list[np.ndarray] = []
    flags: dict[str, list[np.ndarray]] = {c: [] for c, _ in flag_at}

    def check(rows: list[tuple[str, ...]], lines: list[int]):
        """Validate and parse a chunk of full-width rows, one column at a time;
        the float columns are parsed together, column after column."""
        fields = list(zip(*rows))
        n, m = len(rows), len(float_at)
        texts = [fields[j] for _, j in float_at]
        try:
            parsed = np.fromiter(map(float, chain.from_iterable(texts)), np.float64, n * m)
        except ValueError:
            parsed = np.fromiter(map(_to_float, chain.from_iterable(texts)), np.float64, n * m)
        ok = np.isfinite(parsed)
        ok &= lo <= parsed
        ok &= parsed <= hi
        if not ok.all():
            for at in np.flatnonzero(~ok).tolist():
                order, i = divmod(at, n)
                c, text = float_at[order][0], texts[order][i]
                rule = ("is not finite" if not math.isfinite(parsed[at])
                        else f"not in [{lo:g}, {hi:g}]")
                errors.append((lines[i], order, f"range-violation(line {lines[i]}): "
                                                f"{c}={text!r} {rule}"))
        floats.append(parsed.reshape(m, n))
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
        id_texts.append("".join(col))
        # this chunk's cuts go on from the last one, which ``initial`` re-adds
        id_cuts.extend(accumulate(map(len, col), initial=id_cuts.pop()))
        id_keys.extend(map(_id_hash, col))
        id_lines.extend(lines)

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
    id_text = "".join(id_texts)

    def id_of(row: int) -> str:
        return id_text[id_cuts[row] : id_cuts[row + 1]]

    if id_keys:
        for row, first in _repeats(np.frombuffer(id_keys, np.int64), id_of):
            line = id_lines[row]
            errors.append((line, id_order, f"duplicate-id(line {line}): {id_of(row)!r} "
                                           f"already on line {id_lines[first]}"))
    if errors:
        raise DataValidationError([message for _, _, message in sorted(errors)])
    if not floats:
        raise DataValidationError(["schema-mismatch(line 2): no data rows"])
    # the (float column, row) blocks side by side, transposed: service-major
    matrix = np.concatenate(floats, axis=1).T
    return (
        map(id_of, range(len(matrix))) if id_at is not None
        else map(str, range(1, len(matrix) + 1)),
        matrix,
        {c: np.concatenate(parts) for c, parts in flags.items()},
        np.concatenate(labels) if labels else np.empty(0, np.int64),
    )


def _repeats(keys: np.ndarray, id_of: Callable[[int], str]) -> list[tuple[int, int]]:
    """(row, first row of its id) for every row whose id an earlier row
    holds, given each id's ``_id_hash`` key. Only the rows whose key another
    row shares are compared as text, in row order."""
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if not repeated.size:
        return []
    first: dict[str, int] = {}
    repeats = []
    for row in np.flatnonzero(np.isin(keys, repeated)).tolist():
        at = first.setdefault(id_of(row), row)
        if at != row:
            repeats.append((row, at))
    return repeats
