"""File input and output helpers: the one validated CSV reader, JSON configs
and shipped presets, and deterministic atomic writes."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

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
    """Write via a temp file in the target directory, then rename. The file
    gets the mode a plain ``open`` would create, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    "integer" or "string". ``kind[]`` is an array of ``kind`` items and
    ``kind[n]`` an array of exactly n; for these a list of the items is
    returned, so "number[][]" reads a matrix row by row. A boolean is never
    a number or an integer.

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
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise SchemaMismatchError(
            f"schema-mismatch: {field} must be a JSON {kind}, not {type(value).__name__}"
        )
    return value


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
    """Read a CSV whose first line is the header; ``columns`` maps the header
    to the columns to parse. Blank lines are skipped; every other row must
    have one field per header column. All row problems are raised together,
    each with its 1-based line number (the header is line 1). Returns the
    ids (ordinals "1", "2", ... without an id column), the float matrix, the
    int8 vector of each flag column and each row's index into ``labels``.

    Raises:
        ValueError: if ``delimiter`` is not exactly one character.
        SchemaMismatchError: if the file is empty, or a named column is
            missing or appears more than once in the header.
        DataValidationError: if any row is invalid, or there is none.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be exactly one character, not {delimiter!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            return _read_rows(reader, columns)
        except csv.Error as exc:  # an oversized field, or a NUL byte before Python 3.11
            line = f"schema-mismatch(line {reader.line_num}): {exc}"
            raise DataValidationError([line]) from None


def _read_rows(reader, columns: Callable[[list[str]], CsvColumns]):
    header = next(reader, None)
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
    ids, floats, labels, errors = [], [], [], []
    flags: dict[str, list[bool]] = {c: [] for c in cols.flags}
    flag_at = [(c, header.index(c)) for c in flags]  # a column named twice is read once
    id_lines: dict[str, int] = {}
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
