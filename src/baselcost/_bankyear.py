"""The one reader of bank-year CSV files (panels, balance sheets, positions)
and of JSON input files (schemas, weights, coefficient sets).

One pass per file; the first fault raises a DataError naming the file.
Both readers skip a leading UTF-8 byte-order mark, as Excel writes one.
Standard library only, so that `ratios` imports without numpy.
"""

from __future__ import annotations

import contextlib
import csv
import json
from typing import Callable, Sequence

from .errors import DataError


def read_json(path: str, what: str):
    """The parsed contents of JSON file `path`. A file that cannot be opened,
    is not UTF-8 or is not JSON raises `cannot read <what> file <path>: ...`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def read_bank_years(
    path: str,
    columns: Sequence[str] | None,
    required: Sequence[str],
    blank: float,
    record: Callable,
) -> tuple[tuple[str, ...], list]:
    """The columns read and one record(bank_id, year, *cells) per data row.

    `columns` are the value columns, in cell order; None reads every column
    but the keys, in header order. The header names bank_id and year, in
    any column, and no name twice. Every row must have the header's field
    count and a unique (bank_id, year). A required column must be in the
    header and non-blank in every row; a column that is absent, or a blank
    cell elsewhere, reads as `blank`. Rows whose cells are all blank are
    skipped but still counted. A DataError from `record` is re-raised naming
    the row's path:line.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    reader = csv.reader(fh)
    with fh, _text_faults(path, reader):
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}:1: empty file, expected a header row")
        names = [n.strip() for n in header]
        if "bank_id" not in names or "year" not in names:
            raise DataError(f"{path}:1: header must include bank_id and year")
        if len(set(names)) != len(names):
            raise DataError(f"{path}:1: duplicate column names in header")
        missing = [c for c in required if c not in names]
        if missing:
            raise DataError(f"{path}:1: missing required column(s): {missing}")
        if columns is None:
            columns = tuple(n for n in names if n not in ("bank_id", "year"))
        width, bank_at, year_at = len(names), names.index("bank_id"), names.index("year")
        # (record slot, field index, column, required) for each column present
        cells = [(2 + k, names.index(c), c, c in required)
                 for k, c in enumerate(columns) if c in names]
        fill = [blank] * len(columns)
        seen: set[tuple[str, int]] = set()
        # one str per bank and one int per year text, shared by every row;
        # two maps, so that a bank named like a year stays a str
        banks: dict[str, str] = {}
        years: dict[str, int] = {}
        records = []
        for row in reader:
            if len(row) != width or not (bank := row[bank_at].strip()):
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise DataError(
                        f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                raise DataError(f"{path}:{reader.line_num}: empty bank_id")
            bank = banks.setdefault(bank, bank)
            if (year := years.get(text := row[year_at])) is None:
                try:
                    year = years[text] = int(text)
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: bad year {text!r}") from None
            key = (bank, year)
            if key in seen:
                raise DataError(f"{path}:{reader.line_num}: duplicate observation for {key}")
            seen.add(key)
            rec = [bank, year, *fill]
            for slot, i, col, req in cells:
                try:
                    rec[slot] = float(row[i])
                except ValueError:
                    cell = row[i].strip()
                    if cell:
                        raise DataError(
                            f"{path}:{reader.line_num}: cannot parse {cell!r} in column {col!r}"
                        ) from None
                    if req:
                        raise DataError(
                            f"{path}:{reader.line_num}: blank cell in required column {col!r}"
                        ) from None
            try:
                records.append(record(*rec))
            except DataError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return tuple(columns), records


@contextlib.contextmanager
def _text_faults(path: str, reader):
    """Re-raise bytes that are not UTF-8, and faults of the csv module itself
    (such as a field over its size limit), as a DataError naming path:line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = 1  # the text layer decodes in blocks: find the line again
        with open(path, "rb") as fh:
            for line, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
