"""One ingest contract for the three bank-year CSV loaders.

load_panel, load_balance_sheets and load_positions read the same file
format through one reader, so the same fault gives the same `path:line:`
message whichever loader meets it.
"""

import math

import numpy as np
import pytest

from baselcost import DataError, VariableSpec, load_panel
from baselcost.cli import main
from baselcost.ratios import (
    BALANCE_SHEET_COLUMNS,
    POSITION_COLUMNS,
    load_balance_sheets,
    load_positions,
)

PANEL_COLUMNS = ("roe", "liq")

LOADERS = {
    "panel": (lambda path: load_panel(path, [VariableSpec("roe")]), PANEL_COLUMNS),
    "balance_sheets": (load_balance_sheets, BALANCE_SHEET_COLUMNS),
    "positions": (load_positions, POSITION_COLUMNS),
}


def header(columns):
    return ",".join(("bank_id", "year", *columns))


def row(columns, bank="B01", year="2014", last="1"):
    return ",".join((bank, year, *["1"] * (len(columns) - 1), last))


def write(tmp_path, lines):
    # a lone surrogate such as "\udcff" is written as that raw byte
    path = tmp_path / "in.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    return str(path)


# name -> columns -> (file lines, faulty line, message after "path:line: ")
CASES = {
    "empty file": lambda c: ([], 1, "empty file, expected a header row"),
    "header without keys": lambda c: (
        [header(c).replace("year", "yr"), row(c)], 1,
        "header must include bank_id and year"),
    "repeated header column": lambda c: (
        [header(c) + f",{c[0]}", row(c) + ",1"], 1, "duplicate column names in header"),
    "ragged row": lambda c: (
        [header(c), row(c), row(c, bank="B02") + ",1"], 3,
        f"expected {len(c) + 2} fields, got {len(c) + 3}"),
    "empty bank_id": lambda c: ([header(c), row(c), row(c, bank=" ")], 3, "empty bank_id"),
    "bad year": lambda c: ([header(c), row(c), row(c, year="20x4")], 3, "bad year '20x4'"),
    "unparseable cell": lambda c: (
        [header(c), row(c), row(c, bank="B02", last=" 8.5.0 ")], 3,
        f"cannot parse '8.5.0' in column '{c[-1]}'"),
    "duplicate key": lambda c: (
        [header(c), row(c), row(c)], 3, "duplicate observation for ('B01', 2014)"),
    "duplicate key with the year spelled two ways": lambda c: (
        [header(c), row(c, year="2010"), row(c, bank="B02", year=" 2010"),
         row(c, year=" 2010")], 4, "duplicate observation for ('B01', 2010)"),
    "bad year that is also a bank id": lambda c: (
        [header(c), row(c, bank="20x4"), row(c, bank="B02", year="20x4")], 3,
        "bad year '20x4'"),
    "blank line before the bad row": lambda c: (
        [header(c), row(c), "", row(c)], 4, "duplicate observation for ('B01', 2014)"),
    "whitespace-only line before the bad row": lambda c: (
        [header(c), "  ", row(c), " , ", row(c)], 5,
        "duplicate observation for ('B01', 2014)"),
    "byte that is not UTF-8": lambda c: (
        [header(c), row(c), row(c, bank="B02", last="1\udcff")], 3,
        "not UTF-8 text (invalid start byte)"),
    "field over the csv size limit": lambda c: (
        [header(c), row(c), row(c, bank="B02", last="1" * 140_000)], 3,
        "field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("loader", LOADERS)
def test_same_fault_same_message(tmp_path, loader, case):
    load, columns = LOADERS[loader]
    lines, lineno, message = CASES[case](columns)
    path = write(tmp_path, lines)
    with pytest.raises(DataError) as exc:
        load(path)
    assert str(exc.value) == f"{path}:{lineno}: {message}"


@pytest.mark.parametrize("loader", LOADERS)
def test_keys_may_sit_in_any_column(tmp_path, loader):
    load, columns = LOADERS[loader]
    first = load(write(tmp_path, [header(columns), row(columns)]))
    moved = (tmp_path / "moved.csv")
    moved.write_text(",".join((*columns[:1], "year", *columns[1:], "bank_id")) + "\n"
                     + ",".join(("1", "2014", *["1"] * (len(columns) - 1), "B01")) + "\n")
    again = load(str(moved))
    if loader == "panel":
        assert (again.entities, again.periods) == (first.entities, first.periods)
        assert list(again.columns) == list(first.columns)
        for name in first.columns:
            np.testing.assert_array_equal(again.column(name), first.column(name))
    else:
        assert again == first


class TestPanelCells:
    @pytest.mark.parametrize("value", ["inf", "-inf", " -Infinity "])
    def test_infinite_cell_names_the_line(self, tmp_path, value):
        path = write(tmp_path, ["bank_id,year,roe", "B01,2012,1.5", f"B01,2013,{value}"])
        with pytest.raises(DataError, match=r"in\.csv:3: infinite value"):
            load_panel(path, [VariableSpec("roe")])

    def test_infinite_cell_exits_2_through_the_cli(self, tmp_path, capsys):
        path = write(tmp_path, ["bank_id,year,roe", "B01,2012,1.5", "B01,2013,inf"])
        assert main(["unitroot", "--panel", path, "--vars", "roe"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: infinite value")

    def test_byte_that_is_not_utf8_exits_2_through_the_cli(self, tmp_path, capsys):
        path = write(tmp_path, ["bank_id,year,roe", "B01,2012,1.5", "B01,2013,\udcff"])
        assert main(["unitroot", "--panel", path, "--vars", "roe"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not UTF-8 text")

    def test_nan_literal_reads_as_missing(self, tmp_path):
        path = write(tmp_path, ["bank_id,year,roe", "B01,2012,nan", "B01,2013,", "B01,2014,2"])
        roe = load_panel(path, [VariableSpec("roe")]).column("roe")
        assert [math.isnan(v) for v in roe[0]] == [True, True, False]


class TestSharedKeys:
    """Records of one file share one str per bank and one int per year."""

    @pytest.mark.parametrize("loader", ["balance_sheets", "positions"])
    def test_rows_share_bank_and_year_objects(self, tmp_path, loader):
        load, columns = LOADERS[loader]
        keys = [("B01", "2014"), (" B01", "2015"), ("B02", "2014"), ("B01 ", "2016")]
        recs = load(write(tmp_path, [header(columns)] + [
            row(columns, bank=b, year=y) for b, y in keys]))
        assert [(r.entity, r.year) for r in recs] == [
            ("B01", 2014), ("B01", 2015), ("B02", 2014), ("B01", 2016)]
        assert recs[0].entity is recs[1].entity is recs[3].entity
        assert recs[0].year is recs[2].year

    @pytest.mark.parametrize("loader", LOADERS)
    def test_bank_named_like_a_year_stays_a_bank(self, tmp_path, loader):
        load, columns = LOADERS[loader]
        got = load(write(tmp_path, [header(columns), row(columns, bank="2010", year="2011"),
                                    row(columns, bank="2011", year="2010")]))
        if loader == "panel":
            assert (got.entities, got.periods) == (("2010", "2011"), (2010, 2011))
        else:
            assert [(r.entity, r.year) for r in got] == [("2010", 2011), ("2011", 2010)]
            assert [(type(r.entity), type(r.year)) for r in got] == [(str, int)] * 2
