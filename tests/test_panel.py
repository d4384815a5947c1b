"""Data-model tests: ingestion, transforms, demeaning."""

import csv
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselcost import (
    DataError,
    PanelDataset,
    VariableSpec,
    apply_transform,
    load_panel,
    load_schema,
    write_panel,
)
from baselcost.panel import entity_demean

NAN = float("nan")


def make_panel(entities, periods, **columns):
    return PanelDataset(tuple(entities), tuple(periods),
                        {k: np.array(v, dtype=float) for k, v in columns.items()})


@pytest.fixture
def csv_3x2(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_text(
        "bank_id,year,roe,liq\n"
        "B01,2012,10.0,1.1\n"
        "B01,2013,11.0,1.2\n"
        "B02,2012,9.0,1.0\n"
        "B02,2013,9.5,1.05\n"
        "B03,2012,12.0,1.3\n"
        "B03,2013,12.5,1.25\n"
    )
    return str(p)


SCHEMA = [VariableSpec("roe"), VariableSpec("liq")]


class TestLoadPanel:
    def test_full_file_is_balanced(self, csv_3x2):
        ds = load_panel(csv_3x2, SCHEMA)
        assert ds.entities == ("B01", "B02", "B03")
        assert ds.periods == (2012, 2013)
        assert ds.observation_count() == 6
        assert ds.column("roe")[0, 1] == 11.0

    def test_blank_cell_recorded_missing(self, tmp_path):
        p = tmp_path / "holes.csv"
        p.write_text(
            "bank_id,year,roe\nB01,2012,10.0\nB01,2013,\nB02,2012,9.0\nB02,2013,9.5\n"
        )
        ds = load_panel(str(p), [VariableSpec("roe")])
        assert math.isnan(ds.column("roe")[0, 1])

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("bank_id,year,roe\nB01,2012,10.0\nB01,2012,11.0\n")
        with pytest.raises(DataError, match=r"B01.*2012"):
            load_panel(str(p), [VariableSpec("roe")])

    def test_missing_declared_column(self, csv_3x2):
        with pytest.raises(DataError, match="cap"):
            load_panel(csv_3x2, [VariableSpec("cap")])

    def test_unparseable_cell_names_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("bank_id,year,roe\nB01,2012,ten\n")
        with pytest.raises(DataError, match=r"bad\.csv:2.*'ten'.*'roe'"):
            load_panel(str(p), [VariableSpec("roe")])

    def test_bad_year_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("bank_id,year,roe\nB01,201x,10\n")
        with pytest.raises(DataError, match="201x"):
            load_panel(str(p), [VariableSpec("roe")])

    def test_missing_row_becomes_missing_cells(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("bank_id,year,roe\nB01,2012,10.0\nB01,2013,11.0\nB02,2012,9.0\n")
        ds = load_panel(str(p), [VariableSpec("roe")])
        assert math.isnan(ds.column("roe")[1, 1])

    def test_round_trip_identical(self, tmp_path, csv_3x2):
        ds = load_panel(csv_3x2, SCHEMA)
        out = tmp_path / "echo.csv"
        write_panel(ds, str(out))
        ds2 = load_panel(str(out), SCHEMA)
        assert ds2.entities == ds.entities
        assert ds2.periods == ds.periods
        for name in ds.columns:
            np.testing.assert_array_equal(ds2.column(name), ds.column(name))

    def test_round_trip_preserves_missing_and_order(self, tmp_path):
        ds = make_panel(["Z9", "A1"], [2010, 2011, 2012],
                        x=[[1.25, NAN, 3.0], [0.1, 0.2, NAN]])
        out = tmp_path / "echo.csv"
        write_panel(ds, str(out))
        ds2 = load_panel(str(out), [VariableSpec("x")])
        assert ds2.entities == ("Z9", "A1")
        np.testing.assert_array_equal(ds2.column("x"), ds.column("x"))


# Bank ids the CSV writer has to quote (commas, quotes, inner spaces) are
# included; surrounding whitespace is not, since the loader strips it.
bank_ids = st.text(alphabet="AZaz09_-, \"", min_size=1, max_size=6).filter(
    lambda s: s == s.strip())
cells = st.one_of(
    st.just(NAN),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def panels(draw):
    entities = draw(st.lists(bank_ids, min_size=1, max_size=5, unique=True))
    periods = sorted(draw(st.lists(st.integers(1990, 2040), min_size=1, max_size=5,
                                   unique=True)))
    names = draw(st.lists(st.sampled_from(["roe", "liq", "cap", "x_1"]), max_size=4,
                          unique=True))
    shape = (len(entities), len(periods))
    cols = {n: np.array(draw(st.lists(cells, min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]))).reshape(shape)
            for n in names}
    return PanelDataset(tuple(entities), tuple(periods), cols)


def assert_same_panel(a, b):
    assert a.entities == b.entities
    assert a.periods == b.periods
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        x, y = a.column(name), b.column(name)
        np.testing.assert_array_equal(np.isnan(x), np.isnan(y))
        # bit-identical where present: -0.0 stays -0.0
        assert x[~np.isnan(x)].tobytes() == y[~np.isnan(y)].tobytes()


class TestLoadPanelProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(panels())
    def test_write_then_load_round_trips_exactly(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "p.csv")
            write_panel(ds, path)
            loaded = load_panel(path, [VariableSpec(n) for n in ds.columns])
        assert_same_panel(loaded, ds)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(panels(), st.randoms(use_true_random=False))
    def test_row_order_within_bank_does_not_matter(self, ds, rnd: random.Random):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            write_panel(ds, str(path))
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            by_bank: dict[str, list] = {}
            for row in rows:
                by_bank.setdefault(row[0], []).append(row)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for bank_rows in by_bank.values():
                    rnd.shuffle(bank_rows)
                    writer.writerows(bank_rows)
            loaded = load_panel(str(path), [])
        assert_same_panel(loaded, ds)


class TestSchemaFile:
    def test_load_schema(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text('{"variables": [{"name": "roe", "transform": "log", "units": "pct", '
                     '"role": "profitability"}]}')
        specs = load_schema(str(p))
        assert specs == [VariableSpec("roe", "log", "profitability", "pct")]

    def test_bad_schema_rejected(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text('{"nope": 1}')
        with pytest.raises(DataError):
            load_schema(str(p))

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="^variable name must be non-empty$"):
            VariableSpec(name="")

    def test_unknown_transform_rejected(self):
        with pytest.raises(DataError, match="sqrt"):
            VariableSpec("roe", transform="sqrt")


class TestTransforms:
    def test_log_identity_and_e(self):
        ds = make_panel(["A"], [1, 2], x=[[1.0, math.e]])
        out = apply_transform(ds, VariableSpec("x", transform="log"))
        got = out.column("x__log")
        assert got[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert got[0, 1] == pytest.approx(1.0, rel=1e-12)
        # original retained
        np.testing.assert_array_equal(out.column("x"), ds.column("x"))

    def test_log_missing_stays_missing(self):
        ds = make_panel(["A"], [1, 2], x=[[2.0, NAN]])
        out = apply_transform(ds, VariableSpec("x", transform="log"))
        assert math.isnan(out.column("x__log")[0, 1])

    def test_negative_roe_under_log_is_an_error(self):
        # a loss-making bank-year must be rejected, not silently dropped
        ds = make_panel(["A", "B"], [2011, 2012],
                        roe=[[0.12, 0.15], [0.10, -0.02]])
        with pytest.raises(DataError, match=r"'B'.*2012.*not positive|-0\.02"):
            apply_transform(ds, VariableSpec("roe", transform="log"))

    def test_transform_none_is_noop(self):
        ds = make_panel(["A"], [1], x=[[5.0]])
        assert apply_transform(ds, VariableSpec("x")) is ds


@st.composite
def demean_inputs(draw):
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    codes = [e for e, n in enumerate(counts) for _ in range(n)]
    codes = draw(st.permutations(codes))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(codes),
                           max_size=len(codes)))
    return (np.array(values), np.array(codes, dtype=np.intp),
            np.array(counts, dtype=float))


class TestEntityDemean:
    def test_unequal_row_counts(self):
        got = entity_demean(np.array([1.0, 10.0, 2.0, 20.0, 3.0]),
                            np.array([0, 1, 0, 1, 0]), np.array([3.0, 2.0]))
        np.testing.assert_allclose(got, [-1.0, -5.0, 0.0, 5.0, 1.0], atol=1e-14)

    def test_constant_series_is_exactly_zero(self):
        got = entity_demean(np.array([5.0, 5.0, 5.0, 2.5, 2.5, 2.5, 2.5]),
                            np.array([0, 0, 0, 1, 1, 1, 1]), np.array([3.0, 4.0]))
        assert np.all(got == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 6, 40)
        counts = np.bincount(codes, minlength=6).astype(float)
        once = entity_demean(rng.normal(3, 2, 40), codes, counts)
        np.testing.assert_allclose(entity_demean(once, codes, counts), once, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(demean_inputs())
    def test_matches_per_entity_loop(self, inputs):
        values, codes, counts = inputs
        got = entity_demean(values, codes, counts)
        tol = 1e-12 * max(1.0, float(np.abs(values).max()))
        for e in range(counts.size):
            rows = [r for r in range(values.size) if codes[r] == e]
            mean = sum(values[r] for r in rows) / len(rows)
            assert abs(sum(got[r] for r in rows)) <= tol
            for r in rows:
                assert abs(got[r] - (values[r] - mean)) <= tol


class TestDatasetInvariants:
    def test_duplicate_entities_rejected(self):
        with pytest.raises(DataError):
            make_panel(["A", "A"], [1], x=[[1.0], [2.0]])

    def test_entity_ids_survive_a_csv_round_trip(self, tmp_path):
        for entities, i in [((1, 2), 0), (("A", " A"), 1), (("A", "B\t"), 1), (("",), 0)]:
            with pytest.raises(DataError) as info:
                PanelDataset(entities, (2010,), {"x": np.ones((len(entities), 1))})
            assert str(info.value) == (f"entities[{i}] must be a non-empty str without "
                                       f"surrounding whitespace, got {entities[i]!r}")
        ds = PanelDataset(["A", "B"], (2010,), {"x": np.ones((2, 1))})
        assert ds.entities == ("A", "B")  # a tuple, as the periods are
        write_panel(ds, tmp_path / "p.csv")
        assert_same_panel(load_panel(tmp_path / "p.csv", []), ds)

    def test_entity_id_at_the_csv_field_limit_round_trips(self, tmp_path):
        limit = csv.field_size_limit()
        ds = PanelDataset(("A" * limit, "B"), (2010, 2011), {"x": np.ones((2, 2))})
        write_panel(ds, tmp_path / "p.csv")
        assert_same_panel(load_panel(tmp_path / "p.csv", []), ds)
        with pytest.raises(DataError) as info:
            PanelDataset(("B", "A" * (limit + 1)), (2010, 2011), {"x": np.ones((2, 2))})
        assert str(info.value) == (f"entities[1] is {limit + 1} characters long, "
                                   f"over the csv field limit of {limit}")

    def test_nonincreasing_periods_rejected(self):
        with pytest.raises(DataError):
            make_panel(["A"], [2, 1], x=[[1.0, 2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            PanelDataset(("A",), (1, 2), {"x": np.array([[1.0]])})

    def test_columns_are_read_only(self):
        ds = make_panel(["A"], [1], x=[[1.0]])
        with pytest.raises(ValueError):
            ds.column("x")[0, 0] = 2.0
