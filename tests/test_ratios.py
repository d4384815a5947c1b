"""Regulatory ratio tests: NSFR, TCE/RWA, schedule fidelity, compliance, CSV ingest."""

import dataclasses
import json
import logging
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselcost import (
    BANGLADESH_SCHEDULE,
    BalanceSheetSnapshot,
    CapitalPosition,
    DataError,
    NsfrWeights,
    check_compliance,
    compute_nsfr,
    compute_tce_rwa,
    required_deltas,
)
from baselcost.ratios import RequirementCheck, load_balance_sheets, load_positions

WORKED = BalanceSheetSnapshot(
    "B01", 2014,
    common_equity=100, debt_ge_1y=50, stable_deposits_lt_1y=200,
    less_stable_deposits_lt_1y=100, govt_debt=100, corp_loans_lt_1y=300,
    retail_loans_lt_1y=100, other_assets_ex_cash_interbank=100,
    intangibles=10, goodwill=5, rwa=850,
)


def random_sheet(rng) -> BalanceSheetSnapshot:
    v = rng.uniform(0.0, 500.0, size=9)
    # keep some required funding so the ratio stays defined
    return BalanceSheetSnapshot(
        "R", 2014,
        common_equity=v[0], debt_ge_1y=v[1], other_liabilities_ge_1y=v[2],
        stable_deposits_lt_1y=v[3], less_stable_deposits_lt_1y=v[4],
        govt_debt=v[5], corp_loans_lt_1y=v[6], retail_loans_lt_1y=v[7],
        other_assets_ex_cash_interbank=v[8] + 1.0,
    )


class TestNsfr:
    def test_worked_example(self):
        # ASF = 150 + 0.85*200 + 0.70*100 = 390; RSF = 5 + 150 + 85 + 100 = 340
        assert compute_nsfr(WORKED) == pytest.approx(390.0 / 340.0, abs=1e-12)

    def test_zero_required_funding_is_an_error(self):
        empty_assets = BalanceSheetSnapshot("B", 2014, common_equity=100.0)
        with pytest.raises(DataError, match="undefined NSFR"):
            compute_nsfr(empty_assets)

    def test_unit_weights_symmetry(self):
        ones = NsfrWeights(1, 1, 1, 1, 1, 1, 1)
        bs = BalanceSheetSnapshot(
            "B", 2014,
            common_equity=100, stable_deposits_lt_1y=50, less_stable_deposits_lt_1y=50,
            govt_debt=80, corp_loans_lt_1y=60, retail_loans_lt_1y=40,
            other_assets_ex_cash_interbank=20,
        )
        assert compute_nsfr(bs, ones) == pytest.approx(1.0, abs=1e-12)

    def test_default_weight_constants(self):
        w = NsfrWeights()
        assert (w.asf_ge_1y, w.asf_stable_deposits, w.asf_less_stable_deposits) == \
            (1.00, 0.85, 0.70)
        assert (w.rsf_govt_debt, w.rsf_corp_loans, w.rsf_retail_loans,
                w.rsf_other_assets) == (0.05, 0.50, 0.85, 1.00)

    def test_weight_range_validated(self):
        with pytest.raises(DataError):
            NsfrWeights(asf_ge_1y=1.5)

    def test_homogeneous_of_degree_zero(self):
        rng = np.random.default_rng(101)
        base = random_sheet(rng)
        for lam in (0.25, 3.0, 1e6):
            scaled = BalanceSheetSnapshot(
                "R", 2014,
                **{
                    f: getattr(base, f) * lam
                    for f in (
                        "common_equity", "debt_ge_1y", "other_liabilities_ge_1y",
                        "stable_deposits_lt_1y", "less_stable_deposits_lt_1y",
                        "govt_debt", "corp_loans_lt_1y", "retail_loans_lt_1y",
                        "other_assets_ex_cash_interbank",
                    )
                },
            )
            assert compute_nsfr(scaled) == pytest.approx(compute_nsfr(base), rel=1e-12)

    def test_monotone_in_components(self):
        rng = np.random.default_rng(202)
        bs = random_sheet(rng)
        base = compute_nsfr(bs)
        up_asf = BalanceSheetSnapshot(
            "R", 2014, common_equity=bs.common_equity + 10.0,
            debt_ge_1y=bs.debt_ge_1y, other_liabilities_ge_1y=bs.other_liabilities_ge_1y,
            stable_deposits_lt_1y=bs.stable_deposits_lt_1y,
            less_stable_deposits_lt_1y=bs.less_stable_deposits_lt_1y,
            govt_debt=bs.govt_debt, corp_loans_lt_1y=bs.corp_loans_lt_1y,
            retail_loans_lt_1y=bs.retail_loans_lt_1y,
            other_assets_ex_cash_interbank=bs.other_assets_ex_cash_interbank,
        )
        up_rsf = BalanceSheetSnapshot(
            "R", 2014, common_equity=bs.common_equity,
            debt_ge_1y=bs.debt_ge_1y, other_liabilities_ge_1y=bs.other_liabilities_ge_1y,
            stable_deposits_lt_1y=bs.stable_deposits_lt_1y,
            less_stable_deposits_lt_1y=bs.less_stable_deposits_lt_1y,
            govt_debt=bs.govt_debt, corp_loans_lt_1y=bs.corp_loans_lt_1y + 10.0,
            retail_loans_lt_1y=bs.retail_loans_lt_1y,
            other_assets_ex_cash_interbank=bs.other_assets_ex_cash_interbank,
        )
        assert compute_nsfr(up_asf) >= base
        assert compute_nsfr(up_rsf) <= base

    def test_negative_component_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            BalanceSheetSnapshot("B", 2014, common_equity=-1.0)


# -0.0 and subnormals are finite and not below zero; NaN compares false
ACCEPTED = [0.0, -0.0, 5e-324, sys.float_info.min, sys.float_info.max, 10**400]
REJECTED = [-5e-324, -1.0, math.inf, -math.inf, math.nan]


class TestRecordValidation:
    @pytest.mark.parametrize("value", ACCEPTED)
    def test_accepted(self, value):
        assert BalanceSheetSnapshot("B", 2014, rwa=value).rwa == value
        assert CapitalPosition("B", 2014, 0.0, 0.0, 0.0, 0.0, 0.0, value).nsfr == value

    @pytest.mark.parametrize("value", REJECTED)
    def test_rejected(self, value):
        """Every amount of both records, each with its record's exact message."""
        sheet = [f.name for f in dataclasses.fields(BalanceSheetSnapshot)][2:]
        position = [f.name for f in dataclasses.fields(CapitalPosition)][2:]
        assert (len(sheet), len(position)) == (12, 6)
        for name in sheet:
            with pytest.raises(DataError) as info:
                BalanceSheetSnapshot("B", 2014, **{name: value})
            assert str(info.value) == (
                f"B 2014: component {name} must be a non-negative finite amount, got {value!r}")
        for name in position:
            with pytest.raises(DataError) as info:
                CapitalPosition("B", 2014, **{n: value if n == name else 0.0 for n in position})
            assert str(info.value) == (
                f"B 2014: {name} must be non-negative and finite, got {value!r}")

    def test_position_message_asks_for_a_finite_value(self):
        with pytest.raises(DataError) as info:
            CapitalPosition("B", 2014, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert str(info.value) == "B 2014: cet1_ratio_pct must be non-negative and finite, got inf"

    @pytest.mark.parametrize("value", [True, False, np.True_, "5", None, 1j, Decimal("1")],
                             ids=repr)
    def test_amount_of_a_wrong_kind(self, value):
        """A bool, or anything that is not a real number, for every amount of both records."""
        sheet = [f.name for f in dataclasses.fields(BalanceSheetSnapshot)][2:]
        position = [f.name for f in dataclasses.fields(CapitalPosition)][2:]
        for cls, names in ((BalanceSheetSnapshot, sheet), (CapitalPosition, position)):
            for name in names:
                with pytest.raises(DataError) as info:
                    cls("B", 2014, **{n: value if n == name else 0.0 for n in names})
                assert str(info.value) == f"B 2014: {name} must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [np.float32(1.5), np.float64(2.5), np.int64(3),
                                       Fraction(1, 2), 7])
    def test_real_amounts_accepted(self, value):
        assert BalanceSheetSnapshot("B", 2014, rwa=value).rwa == value
        assert CapitalPosition("B", 2014, value, 0.0, 0.0, 0.0, 0.0, 0.0).cet1_ratio_pct == value

    @pytest.mark.parametrize("year", ["2016", 2016.0, True, np.True_, None])
    def test_year_must_be_an_int(self, year):
        for make in (lambda: BalanceSheetSnapshot("B", year),
                     lambda: CapitalPosition("B", year, 6.0, 7.0, 11.0, 3.5, 1.1, 1.05)):
            with pytest.raises(DataError) as info:
                make()
            assert str(info.value) == f"B: year must be an integer, got {year!r}"

    def test_numpy_year_stored_as_int(self):
        pos = CapitalPosition("B", np.int64(2016), 6.0, 7.0, 11.0, 3.5, 1.1, 1.05)
        assert type(pos.year) is int
        assert type(BalanceSheetSnapshot("B", np.int32(2016)).year) is int
        report = check_compliance(pos)
        assert not report.steady_state and report.requirements.year == 2016
        assert json.loads(json.dumps(report.to_dict()))["year"] == 2016

    @pytest.mark.parametrize("entity", ["", " B", "B\t", 3, None, b"B"], ids=repr)
    def test_entity_must_be_a_clean_str(self, entity):
        for make in (lambda: BalanceSheetSnapshot(entity, 2014),
                     lambda: CapitalPosition(entity, 2014, 6.0, 7.0, 11.0, 3.5, 1.1, 1.05)):
            with pytest.raises(DataError) as info:
                make()
            assert str(info.value) == ("entity must be a non-empty str without surrounding "
                                       f"whitespace, got {entity!r}")


class TestTceRwa:
    def test_worked_example(self):
        assert compute_tce_rwa(WORKED) == pytest.approx(0.10, abs=1e-12)

    def test_reduces_to_simple_ratio(self):
        bs = BalanceSheetSnapshot("B", 2014, common_equity=120.0, rwa=960.0,
                                  other_assets_ex_cash_interbank=1.0)
        assert compute_tce_rwa(bs) == pytest.approx(0.125, abs=1e-12)

    def test_negative_tce_reported_with_warning(self, caplog):
        bs = BalanceSheetSnapshot("B", 2014, common_equity=10.0, intangibles=8.0,
                                  goodwill=8.0, rwa=100.0)
        with caplog.at_level(logging.WARNING, logger="baselcost.ratios"):
            value = compute_tce_rwa(bs)
        assert value == pytest.approx(-0.06, abs=1e-12)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("baselcost.ratios", logging.WARNING,
             "B 2014: tangible common equity is negative (-6.0)")]

    def test_zero_rwa_rejected(self):
        bs = BalanceSheetSnapshot("B", 2014, common_equity=10.0)
        with pytest.raises(DataError, match="rwa"):
            compute_tce_rwa(bs)


class TestOutsideTheDouble:
    """A ratio or check that a double cannot hold is a DataError naming the row,
    whether an amount is an int beyond a double or a sum, product or quotient
    of finite amounts overflows."""

    @pytest.mark.parametrize("amounts", [
        {"common_equity": 10**400, "govt_debt": 1.0},
        {"common_equity": 1.0, "govt_debt": 10**400},
        {"common_equity": 1e308, "debt_ge_1y": 1e308, "govt_debt": 1.0},  # ASF is inf
        {"common_equity": 1.0, "retail_loans_lt_1y": 1e308,  # RSF is inf: 0.0 before
         "other_assets_ex_cash_interbank": 1e308},
        {"common_equity": 1e308, "debt_ge_1y": 1e308,  # inf / inf: nan before
         "retail_loans_lt_1y": 1e308, "other_assets_ex_cash_interbank": 1e308},
        {"common_equity": 1e308, "govt_debt": 1e-300},  # the quotient overflows
    ], ids=["big-int-asf", "big-int-rsf", "inf-asf", "inf-rsf", "nan", "quotient"])
    def test_nsfr(self, amounts):
        with pytest.raises(DataError) as info:
            compute_nsfr(BalanceSheetSnapshot("B", 2014, **amounts))
        assert str(info.value) == "B 2014: NSFR is outside the range of a double"

    def test_nsfr_of_large_finite_sums(self):
        bs = BalanceSheetSnapshot("B", 2014, common_equity=1e308,
                                  other_assets_ex_cash_interbank=1e308)
        assert compute_nsfr(bs) == 1.0

    @pytest.mark.parametrize("amounts", [
        {"common_equity": 10**400, "rwa": 1.0},
        {"common_equity": 1.0, "rwa": 10**400},
        {"intangibles": 1e308, "goodwill": 1e308, "rwa": 1.0},  # TCE is -inf
        {"common_equity": 1e308, "rwa": 1e-300},  # the quotient overflows
    ], ids=["big-int-equity", "big-int-rwa", "inf-tce", "quotient"])
    def test_tce_rwa(self, amounts, caplog):
        with caplog.at_level(logging.WARNING, logger="baselcost.ratios"):
            with pytest.raises(DataError) as info:
                compute_tce_rwa(BalanceSheetSnapshot("B", 2014, **amounts))
        assert str(info.value) == "B 2014: TCE/RWA is outside the range of a double"
        assert caplog.records == []  # refused, not also logged as negative

    def test_tce_rwa_of_big_ints_alone(self):
        """Int arithmetic needs no double until the quotient, which fits."""
        bs = BalanceSheetSnapshot("B", 2014, common_equity=10**400, intangibles=0, goodwill=0,
                                  rwa=4 * 10**400)
        assert compute_tce_rwa(bs) == 0.25

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CapitalPosition)][2:])
    @pytest.mark.parametrize("value", [10**400, 1e307], ids=["big-int", "1e307"])
    def test_compliance(self, field, value):
        """1e307 is a double; only the lcr check (1e309 percent) is not."""
        amounts = {"cet1_ratio_pct": 8.0, "tier1_ratio_pct": 7.0, "total_car_pct": 13.0,
                   "leverage_pct": 4.0, "lcr": 1.2, "nsfr": 1.1, field: value}
        report = check_compliance(CapitalPosition("B", 2019, **amounts))
        if value == 1e307 and field != "lcr":
            assert report.overall_pass and report.to_dict()["checks"]
            return
        for read in (lambda: report.checks, lambda: report.overall_pass, report.to_dict):
            with pytest.raises(DataError) as info:
                read()
            assert str(info.value) == (
                "B 2019: a compliance check is outside the range of a double")

    def test_numpy_position_stored_as_floats(self):
        """numpy's scalar product would warn of the overflow before the DataError."""
        pos = CapitalPosition("B", 2019, 8.0, 7.0, 13.0, 4.0, np.float64(1e307), 1.1)
        assert type(pos.lcr) is float
        with pytest.raises(DataError) as info:
            check_compliance(pos).to_dict()
        assert str(info.value) == "B 2019: a compliance check is outside the range of a double"

    def test_numpy_sheet_stored_as_floats(self):
        """numpy's scalar sum would warn of the overflow before the DataError."""
        bs = BalanceSheetSnapshot("B", 2014, common_equity=np.float64(1e308),
                                  debt_ge_1y=np.float64(1e308), govt_debt=1.0)
        assert (type(bs.common_equity), type(bs.debt_ge_1y)) == (float, float)
        with pytest.raises(DataError) as info:
            compute_nsfr(bs)
        assert str(info.value) == "B 2014: NSFR is outside the range of a double"

    @pytest.mark.parametrize("value, kind", [
        (np.float32(1.5), float), (np.int64(3), float), (Fraction(1, 2), float),
        (Fraction(10**400), Fraction), (10**400, int), (7, int)], ids=repr)
    def test_stored_amount_kind(self, value, kind):
        """A Python int stays one; a Fraction past a double is kept as given."""
        assert type(BalanceSheetSnapshot("B", 2014, rwa=value).rwa) is kind


# Transitional arrangements, typed independently of the implementation;
# cells in percent except the NSFR floor (a ratio).
EXPECTED_SCHEDULE = {
    2015: (4.50, 0.0, 4.50, 5.50, 10.00, 10.00, 20.0, 20.0, 3.0, 100.0, 1.0),
    2016: (4.50, 0.625, 5.125, 5.50, 10.00, 10.625, 40.0, 40.0, 3.0, 100.0, 1.0),
    2017: (4.50, 1.25, 5.75, 6.00, 10.00, 11.25, 60.0, 60.0, 3.0, 100.0, 1.0),
    2018: (4.50, 1.875, 6.375, 6.00, 10.00, 11.875, 80.0, 80.0, 3.0, 100.0, 1.0),
    2019: (4.50, 2.50, 7.00, 6.00, 10.00, 12.50, 100.0, 100.0, 3.0, 100.0, 1.0),
}

FIELD_ORDER = (
    "min_cet1_pct", "conservation_buffer_pct", "cet1_plus_buffer_pct",
    "min_tier1_pct", "min_total_pct", "total_plus_buffer_pct",
    "cet1_deduction_phase_pct", "rr_deduction_phase_pct",
    "leverage_min_pct", "lcr_min_pct", "nsfr_min",
)


class TestSchedule:
    def test_every_cell(self):
        for req in BANGLADESH_SCHEDULE:
            expected = EXPECTED_SCHEDULE[req.year]
            for fname, want in zip(FIELD_ORDER, expected):
                assert getattr(req, fname) == want, f"{req.year} {fname}"

    def test_buffer_nondecreasing(self):
        buffers = [r.conservation_buffer_pct for r in BANGLADESH_SCHEDULE]
        assert buffers == sorted(buffers)

    def test_deduction_phase_steps(self):
        assert [r.cet1_deduction_phase_pct for r in BANGLADESH_SCHEDULE] == \
            [20.0, 40.0, 60.0, 80.0, 100.0]

    def test_nsfr_binds_from_september_first_year_only(self):
        flags = [r.nsfr_from_september for r in BANGLADESH_SCHEDULE]
        assert flags == [True, False, False, False, False]


def position(year, cet1, tier1, total, lev, lcr, nsfr, entity="B01"):
    return CapitalPosition(entity, year, cet1, tier1, total, lev, lcr, nsfr)


class TestCompliance:
    def test_2019_all_pass(self):
        report = check_compliance(position(2019, 7.0, 9.0, 12.5, 3.0, 1.0, 1.01))
        assert report.overall_pass
        assert all(c.passed for c in report.checks)
        assert not report.steady_state

    def test_2016_cet1_buffer_shortfall(self):
        report = check_compliance(position(2016, 5.0, 6.5, 11.0, 3.5, 1.1, 1.05))
        by_name = {c.name: c for c in report.checks}
        assert by_name["cet1_plus_buffer"].shortfall == pytest.approx(0.125)
        assert not by_name["cet1_plus_buffer"].passed
        assert not report.overall_pass

    def test_2017_boundary_inclusive(self):
        report = check_compliance(position(2017, 5.75, 6.0, 11.25, 3.0, 1.0, 1.0))
        assert report.overall_pass

    def test_2015_nsfr_is_advisory(self):
        report = check_compliance(position(2015, 4.5, 5.5, 10.0, 3.0, 1.0, 0.5))
        by_name = {c.name: c for c in report.checks}
        assert by_name["nsfr"].advisory
        assert not by_name["nsfr"].passed
        # failing an advisory check must not fail the year
        assert report.overall_pass

    def test_outside_years_use_terminal_rules(self):
        report = check_compliance(position(2024, 7.0, 9.0, 12.5, 3.0, 1.0, 1.01))
        assert report.steady_state
        assert report.requirements.year == 2019
        assert report.overall_pass

    def test_pass_iff_zero_shortfalls(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            pos = position(
                int(rng.integers(2015, 2020)),
                cet1=float(rng.uniform(3, 9)), tier1=float(rng.uniform(4, 11)),
                total=float(rng.uniform(8, 14)), lev=float(rng.uniform(2, 5)),
                lcr=float(rng.uniform(0.8, 1.4)), nsfr=float(rng.uniform(0.8, 1.4)),
            )
            report = check_compliance(pos)
            binding = [c for c in report.checks if not c.advisory]
            assert report.overall_pass == all(c.shortfall == 0.0 for c in binding)


def eager_report(pos):
    """The compliance table as built before reports computed their checks:
    one RequirementCheck per row, then the report's to_dict()."""
    rows = [r for r in BANGLADESH_SCHEDULE if r.year == pos.year]
    req, steady = (rows[0], False) if rows else (BANGLADESH_SCHEDULE[-1], True)
    nsfr_note = "applies from September" if req.nsfr_from_september else ""
    rows = (
        ("cet1", req.min_cet1_pct, pos.cet1_ratio_pct, False, ""),
        ("cet1_plus_buffer", req.cet1_plus_buffer_pct, pos.cet1_ratio_pct, False, ""),
        ("tier1", req.min_tier1_pct, pos.tier1_ratio_pct, False, ""),
        ("total", req.min_total_pct, pos.total_car_pct, False, ""),
        ("total_plus_buffer", req.total_plus_buffer_pct, pos.total_car_pct, False, ""),
        ("leverage", req.leverage_min_pct, pos.leverage_pct, False, req.leverage_note),
        ("lcr", req.lcr_min_pct, pos.lcr * 100.0, False, ""),
        ("nsfr", req.nsfr_min, pos.nsfr, req.nsfr_from_september, nsfr_note),
    )
    checks = tuple(
        RequirementCheck(name, required, actual, max(0.0, required - actual),
                         actual >= required, advisory, note)
        for name, required, actual, advisory, note in rows
    )
    return checks, {
        "entity": pos.entity,
        "year": pos.year,
        "schedule_year": req.year,
        "steady_state": steady,
        "overall_pass": all(c.passed for c in checks if not c.advisory),
        "checks": [dataclasses.asdict(c) for c in checks],
    }


def floor_values(*names, scale=1.0):
    """Every schedule floor of the named requirements, in the position's units."""
    return sorted({getattr(r, n) / scale for r in BANGLADESH_SCHEDULE for n in names})


def amounts(floors):
    """Exactly on a floor, one ulp either side of it, or anywhere in range."""
    on_floor = st.sampled_from(floors)
    return st.one_of(
        on_floor,
        on_floor.map(lambda v: math.nextafter(v, math.inf)),
        on_floor.map(lambda v: math.nextafter(v, 0.0)),
        st.floats(0.0, 2.0 * max(floors)),
    )


positions = st.builds(
    CapitalPosition,
    st.sampled_from(["B01", "B02"]),
    st.integers(2010, 2025),
    amounts(floor_values("min_cet1_pct", "cet1_plus_buffer_pct")),
    amounts(floor_values("min_tier1_pct")),
    amounts(floor_values("min_total_pct", "total_plus_buffer_pct")),
    amounts(floor_values("leverage_min_pct")),
    amounts(floor_values("lcr_min_pct", scale=100.0)),
    amounts(floor_values("nsfr_min")),
)


class TestComplianceReportProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(positions)
    def test_matches_eager_table(self, pos):
        report = check_compliance(pos)
        checks, expected = eager_report(pos)
        assert report.to_dict() == expected
        assert report.checks == checks
        assert report.overall_pass == all(c.passed for c in report.checks if not c.advisory)
        assert report.position is pos

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(positions)
    def test_equal_and_hash_alike_from_one_position(self, pos):
        a, b = check_compliance(pos), check_compliance(dataclasses.replace(pos))
        assert a == b and hash(a) == hash(b)
        assert a.checks == b.checks and a.checks is not a.checks

    def test_checks_are_read_only(self):
        report = check_compliance(position(2019, 7.0, 9.0, 12.5, 3.0, 1.0, 1.01))
        # TypeError, not AttributeError, on Python 3.11 (see README "Result objects")
        for name in ("checks", "entity", "year", "schedule_year", "overall_pass"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(report, name, None)


class TestRequiredDeltas:
    def test_full_phase_in(self):
        deltas = required_deltas(2015, 2019)
        assert deltas["total_plus_buffer_pct"] == pytest.approx(2.50)
        assert deltas["cet1_plus_buffer_pct"] == pytest.approx(2.50)
        assert deltas["min_total_pct"] == 0.0

    def test_single_step_buffer(self):
        assert required_deltas(2016, 2017)["conservation_buffer_pct"] == \
            pytest.approx(0.625)

    def test_same_year_is_zero(self):
        assert all(v == 0.0 for v in required_deltas(2017, 2017).values())

    def test_outside_schedule_rejected(self):
        with pytest.raises(DataError):
            required_deltas(2014, 2019)

    def test_reversed_window_rejected(self):
        with pytest.raises(DataError, match="^FROM year 2019 is after TO year 2015$"):
            required_deltas(2019, 2015)


BS_HEADER = (
    "bank_id,year,common_equity,debt_ge_1y,other_liabilities_ge_1y,"
    "stable_deposits_lt_1y,less_stable_deposits_lt_1y,govt_debt,"
    "corp_loans_lt_1y,retail_loans_lt_1y,other_assets,intangibles,goodwill,rwa"
)
BS_ROW = "B01,2014,100,50,0,200,100,100,300,100,100,10,5,850"
POS_HEADER = "bank_id,year,cet1_ratio_pct,tier1_ratio_pct,total_car_pct,leverage_pct,lcr,nsfr"
POS_ROW = "B01,2019,7.0,9.0,12.5,3.0,1.0,1.01"
DATA = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, *lines, name="in.csv"):
    p = tmp_path / name
    p.write_text("".join(line + "\n" for line in lines))
    return str(p)


class TestLoadBalanceSheets:
    def test_worked_row(self, tmp_path):
        (bs,) = load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW))
        assert bs == WORKED

    def test_bundled_file(self):
        sheets = load_balance_sheets(str(DATA / "balance_sheets.csv"))
        assert [(b.entity, b.year) for b in sheets][:2] == [("B01", 2014), ("B02", 2014)]
        assert sheets[0] == WORKED

    def test_header_only_file_gives_no_rows(self, tmp_path):
        assert load_balance_sheets(write(tmp_path, BS_HEADER)) == []

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write(tmp_path, BS_HEADER, "", BS_ROW, "", "B02,2014,x" + ",0" * 11)
        with pytest.raises(DataError, match=r"in\.csv:5: cannot parse 'x'"):
            load_balance_sheets(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:1: empty file"):
            load_balance_sheets(write(tmp_path))

    def test_header_without_keys(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:1: header must include bank_id"):
            load_balance_sheets(write(tmp_path, BS_HEADER.replace("year", "yr"), BS_ROW))

    def test_duplicate_header_column(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:1: duplicate column"):
            load_balance_sheets(write(tmp_path, BS_HEADER + ",rwa", BS_ROW + ",1"))

    def test_missing_required_column(self, tmp_path):
        header = BS_HEADER.replace("govt_debt,", "")
        row = "B01,2014,100,50,0,200,100,300,100,100,10,5,850"
        with pytest.raises(DataError, match=r"in\.csv:1: missing required column.*govt_debt"):
            load_balance_sheets(write(tmp_path, header, row))

    def test_missing_rwa_only_when_required(self, tmp_path):
        header = BS_HEADER.rsplit(",", 1)[0]
        path = write(tmp_path, header, BS_ROW.rsplit(",", 1)[0])
        with pytest.raises(DataError, match=r"in\.csv:1: .*'rwa'"):
            load_balance_sheets(path)
        (bs,) = load_balance_sheets(path, require_rwa=False)
        assert bs.rwa == 0.0

    def test_absent_optional_columns_read_as_zero(self, tmp_path):
        header = BS_HEADER.rsplit(",", 3)[0]  # no intangibles, goodwill, rwa
        path = write(tmp_path, header, "B01,2014,100,50,0,200,100,100,300,100,100")
        (bs,) = load_balance_sheets(path, require_rwa=False)
        assert (bs.intangibles, bs.goodwill, bs.rwa) == (0.0, 0.0, 0.0)
        assert compute_nsfr(bs) == compute_nsfr(WORKED)

    def test_blank_optional_cells_read_as_zero(self, tmp_path):
        path = write(tmp_path, BS_HEADER, "B01,2014,100,50,0,200,100,100,300,100,100, ,,")
        (bs,) = load_balance_sheets(path, require_rwa=False)
        assert (bs.intangibles, bs.goodwill, bs.rwa) == (0.0, 0.0, 0.0)

    def test_empty_bank_id(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:3: empty bank_id"):
            load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW, " " + BS_ROW[3:]))

    def test_bad_year(self, tmp_path):
        row = BS_ROW.replace("2014", "20x4")
        with pytest.raises(DataError, match=r"in\.csv:2: bad year '20x4'"):
            load_balance_sheets(write(tmp_path, BS_HEADER, row))

    def test_unparseable_cell(self, tmp_path):
        row = BS_ROW.replace(",850", ", 8.5.0 ")
        with pytest.raises(DataError, match=r"in\.csv:2: cannot parse '8\.5\.0' in column 'rwa'"):
            load_balance_sheets(write(tmp_path, BS_HEADER, row))

    @pytest.mark.parametrize("row, got", [(BS_ROW + ",1", 15), (BS_ROW.rsplit(",", 1)[0], 13)])
    def test_wrong_field_count(self, tmp_path, row, got):
        with pytest.raises(DataError, match=rf"in\.csv:3: expected 14 fields, got {got}"):
            load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW.replace("B01", "B00"), row))

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, BS_HEADER, BS_ROW, BS_ROW.replace("B01", "B02"), BS_ROW)
        with pytest.raises(DataError, match=r"in\.csv:4: duplicate observation for \('B01', 2014\)"):
            load_balance_sheets(path)

    @pytest.mark.parametrize("column", ["common_equity", "other_assets", "rwa"])
    def test_blank_required_cell(self, tmp_path, column):
        cells = BS_ROW.split(",")
        cells[BS_HEADER.split(",").index(column)] = "  "
        path = write(tmp_path, BS_HEADER, BS_ROW.replace("B01", "B00"), ",".join(cells))
        with pytest.raises(DataError, match=rf"in\.csv:3: blank cell in required column '{column}'"):
            load_balance_sheets(path)

    def test_negative_amount_rejected(self, tmp_path):
        with pytest.raises(DataError, match="common_equity must be a non-negative"):
            load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW.replace(",100,", ",-100,", 1)))
        bad = BS_ROW.replace("B01", "B02").replace(",100,", ",-100,", 1)
        with pytest.raises(DataError, match=r"in\.csv:3: B02 2014: component common_equity "
                                            r"must be a non-negative"):
            load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW, bad))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amount_names_the_line(self, tmp_path, value):
        bad = BS_ROW.replace("B01", "B02").replace(",850", f",{value}")
        with pytest.raises(DataError, match=r"in\.csv:3: B02 2014: component rwa must be"):
            load_balance_sheets(write(tmp_path, BS_HEADER, BS_ROW, bad))


class TestLoadPositions:
    def test_row_read(self, tmp_path):
        (pos,) = load_positions(write(tmp_path, POS_HEADER, POS_ROW))
        assert pos == CapitalPosition("B01", 2019, 7.0, 9.0, 12.5, 3.0, 1.0, 1.01)

    def test_bundled_file(self):
        positions = load_positions(str(DATA / "positions.csv"))
        assert [(p.entity, p.year) for p in positions] == \
            [("B01", 2019), ("B02", 2016), ("B03", 2017)]

    def test_columns_in_any_order(self, tmp_path):
        path = write(tmp_path, "nsfr,lcr,leverage_pct,total_car_pct,tier1_ratio_pct,"
                               "cet1_ratio_pct,year,bank_id",
                     "1.01,1.0,3.0,12.5,9.0,7.0,2019,B01")
        assert load_positions(path) == load_positions(write(tmp_path, POS_HEADER, POS_ROW,
                                                            name="b.csv"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:1: empty file"):
            load_positions(write(tmp_path))

    def test_missing_required_column(self, tmp_path):
        header = POS_HEADER.rsplit(",", 1)[0]
        with pytest.raises(DataError, match=r"in\.csv:1: missing required column.*'nsfr'"):
            load_positions(write(tmp_path, header, POS_ROW.rsplit(",", 1)[0]))

    def test_empty_bank_id(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:2: empty bank_id"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW.replace("B01", "")))

    def test_bad_year(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:2: bad year ''"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW.replace("2019", "")))

    def test_unparseable_cell(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:2: cannot parse 'n/a' in column 'lcr'"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW.replace(",1.0,", ",n/a,")))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:2: expected 8 fields, got 7"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW.rsplit(",", 1)[0]))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:3: duplicate observation for \('B01', 2019\)"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW, POS_ROW))

    def test_same_bank_other_year_is_not_a_duplicate(self, tmp_path):
        rows = load_positions(write(tmp_path, POS_HEADER, POS_ROW, POS_ROW.replace("2019", "2018")))
        assert [p.year for p in rows] == [2019, 2018]

    def test_blank_required_cell(self, tmp_path):
        with pytest.raises(DataError, match=r"in\.csv:2: blank cell in required column 'cet1_ratio_pct'"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW.replace(",7.0,", ",,")))

    @pytest.mark.parametrize("value", ["-7.0", "nan", "inf"])
    def test_bad_amount_names_the_line(self, tmp_path, value):
        bad = POS_ROW.replace("2019", "2018").replace(",7.0,", f",{value},")
        with pytest.raises(DataError, match=r"in\.csv:3: B01 2018: cet1_ratio_pct must be "
                                            r"non-negative"):
            load_positions(write(tmp_path, POS_HEADER, POS_ROW, bad))
