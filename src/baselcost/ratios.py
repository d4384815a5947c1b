"""Regulatory ratio calculators and the Bangladesh Basel III phase-in schedule.

Implements the two balance-sheet ratios used throughout the toolkit:

* NSFR = ASF / RSF under the December-2009 BCBS weighting (the definition
  that allows comparison across impact studies). ASF counts equity, debt and
  other liabilities of >= 1 year maturity in full, stable deposits under one
  year at 85%, and less stable deposits at 70%. RSF weights government debt
  at 5%, corporate loans under one year at 50%, retail loans at 85%, and
  remaining assets (excluding cash and interbank loans) at 100%.
* TCE/RWA = (common equity - intangibles - goodwill) / risk-weighted assets.

The phase-in schedule reproduces the Bangladesh Bank transitional
arrangements (BRPD circular 18/2014): national minima are stricter than the
global floors, with a 10% minimum total capital ratio throughout and the
conservation buffer phased in by 0.625 pp steps to 2.5% in 2019.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import asdict, dataclass, fields
from operator import attrgetter

from ._bankyear import read_bank_years, read_json
from ._checks import integer, json_number, real
from .errors import DataError


@functools.cache
def _float_fields(cls: type) -> tuple[str, ...]:
    """Names of the float fields of a dataclass, in declaration order."""
    return tuple(f.name for f in fields(cls) if f.type == "float")


def _check_record(record) -> None:
    """A bank-year record's `__post_init__`. The entity must be a non-empty str
    without surrounding whitespace and the year an int (a numpy int is stored
    as one); each float field must be a number, not a bool, and a finite,
    non-negative amount (a numpy one is stored as a float), or a DataError
    states the class's `_amount_rule`."""
    entity, year = record.entity, record.year
    if not isinstance(entity, str) or not entity or entity != entity.strip():
        raise DataError(
            f"entity must be a non-empty str without surrounding whitespace, got {entity!r}")
    if type(year) is not int:
        year = integer(f"{entity}: year", year)
        object.__setattr__(record, "year", year)
    # One test per amount first: a float, and one comparison that is false for
    # negatives, infinities and NaN alike. Only on a doubt are the fields named.
    for v in record._amounts(record):
        if type(v) is not float or not 0.0 <= v < math.inf:
            break
    else:
        return
    for name in _float_fields(type(record)):
        v = getattr(record, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise DataError(f"{entity} {year}: {name} must be a number, got {v!r}")
        if not 0.0 <= v < math.inf:
            raise DataError(f"{entity} {year}: {record._amount_rule.format(name)}, got {v!r}")
        if type(v) is not float and type(v) is not int:  # numpy scalars warn on overflow
            with contextlib.suppress(OverflowError):  # a Fraction past a double stays one
                object.__setattr__(record, name, float(v))


@dataclass(frozen=True, slots=True)
class BalanceSheetSnapshot:
    """Per-bank-year balance-sheet components, all non-negative, one currency.

    `other_assets_ex_cash_interbank` excludes cash and interbank loans; `rwa`
    only needs to be positive when TCE/RWA is requested.
    """

    entity: str
    year: int
    common_equity: float = 0.0
    debt_ge_1y: float = 0.0
    other_liabilities_ge_1y: float = 0.0
    stable_deposits_lt_1y: float = 0.0
    less_stable_deposits_lt_1y: float = 0.0
    govt_debt: float = 0.0
    corp_loans_lt_1y: float = 0.0
    retail_loans_lt_1y: float = 0.0
    other_assets_ex_cash_interbank: float = 0.0
    intangibles: float = 0.0
    goodwill: float = 0.0
    rwa: float = 0.0

    _amount_rule = "component {} must be a non-negative finite amount"
    __post_init__ = _check_record


BalanceSheetSnapshot._amounts = attrgetter(*_float_fields(BalanceSheetSnapshot))


@dataclass(frozen=True, slots=True)
class NsfrWeights:
    """ASF/RSF weights; defaults are the December-2009 proposal constants."""

    asf_ge_1y: float = 1.00
    asf_stable_deposits: float = 0.85
    asf_less_stable_deposits: float = 0.70
    rsf_govt_debt: float = 0.05
    rsf_corp_loans: float = 0.50
    rsf_retail_loans: float = 0.85
    rsf_other_assets: float = 1.00

    def __post_init__(self) -> None:
        for f in fields(self):
            w = real(f"weight {f.name}", getattr(self, f.name))
            if not 0.0 <= w <= 1.0:
                raise DataError(f"weight {f.name} must lie in [0, 1], got {w!r}")

    @classmethod
    def from_json(cls, path: str) -> "NsfrWeights":
        """Load an override file {"asf": {key: w}, "rsf": {key: w}}.

        Weight `key` of group `asf` or `rsf` sets field `<group>_<key>`;
        weights the file leaves out keep their defaults. An unknown group
        or key is an error.
        """
        raw = read_json(path, "weights")
        if not isinstance(raw, dict):
            raise DataError(f"malformed weights file {path}: expected a JSON object")
        names = {f.name for f in fields(cls)}
        overrides = {}
        malformed = f"malformed weights file {path}:"
        for group, block in raw.items():
            if group not in ("asf", "rsf"):
                raise DataError(f"weights file {path}: unknown group {group!r}")
            if not isinstance(block, dict):
                raise DataError(f"weights file {path}: {group} must be a JSON object")
            for key, w in block.items():
                if f"{group}_{key}" not in names:
                    raise DataError(f"weights file {path}: unknown {group} weight {key!r}")
                overrides[f"{group}_{key}"] = json_number(f"{malformed} {group} weight {key!r}", w)
        try:
            return cls(**overrides)
        except DataError as exc:  # a weight outside [0, 1] or not finite
            raise DataError(f"{malformed} {exc}") from None


DEFAULT_WEIGHTS = NsfrWeights()


def compute_nsfr(bs: BalanceSheetSnapshot, w: NsfrWeights = DEFAULT_WEIGHTS) -> float:
    """Net stable funding ratio ASF/RSF for one balance sheet.

    Raises DataError when required stable funding is zero (a bank with no
    funded assets has no defined NSFR) or a double cannot hold the ratio.
    """
    try:
        asf = (
            w.asf_ge_1y * (bs.common_equity + bs.debt_ge_1y + bs.other_liabilities_ge_1y)
            + w.asf_stable_deposits * bs.stable_deposits_lt_1y
            + w.asf_less_stable_deposits * bs.less_stable_deposits_lt_1y
        )
        rsf = (
            w.rsf_govt_debt * bs.govt_debt
            + w.rsf_corp_loans * bs.corp_loans_lt_1y
            + w.rsf_retail_loans * bs.retail_loans_lt_1y
            + w.rsf_other_assets * bs.other_assets_ex_cash_interbank
        )
    except OverflowError:  # an int amount beyond a double
        asf = rsf = math.inf
    if rsf <= 0.0:
        raise DataError(f"{bs.entity} {bs.year}: undefined NSFR, required stable funding is zero")
    nsfr = asf / rsf
    if rsf == math.inf or not math.isfinite(nsfr):  # an inf rsf would read 0 or nan
        raise DataError(f"{bs.entity} {bs.year}: NSFR is outside the range of a double")
    return nsfr


def compute_tce_rwa(bs: BalanceSheetSnapshot) -> float:
    """Tangible common equity over risk-weighted assets.

    Negative tangible equity (intangibles plus goodwill exceeding common
    equity) is reported with its sign, not clamped, and each such call logs
    one warning on the `baselcost.ratios` logger. A ratio that a double
    cannot hold raises DataError.
    """
    if bs.rwa <= 0.0:
        raise DataError(f"{bs.entity} {bs.year}: TCE/RWA needs rwa > 0, got {bs.rwa}")
    try:
        tce = bs.common_equity - bs.intangibles - bs.goodwill
        ratio = tce / bs.rwa
    except OverflowError:  # an int amount beyond a double
        ratio = math.inf
    if not math.isfinite(ratio):
        raise DataError(f"{bs.entity} {bs.year}: TCE/RWA is outside the range of a double")
    if tce < 0:
        import logging  # here, so that the ratio and scenario commands load no logging
        logging.getLogger(__name__).warning(
            "%s %s: tangible common equity is negative (%r)", bs.entity, bs.year, tce)
    return ratio


# -- phase-in schedule -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class YearRequirements:
    """One year's minima. Percent units except nsfr_min, which is a ratio."""

    year: int
    min_cet1_pct: float
    conservation_buffer_pct: float
    cet1_plus_buffer_pct: float
    min_tier1_pct: float
    min_total_pct: float
    total_plus_buffer_pct: float
    cet1_deduction_phase_pct: float
    rr_deduction_phase_pct: float
    leverage_min_pct: float
    lcr_min_pct: float
    nsfr_min: float
    leverage_note: str = ""
    nsfr_from_september: bool = False


# The transitional requirements, one row per year from 2015 through 2019,
# and the same rows keyed by year.
BANGLADESH_SCHEDULE = (
    YearRequirements(2015, 4.50, 0.0, 4.50, 5.50, 10.00, 10.00, 20.0, 20.0,
                     3.0, 100.0, 1.0, nsfr_from_september=True),
    YearRequirements(2016, 4.50, 0.625, 5.125, 5.50, 10.00, 10.625, 40.0, 40.0,
                     3.0, 100.0, 1.0),
    YearRequirements(2017, 4.50, 1.25, 5.75, 6.00, 10.00, 11.25, 60.0, 60.0,
                     3.0, 100.0, 1.0, leverage_note="readjustment"),
    YearRequirements(2018, 4.50, 1.875, 6.375, 6.00, 10.00, 11.875, 80.0, 80.0,
                     3.0, 100.0, 1.0, leverage_note="migration to Pillar 1"),
    YearRequirements(2019, 4.50, 2.50, 7.00, 6.00, 10.00, 12.50, 100.0, 100.0,
                     3.0, 100.0, 1.0, leverage_note="migration to Pillar 1"),
)
_SCHEDULE_ROW = {req.year: req for req in BANGLADESH_SCHEDULE}


@dataclass(frozen=True, slots=True)
class CapitalPosition:
    """A bank's reported ratios for one year. Percent units; lcr/nsfr are ratios."""

    entity: str
    year: int
    cet1_ratio_pct: float
    tier1_ratio_pct: float
    total_car_pct: float
    leverage_pct: float
    lcr: float
    nsfr: float

    _amount_rule = "{} must be non-negative and finite"
    __post_init__ = _check_record


CapitalPosition._amounts = attrgetter(*_float_fields(CapitalPosition))


@dataclass(frozen=True, slots=True)
class RequirementCheck:
    """Outcome of one requirement: required level, actual, shortfall, status."""

    name: str
    required: float
    actual: float
    shortfall: float
    passed: bool
    advisory: bool = False
    note: str = ""


@dataclass(frozen=True, slots=True)
class ComplianceReport:
    """A capital position checked against the requirements row for its year.

    Only the position, the row that applied and the steady-state flag are
    stored. `checks` and `overall_pass` are computed from them on each access,
    so callers that never read the checks never pay for them.
    """

    position: CapitalPosition
    requirements: YearRequirements
    steady_state: bool

    @property
    def checks(self) -> tuple[RequirementCheck, ...]:
        """One record per requirement, built fresh on each access.

        Shortfalls are in the requirement's own units, floored at zero, and
        comparisons are inclusive: meeting the floor exactly passes. The NSFR
        requirement only binds from September of the schedule's first year,
        so in that year it is advisory. A level a double cannot hold raises DataError.
        """
        req, pos = self.requirements, self.position
        nsfr_note = "applies from September" if req.nsfr_from_september else ""
        try:  # an int amount beyond a double does not convert to float
            table = (  # name, required, actual, advisory, note
                ("cet1", req.min_cet1_pct, pos.cet1_ratio_pct, False, ""),
                ("cet1_plus_buffer", req.cet1_plus_buffer_pct, pos.cet1_ratio_pct, False, ""),
                ("tier1", req.min_tier1_pct, pos.tier1_ratio_pct, False, ""),
                ("total", req.min_total_pct, pos.total_car_pct, False, ""),
                ("total_plus_buffer", req.total_plus_buffer_pct, pos.total_car_pct, False, ""),
                ("leverage", req.leverage_min_pct, pos.leverage_pct, False, req.leverage_note),
                ("lcr", req.lcr_min_pct, pos.lcr * 100.0, False, ""),
                ("nsfr", req.nsfr_min, pos.nsfr, req.nsfr_from_september, nsfr_note),
            )
            gaps = [required - actual for _, required, actual, _, _ in table]
        except OverflowError:
            gaps = [-math.inf]
        if -math.inf in gaps:  # a gap of -inf: the lcr percentage overflowed
            raise DataError(
                f"{pos.entity} {pos.year}: a compliance check is outside the range of a double")
        return tuple([
            RequirementCheck(name, required, actual, max(0.0, gap), actual >= required,
                             advisory, note)
            for (name, required, actual, advisory, note), gap in zip(table, gaps)
        ])

    @property
    def overall_pass(self) -> bool:
        """Every binding (non-advisory) requirement is met."""
        return all(c.passed for c in self.checks if not c.advisory)

    def to_dict(self) -> dict:
        return {
            "entity": self.position.entity,
            "year": self.position.year,
            "schedule_year": self.requirements.year,
            "steady_state": self.steady_state,
            "overall_pass": self.overall_pass,
            "checks": [asdict(c) for c in self.checks],
        }


def check_compliance(pos: CapitalPosition) -> ComplianceReport:
    """Check one capital position against the schedule row for its year.

    Outside the schedule's years the terminal (last-year) rules apply and the
    report is flagged `steady_state`. See `ComplianceReport` for the checks.
    """
    req = _SCHEDULE_ROW.get(pos.year)
    if req is None:
        return ComplianceReport(pos, BANGLADESH_SCHEDULE[-1], True)
    return ComplianceReport(pos, req, False)


REQUIREMENT_FIELDS = (
    "min_cet1_pct",
    "conservation_buffer_pct",
    "cet1_plus_buffer_pct",
    "min_tier1_pct",
    "min_total_pct",
    "total_plus_buffer_pct",
    "leverage_min_pct",
    "lcr_min_pct",
    "nsfr_min",
)


def required_deltas(from_year: int, to_year: int) -> dict[str, float]:
    """Per-requirement change between two schedule years (to minus from).

    Both years must lie in the schedule, and `from_year` must not be after
    `to_year`. The result is a shock vector suitable for the scenario engine,
    e.g. required_deltas(2015, 2019)["total_plus_buffer_pct"] == 2.5.
    """
    start = _SCHEDULE_ROW.get(integer("from_year", from_year))
    end = _SCHEDULE_ROW.get(integer("to_year", to_year))
    if start is None or end is None:
        raise DataError(
            f"both years must lie in the schedule ({BANGLADESH_SCHEDULE[0].year}-"
            f"{BANGLADESH_SCHEDULE[-1].year}); got {from_year}, {to_year}"
        )
    if from_year > to_year:
        raise DataError(f"FROM year {from_year} is after TO year {to_year}")
    return {f: getattr(end, f) - getattr(start, f) for f in REQUIREMENT_FIELDS}


# -- CSV ingestion ------------------------------------------------------------

# The CSV columns are the float fields of each record type, in field order;
# this table names the one column that is not spelled like its field.
_CSV_NAMES = {"other_assets_ex_cash_interbank": "other_assets"}
BALANCE_SHEET_COLUMNS = tuple(
    _CSV_NAMES.get(f, f) for f in _float_fields(BalanceSheetSnapshot)
)
POSITION_COLUMNS = _float_fields(CapitalPosition)


def load_balance_sheets(path: str, require_rwa: bool = True) -> list[BalanceSheetSnapshot]:
    """Read balance-sheet CSV rows into snapshots.

    Set require_rwa=False when only NSFR is wanted and the capital columns
    (rwa, intangibles, goodwill) are absent from the file. Intangibles and
    goodwill are always optional, rwa is optional when not required; an
    optional column that is absent or blank reads as 0.0.
    """
    optional = ("intangibles", "goodwill") + (() if require_rwa else ("rwa",))
    required = tuple(c for c in BALANCE_SHEET_COLUMNS if c not in optional)
    return read_bank_years(path, BALANCE_SHEET_COLUMNS, required, 0.0, BalanceSheetSnapshot)[1]


def load_positions(path: str) -> list[CapitalPosition]:
    """Read capital-position CSV rows (header: bank_id,year,<POSITION_COLUMNS>)."""
    return read_bank_years(path, POSITION_COLUMNS, POSITION_COLUMNS, 0.0, CapitalPosition)[1]
