"""Bank-year panel data model, CSV ingestion, and variable construction.

The substrate for everything else in the package: a rectangular entity x
period dataset of named numeric columns with explicit missing values.
Datasets are immutable; every operation returns a new dataset, so shared
read access is safe.

Input format is wide CSV, one row per (bank_id, year):

    bank_id,year,roe,liq,cap
    B01,2010,12.5,1.02,0.091
    B01,2011,,1.05,0.094      <- empty cell = missing

Log transforms and, for both estimators, the one demeaning routine
(`entity_demean`) and float-range rule (`pow2_normalise`) are pure functions.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._bankyear import read_bank_years, read_json
from ._checks import integer
from .errors import DataError

TRANSFORMS = ("none", "log")


@dataclass(frozen=True, slots=True)
class VariableSpec:
    """Declares one panel variable: its name, transform, and documentation."""

    name: str
    transform: str = "none"
    role: str = ""
    units: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("variable name must be non-empty")
        if self.transform not in TRANSFORMS:
            raise DataError(
                f"unknown transform {self.transform!r} for variable {self.name!r}; "
                f"expected one of {TRANSFORMS}"
            )


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)  # always copy so caller arrays stay writable
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class PanelDataset:
    """Rectangular bank-year panel.

    columns maps variable name -> (n_entities, n_periods) float matrix with
    NaN for missing cells. Entity ids, non-empty strs with no surrounding
    blanks and no longer than the csv module's field limit, follow first
    appearance in the source; periods increase strictly.
    """

    entities: tuple[str, ...]
    periods: tuple[int, ...]
    columns: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        for i, e in enumerate(self.entities):  # only ids that a CSV round trip keeps
            if not isinstance(e, str) or not e or e != e.strip():
                raise DataError(f"entities[{i}] must be a non-empty str without "
                                f"surrounding whitespace, got {e!r}")
            if len(e) > csv.field_size_limit():  # load_panel's reader refuses it
                raise DataError(f"entities[{i}] is {len(e)} characters long, over the "
                                f"csv field limit of {csv.field_size_limit()}")
        if len(set(self.entities)) != len(self.entities):
            raise DataError("entity ids must be unique")
        periods = tuple(integer(f"periods[{j}]", p) for j, p in enumerate(self.periods))
        object.__setattr__(self, "periods", periods)
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise DataError("periods must be strictly increasing")
        shape = (len(self.entities), len(periods))
        frozen = {}
        for name, mat in self.columns.items():
            mat = np.asarray(mat, dtype=float)
            if mat.shape != shape:
                raise DataError(
                    f"column {name!r} has shape {mat.shape}, expected {shape}"
                )
            if np.any(np.isinf(mat)):
                raise DataError(f"column {name!r} contains non-finite values")
            frozen[name] = _freeze(mat)
        object.__setattr__(self, "columns", frozen)

    # -- introspection ----------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}; have {sorted(self.columns)}") from None

    def observation_count(self) -> int:
        """Number of (entity, period) cells observed in every column."""
        ok = np.ones((self.n_entities, self.n_periods), dtype=bool)
        for mat in self.columns.values():
            ok &= ~np.isnan(mat)
        return int(ok.sum())

    # -- construction helpers ---------------------------------------------

    def with_column(self, name: str, values: np.ndarray) -> "PanelDataset":
        """New dataset with `name` added or replaced."""
        cols = dict(self.columns)
        cols[name] = np.asarray(values, dtype=float)
        return PanelDataset(self.entities, self.periods, cols)


# -- schema files ----------------------------------------------------------


def load_schema(path: str) -> list[VariableSpec]:
    """Read a JSON schema file: {"variables": [{"name": ..., "transform": ...}, ...]}.

    An entry takes only the VariableSpec fields: name, transform, role, units.
    """
    raw = read_json(path, "schema")
    entries = raw.get("variables") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise DataError(f"schema file {path} must contain a 'variables' list")
    specs = []
    for entry in entries:
        try:
            specs.append(VariableSpec(**entry))
        except TypeError:  # not an object, no name, or a key that is no field
            raise DataError(f"malformed schema entry in {path}: {entry!r}") from None
    return specs


# -- loading / writing ------------------------------------------------------


def load_panel(path: str, schema: Sequence[VariableSpec]) -> PanelDataset:
    """Load a wide-format CSV into a PanelDataset.

    Every column besides bank_id and year is read, blank cells as missing;
    every variable declared in `schema` must be present. Transforms declared
    in the schema are NOT applied here (raw storage); use apply_transform
    afterwards.

    Raises DataError on duplicate (bank_id, year) keys, unparseable or
    infinite cells, or missing declared columns, naming the offending line.
    """
    e_index: dict[str, int] = {}  # entity -> matrix row, in order of first appearance
    row_year: list[int] = []
    values = array("d")  # row-major cells, one row per CSV row

    def add_row(bank: str, year: int, *cells: float) -> int:
        if math.inf in cells or -math.inf in cells:
            raise DataError("infinite value; panel cells must be finite or blank")
        values.extend(cells)
        row_year.append(year)
        return e_index.setdefault(bank, len(e_index))

    var_names, row_entity = read_bank_years(path, None, (), math.nan, add_row)
    missing_cols = [s.name for s in schema if s.name not in var_names]
    if missing_cols:
        raise DataError(f"{path}:1: declared column(s) missing from header: {missing_cols}")

    ordered_periods = tuple(sorted(set(row_year)))
    ei = np.array(row_entity, dtype=np.intp)
    pj = np.searchsorted(ordered_periods, row_year)
    table = np.frombuffer(values, dtype=float).reshape(len(row_year), len(var_names))
    shape = (len(e_index), len(ordered_periods))
    mats = {}
    for name, col in zip(var_names, table.T):
        mats[name] = np.full(shape, np.nan)
        mats[name][ei, pj] = col
    return PanelDataset(tuple(e_index), ordered_periods, mats)


def write_panel(ds: PanelDataset, path: str) -> None:
    """Emit the dataset back to wide CSV (missing cells become empty)."""
    names = list(ds.columns)
    # Python floats, [column][entity][period]; csv writes them as repr()
    cols = [ds.columns[name].tolist() for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bank_id", "year", *names])
        for i, bank in enumerate(ds.entities):
            for year, *values in zip(ds.periods, *(col[i] for col in cols)):
                writer.writerow([bank, year, *["" if math.isnan(v) else v for v in values]])


# -- variable construction ---------------------------------------------------


def apply_transform(ds: PanelDataset, spec: VariableSpec) -> PanelDataset:
    """Apply a declared transform; log adds `<name>__log` keeping the original.

    Missing values stay missing. A non-positive value under log is a hard
    error naming the entity, period, and value: silently dropping rows would
    bias anything estimated downstream.
    """
    if spec.transform == "none":
        return ds
    src = ds.column(spec.name)
    bad = src <= 0
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise DataError(
            f"cannot take log of column {spec.name!r}: value {src[i, j]} "
            f"for entity {ds.entities[i]!r} in period {ds.periods[j]} is not positive"
        )
    return ds.with_column(f"{spec.name}__log", np.log(src))


def entity_demean(values: np.ndarray, codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's value less its entity's mean over its rows.

    codes[r] is the entity of row r, and counts[e] the number of rows of
    entity e, so every entity needs at least one row.
    """
    sums = np.bincount(codes, weights=values, minlength=counts.size)
    return values - (sums / counts)[codes]


def pow2_normalise(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v / 2**e, e) for the power of two that puts v's largest magnitude in [1/2, 1).
    Exact in the normal range, so no sum or product of the result can overflow."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return np.ldexp(v, -e), e
