"""Three-equation long-run system and the shock-propagation engine.

The system links bank liquidity (LIQ, log NSFR) and capital (CAP, log Tier 1
ratio) to the interest-rate spread, lending, and profitability:

    spread  = g0 + g_liq * LIQ + g_cap * CAP
    lending = b0 + b_gdp * GDP + b_spread * spread
    ROE     = d0 + d_lgdp * (lending - GDP) + d_liq * LIQ + d_cap * CAP

All variables except the spread are in logarithms, so slope coefficients
read as elasticities. A built-in reference preset carries long-run
estimates for a 2010-2014 panel of Bangladeshi private commercial banks;
coefficient sets can also be fitted from data (within estimator with
Driscoll-Kraay errors) or supplied by the user as JSON.

Shock propagation chains the equations: a capital/liquidity requirement
increase raises the spread, the spread lowers lending (GDP held fixed), and
the lending-to-GDP decline together with the direct liquidity and capital
terms lowers ROE. The system is linear, so scenario results are additive
and scale exactly with the shock.

Canonical column names used throughout: liq, cap, gdp, spread, lending,
lgdp (= lending - gdp), roe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._bankyear import read_json
from ._checks import integer, json_number, real
from .errors import DataError
from .ratios import required_deltas

if TYPE_CHECKING:
    from .estimation import FitResult
    from .panel import PanelDataset

SYSTEM_COLUMNS = ("liq", "cap", "gdp", "spread", "lending", "lgdp", "roe")
SCENARIO_MODES = ("chained", "exogenous")
PROVENANCES = ("paper-preset", "fitted", "user")


# The three long-run equations: dependent column and regressors, in the order
# the scenario chain evaluates them. Every equation also has an intercept,
# "const". CoefficientSet fields, fit_system's regressions, the CLI's --model
# choices and propagate_shock's steps are all derived from this table.
EQUATIONS = (
    ("spread", ("liq", "cap")),
    ("lending", ("gdp", "spread")),
    ("roe", ("lgdp", "liq", "cap")),
)

# (equation, term, CoefficientSet field) for every coefficient, in field order.
_COEFFICIENTS = tuple(
    (eq, term, f"{eq}_{term}") for eq, regs in EQUATIONS for term in ("const", *regs)
)


@dataclass(frozen=True, slots=True)
class CoefficientSet:
    """Coefficients of the three long-run equations plus their provenance.

    Field `<equation>_<term>` holds the coefficient of `term` in `equation`
    of EQUATIONS; the field order follows the table.
    """

    spread_const: float
    spread_liq: float
    spread_cap: float
    lending_const: float
    lending_gdp: float
    lending_spread: float
    roe_const: float
    roe_lgdp: float
    roe_liq: float
    roe_cap: float
    provenance: str = "user"

    def __post_init__(self) -> None:
        for _, _, name in _COEFFICIENTS:
            real(f"coefficient {name}", getattr(self, name))
        if self.provenance not in PROVENANCES:
            raise DataError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )

    def to_dict(self) -> dict:
        out: dict = {eq: {} for eq, _ in EQUATIONS}
        for eq, term, name in _COEFFICIENTS:
            out[eq][term] = getattr(self, name)
        out["provenance"] = self.provenance
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "CoefficientSet":
        def number(eq: str, term: str) -> float:
            block = raw.get(eq) if isinstance(raw, dict) else None
            if not isinstance(block, dict) or term not in block:
                raise DataError(f"missing {eq}.{term}")
            return json_number(f"{eq}.{term}", block[term])
        try:
            return cls(
                **{name: number(eq, term) for eq, term, name in _COEFFICIENTS},
                provenance=raw.get("provenance", "user"),
            )
        except DataError as exc:
            raise DataError(f"malformed coefficient set: {exc}") from None

    @classmethod
    def from_json(cls, path: str) -> "CoefficientSet":
        return cls.from_dict(read_json(path, "coefficient"))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# Reference long-run estimates (Bangladesh private commercial banks,
# 2010-2014). The ROE intercept is not separately identified in the source
# estimates and is fixed at 0 by convention; scenarios only ever use deltas,
# so it never enters primary outputs.
PAPER_PRESET = CoefficientSet(
    spread_const=1.617,
    spread_liq=0.639,
    spread_cap=0.169,
    lending_const=3.29,
    lending_gdp=1.352,
    lending_spread=-0.306,
    roe_const=0.0,
    roe_lgdp=1.36,
    roe_liq=-1.06,
    roe_cap=-0.49,
    provenance="paper-preset",
)


@dataclass(frozen=True, slots=True)
class ScenarioInput:
    """A capital/liquidity shock in percentage points.

    mode "chained" maps the lending response one-for-one into the
    lending-to-GDP ratio (GDP held fixed); mode "exogenous" uses the
    caller-supplied delta_lgdp instead. A shock or delta_lgdp that is a bool,
    a str or not finite (an int beyond a double too) is a DataError.
    """

    delta_cap: float = 0.0
    delta_liq: float = 0.0
    mode: str = "chained"
    delta_lgdp: float | None = None

    def __post_init__(self) -> None:
        real("shock input delta_cap", self.delta_cap)
        real("shock input delta_liq", self.delta_liq)
        if self.mode not in SCENARIO_MODES:
            raise DataError(f"mode must be one of {SCENARIO_MODES}, got {self.mode!r}")
        if self.mode == "exogenous":
            real("exogenous mode delta_lgdp", self.delta_lgdp)
        elif self.delta_lgdp is not None:
            raise DataError("delta_lgdp is only meaningful in exogenous mode")


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Propagated responses. delta_spread is in percentage points; the
    lending/ROE responses are log-point responses read as percent.

    `coefficients` and `shock` are the inputs the responses were built from;
    `trace` is derived from them on each access.
    """

    delta_spread: float
    delta_lending: float
    delta_lgdp: float
    delta_roe: float
    coefficients: CoefficientSet
    shock: ScenarioInput

    @property
    def trace(self) -> tuple[dict, ...]:
        """One dict per step: step, formula, terms (key -> value) and value.

        Each term multiplies a coefficient by its driver's response as
        propagate_shock does. Fresh dicts on every access, so editing them
        cannot change the result.
        """
        c, lgdp = self.coefficients, self.delta_lgdp
        d = {"liq": self.shock.delta_liq, "cap": self.shock.delta_cap,
             "spread": self.delta_spread, "lgdp": lgdp}
        trace = []
        for eq, formula, items in _SCENARIO_STEPS:
            trace.append({"step": eq, "formula": formula,
                          "terms": {key: getattr(c, field) * d[driver]
                                    for field, key, driver in items},
                          "value": getattr(self, f"delta_{eq}")})
            if eq == "lending":
                trace.append({"step": "lending_to_gdp", "formula": _LGDP_FORMULA[self.shock.mode],
                              "terms": {"d_lgdp": lgdp}, "value": lgdp})
        return tuple(trace)

    def to_dict(self) -> dict:
        return {
            "delta_spread": self.delta_spread,
            "delta_lending": self.delta_lending,
            "delta_lgdp": self.delta_lgdp,
            "delta_roe": self.delta_roe,
            "provenance": self.coefficients.provenance,
            "trace": list(self.trace),
            "note": (
                "shock units follow the scenario narrative: 1 = one percentage "
                "point of the requirement ratio, even though LIQ/CAP enter the "
                "fitted equations in logarithms"
            ),
        }


# Per equation: trace formula and (coefficient field, trace key, driver) for
# each term. GDP is held fixed in scenarios, so gdp terms drop out.
_SCENARIO_STEPS = tuple(
    (
        eq,
        f"d_{eq} = " + " + ".join(f"{eq}_{t}*d_{t}" for t in regs if t != "gdp")
        + (" (GDP held fixed)" if "gdp" in regs else ""),
        tuple((f"{eq}_{t}", f"{eq}_{t}*d_{t}", t) for t in regs if t != "gdp"),
    )
    for eq, regs in EQUATIONS
)
# The lending-to-GDP trace step's formula, by scenario mode.
_LGDP_FORMULA = {"chained": "d_lgdp = d_lending", "exogenous": "d_lgdp exogenous"}


def propagate_shock(coeffs: CoefficientSet, shock: ScenarioInput) -> ScenarioResult:
    """Chain a capital/liquidity shock through the equations in table order.

    Each response is the sum of coefficient times driver response over the
    equation's regressors, GDP held fixed. The lending-to-GDP response is the
    lending response in chained mode and the caller's delta_lgdp in exogenous
    mode. A response that overflows (finite inputs, non-finite total) is
    refused with a DataError naming it.
    """
    d = {"liq": shock.delta_liq, "cap": shock.delta_cap}
    for eq, _, terms in _SCENARIO_STEPS:
        total = None
        for field, _, driver in terms:
            product = getattr(coeffs, field) * d[driver]
            # the sum starts from the first term: adding to 0.0 would turn -0.0 into 0.0
            total = product if total is None else total + product
        if not math.isfinite(total):
            raise DataError(f"response delta_{eq} overflows to {total!r}; "
                            f"use a smaller shock or smaller coefficients")
        d[eq] = total
        if eq == "lending":
            d["lgdp"] = total if shock.mode == "chained" else float(shock.delta_lgdp)
    return ScenarioResult(d["spread"], d["lending"], d["lgdp"], d["roe"], coeffs, shock)


@dataclass(frozen=True, slots=True)
class PhaseInScenario:
    """Year-by-year scenario series plus the cumulative total."""

    steps: tuple[tuple[int, ScenarioResult], ...]
    cumulative: ScenarioResult

    def to_dict(self) -> dict:
        return {
            "steps": [{"year": y, **r.to_dict()} for y, r in self.steps],
            "cumulative": self.cumulative.to_dict(),
        }


def phase_in_scenario(
    coeffs: CoefficientSet,
    from_year: int = 2015,
    to_year: int = 2019,
    delta_liq_per_year: float = 0.0,
) -> PhaseInScenario:
    """Feed the schedule's capital tightening year-by-year through the system.

    Each step's capital shock is that year's increment of the
    total-capital-plus-buffer requirement; the liquidity shock per year is
    caller-supplied (default 0). Results are linear in the shocks, so the
    yearly deltas sum exactly to the cumulative ones. The window must be one
    that required_deltas accepts. A refused step's message starts with
    "phase-in <year>: " or "phase-in cumulative: ".
    """
    required_deltas(from_year, to_year)  # refuses a window outside or reversed
    real("delta_liq_per_year", delta_liq_per_year)
    steps = []
    total_cap = 0.0
    for year in range(from_year, to_year):
        d_cap = required_deltas(year, year + 1)["total_plus_buffer_pct"]
        total_cap += d_cap
        steps.append((year + 1, _phase_step(coeffs, year + 1, d_cap, delta_liq_per_year)))
    total_liq = delta_liq_per_year * len(steps)
    cumulative = _phase_step(coeffs, "cumulative", total_cap, total_liq)
    return PhaseInScenario(steps=tuple(steps), cumulative=cumulative)


def _phase_step(coeffs: CoefficientSet, label: int | str, d_cap: float,
                d_liq: float) -> ScenarioResult:
    try:
        return propagate_shock(coeffs, ScenarioInput(delta_cap=d_cap, delta_liq=d_liq))
    except DataError as exc:
        raise DataError(f"phase-in {label}: {exc}") from None


# -- synthetic panels and system fitting --------------------------------------


def simulate_panel(
    coeffs: CoefficientSet,
    n_banks: int,
    n_years: int,
    noise_sd: float,
    seed: int,
) -> PanelDataset:
    """Generate a synthetic bank-year panel satisfying the system equations.

    Exogenous drivers get persistent bank-level differences (entity effects
    in LIQ, CAP, and the bank-level GDP measure) plus year-to-year variation;
    the structural equations then produce spread, lending, and ROE with iid
    Gaussian disturbances of scale noise_sd. Equation-level entity effects
    are drawn at the same scale and recentred to mean zero, so the supplied
    intercepts remain the identified ones. With noise_sd = 0 the generated
    columns satisfy the equations exactly. Periods are the years from 2010.

    Deterministic for a given seed. n_banks >= 2, n_years >= 3 and seed >= 0
    must be ints, not bools, and noise_sd a finite number >= 0 (else DataError).
    """
    integer("n_banks", n_banks, 2)
    integer("n_years", n_years, 3)
    if real("noise_sd", noise_sd) < 0:
        raise DataError(f"noise_sd must be a non-negative number, got {noise_sd!r}")
    integer("seed", seed, 0)

    import numpy as np
    from .panel import PanelDataset
    rng = np.random.default_rng(seed)
    nb, ny = n_banks, n_years
    t_idx = np.arange(ny)

    gdp_common = 3.0 + 0.04 * t_idx + rng.normal(0.0, 0.03, ny)
    gdp = gdp_common + rng.normal(0.0, 0.10, (nb, 1)) + rng.normal(0.0, 0.08, (nb, ny))
    liq = 0.10 + rng.normal(0.0, 0.25, (nb, 1)) + rng.normal(0.0, 0.15, (nb, ny))
    cap = -2.30 + rng.normal(0.0, 0.25, (nb, 1)) + rng.normal(0.0, 0.15, (nb, ny))

    cols = {"liq": liq, "cap": cap, "gdp": gdp}
    for eq, regs in EQUATIONS:
        y = getattr(coeffs, f"{eq}_const")
        for term in regs:
            y = y + getattr(coeffs, f"{eq}_{term}") * cols[term]
        effects = rng.normal(0.0, noise_sd, (nb, 1))
        cols[eq] = y + (effects - effects.mean()) + rng.normal(0.0, noise_sd, (nb, ny))
        if eq == "lending":
            cols["lgdp"] = cols["lending"] - gdp

    entities = tuple(f"B{i + 1:02d}" for i in range(nb))
    return PanelDataset(entities, tuple(range(2010, 2010 + ny)), cols)


@dataclass(frozen=True, slots=True)
class SystemFit:
    """Fitted system: the assembled coefficient set plus one FitResult per
    equation, in EQUATIONS order."""

    coefficients: CoefficientSet
    fits: tuple[FitResult, ...]


def fit_system(
    ds: PanelDataset,
    dk_bandwidth: int | str = 0,
    small_sample: bool = True,
) -> SystemFit:
    """Fit the three equations by fixed-effects least squares with DK errors.

    Expects the canonical columns liq, cap, gdp, spread, lending, lgdp, roe
    (post-transform). The default bandwidth is 0 rather than "auto": the
    target panels are only a few years long, too short to support kernel
    lags; pass "auto" or an explicit lag count to override.
    """
    missing = [c for c in SYSTEM_COLUMNS if c not in ds.columns]
    if missing:
        raise DataError(f"dataset lacks system column(s) {missing}; apply transforms first")

    from .estimation import RegressionSpec, fit_within_dk_many
    specs = [RegressionSpec(eq, regs, dk_bandwidth=dk_bandwidth, small_sample=small_sample)
             for eq, regs in EQUATIONS]
    fits = tuple(fit_within_dk_many(ds, specs))
    by_eq = {eq: fit for (eq, _), fit in zip(EQUATIONS, fits)}
    coeffs = CoefficientSet(
        **{name: by_eq[eq].coef(term) for eq, term, name in _COEFFICIENTS},
        provenance="fitted",
    )
    return SystemFit(coeffs, fits)


def resolve_coefficients(source: str) -> CoefficientSet:
    """Map a CLI-style coefficient source ("paper" or a JSON path) to a set."""
    if source == "paper":
        return PAPER_PRESET
    return CoefficientSet.from_json(source)
