"""Basel III cost-of-implementation toolkit.

Regulatory ratio calculators (NSFR, TCE/RWA, phase-in compliance), panel
econometrics (within estimator with Driscoll-Kraay covariance, Harris-
Tzavalis unit-root test), and a linear shock-propagation engine chaining
capital/liquidity requirements into spread, lending, and ROE responses.
"""

from .errors import DataError, EstimationError, NegativeTceWarning
from .estimation import (
    FitResult,
    RegressionSpec,
    fit_within_dk,
    newey_west_auto_bandwidth,
)
from .model import (
    PAPER_PRESET,
    CoefficientSet,
    PhaseInScenario,
    ScenarioInput,
    ScenarioResult,
    SystemFit,
    fit_system,
    phase_in_scenario,
    propagate_shock,
    simulate_panel,
)
from .panel import (
    DerivedSeriesRecipe,
    PanelDataset,
    VariableSpec,
    apply_transform,
    derive_series,
    lag,
    load_panel,
    load_schema,
    within_demean,
    write_panel,
)
from .ratios import (
    BANGLADESH_SCHEDULE,
    BalanceSheetSnapshot,
    CapitalPosition,
    ComplianceReport,
    NsfrWeights,
    PhaseInSchedule,
    check_compliance,
    compute_nsfr,
    compute_tce_rwa,
    nsfr_to_ltd_delta,
    required_deltas,
)
from .unitroot import UnitRootResult, harris_tzavalis

__version__ = "0.1.0"

__all__ = [
    "BANGLADESH_SCHEDULE",
    "BalanceSheetSnapshot",
    "CapitalPosition",
    "CoefficientSet",
    "ComplianceReport",
    "DataError",
    "DerivedSeriesRecipe",
    "EstimationError",
    "FitResult",
    "NegativeTceWarning",
    "NsfrWeights",
    "PAPER_PRESET",
    "PanelDataset",
    "PhaseInScenario",
    "PhaseInSchedule",
    "RegressionSpec",
    "ScenarioInput",
    "ScenarioResult",
    "SystemFit",
    "UnitRootResult",
    "VariableSpec",
    "apply_transform",
    "check_compliance",
    "compute_nsfr",
    "compute_tce_rwa",
    "derive_series",
    "fit_system",
    "fit_within_dk",
    "harris_tzavalis",
    "lag",
    "load_panel",
    "load_schema",
    "newey_west_auto_bandwidth",
    "nsfr_to_ltd_delta",
    "phase_in_scenario",
    "propagate_shock",
    "required_deltas",
    "simulate_panel",
    "within_demean",
    "write_panel",
]
