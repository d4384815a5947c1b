"""Basel III cost-of-implementation toolkit.

Regulatory ratio calculators (NSFR, TCE/RWA, phase-in compliance), panel
econometrics (within estimator with Driscoll-Kraay covariance, Harris-
Tzavalis unit-root test), and a linear shock-propagation engine chaining
capital/liquidity requirements into spread, lending, and ROE responses.

Public names are imported from their module on first access (PEP 562), so
`import baselcost` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# Each public module and the names it exports.
_EXPORTS = {
    "errors": ("DataError", "EstimationError"),
    "estimation": ("FitResult", "RegressionSpec", "fit_within_dk",
                   "newey_west_auto_bandwidth"),
    "model": ("PAPER_PRESET", "CoefficientSet", "PhaseInScenario", "ScenarioInput",
              "ScenarioResult", "SystemFit", "fit_system", "phase_in_scenario",
              "propagate_shock", "simulate_panel"),
    "panel": ("PanelDataset", "VariableSpec", "apply_transform", "load_panel",
              "load_schema", "write_panel"),
    "ratios": ("BANGLADESH_SCHEDULE", "BalanceSheetSnapshot", "CapitalPosition",
               "ComplianceReport", "NsfrWeights", "check_compliance", "compute_nsfr",
               "compute_tce_rwa", "required_deltas"),
    "unitroot": ("UnitRootResult", "harris_tzavalis"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
