"""Package surface and lazy imports.

`import baselcost` loads no public module; each public name is imported from
its home module on first access. The scenario, ratio and phase-in
subcommands run without numpy, scipy or logging; no subcommand loads scipy.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import baselcost

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "BANGLADESH_SCHEDULE",
    "BalanceSheetSnapshot",
    "CapitalPosition",
    "CoefficientSet",
    "ComplianceReport",
    "DataError",
    "EstimationError",
    "FitResult",
    "NsfrWeights",
    "PAPER_PRESET",
    "PanelDataset",
    "PhaseInScenario",
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
    "fit_system",
    "fit_within_dk",
    "harris_tzavalis",
    "load_panel",
    "load_schema",
    "newey_west_auto_bandwidth",
    "phase_in_scenario",
    "propagate_shock",
    "required_deltas",
    "simulate_panel",
    "write_panel",
]

HOME = {
    "errors": ["DataError", "EstimationError"],
    "estimation": ["FitResult", "RegressionSpec", "fit_within_dk",
                   "newey_west_auto_bandwidth"],
    "model": ["PAPER_PRESET", "CoefficientSet", "PhaseInScenario", "ScenarioInput",
              "ScenarioResult", "SystemFit", "fit_system", "phase_in_scenario",
              "propagate_shock", "simulate_panel"],
    "panel": ["PanelDataset", "VariableSpec", "apply_transform", "load_panel",
              "load_schema", "write_panel"],
    "ratios": ["BANGLADESH_SCHEDULE", "BalanceSheetSnapshot", "CapitalPosition",
               "ComplianceReport", "NsfrWeights", "check_compliance", "compute_nsfr",
               "compute_tce_rwa", "required_deltas"],
    "unitroot": ["UnitRootResult", "harris_tzavalis"],
}

# Runs `main(argv)` (or only `import baselcost` for an empty argv) and prints
# which of numpy, scipy and logging ended up loaded.
PROBE = """\
import contextlib, io, sys
import baselcost
if sys.argv[1:]:
    from baselcost.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(" ".join(m for m in ("numpy", "scipy", "logging") if m in sys.modules))
"""


def _python(code, *args):
    """Run `code` in a fresh interpreter from the repository root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestSurface:
    def test_all_is_the_public_name_list(self):
        assert baselcost.__all__ == PUBLIC_NAMES
        assert sorted(n for names in HOME.values() for n in names) == PUBLIC_NAMES

    def test_names_are_their_home_module_objects(self):
        for module, names in HOME.items():
            home = importlib.import_module(f"baselcost.{module}")
            for name in names:
                assert getattr(baselcost, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from baselcost import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert namespace["fit_system"] is baselcost.model.fit_system

    def test_dir_lists_every_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(baselcost))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            baselcost.nope
        assert not hasattr(baselcost, "cli_main")

    def test_unknown_name_message(self):
        with pytest.raises(AttributeError) as info:
            baselcost.no_such_name
        assert str(info.value) == "module 'baselcost' has no attribute 'no_such_name'"

    def test_submodule_resolves_after_bare_import(self):
        out = _python("import sys, baselcost\n"
                      "print('baselcost.model' in sys.modules, "
                      "baselcost.model.EQUATIONS[0][0])")
        assert out == "False spread"


class TestLazyImports:
    @pytest.mark.parametrize("argv", [
        [],
        ["phasein"],
        ["phasein", "--positions", "data/positions.csv"],
        ["ratios", "--balance-sheets", "data/balance_sheets.csv"],
        ["simulate", "--dliq", "1"],
        ["simulate", "--phase-in", "2015:2019"],
    ], ids=" ".join)
    def test_loads_neither_numpy_nor_scipy(self, argv):
        assert _python(PROBE, *argv) == ""

    @pytest.mark.parametrize("argv", [
        ["fit", "--panel", "data/synthetic_panel.csv", "--model", "all"],
        ["unitroot", "--panel", "data/synthetic_panel.csv", "--vars", "liq,cap"],
    ], ids=" ".join)
    def test_estimation_commands_load_numpy_not_scipy(self, argv):
        # estimation reports truncated leverage eigenvalues through logging
        assert _python(PROBE, *argv) in ("numpy", "numpy logging")
