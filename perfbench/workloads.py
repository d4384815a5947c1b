"""The benchmark's workloads: inputs made from the seed, one op, output checks.

Each workload is single-process, closed-loop, with one caller: the next op
starts when the previous one has returned. An op's `run` is timed; `check`
runs outside the timed region and returns an error message or None.

Calls go through module attributes (`bc_model.fit_system`, not a name bound
at import) so that `tracing.Tracer.instrument()` sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from benchenv import ROOT, child_env

import baselcost
from baselcost import cli as bc_cli
from baselcost import model as bc_model
from baselcost import panel as bc_panel
from baselcost import ratios as bc_ratios
from baselcost import unitroot as bc_unitroot

NULL_SPAN = contextlib.nullcontext

# The three long-run equations as fit_system specifies them.
SYSTEM_EQUATIONS = (
    ("spread", ("liq", "cap")),
    ("lending", ("gdp", "spread")),
    ("roe", ("lgdp", "liq", "cap")),
)
SYSTEM_COLUMNS = ("liq", "cap", "gdp", "spread", "lending", "lgdp", "roe")
PRESET_SLOPES = {
    "spread": {"liq": 0.639, "cap": 0.169},
    "lending": {"gdp": 1.352, "spread": -0.306},
    "roe": {"lgdp": 1.36, "liq": -1.06, "cap": -0.49},
}
# Largest |estimate - preset| accepted for a slope. With noise sd 0.05 the
# standard errors on 5000 or more bank-years are below 0.01.
SLOPE_TOL = 0.05
SCENARIO_TOL = 1e-12


def slope_errors(coeffs, fits) -> list[str]:
    """Check a fitted system against PAPER_PRESET and for a sane covariance."""
    errors = []
    blocks = coeffs.to_dict()
    for eq, slopes in PRESET_SLOPES.items():
        for reg, true in slopes.items():
            est = blocks[eq][reg]
            if not abs(est - true) <= SLOPE_TOL:
                errors.append(f"{eq}.{reg} = {est!r}, preset {true}")
    for (eq, _), fit in zip(SYSTEM_EQUATIONS, fits):
        se = np.asarray(fit.std_errors)
        if not (np.all(np.isfinite(se)) and np.all(se > 0)):
            errors.append(f"{eq}: standard errors not finite and positive: {se}")
        cov = np.asarray(fit.covariance)
        scale = max(float(np.max(np.abs(cov))), 1e-300)
        if not np.max(np.abs(cov - cov.T)) <= 1e-12 * scale:
            errors.append(f"{eq}: covariance not symmetric")
    return errors


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def warm(self, state) -> None:
        """Let lazy set-up finish before timing; not part of set-up time."""

    def run(self, state, i: int, span=NULL_SPAN):
        raise NotImplementedError

    def check(self, state, i: int, out) -> str | None:
        raise NotImplementedError


# -- cli_cold -------------------------------------------------------------------

CLI_COMMANDS = (
    ("ratios", ("ratios", "--balance-sheets", "data/balance_sheets.csv")),
    ("phasein", ("phasein", "--positions", "data/positions.csv")),
    ("unitroot", ("unitroot", "--panel", "data/synthetic_panel.csv",
                  "--schema", "data/panel_schema.json",
                  "--vars", "liq,cap,gdp,spread,lending,roe")),
    ("fit", ("fit", "--panel", "data/synthetic_panel.csv",
             "--schema", "data/panel_schema.json", "--model", "all")),
    ("simulate", ("simulate", "--phase-in", "2015:2019")),
)
# Documented values in the bundled data: TCE/RWA of B01 in 2014 is
# (100 - 10 - 5) / 850, and the 2015-2019 cumulative capital tightening of
# 2.5 pp moves the spread by 0.169 * 2.5 under the preset.
KNOWN_TCE_RWA_B01_2014 = 0.1
KNOWN_PHASE_IN_DELTA_SPREAD = 0.4225
KNOWN_TOL = 1e-12
CHILD_TIMEOUT_S = 120.0


def cli_argv(name: str) -> list[str]:
    return [*dict(CLI_COMMANDS)[name], "--format", "json"]


def capture_main(argv) -> str:
    """stdout of an in-process `baselcost.cli.main(argv)`; raises on non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bc_cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"in-process main({argv}) returned {rc}")
    return buf.getvalue()


def run_child(cmd, workdir: Path) -> tuple[int, bytes, float]:
    """Run a child interpreter; return (exit code, stdout, peak RSS in MiB)."""
    err_path = workdir / "child_stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=child_env())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def known_value_errors(name: str, payload: dict) -> list[str]:
    if name == "ratios":
        rows = [r for r in payload["rows"] if (r["bank_id"], r["year"]) == ("B01", 2014)]
        if len(rows) != 1 or not abs(rows[0]["tce_rwa"] - KNOWN_TCE_RWA_B01_2014) <= KNOWN_TOL:
            return [f"TCE/RWA for B01 2014 is not {KNOWN_TCE_RWA_B01_2014}: {rows}"]
    if name == "simulate":
        got = payload["cumulative"]["delta_spread"]
        if not abs(got - KNOWN_PHASE_IN_DELTA_SPREAD) <= KNOWN_TOL:
            return [f"cumulative delta_spread {got!r}, expected {KNOWN_PHASE_IN_DELTA_SPREAD}"]
    return []


class CliCold(Workload):
    """One op is one cold `python -m baselcost.cli` process on the bundled data.

    The seed picks where the fixed command cycle starts. Each child's peak RSS
    is kept in state["child_rss_mb"].
    """

    name = "cli_cold"

    def setup(self, seed, workdir):
        expected = {name: capture_main(cli_argv(name)) for name, _ in CLI_COMMANDS}
        return {"offset": seed % len(CLI_COMMANDS), "expected": expected, "workdir": workdir,
                "child_rss_mb": []}

    def command(self, state, i: int) -> str:
        return CLI_COMMANDS[(state["offset"] + i) % len(CLI_COMMANDS)][0]

    def warm(self, state):
        self.run(state, 0)

    def run(self, state, i, span=NULL_SPAN):
        name = self.command(state, i)
        with span("child.process"):
            rc, stdout, rss_mb = run_child(
                [sys.executable, "-m", "baselcost.cli", *cli_argv(name)], state["workdir"])
        state["child_rss_mb"].append(rss_mb)
        return rc, stdout

    def check(self, state, i, out):
        rc, stdout = out
        name = self.command(state, i)
        if rc != 0:
            return f"{name}: exit code {rc}"
        if stdout != state["expected"][name].encode("utf-8"):
            return f"{name}: stdout differs from in-process main() output"
        errors = known_value_errors(name, json.loads(stdout))
        return "; ".join(errors) or None


# -- fit_wide -------------------------------------------------------------------

FIT_WIDE_SHAPE = (1000, 5)
NOISE_SD = 0.05


class FitWide(Workload):
    """One op is one default `fit_system(ds)` on a 1000-bank x 5-year panel."""

    name = "fit_wide"

    def setup(self, seed, workdir):
        n_banks, n_years = FIT_WIDE_SHAPE
        return {"ds": bc_model.simulate_panel(bc_model.PAPER_PRESET, n_banks, n_years,
                                              NOISE_SD, seed)}

    def warm(self, state):
        small = bc_model.simulate_panel(bc_model.PAPER_PRESET, 22, 5, NOISE_SD, 1)
        bc_model.fit_system(small)

    def run(self, state, i, span=NULL_SPAN):
        return bc_model.fit_system(state["ds"])

    def check(self, state, i, out):
        return "; ".join(slope_errors(out.coefficients, out.fits)) or None


# -- batch_pipeline -------------------------------------------------------------

BOOK_SHAPE = (2000, 10)
POSITION_YEARS = range(2015, 2020)
HT_COLUMNS = ("liq", "cap", "gdp", "spread", "lending", "roe")
GRID_SIDE = 100
SHOCK_MAX_PP = 5.0

# Column order of ratios.BALANCE_SHEET_COLUMNS, with the ranges the book draws
# each component from. Intangibles plus goodwill stay below common equity, so
# tangible equity is positive.
SHEET_RANGES = (
    ("common_equity", 50.0, 150.0),
    ("debt_ge_1y", 0.0, 100.0),
    ("other_liabilities_ge_1y", 0.0, 50.0),
    ("stable_deposits_lt_1y", 100.0, 300.0),
    ("less_stable_deposits_lt_1y", 50.0, 150.0),
    ("govt_debt", 50.0, 150.0),
    ("corp_loans_lt_1y", 100.0, 400.0),
    ("retail_loans_lt_1y", 50.0, 200.0),
    ("other_assets", 50.0, 150.0),
    ("intangibles", 0.0, 10.0),
    ("goodwill", 0.0, 10.0),
    ("rwa", 500.0, 1500.0),
)
POSITION_RANGES = (
    ("cet1_ratio_pct", 4.0, 9.0),
    ("tier1_ratio_pct", 5.0, 10.0),
    ("total_car_pct", 9.0, 14.0),
    ("leverage_pct", 2.5, 5.0),
    ("lcr", 0.9, 1.4),
    ("nsfr", 0.9, 1.3),
)
# December-2009 NSFR weights, as documented in the package README.
ASF_GE_1Y, ASF_STABLE, ASF_LESS_STABLE = 1.00, 0.85, 0.70
RSF_GOVT, RSF_CORP, RSF_RETAIL, RSF_OTHER = 0.05, 0.50, 0.85, 1.00


def expected_nsfr_tce(v: dict) -> tuple[np.ndarray, np.ndarray]:
    asf = (ASF_GE_1Y * (v["common_equity"] + v["debt_ge_1y"] + v["other_liabilities_ge_1y"])
           + ASF_STABLE * v["stable_deposits_lt_1y"]
           + ASF_LESS_STABLE * v["less_stable_deposits_lt_1y"])
    rsf = (RSF_GOVT * v["govt_debt"] + RSF_CORP * v["corp_loans_lt_1y"]
           + RSF_RETAIL * v["retail_loans_lt_1y"] + RSF_OTHER * v["other_assets"])
    tce = (v["common_equity"] - v["intangibles"] - v["goodwill"]) / v["rwa"]
    return asf / rsf, tce


def write_book(path: Path, keys, ranges, rng) -> dict[str, np.ndarray]:
    values = {name: rng.uniform(lo, hi, len(keys)) for name, lo, hi in ranges}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bank_id", "year", *values])
        cols = [values[name].tolist() for name in values]
        for r, (bank, year) in enumerate(keys):
            writer.writerow([bank, year, *(repr(c[r]) for c in cols)])
    return values


def scenario_map(c) -> np.ndarray:
    """The system's response to (d_cap, d_liq) as a 4x2 matrix, rows
    (spread, lending, lgdp, roe), built from the fitted coefficients."""
    spread = np.array([c.spread_cap, c.spread_liq])
    lending = c.lending_spread * spread
    roe = c.roe_lgdp * lending + np.array([c.roe_cap, c.roe_liq])
    return np.vstack([spread, lending, lending, roe])


def close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


class BatchPipeline(Workload):
    """One op is one pass of the pipeline over a 2000-bank x 10-year book read
    from CSV: ingest, unit-root tests, system fit, ratios, compliance, and a
    100 x 100 scenario grid."""

    name = "batch_pipeline"

    def setup(self, seed, workdir):
        n_banks, n_years = BOOK_SHAPE
        ds = bc_model.simulate_panel(bc_model.PAPER_PRESET, n_banks, n_years, NOISE_SD, seed)
        panel_csv = workdir / "panel.csv"
        bc_panel.write_panel(ds, str(panel_csv))
        rng = np.random.default_rng([seed, 1])
        sheet_keys = [(b, y) for b in ds.entities for y in ds.periods]
        sheets = write_book(workdir / "balance_sheets.csv", sheet_keys, SHEET_RANGES, rng)
        pos_keys = [(b, y) for b in ds.entities for y in POSITION_YEARS]
        write_book(workdir / "positions.csv", pos_keys, POSITION_RANGES, rng)
        nsfr, tce = expected_nsfr_tce(sheets)
        axis_cap = np.sort(rng.uniform(0.0, SHOCK_MAX_PP, GRID_SIDE))
        axis_liq = np.sort(rng.uniform(0.0, SHOCK_MAX_PP, GRID_SIDE))
        grid = np.array([(c, q) for c in axis_cap for q in axis_liq])
        return {
            "dir": workdir,
            "schema": [bc_panel.VariableSpec(name=c) for c in SYSTEM_COLUMNS],
            "rows": (n_banks, n_years, len(sheet_keys), len(pos_keys)),
            "nsfr": nsfr,
            "tce": tce,
            "grid": grid,
            "grid_list": grid.tolist(),
        }

    def warm(self, state):
        self.run(state, 0)

    def run(self, state, i, span=NULL_SPAN):
        d = state["dir"]
        out = {}
        with span("step.load_panel"):
            ds = bc_panel.load_panel(str(d / "panel.csv"), state["schema"])
        with span("step.unitroot"):
            out["ht"] = [bc_unitroot.harris_tzavalis(ds, c) for c in HT_COLUMNS]
        with span("step.fit"):
            out["fit"] = bc_model.fit_system(ds, dk_bandwidth="auto", small_sample=False)
        with span("step.ratios"):
            sheets = bc_ratios.load_balance_sheets(str(d / "balance_sheets.csv"))
            out["nsfr"] = [bc_ratios.compute_nsfr(bs) for bs in sheets]
            out["tce"] = [bc_ratios.compute_tce_rwa(bs) for bs in sheets]
        with span("step.compliance"):
            positions = bc_ratios.load_positions(str(d / "positions.csv"))
            out["reports"] = [bc_ratios.check_compliance(p) for p in positions]
        coeffs = out["fit"].coefficients
        with span("step.scenario_grid"):
            out["grid"] = [
                bc_model.propagate_shock(coeffs, bc_model.ScenarioInput(delta_cap=c, delta_liq=q))
                for c, q in state["grid_list"]
            ]
        with span("step.phase_in"):
            out["phase_in"] = bc_model.phase_in_scenario(coeffs)
        out["shape"] = (ds.n_entities, ds.n_periods, ds.observation_count())
        return out

    def check(self, state, i, out):
        n_banks, n_years, n_sheets, n_pos = state["rows"]
        errors = []
        if out["shape"] != (n_banks, n_years, n_banks * n_years):
            errors.append(f"panel shape {out['shape']}")
        for r in out["ht"]:
            if not (math.isfinite(r.z_stat) and 0.0 <= r.p_value <= 1.0
                    and (r.n_entities, r.n_periods) == (n_banks, n_years)):
                errors.append(f"harris_tzavalis {r.variable}: {r.to_dict()}")
        fit = out["fit"]
        errors += slope_errors(fit.coefficients, fit.fits)
        if len(out["nsfr"]) != n_sheets or len(out["tce"]) != n_sheets:
            errors.append(f"{len(out['nsfr'])} ratio rows, generated {n_sheets}")
        elif not (close(np.array(out["nsfr"]), state["nsfr"], 1e-12)
                  and close(np.array(out["tce"]), state["tce"], 1e-12)):
            errors.append("NSFR or TCE/RWA differs from the recomputation")
        if len(out["reports"]) != n_pos:
            errors.append(f"{len(out['reports'])} compliance reports, generated {n_pos}")
        m = scenario_map(fit.coefficients)
        got = np.array([(r.delta_spread, r.delta_lending, r.delta_lgdp, r.delta_roe)
                        for r in out["grid"]])
        if got.shape != (len(state["grid"]), 4) or not close(got, state["grid"] @ m.T,
                                                              SCENARIO_TOL):
            errors.append("scenario grid differs from the linear map")
        phase = out["phase_in"]
        steps = [r for _, r in phase.steps] + [phase.cumulative]
        got = np.array([(r.delta_spread, r.delta_lending, r.delta_lgdp, r.delta_roe)
                        for r in steps])
        shocks = np.array([[0.625, 0.0]] * len(phase.steps) + [[2.5, 0.0]])
        if not close(got, shocks @ m.T, SCENARIO_TOL):
            errors.append("phase-in scenario differs from the linear map")
        return "; ".join(errors) or None


WORKLOADS = {w.name: w for w in (CliCold(), FitWide(), BatchPipeline())}


def environment(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "baselcost": baselcost.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "time_unix": time.time(),
    }
