"""The traced run: per-layer metrics for the six modules of the package.

Every traced run, whatever its workload, makes one fixed pass per workload
so that it reports the whole per-layer table, each metric on the inputs of
the workload that exercises that layer (see README.md):

  cli_cold/pass        `python -c pass`, a cold `import baselcost`, one cold
                       `python -m baselcost.cli` process per command, and warm
                       in-process `main(argv)` for each of the five commands
  fit_wide/pass        simulate_panel, one default fit_system, the three
                       system specs called directly, default and plain
  batch_pipeline/pass  one pipeline op

It then runs the selected workload's op in pairs, untraced then traced,
until the run's seconds are used up (at least one pair); the traced ops add
calls to that workload's layers and the pairs give trace.overhead_frac.
End-to-end metrics never come from here.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter

import numpy as np
import workloads as wl
from tracing import Tracer

from baselcost import estimation as bc_est
from baselcost import model as bc_model

INTERPRETER_REPS = 5
IMPORT_REPS = 3
MAIN_REPS = 3
SIMULATE_REPS = 5
PLAIN_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import baselcost; "
                "print(repr(time.perf_counter() - t))")

SCALE = {"ms": 1e3, "us": 1e6}


class Tally:
    """Checked calls and failures of a traced run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{label}: {error}")


def checked(tally: Tally, label: str, fn, *args):
    """Call fn; an exception counts as a failed check and returns None."""
    try:
        return fn(*args)
    except Exception:  # a failing call is a benchmark result, not a crash
        tally.record(label, traceback.format_exc(limit=3))
        return None


def system_specs(small_sample: bool):
    return [
        (eq, bc_est.RegressionSpec(dependent=eq, regressors=regs, include_intercept=True,
                                   fixed_effects=True, dk_bandwidth=0,
                                   small_sample=small_sample))
        for eq, regs in wl.SYSTEM_EQUATIONS
    ]


def cli_pass(tracer: Tracer, tally: Tally, state, workdir) -> list[float]:
    """Returns the cold import times reported by the child processes."""
    tracer.op = "cli_cold/pass"
    cli = wl.WORKLOADS["cli_cold"]
    for i in range(len(wl.CLI_COMMANDS)):
        out = checked(tally, f"process {i}", cli.run, state, i, tracer.span)
        if out is not None:
            tally.record(f"process {i}", cli.check(state, i, out))
    for _ in range(INTERPRETER_REPS):
        with tracer.span("child.interpreter"):
            rc, _, _ = wl.run_child([sys.executable, "-c", "pass"], workdir)
        tally.record("python -c pass", None if rc == 0 else f"exit code {rc}")
    imports = []
    for _ in range(IMPORT_REPS):
        with tracer.span("child.import"):
            rc, out, _ = wl.run_child([sys.executable, "-c", IMPORT_PROBE], workdir)
        tally.record("import baselcost", None if rc == 0 else f"exit code {rc}")
        if rc == 0:
            imports.append(float(out))
    for name, _ in wl.CLI_COMMANDS:
        for _ in range(MAIN_REPS):
            with tracer.span(f"cli.main_ms.{name}"):
                text = checked(tally, f"main {name}", wl.capture_main, wl.cli_argv(name))
            if text is None:
                continue
            if text != state["expected"][name]:
                tally.record(f"main {name}", "output changed between calls")
            else:
                errors = wl.known_value_errors(name, json.loads(text))
                tally.record(f"main {name}", "; ".join(errors) or None)
    return imports


def fit_pass(tracer: Tracer, tally: Tally, seed: int, state) -> float:
    """Returns the tracemalloc peak, in MiB, of one default roe-equation fit."""
    tracer.op = "fit_wide/pass"
    n_banks, n_years = wl.FIT_WIDE_SHAPE
    for _ in range(SIMULATE_REPS):
        bc_model.simulate_panel(bc_model.PAPER_PRESET, n_banks, n_years, wl.NOISE_SD, seed)
    ds = state["ds"]
    system = checked(tally, "fit_system", bc_model.fit_system, ds)
    if system is not None:
        tally.record("fit_system", wl.WORKLOADS["fit_wide"].check(state, 0, system))
    default = {}
    for eq, spec in system_specs(True):
        with tracer.span(f"estimation.fit_within_dk_ms.{eq}"):
            default[eq] = checked(tally, f"spec {eq}", bc_est.fit_within_dk, ds, spec)
    for _ in range(PLAIN_REPS):
        for eq, spec in system_specs(False):
            with tracer.span(f"estimation.fit_within_dk_plain_ms.{eq}"):
                plain = checked(tally, f"plain spec {eq}", bc_est.fit_within_dk, ds, spec)
            if plain is not None and default[eq] is not None:
                same = np.array_equal(plain.coefficients, default[eq].coefficients)
                tally.record(f"plain spec {eq}",
                             None if same else "coefficients differ from the default fit")
    if system is not None:
        for (eq, _), fit in zip(wl.SYSTEM_EQUATIONS, system.fits):
            same = default[eq] is not None and np.array_equal(
                fit.coefficients, default[eq].coefficients)
            tally.record(f"spec {eq}", None if same else "differs from fit_system")
    tracer.op = "fit_wide/alloc"
    eq, spec = system_specs(True)[-1]
    tracemalloc.start()
    try:
        checked(tally, f"alloc spec {eq}", bc_est.fit_within_dk, ds, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def overhead_pairs(tracer: Tracer, tally: Tally, w, state, deadline: float) -> list[float]:
    """Run the workload's op untraced then traced, in pairs, until `deadline`
    (at least one pair). Returns traced/untraced - 1 for each pair."""
    ratios = []
    i = 0
    while not ratios or perf_counter() < deadline:
        times = []
        for traced in (False, True):
            tracer.op = f"{w.name}/op{i}"
            ctx = tracer.instrument() if traced else contextlib.nullcontext()
            span = tracer.span if traced else wl.NULL_SPAN
            with ctx:
                t0 = perf_counter()
                out = checked(tally, f"op {i}", w.run, state, i, span)
                times.append(perf_counter() - t0)
            if out is not None:
                tally.record(f"op {i}", w.check(state, i, out))
        ratios.append(times[1] / times[0] - 1.0)
        i += 1
    return ratios


def traced_run(name: str, seed: int, seconds: float, workdir) -> tuple[dict, Tally, Tracer, dict]:
    deadline = perf_counter() + seconds
    tracer = Tracer()
    tally = Tally()
    states = {}
    for wname, w in wl.WORKLOADS.items():
        d = workdir / wname
        d.mkdir()
        tracer.op = f"{wname}/setup"
        with tracer.instrument():
            states[wname] = w.setup(seed, d)
        w.warm(states[wname])

    with tracer.instrument():
        imports = cli_pass(tracer, tally, states["cli_cold"], workdir)
        alloc_mib = fit_pass(tracer, tally, seed, states["fit_wide"])
        tracer.op = "batch_pipeline/pass"
        batch = wl.WORKLOADS["batch_pipeline"]
        out = checked(tally, "pipeline", batch.run, states["batch_pipeline"], 0, tracer.span)
        if out is not None:
            tally.record("pipeline", batch.check(states["batch_pipeline"], 0, out))
    overhead = overhead_pairs(tracer, tally, wl.WORKLOADS[name], states[name], deadline)

    metrics, leverage_base = layer_metrics(tracer, imports, alloc_mib, overhead)
    groups = {"cli_cold/pass": 1, "fit_wide/pass": 1, "batch_pipeline/pass": 1,
              f"{name}/op": len(overhead)}
    report = {
        "self_ms_per_op_by_module": {
            prefix: {m: v * 1e3 / n for m, v in sorted(
                tracer.self_time_by_module(prefix).items())}
            for prefix, n in groups.items()
        },
        "leverage_share_base_ms": leverage_base,
        "errors": tally.errors[:20],
    }
    return metrics, tally, tracer, report


def layer_metrics(tracer: Tracer, imports, alloc_mib, overhead) -> tuple[dict, dict]:
    """name -> (value, calls) for every per-layer metric of BENCHMARK.json,
    and the two bases of estimation.leverage_share in ms."""
    def med(name, prefix, unit="ms"):
        d = tracer.durations(name, prefix)
        return (statistics.median(d) * SCALE[unit] if d else float("nan"), len(d))

    m = {
        "cli.interpreter_ms": med("child.interpreter", "cli_cold/pass"),
        "cli.process_ms": med("child.process", "cli_cold/pass"),
        "cli.import_ms": (statistics.median(imports) * 1e3 if imports else float("nan"),
                          len(imports)),
    }
    for name, _ in wl.CLI_COMMANDS:
        m[f"cli.main_ms.{name}"] = med(f"cli.main_ms.{name}", "cli_cold/pass")

    batch = "batch_pipeline/"
    load = tracer.durations("panel.load_panel", batch)
    n_rows = wl.BOOK_SHAPE[0] * wl.BOOK_SHAPE[1]
    m["panel.load_panel_ms"] = med("panel.load_panel", batch)
    m["panel.rows_per_s"] = (statistics.median(n_rows / d for d in load) if load
                             else float("nan"), len(load))
    m["panel.write_panel_ms"] = med("panel.write_panel", "batch_pipeline/setup")
    m["ratios.load_balance_sheets_ms"] = med("ratios.load_balance_sheets", batch)
    m["ratios.compute_nsfr_us"] = med("ratios.compute_nsfr", batch, "us")
    m["ratios.compute_tce_rwa_us"] = med("ratios.compute_tce_rwa", batch, "us")
    m["ratios.load_positions_ms"] = med("ratios.load_positions", batch)
    m["ratios.check_compliance_us"] = med("ratios.check_compliance", batch, "us")
    m["unitroot.harris_tzavalis_ms"] = med("unitroot.harris_tzavalis", batch)

    default_s = plain_s = 0.0
    plain_calls = 0
    for eq, _ in wl.SYSTEM_EQUATIONS:
        m[f"estimation.fit_within_dk_ms.{eq}"] = med(f"estimation.fit_within_dk_ms.{eq}",
                                                     "fit_wide/pass")
        default_s += m[f"estimation.fit_within_dk_ms.{eq}"][0] / 1e3
        plain = tracer.durations(f"estimation.fit_within_dk_plain_ms.{eq}", "fit_wide/pass")
        plain_s += statistics.median(plain) if plain else float("nan")
        plain_calls += len(plain)
    m["estimation.fit_within_dk_plain_ms"] = (plain_s * 1e3, plain_calls)
    m["estimation.leverage_share"] = (1.0 - plain_s / default_s,
                                      plain_calls + len(wl.SYSTEM_EQUATIONS))
    m["estimation.fit_peak_alloc_mb"] = (alloc_mib, 1)

    m["model.fit_system_ms"] = med("model.fit_system", "fit_wide/")
    m["model.simulate_panel_ms"] = med("model.simulate_panel", "fit_wide/")
    m["model.propagate_shock_us"] = med("model.propagate_shock", batch, "us")
    m["model.phase_in_scenario_us"] = med("model.phase_in_scenario", batch, "us")
    grid = tracer.durations("step.scenario_grid", batch)
    n_grid = wl.GRID_SIDE ** 2
    m["model.scenarios_per_s"] = (statistics.median(n_grid / d for d in grid) if grid
                                  else float("nan"), len(grid))
    m["trace.overhead_frac"] = (statistics.median(overhead), len(overhead))
    return m, {"default_system_ms": default_s * 1e3, "plain_system_ms": plain_s * 1e3}
