"""Command-line front end for batch runs.

Five subcommands tie the toolkit together:

    ratios    per-bank-year NSFR and TCE/RWA from a balance-sheet CSV
    phasein   the phase-in schedule, compliance checks, requirement deltas
    unitroot  Harris-Tzavalis test per panel variable
    fit       within/DK regressions (single equation or the full system)
    simulate  shock scenarios, schedule series, synthetic panel generation

Exit codes are a stable contract: 0 success, 2 input or configuration
error or a failed write (missing directory, closed pipe, full disk, I/O
error; named as stdout or the path), 3 estimation error. Output formats:
aligned text (default), json (full precision, the same bytes for identical
invocations at a fixed BLAS thread count and any PYTHONHASHSEED), or csv
for flat tables. For reproducibility, flags only: no environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Sequence

from . import __version__
from ._checks import integer
from .errors import DataError, EstimationError
from .model import EQUATIONS, SYSTEM_COLUMNS


@contextlib.contextmanager
def _writing(path: str | None):
    """Turn a failed write to file `path`, or to stdout for None, into a DataError."""
    try:
        yield
    except OSError as exc:
        if path is None:
            path = "stdout"
            # fd 1 to devnull: the interpreter's final flush then stays silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def _render(args, payload, text: str, table=None) -> int:
    """Write `payload` as JSON, `text`, or `table` (headers, rows) as CSV to --out or stdout."""
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True)
    elif args.format == "text":
        body = text
    else:
        import csv
        import io
        buf = io.StringIO()  # csv quotes a cell only where it must
        csv.writer(buf, lineterminator="\n").writerows([table[0], *table[1]])
        body = buf.getvalue().removesuffix("\n")
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
    else:
        with _writing(None):
            print(body, flush=True)
    return 0


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*row) for row in rows]
    return "\n".join(lines)


def _read_panel(args, unlogged=()):
    """--panel with --schema's transforms applied, refusing a log on `unlogged`."""
    from .panel import apply_transform, load_panel, load_schema
    schema = load_schema(args.schema) if args.schema else []
    logged = [v.name for v in schema if v.transform == "log" and v.name in unlogged]
    if logged:
        raise DataError(f"--schema declares a log transform on {logged}, which --model "
                        f"{args.model} takes already in logs; use --model custom")
    ds = load_panel(args.panel, schema)
    for var in schema:
        ds = apply_transform(ds, var)
    return ds


# -- ratios --------------------------------------------------------------------


def cmd_ratios(args) -> int:
    from .ratios import NsfrWeights, compute_nsfr, compute_tce_rwa, load_balance_sheets
    weights = NsfrWeights.from_json(args.weights) if args.weights else NsfrWeights()
    sheets = load_balance_sheets(args.balance_sheets, require_rwa=args.tce)
    rows = []
    for bs in sheets:
        rec = {"bank_id": bs.entity, "year": bs.year, "nsfr": compute_nsfr(bs, weights)}
        if args.tce:
            rec["tce_rwa"] = compute_tce_rwa(bs)
        rows.append(rec)

    headers = ["bank_id", "year", "nsfr"] + (["tce_rwa"] if args.tce else [])
    str_rows = [
        [r["bank_id"], str(r["year"]), f"{r['nsfr']:.5f}"]
        + ([f"{r['tce_rwa']:.5f}"] if args.tce else [])
        for r in rows
    ]
    return _render(args, {"rows": rows}, _table(headers, str_rows), (headers, str_rows))


# -- phasein -------------------------------------------------------------------


def _parse_year_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise DataError(f"expected FROM:TO years, got {text!r}") from None


def cmd_phasein(args) -> int:
    from .ratios import (BANGLADESH_SCHEDULE, REQUIREMENT_FIELDS, check_compliance,
                         load_positions, required_deltas)
    if args.deltas is not None:
        frm, to = _parse_year_range(args.deltas)
        deltas = required_deltas(frm, to)
        table = (["requirement", "delta"], [[k, f"{v:+.4g}"] for k, v in deltas.items()])
        payload = {"from_year": frm, "to_year": to, "deltas": deltas}
        return _render(args, payload, _table(*table), table)

    if args.positions is not None:
        if args.format == "csv":
            raise DataError("this output has no flat table; use --format text or json")
        reports = [check_compliance(p) for p in load_positions(args.positions)]
        blocks = []
        for r in reports:
            rows = [
                [
                    c.name,
                    f"{c.required:.4g}",
                    f"{c.actual:.4g}",
                    f"{c.shortfall:.4g}",
                    ("advisory" if c.advisory else ("pass" if c.passed else "FAIL")),
                ]
                for c in r.checks
            ]
            head = (
                f"{r.position.entity} {r.position.year}"
                + (f" (steady state: {r.requirements.year} rules)" if r.steady_state else "")
                + f" -> {'PASS' if r.overall_pass else 'FAIL'}"
            )
            blocks.append(
                head + "\n" + _table(["requirement", "required", "actual",
                                      "shortfall", "status"], rows)
            )
        payload = {"reports": [r.to_dict() for r in reports]}
        return _render(args, payload, "\n\n".join(blocks))

    schedule = [
        {k: v for k, v in dataclasses.asdict(req).items()
         if not k.endswith("_from_september")}
        for req in BANGLADESH_SCHEDULE
    ]
    headers = ["year", *REQUIREMENT_FIELDS, "cet1_deduction_phase_pct",
               "rr_deduction_phase_pct"]
    rows = [[str(p["year"])] + [f"{p[f]:g}" for f in headers[1:]] for p in schedule]
    return _render(args, {"schedule": schedule}, _table(headers, rows), (headers, rows))


# -- unitroot ------------------------------------------------------------------


def cmd_unitroot(args) -> int:
    from .unitroot import CASE_LABEL, harris_tzavalis
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise DataError("no variables requested; pass --vars a,b,c")
    ds = _read_panel(args)
    results = [harris_tzavalis(ds, name) for name in names]
    table = (
        ["variable", "rho", "z", "p_value"],
        [[r.variable, f"{r.rho_hat:.4f}", f"{r.z_stat:.4f}", f"{r.p_value:.4f}"]
         for r in results],
    )
    note = (f"H0: unit root; small p favours stationarity "
            f"({CASE_LABEL}, N={results[0].n_entities}, "
            f"T={results[0].n_periods})")
    payload = {"results": [r.to_dict() for r in results]}
    return _render(args, payload, _table(*table) + "\n" + note, table)


# -- fit -----------------------------------------------------------------------


def _resolve_lags(value: str | None) -> dict:
    """--dk-lags as a dk_bandwidth keyword; none when the flag is absent, so
    that the library's default bandwidth applies."""
    if value is None:
        return {}
    try:
        lags = value if value == "auto" else int(value)
    except ValueError:
        raise DataError(f"--dk-lags must be 'auto' or an integer, got {value!r}") from None
    return {"dk_bandwidth": lags if lags == "auto" else integer("dk_bandwidth", lags, 0)}


def cmd_fit(args) -> int:
    from .estimation import RegressionSpec, fit_within_dk
    from .model import fit_system
    if args.coeffs_out and args.model != "all":
        raise DataError("--coeffs-out needs --model all")
    if args.no_fe and args.model == "all":
        raise DataError("--no-fe is not allowed with --model all, which always fits fixed effects")
    if (args.dep or args.regressors) and args.model != "custom":
        raise DataError("--dep and --regressors need --model custom")
    if args.model == "custom" and not (args.dep and args.regressors):
        raise DataError("--model custom needs --dep and --regressors")
    lags = _resolve_lags(args.dk_lags)
    ds = _read_panel(args, SYSTEM_COLUMNS if args.model != "custom" else ())
    small_sample = not args.plain_cov

    if args.model == "all":
        system = fit_system(ds, small_sample=small_sample, **lags)
        if args.coeffs_out:
            with _writing(args.coeffs_out):
                system.coefficients.to_json(args.coeffs_out)
        fits = {eq: fit for (eq, _), fit in zip(EQUATIONS, system.fits)}
        payload = {
            "coefficients": system.coefficients.to_dict(),
            "equations": {eq: fit.to_dict() for eq, fit in fits.items()},
        }
        text = "\n\n".join(f"== {eq} ==\n{fit.summary()}" for eq, fit in fits.items())
        return _render(args, payload, text)

    if args.model == "custom":
        dep = args.dep
        regs = tuple(r.strip() for r in args.regressors.split(",") if r.strip())
    else:
        dep, regs = args.model, dict(EQUATIONS)[args.model]

    spec = RegressionSpec(dependent=dep, regressors=regs, fixed_effects=not args.no_fe,
                          small_sample=small_sample, **lags)
    fit = fit_within_dk(ds, spec)
    return _render(args, {"model": args.model, "fit": fit.to_dict()},
                   f"== {args.model}: {dep} ~ {' + '.join(regs)} ==\n{fit.summary()}")


# -- simulate ------------------------------------------------------------------


# Parser defaults are None so that a given option can be told from one left out.
SIMULATE_DEFAULTS = {"dliq": 0.0, "dcap": 0.0, "mode": "chained", "phase_liq": 0.0,
                     "banks": 22, "years": 5, "noise": 0.05, "seed": 20140622}


def _given(args, names: Sequence[str]) -> str:
    """The options among `names` given on the command line, as flags."""
    return ", ".join(f"--{n.replace('_', '-')}" for n in names
                     if getattr(args, n) is not None)


def cmd_simulate(args) -> int:
    from .model import (ScenarioInput, phase_in_scenario, propagate_shock,
                        resolve_coefficients, simulate_panel)
    from .ratios import required_deltas
    shock = ("dliq", "dcap", "mode", "dlgdp")
    if args.make_panel and (given := _given(args, (*shock, "phase_in"))):
        raise DataError(f"--make-panel runs no scenario and takes no {given}")
    if args.make_panel and args.format != "text":
        raise DataError(f"--make-panel writes its CSV to --out and takes no "
                        f"--format {args.format}")
    if args.phase_in is not None and (given := _given(args, shock)):
        raise DataError(f"--phase-in takes its shocks from the schedule and --phase-liq, "
                        f"not {given}")
    if args.phase_liq is not None and args.phase_in is None:
        raise DataError("--phase-liq needs --phase-in")
    if not args.make_panel and (given := _given(args, ("banks", "years", "noise", "seed"))):
        raise DataError(f"only --make-panel takes {given}")
    if args.make_panel and not args.out:
        raise DataError("--make-panel needs --out PATH for the generated CSV")
    if args.phase_in is not None:
        frm, to = _parse_year_range(args.phase_in)
        required_deltas(frm, to)  # the window's own faults, before --coeffs is read
    for name, value in SIMULATE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    coeffs = resolve_coefficients(args.coeffs)

    if args.make_panel:
        from .panel import write_panel
        ds = simulate_panel(coeffs, args.banks, args.years, args.noise, args.seed)
        with _writing(args.out):
            write_panel(ds, args.out)
        with _writing(None):
            print(f"wrote {ds.n_entities}x{ds.n_periods} synthetic panel to {args.out}",
                  flush=True)
        return 0

    if args.phase_in is not None:
        series = phase_in_scenario(coeffs, frm, to, delta_liq_per_year=args.phase_liq)
        results = [*series.steps, ("cumulative", series.cumulative)]
        fields = ("delta_spread", "delta_lending", "delta_roe")
        text_rows = [[str(y)] + [f"{getattr(r, f):.4g}" for f in fields] for y, r in results]
        csv_rows = [[str(y)] + [repr(getattr(r, f)) for f in fields] for y, r in results]
        text = _table(["year", "d_spread", "d_lending", "d_roe"], text_rows)
        return _render(args, series.to_dict(), text + "\n" + _units_note(),
                       (["year", *fields], csv_rows))

    shock = ScenarioInput(
        delta_cap=args.dcap,
        delta_liq=args.dliq,
        mode=args.mode,
        delta_lgdp=args.dlgdp,
    )
    result = propagate_shock(coeffs, shock)
    lines = [
        f"shock: d_liq={args.dliq:+.4g} pp, d_cap={args.dcap:+.4g} pp "
        f"({args.mode}, coefficients: {result.coefficients.provenance})"
    ]
    for step in result.trace:
        terms = ", ".join(f"{k} = {v:+.6g}" for k, v in step["terms"].items())
        lines.append(f"  {step['step']:<15} {step['formula']}")
        lines.append(f"  {'':<15} {terms}  ->  {step['value']:+.6g}")
    lines.append(
        f"result: d_spread={result.delta_spread:+.4g} pp, "
        f"d_lending={result.delta_lending:+.4g}%, d_roe={result.delta_roe:+.4g}%"
    )
    lines.append(_units_note())
    fields = ("delta_spread", "delta_lending", "delta_lgdp", "delta_roe")
    table = (list(fields), [[repr(getattr(result, f)) for f in fields]])
    return _render(args, result.to_dict(), "\n".join(lines), table)


def _units_note() -> str:
    return ("note: shocks are percentage points of the requirement ratios; "
            "responses are read as percent, although LIQ/CAP enter the fitted "
            "equations in logs")


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baselcost",
        description="Basel III cost toolkit: ratios, panel econometrics, scenarios",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("ratios", help="NSFR and TCE/RWA per bank-year")
    p.add_argument("--balance-sheets", required=True, help="balance-sheet CSV")
    p.add_argument("--weights", help="JSON file overriding the NSFR weights")
    p.add_argument("--tce", action=argparse.BooleanOptionalAction, default=True,
                   help="include TCE/RWA (needs rwa column; default on)")
    add_common(p)
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("phasein", help="phase-in schedule, compliance, deltas")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--positions", help="capital-position CSV to check")
    which.add_argument("--deltas", metavar="FROM:TO",
                       help="print per-requirement changes between two years")
    add_common(p)
    p.set_defaults(func=cmd_phasein)

    p = sub.add_parser("unitroot", help="Harris-Tzavalis test per variable")
    p.add_argument("--panel", required=True, help="wide panel CSV")
    p.add_argument("--schema", help="JSON schema of declared variables")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    add_common(p)
    p.set_defaults(func=cmd_unitroot)

    p = sub.add_parser("fit", help="within/DK regression (equation or system)")
    p.add_argument("--panel", required=True, help="wide panel CSV")
    p.add_argument("--schema", help="JSON schema of declared variables")
    p.add_argument("--model", required=True,
                   choices=(*(eq for eq, _ in EQUATIONS), "all", "custom"))
    p.add_argument("--dep", help="dependent variable (custom model)")
    p.add_argument("--regressors", help="comma-separated regressors (custom model)")
    p.add_argument("--dk-lags", help="'auto' or lag count (default: auto; 0 for --model all)")
    p.add_argument("--no-fe", action="store_true", help="pooled fit, no fixed effects")
    p.add_argument("--plain-cov", action="store_true",
                   help="textbook DK covariance without small-sample adjustment")
    p.add_argument("--coeffs-out", help="write the fitted CoefficientSet JSON (model=all)")
    add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="shock scenarios and synthetic panels")
    p.add_argument("--coeffs", default="paper",
                   help="'paper' for the built-in preset or a CoefficientSet JSON path")
    p.add_argument("--dliq", type=float, help="liquidity shock (pp)")
    p.add_argument("--dcap", type=float, help="capital shock (pp)")
    p.add_argument("--mode", choices=("chained", "exogenous"))
    p.add_argument("--dlgdp", type=float,
                   help="exogenous lending-to-GDP change (exogenous mode)")
    p.add_argument("--phase-in", metavar="FROM:TO",
                   help="run the schedule series between two years")
    p.add_argument("--phase-liq", type=float, help="liquidity shock per phase-in year")
    p.add_argument("--make-panel", action="store_true",
                   help="write a synthetic panel CSV instead of running a scenario")
    p.add_argument("--banks", type=int, help="banks for --make-panel")
    p.add_argument("--years", type=int, help="years for --make-panel")
    p.add_argument("--noise", type=float, help="noise sd for --make-panel")
    p.add_argument("--seed", type=int, help="seed for --make-panel")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
