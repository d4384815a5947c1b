"""Run one workload of the baselcost benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json;
with --trace 1 it measures the per-layer metrics (see layers.py). The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Lines before it report every metric with its unit, the
environment, and the metrics BENCHMARK.json cannot carry (op_tail_ms and
fail_frac). Full results are written under .perfbench_out/.

Exit codes: 0 when every output check passed, 1 when a check failed, 2 when
the package is missing from the checkout or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import benchenv

SETUP_REPS = 3
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def measure_setup(wl, name: str, seed: int, workdir: Path) -> list[float]:
    """Cold set-up times, one child process each."""
    samples = []
    for r in range(SETUP_REPS):
        d = workdir / f"setup{r}"
        d.mkdir()
        rc, out, _ = wl.run_child([sys.executable, str(PROBE), name, str(seed), str(d)], d)
        if rc != 0:
            raise RuntimeError(f"set-up probe for {name} exited with {rc}")
        samples.append(json.loads(out)["setup_s"])
        shutil.rmtree(d)
    return samples


def op_loop(w, state, seconds: float):
    """Closed loop, one caller: start ops until `seconds` have passed."""
    latencies, errors = [], []
    ok = 0
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        t0 = perf_counter()
        try:
            out = w.run(state, i)
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            out, error = None, traceback.format_exc(limit=3)
        latencies.append(perf_counter() - t0)
        if error is None:
            error = w.check(state, i, out)
        if error is None:
            ok += 1
        else:
            errors.append(f"op {i}: {error}")
        i += 1
    elapsed = perf_counter() - start
    return latencies, ok, errors, elapsed


def untraced_run(wl, args, workdir: Path) -> tuple[dict, int, int, dict]:
    w = wl.WORKLOADS[args.workload]
    setup_samples = measure_setup(wl, w.name, args.seed, workdir)
    t0 = perf_counter()
    state = w.setup(args.seed, workdir)
    inproc_setup_s = perf_counter() - t0
    w.warm(state)
    latencies, ok, errors, elapsed = op_loop(w, state, args.seconds)
    n = len(latencies)
    if "child_rss_mb" in state:
        peak_rss = max(state["child_rss_mb"])
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "ops_per_s": ok / elapsed,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_samples),
    }
    t = tail(latencies)
    report = {
        "ops": n,
        "ops_ok": ok,
        "elapsed_s": elapsed,
        "op_tail_ms": None if t is None else {"percentile": t[0], "value": t[1] * 1e3,
                                              "unit": "ms", "beyond": 10},
        "op_tail_ms_omitted": None if t else f"{n} ops; at least 11 are needed",
        "fail_frac": (n - ok) / n,
        "setup_samples_s": setup_samples,
        "setup_inprocess_s": inproc_setup_s,
        "latencies_ms": [x * 1e3 for x in latencies],
        "errors": errors[:20],
    }
    return values, n, n - ok, report


def print_report(args, env, metrics, attempted, failed, report) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace == 0:
        print(f"  {'op_p50_ms':<16}{metrics['op_p50_ms'][0]:>14.3f} ms   "
              f"(median of {report['ops']} ops)")
        t = report["op_tail_ms"]
        if t:
            print(f"  {'op_tail_ms':<16}{t['value']:>14.3f} ms   "
                  f"(p{t['percentile']:.1f}, {t['beyond']} samples beyond, n={report['ops']})")
        else:
            print(f"  {'op_tail_ms':<16}{'omitted':>14}      ({report['op_tail_ms_omitted']})")
        for name in ("ops_per_s", "peak_rss_mb", "setup_s"):
            value, unit = metrics[name]
            print(f"  {name:<16}{value:>14.4f} {unit}")
        print(f"  {'fail_frac':<16}{report['fail_frac']:>14.4f} 1     ({failed}/{attempted})")
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in report['setup_samples_s'])}")
    else:
        for name, (value, unit) in metrics.items():
            if not name.endswith(".calls"):
                calls = metrics[name + ".calls"][0]
                print(f"  {name:<40}{value:>16.6g} {unit:<6} (calls={calls})")
        base = report["leverage_share_base_ms"]
        print(f"  leverage_share = 1 - {base['plain_system_ms']:.3f} ms plain / "
              f"{base['default_system_ms']:.3f} ms default (three system specs)")
        for prefix, by_mod in report["self_ms_per_op_by_module"].items():
            parts = ", ".join(f"{m} {v:.1f}" for m, v in by_mod.items())
            print(f"  self ms per op by module [{prefix}]: {parts}")
    for e in report["errors"]:
        print(f"  check failed: {e}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        benchenv.bootstrap()
        import workloads as wl

        benchenv.check_import_location(wl.baselcost)
    except (benchenv.MissingProgram, ImportError, OSError) as exc:
        print(f"perfbench: cannot measure: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = benchenv.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import layers

            layer_values, tally, tracer, report = layers.traced_run(
                args.workload, args.seed, args.seconds, workdir)
            values = {}
            for name, (value, calls) in layer_values.items():
                values[name] = value
                values[name + ".calls"] = calls
            attempted, failed = tally.attempted, tally.failed
        else:
            values, attempted, failed, report = untraced_run(wl, args, workdir)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    env = wl.environment(args.seed)
    env.update(workload=args.workload, run_seconds=args.seconds,
               ops_per_run=attempted, trace=args.trace)
    print_report(args, env, metrics, attempted, failed, report)

    benchenv.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(benchenv.OUT_DIR / f"{stem}-spans.json.gz")
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(benchenv.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": report, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
