"""Repeat the benchmark and report how steady each end-to-end metric is.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--seed0 1] [--workloads a,b]
                                    [--label NAME] [--baseline FILE]

Runs `perfbench/run.py --trace 0` once per seed (seed0, seed0+1, ...) for each
workload, with the run length from BENCHMARK.json. For every end-to-end
metric it prints the median and the quartile spread, (q3 - q1) / median with
quartiles from statistics.quantiles(values, n=4), against the metric's bound:

    resolved     spread below a third of the bound
    within       spread at most the bound
    UNRESOLVED   spread above the bound; a change to this metric cannot be told
                 from run-to-run noise

setup_s is reported but its spread is not judged, only its median. With
--baseline (a JSON file an earlier invocation wrote), it also prints how far
each median moved in the metric's worse direction, against the bound.
Results go to .perfbench_out/steadiness-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "resolved"
    return "within" if spread <= bound else "UNRESOLVED"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    p.add_argument("--label", default="latest")
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    specs = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline else {}

    summary = {}
    for workload in names:
        runs = [run_once(workload, args.seed0 + k, bench["run_seconds"])
                for k in range(args.runs)]
        summary[workload] = {}
        print(f"{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        for metric, spec in specs.items():
            s = summarise([r[metric] for r in runs])
            summary[workload][metric] = s
            judged = "not judged" if metric == "setup_s" else verdict(s["spread"], spec["bound"])
            line = (f"  {metric:<14} median {s['median']:>12.5g} {spec['unit']:<4} "
                    f"spread {s['spread']:7.4f}  bound {spec['bound']:.2f}  {judged}")
            base = baseline.get(workload, {}).get(metric)
            if base:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                worse = sign * (s["median"] - base["median"]) / base["median"]
                line += (f"  | worse than baseline by {worse:+.4f} "
                         f"({'ok' if worse <= spec['bound'] else 'REGRESSION'})")
            print(line, flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"steadiness-{args.label}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
