"""Repeat mode: run each workload N times on successive seeds, summarise the spread.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 --seconds 30
    python3 perfbench/repeat.py --workload cli_sweep --runs 5 --first-seed 100

Each run is a fresh ``perfbench/run.py`` process, one after another.  For
every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json; the bounds there are justified by this spread.  The last
line is a JSON object with every run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each, trace {args.trace})")
        print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, spread = summarise(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " OVER" if spread > bound else (" >1/3" if spread > bound / 3 else "")
            print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}  {units[name]}")
        report[workload] = values
    print(json.dumps({"correct": ok, "runs": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
