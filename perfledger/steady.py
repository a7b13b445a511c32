#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and report every metric's
median and quartile spread.

Usage (from the checkout root)::

    python3 perfledger/steady.py [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]

Each run is ``perfledger/run.py`` with its own ``--seed`` (first-seed,
first-seed + 1, ...).  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``; for end-to-end metrics it also prints the
bound from ``BENCHMARK.json`` and whether the spread is under a third of
it.  The table is also written to
``perfledger/_out/steady-<workload>-trace<t>.json``.
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


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> list[dict]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        rows.append({
            "metric": name,
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound,
            "steady": None if bound is None else spread < bound / 3,
            "values": values,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in catalogue["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    workloads = args.workload or [w["name"] for w in catalogue["workloads"]]
    unsteady = 0
    for workload in workloads:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result")
            results.append(result)
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        rows = summarize(results, bounds)
        print(f"{workload} ({args.runs} runs, trace={args.trace}, {args.seconds:g} s each)")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for row in rows:
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            mark = {True: "", False: "  <- spread over bound/3", None: ""}[row["steady"]]
            unsteady += row["steady"] is False
            print(f"  {row['metric']:<30} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.3f} {bound:>6}{mark}")
        out = HERE / "_out" / f"steady-{workload}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"workload": workload, "runs": args.runs,
                                   "first_seed": args.first_seed, "rows": rows}, indent=2))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
