#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload small-scenes --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median over the runs, the first
and third quartile, and their distance as a share of the median next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked, as is any run whose result was not correct. With --trace 1 it lists
the per-layer metrics and marks counts that differ between runs of one seed.
Each run's last stdout line is appended to --log as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log", default=str(ROOT / ".bench_runs" / "spread.jsonl"))
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = []
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        res = run_once(spec, args.workload, seed, args.trace)
        results.append(res)
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, "result": res}) + "\n")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)

    print(f"\n{args.workload}, {len(results)} runs")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        bound = m.get("bound")
        mark = " <-- above bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"{m['name']:38s} {statistics.median(values):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}{mark}")
    bad = [r for r in results if not r["correct"]]
    print(f"incorrect runs: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
