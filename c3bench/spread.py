"""Median and quartile spread of each end-to-end metric over ten seeds.

    python3 c3bench/spread.py --workload video-x20

Runs ``run.py`` once per seed from 1 to 10, one after another, for the
``run_seconds`` of BENCHMARK.json, and prints for each metric the median of
the per-seed values and the distance between their first and third
quartiles as a share of that median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "c3bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, " + ", ".join(
                  f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    print(f"{args.workload}: {len(SEEDS)} seeds, {attempted} runs, "
          f"{failed} failed")
    for k, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"  {k}: median {med:.4g}, quartile spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
