"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload decide-search [--runs 10]

Run ``i`` uses ``--seed i``.  For every metric it prints the median over the runs, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as a
share of the median, next to the bound ``BENCHMARK.json`` fixes for it.
Use it to check that the benchmark is steady and to quote a baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"correct": result["correct"], "metrics": values})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6f}" for k, v in values.items()),
              flush=True)

    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER BOUND"
        print(f"{name:16s} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
              f"spread {spread:6.3f}  bound {bound:.2f}  {verdict}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
