"""Steadiness check: repeat each workload and report the spread of its metrics.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workload hot_hits ...]

Runs ``run.py`` once per seed (seeds 1 to ``--runs``), one run at a time,
and prints for every end-to-end metric its median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound in BENCHMARK.json.
Also prints the failed share of operations, which must not vary.
Exits 1 when a spread exceeds its bound or a run is incorrect.
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


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            ok &= result["correct"]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share(s) {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound else "  OVER BOUND"
            ok &= not flag
            print(f"  {name:16s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.1%}  bound {bound:.0%}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
