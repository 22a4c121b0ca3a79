"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sweeps --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
metric its median, its quartile distance as a share of the median, and the
largest share the metric's bound in BENCHMARK.json allows (a third of it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds",
                                str(bench["run_seconds"]), "--trace",
                                "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        limit = bounds.get(name)
        flag = "" if limit is None else (
            f"  limit {limit / 3:.4f} {'ok' if spread < limit / 3 else 'WIDE'}")
        print(f"{name:>16}: median {med:.6g}  spread {spread:.4f}{flag}  "
              f"values {[round(v, 4) for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
