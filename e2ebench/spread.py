"""Run one workload over several seeds and print each metric's spread.

Usage, from the repository root::

    python3 e2ebench/spread.py --workload tune-cold --seeds 1 10 \\
        --seconds 28

For every metric it prints the values, their median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, which must
stay within the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True,
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "e2ebench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}",
              flush=True)
        results.append(result)
    worst = 0.0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name}: median {q2:.4g} q1 {q1:.4g} q3 {q3:.4g} spread "
              f"{spread:.3f}" + (f" (bound {bound})" if bound else ""))
        print("    " + " ".join(f"{v:.4g}" for v in values))
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excepted): {worst:.2f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
