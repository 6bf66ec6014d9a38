"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload orders --runs 10 --seconds 35 [--first-seed 1]

Runs ``run.py`` once per seed (``first-seed``, ``first-seed + 1``, ...),
one run at a time, and prints for each metric the median of the runs, the
distance between the first and third quartiles as a share of the median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them), and the
failed share.  ``--json FILE`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed} ({time.perf_counter() - began:.1f} s): {done.stderr.strip()}",
              file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"correct={all(r['correct'] for r in results)}, failed share(s) {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if len(values) >= 2 and statistics.median(values) != 0:
            print(f"  {name:38s} median {statistics.median(values):12.6g} {unit:6s} "
                  f"IQR/median {spread(values):7.2%}  min {min(values):.6g}  max {max(values):.6g}")
        else:
            print(f"  {name:38s} median {statistics.median(values):12.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
