"""Benchmark for infocontracts: contract synthesis, oracle verification and
order comparison, each as a single-client closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {contracts,verify,orders} \
        --seed N --seconds S --trace {0,1}

A run measures whole rounds of operations built from the seed (see
``workloads.py``) until ``--seconds`` have passed and at least 40
operations ran, checks every output against ``checks.py`` (a repeat of an
instance whose output is bit-identical to a checked one inherits its
verdict), and prints one JSON object as the last line of standard
output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the library's layers (``tracer.py``) and reports
per-operation layer figures instead.  The library is imported from the checkout's ``src``; the
run fails with exit code 2 if it is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("contracts", "verify", "orders")
MIN_OPS = 40            # below this a tail percentile is no tail
# op_tail_ms: per workload, the highest of p50, p75, p80, p90 and p95 that
# leaves at least ten samples beyond it in a run a quarter slower than the
# slowest reference run (README, "Metrics").  Fixed, so that it names the same percentile when a
# change makes operations faster or slower.  Not p99: on this benchmark's
# reference machine the top 1 % of contracts and orders operations are
# mostly host stalls, not the program's slowest instances.
TAIL_PERCENTILE = {"contracts": 95.0, "verify": 75.0, "orders": 95.0}
TAIL_BEYOND = 10
# Distinct rounds of instances a run cycles through, or None for a fresh
# round every time.  Checking a contracts or orders output in full costs
# about as much as the operation itself; cycling through a pool lets a
# repeat reuse the verdict of an identical output, so that most of a run's
# time is spent in measured operations.  A verify operation costs ~50 times
# its check, so its rounds stay fresh.
POOL_ROUNDS = {"contracts": 20, "verify": None, "orders": 10}
COLD_STARTS = 5         # cold starts per run; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_starts(name: str, seed: int, workdir: Path) -> list[float]:
    """Seconds to import the library and answer one operation, each in a
    fresh interpreter."""
    cold_dir = workdir / "cold"
    cold_dir.mkdir()
    times = []
    for _ in range(COLD_STARTS):
        done = subprocess.run(
            [sys.executable, str(HERE / "cold_start.py"), name, str(seed), str(cold_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def is_known_fault(case, problems: list[str]) -> bool:
    """A kappa-fault instance whose only problem is the reported kappa."""
    return getattr(case, "kappa_fault", False) and all(p.startswith("kappa ") for p in problems)


def same_result(a, b) -> bool:
    """Whether two operation results are identical, down to the last bit."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_result(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same_result(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def measure(name: str, seed: int, seconds: float, workdir: str, tracer) -> dict:
    """Run whole rounds until ``seconds`` have passed and at least
    ``MIN_OPS`` operations ran; time and check every operation.  One
    operation of each kind from round 0 warms up first, untimed.

    With a pool (``POOL_ROUNDS``), round ``r`` replays the instances of
    round ``1 + (r - 1) % pool``.  An output is checked in full the first
    time its instance runs; a repeat whose output is identical to that
    checked one inherits its verdict, and any other output is checked
    again in full."""
    import workloads

    build = workloads.BUILD[name]
    run = workloads.runner(name, tracer)
    check = workloads.CHECK[name]
    pool = POOL_ROUNDS[name]
    for op in {op.case.kind: op for op in build(seed, 0, workdir)}.values():
        run(op)
    built, verified = {}, {}
    times, failed, rounds, unexpected, full_checks = [], 0, 0, {}, 0
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < MIN_OPS:
        rounds += 1
        source = rounds if pool is None else 1 + (rounds - 1) % pool
        if source not in built:
            built[source] = build(seed, source, workdir)
        ops = built[source] if pool else built.pop(source)
        for i in np.random.default_rng([seed, 4, rounds]).permutation(len(ops)):
            op = ops[i]
            if tracer is not None:
                tracer.enabled = True
            began = perf_counter()
            try:
                result, problems = run(op), None
            except Exception as exc:                 # a failed operation, not a crash
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            times.append(perf_counter() - began)
            if tracer is not None:
                tracer.enabled = False
            if problems is None:
                earlier = verified.get((source, i))
                if earlier is not None and same_result(result, earlier[0]):
                    problems = earlier[1]
                else:
                    problems = check(op, result)
                    full_checks += 1
                    if pool:
                        verified[(source, i)] = (result, problems)
            if problems:
                failed += 1
                if not is_known_fault(op.case, problems):
                    unexpected.setdefault(op.case.kind, problems)
    return {"times": times, "failed": failed, "rounds": rounds, "round_size": len(ops),
            "unexpected": unexpected, "full_checks": full_checks}


def tail_rank(n: int, percentile: float) -> int:
    """Index of the nearest-rank ``percentile`` in ``n`` sorted samples."""
    return max(0, math.ceil(percentile / 100.0 * n) - 1)


def round_median(times: list[float], round_size: int) -> float:
    """The median operation time of each round, averaged over the rounds.

    A round lasts well under a second (a few seconds on verify), so the
    machine's speed is about constant within it.  When the machine switches
    between speed levels during a run, this moves in proportion with the
    share of time spent at each level, where the median over the whole run
    jumps from one level's cluster to the other's."""
    return float(np.median(np.reshape(times, (-1, round_size)), axis=1).mean())


def end_to_end(times: list[float], round_size: int, setup: list[float], tail: float) -> dict:
    ordered = sorted(times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1000.0 * round_median(times, round_size), "ms"),
        "op_tail_ms": (1000.0 * ordered[tail_rank(len(ordered), tail)], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infocontracts" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else cold_starts(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        stats = measure(args.workload, args.seed, args.seconds, str(workdir), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = stats["times"]
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(times))
        metrics["traced.op_p50_ms"] = (1000.0 * round_median(times, stats["round_size"]), "ms")
        metrics["traced.ops_per_s"] = (len(times) / sum(times), "1/s")
    else:
        metrics = end_to_end(times, stats["round_size"], setup, TAIL_PERCENTILE[args.workload])
    result = {
        "correct": not stats["unexpected"],
        "attempted": len(times),
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tail = TAIL_PERCENTILE[args.workload]
    beyond = len(times) - 1 - tail_rank(len(times), tail)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(times)} ops in {stats['rounds']} rounds of {stats['round_size']}, "
          f"{stats['failed']} failed, {stats['full_checks']} checked in full, "
          f"tail = p{tail:g} with {beyond} samples beyond"
          + (f", cold starts {[round(s, 4) for s in setup]}" if setup else ""),
          file=sys.stderr)
    for kind, problems in stats["unexpected"].items():
        print(f"perfbench: unexpected failure on {kind}: {problems}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if beyond < TAIL_BEYOND:
        print(f"perfbench: only {beyond} samples beyond p{tail:g}", file=sys.stderr)
    record = dict(result, seconds=args.seconds, rounds=stats["rounds"],
                  round_size=stats["round_size"], cold_starts_s=setup,
                  op_ms=[1000.0 * t for t in times])
    if tracer is not None:
        record["spans"] = {"calls": tracer.calls, "counts": tracer.counts,
                           "inclusive_s": tracer.inclusive, "self_s": tracer.self_time}
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
