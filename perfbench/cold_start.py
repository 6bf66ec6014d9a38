"""One cold start: import the library in a fresh interpreter and answer the
last operation of a workload's first round (for verify, a 2-state one).

Usage: python3 perfbench/cold_start.py WORKLOAD SEED WORKDIR

Prints the seconds spent importing ``infocontracts`` plus running that one
operation; building its inputs is not counted.  ``run.py`` starts this
several times per run and reports the median as ``setup_s``.
"""

import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import infocontracts  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
op = workloads.BUILD[name](seed, 0, workdir)[-1]
run = workloads.runner(name)
began = time.perf_counter()
run(op)
print(repr((imported - start) + (time.perf_counter() - began)))
