"""Per-layer timing by wrapping the library's public functions.

The library's modules bind their helpers by name (``from .numerics import
solve_lp``), so a wrapper must replace the name in every module that looks
it up.  ``Tracer.patch`` does that for one function and records, per span
name: calls, inclusive time (outermost call only, so recursion is not
counted twice) and self time (inclusive minus the wrapped calls it made).
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.counts = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []                    # [name, time spent in child spans]
        self._restore = []

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counts, args, kwargs, result)``
        may add work counts at the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[1]
                if not any(f[0] == name for f in tracer._stack):
                    tracer.inclusive[name] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, original, name: str, modules, count=None) -> None:
        """Replace every module-level binding of ``original`` in ``modules``."""
        wrapper = self.span(name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _count_linprog(counts, args, kwargs, result) -> None:
    counts["lp_vars"] += len(args[0] if args else kwargs["c"])
    for key in ("A_ub", "A_eq"):
        if kwargs.get(key) is not None:
            counts["lp_rows"] += kwargs[key].shape[0]


def _count_grid(counts, args, kwargs, result) -> None:
    counts["grid_points"] += result.n_grid_points


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import numpy as np

    from infocontracts import contracts, costs, experiments, implementability, numerics
    from infocontracts import oracle, orders

    modules = [m for name, m in sys.modules.items()
               if name == "infocontracts" or name.startswith("infocontracts.")]
    tracer.patch(np.linalg.svd, "svd", [np.linalg])
    tracer.patch(numerics.linprog, "linprog", [numerics], _count_linprog)
    for fn, name in (
        (numerics.solve_lp, "solve_lp"),
        (numerics.pseudo_inverse, "pseudo_inverse"),
        (implementability.check_implementable, "check_implementable"),
        (costs.marginal_cost_matrix, "marginal_cost_matrix"),
        (costs.total_cost, "total_cost"),
        (contracts.optimal_contract, "optimal_contract"),
        (contracts.first_best_contract, "first_best_contract"),
        (oracle.simplex_grid, "simplex_grid"),
        (orders.cone_compare, "cone_compare"),
        (orders.colspace_compare, "colspace_compare"),
        (orders.binary_k_compare, "binary_k_compare"),
        (experiments.blackwell_compare, "blackwell_compare"),
    ):
        tracer.patch(fn, name, modules)
    tracer.patch(oracle.agent_best_response, "agent_best_response", modules, _count_grid)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation figures for every per-layer metric."""
    ms = {name: 1000.0 * t / ops for name, t in tracer.inclusive.items()}
    self_ms = {name: 1000.0 * t / ops for name, t in tracer.self_time.items()}
    calls = {name: n / ops for name, n in tracer.calls.items()}
    counts = {name: n / ops for name, n in tracer.counts.items()}
    return {
        "numerics.svd_calls": (calls.get("svd", 0.0), "count"),
        "numerics.pseudo_inverse_ms": (ms.get("pseudo_inverse", 0.0), "ms"),
        "implementability.check_calls": (calls.get("check_implementable", 0.0), "count"),
        "implementability.check_ms": (ms.get("check_implementable", 0.0), "ms"),
        "costs.marginal_cost_matrix_ms": (ms.get("marginal_cost_matrix", 0.0), "ms"),
        "costs.total_cost_ms": (ms.get("total_cost", 0.0), "ms"),
        "contracts.optimal_contract_self_ms": (self_ms.get("optimal_contract", 0.0), "ms"),
        "contracts.first_best_contract_ms": (ms.get("first_best_contract", 0.0), "ms"),
        "numerics.lp_calls": (calls.get("linprog", 0.0), "count"),
        "numerics.lp_vars": (counts.get("lp_vars", 0.0), "count"),
        "numerics.lp_rows": (counts.get("lp_rows", 0.0), "count"),
        "numerics.linprog_ms": (ms.get("linprog", 0.0), "ms"),
        "numerics.solve_lp_overhead_ms":
            (ms.get("solve_lp", 0.0) - ms.get("linprog", 0.0), "ms"),
        "oracle.simplex_grid_ms": (ms.get("simplex_grid", 0.0), "ms"),
        "oracle.grid_points": (counts.get("grid_points", 0.0), "count"),
        "oracle.agent_best_response_self_ms":
            (self_ms.get("agent_best_response", 0.0), "ms"),
        "orders.cone_compare_ms": (ms.get("cone_compare", 0.0), "ms"),
        "orders.colspace_compare_ms": (ms.get("colspace_compare", 0.0), "ms"),
        "orders.binary_k_compare_ms": (ms.get("binary_k_compare", 0.0), "ms"),
        "experiments.blackwell_compare_ms": (ms.get("blackwell_compare", 0.0), "ms"),
        "cli.self_ms": (self_ms.get("cli", 0.0), "ms"),
    }
