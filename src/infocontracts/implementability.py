"""Deciding whether a target posterior distribution can be incentivized.

A target is implementable under a contractible experiment iff its
information cost is finite and the column-wise differences of its
marginal-cost matrix lie in the column space of the experiment's kernel
(equivalently, the kernel lets the principal create the marginal
state-dependent utilities the agent's first-order condition needs).

Targets with boundary posteriors are handled by a complementary-slackness
variant: the first-order condition may hold as an inequality on states a
posterior rules out, so nonnegative multipliers supported on those zero
coordinates are subtracted from the marginal-cost columns before the
column-space test.  Feasibility of that system is decided as an LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import MarginalCostMatrix, PosteriorCost, marginal_cost_matrix, total_cost
from .errors import (
    BoundaryMarginalCostError,
    DimensionMismatchError,
    InputError,
    SolverFailureError,
)
from .experiments import INTERIOR_THRESHOLD, Experiment, PosteriorDistribution, is_bayes_plausible
from .numerics import (
    RESIDUAL_TOL,
    LpProblem,
    LpStatus,
    PseudoInverse,
    matrix_rank,
    pseudo_inverse,
    solve_lp,
)
from .orders import OrderVerdict, colspace_compare

# Absolute floor so that vanishing column differences never trip the
# relative residual test on rounding dust.
_RESIDUAL_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ImplementabilityReport:
    """Verdict plus machine-checkable certificates.

    ``residuals[k]`` is the projection residual of the k-th column
    difference (against the last column) outside Col(kernel); empty when the
    full-row-rank fast path fired.  ``lambda_certificate`` reconstructs the
    agent's per-state payoff multiplier for the canonical contract;
    ``eta`` carries the boundary multipliers in corner mode (zero rows on
    interior coordinates by construction).  ``factorization`` and
    ``marginal_costs`` are the kernel's pseudo-inverse and the target's
    marginal-cost matrix the verdict was decided with (None when the target
    was rejected before either was computed), so that contract synthesis
    can reuse them.  ``first_best`` is the target's information cost
    (``+inf`` when it is infinite).
    """

    implementable: bool
    first_best: float
    mode: str                      # "interior" or "corner"
    residuals: np.ndarray
    diff_norms: np.ndarray
    lambda_certificate: np.ndarray | None
    eta: np.ndarray | None
    tolerance: float
    full_row_rank: bool
    reason: str = ""
    factorization: PseudoInverse | None = None
    marginal_costs: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "implementable": self.implementable,
            "mode": self.mode,
            "residuals": np.asarray(self.residuals).tolist(),
            "diff_norms": np.asarray(self.diff_norms).tolist(),
            "lambda": None if self.lambda_certificate is None else self.lambda_certificate.tolist(),
            "eta": None if self.eta is None else self.eta.tolist(),
            "tolerance": self.tolerance,
            "full_row_rank": self.full_row_rank,
            "reason": self.reason,
        }


def _no(reason: str, first_best: float, mode: str, tol: float) -> ImplementabilityReport:
    return ImplementabilityReport(
        implementable=False, first_best=first_best, mode=mode, residuals=np.array([]),
        diff_norms=np.array([]), lambda_certificate=None, eta=None, tolerance=tol,
        full_row_rank=False, reason=reason,
    )


def _check_spaces(e_p: Experiment, target: PosteriorDistribution,
                  cost: PosteriorCost) -> None:
    if e_p.n_states != target.n_states:
        raise DimensionMismatchError("experiment and target live on different state spaces")
    if not is_bayes_plausible(target, cost.prior):
        raise InputError("target must average back to the cost's prior (Bayes plausibility)")


def difference_operator(k: int) -> np.ndarray:
    """``D = [I; -1']`` (K x K-1): ``X @ D`` holds the differences of the
    columns of ``X`` against its last column.  Applied to the agent's
    first-order condition ``kernel @ T_k - lambda = nabla_k`` for every
    report ``k``, it eliminates the free multiplier ``lambda``."""
    return np.vstack([np.eye(k - 1), -np.ones((1, k - 1))])


def _lambda_from(nabla: np.ndarray, projector: np.ndarray) -> np.ndarray:
    # Multiplier of the canonical member of the contract family (free term
    # zero): minus the out-of-column-space component, averaged over columns.
    residual_part = nabla - projector @ nabla
    return -residual_part.mean(axis=1)


def check_implementable(e_p: Experiment, target: PosteriorDistribution,
                        cost: PosteriorCost, residual_tol: float = RESIDUAL_TOL,
                        rank_tol: float | None = None,
                        lp_tol: float | None = None) -> ImplementabilityReport:
    """Decide implementability of ``target`` under ``e_p`` for ``cost``.

    Interior targets use the column-space test on marginal-cost differences
    (with a full-row-rank fast path); targets with boundary posteriors get
    the corner test of :func:`check_implementable_corner` when the cost's
    slope stays bounded, and are rejected outright when it does not (a
    posterior that rules out a state can then never be optimal).
    """
    return _decide(e_p, target, cost, residual_tol, rank_tol, lp_tol, corner=False)


def check_implementable_corner(e_p: Experiment, target: PosteriorDistribution,
                               cost: PosteriorCost, residual_tol: float = RESIDUAL_TOL,
                               rank_tol: float | None = None,
                               lp_tol: float | None = None) -> ImplementabilityReport:
    """Implementability allowing boundary posteriors (bounded-slope costs).

    Looks for multipliers ``eta >= 0``, supported only on the states each
    posterior rules out, such that the columns of ``nabla - eta`` pass the
    pairwise column-space test.  Decided as an LP minimizing the l1 norm of
    the projection residuals; the optimal ``eta`` is returned as the
    certificate.  On interior targets every multiplier is pinned to zero and
    the verdict coincides with :func:`check_implementable`.
    """
    return _decide(e_p, target, cost, residual_tol, rank_tol, lp_tol, corner=True)


def _decide(e_p, target, cost, residual_tol, rank_tol, lp_tol, corner: bool) -> ImplementabilityReport:
    """The one implementability routine.  In order: the full-row-rank fast
    path, the projection-residual test when no multiplier is free, and the
    boundary-multiplier LP otherwise."""
    _check_spaces(e_p, target, cost)
    first_best = total_cost(cost, target)
    if math.isinf(first_best):
        return _no("target has infinite information cost", first_best,
                   "corner" if corner else "interior", residual_tol)
    posterior_matrix = target.posterior_matrix()
    if not corner and np.any(posterior_matrix < INTERIOR_THRESHOLD):
        if cost.infinite_boundary_slope:
            return _no(
                "target includes a boundary posterior but the cost's slope is "
                "unbounded at the boundary, so such learning is never optimal",
                first_best, "interior", residual_tol,
            )
        corner = True
    mode = "corner" if corner else "interior"

    nabla = marginal_cost_matrix(cost, target).matrix   # raises if slope unbounded at boundary
    if corner and not np.all(np.isfinite(nabla)):
        raise BoundaryMarginalCostError(
            "marginal-cost matrix has non-finite entries; the boundary test "
            "needs finite gradients at every target posterior"
        )
    n, k = nabla.shape
    fact = pseudo_inverse(e_p.kernel, rank_tol)
    if fact.rank == n:
        return ImplementabilityReport(
            implementable=True, first_best=first_best, mode=mode, residuals=np.array([]),
            diff_norms=np.array([]), lambda_certificate=np.zeros(n),
            eta=np.zeros((n, k)) if corner else None, tolerance=residual_tol,
            full_row_rank=True, factorization=fact, marginal_costs=nabla,
            reason="full row rank: any finite-cost target is implementable",
        )

    d = difference_operator(k)
    diffs = nabla @ d
    norms = np.linalg.norm(diffs, axis=0)
    projector = fact.projector
    # In corner mode eta may be positive where a posterior rules its state out.
    free = (posterior_matrix < INTERIOR_THRESHOLD).flatten(order="F") & corner
    eta = np.zeros((n, k))
    if free.any():
        eta, ok = _fit_multipliers(projector, diffs, d, free, residual_tol, lp_tol)
    adjusted = nabla - eta
    adj_diffs = adjusted @ d
    residuals = np.linalg.norm(adj_diffs - projector @ adj_diffs, axis=0)
    if not free.any():
        ok = bool(np.all(residuals <= residual_tol * norms + _RESIDUAL_FLOOR))
    reason = ("" if ok else
              "no boundary multipliers can pull the marginal-cost differences "
              "into the kernel's column space" if free.any() else
              "a marginal-cost difference leaves the kernel's column space")
    return ImplementabilityReport(
        implementable=ok, first_best=first_best, mode=mode, residuals=residuals,
        diff_norms=norms, lambda_certificate=_lambda_from(adjusted, projector) if ok else None,
        eta=eta if ok and corner else None, tolerance=residual_tol,
        full_row_rank=False, reason=reason, factorization=fact, marginal_costs=nabla,
    )


def _fit_multipliers(projector, diffs, d, free, residual_tol, lp_tol) -> tuple[np.ndarray, bool]:
    """Boundary-multiplier LP: ``eta >= 0`` on the ``free`` cells (flattened
    column by column) minimizing the l1 norm of the projection residuals of
    the columns of ``diffs - eta @ d``.  Returns the optimal ``eta`` and the
    verdict."""
    n, k = diffs.shape[0], d.shape[0]
    complement = np.eye(n) - projector
    rhs = (complement @ diffs).flatten(order="F")       # stacked per column block
    # vec(C @ eta @ D) = kron(D', C) vec(eta).
    coef = np.kron(d.T, complement)[:, free]
    n_eta, n_rows = coef.shape[1], rhs.size

    # min sum(t) s.t. -t <= rhs - coef @ eta <= t, eta >= 0, t >= 0.
    c_obj = np.concatenate([np.zeros(n_eta), np.ones(n_rows)])
    a_ub = np.block([
        [coef, -np.eye(n_rows)],
        [-coef, -np.eye(n_rows)],
    ])
    b_ub = np.concatenate([rhs, -rhs])
    lp = LpProblem(c=c_obj, a_ub=a_ub, b_ub=b_ub, bounds=(0, None))
    sol = solve_lp(lp) if lp_tol is None else solve_lp(lp, feasibility_tol=lp_tol)
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailureError(f"boundary-multiplier LP did not resolve: {sol.message}")
    eta = np.zeros(n * k)
    eta[free] = sol.x[:n_eta]
    scale = max(1.0, float(np.linalg.norm(diffs, axis=0).max(initial=0.0)))
    return eta.reshape((n, k), order="F"), sol.objective <= residual_tol * scale * max(1, n_rows)


def check_unique_implementable(e_p: Experiment, target: PosteriorDistribution,
                               cost: PosteriorCost, residual_tol: float = RESIDUAL_TOL,
                               rank_tol: float | None = None) -> bool:
    """True iff exactly one optimal learning choice can be induced.

    Requires implementability, strict convexity of the posterior price, and
    linearly independent target posteriors (so only one weighting of them
    averages back to the prior).
    """
    report = check_implementable(e_p, target, cost, residual_tol, rank_tol)
    if not report.implementable:
        return False
    if not cost.strictly_convex:
        return False
    posterior_matrix = target.posterior_matrix()
    return matrix_rank(posterior_matrix, rank_tol) == target.size


def check_no_dominance(nabla, identical_tol: float = 1e-12) -> bool:
    """True iff no marginal-cost column is weakly dominated by a convex
    combination of the columns not identical to it.

    Collections of gradients of a convex price always pass; the test guards
    user-supplied matrices meant to act as marginal-cost matrices.
    """
    matrix = nabla.matrix if isinstance(nabla, MarginalCostMatrix) else np.asarray(nabla, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise InputError("no-dominance test needs finite entries")
    n, k = matrix.shape
    for col in range(k):
        others = [
            j for j in range(k)
            if j != col and not np.allclose(matrix[:, j], matrix[:, col], atol=identical_tol, rtol=0.0)
        ]
        if not others:
            continue
        block = matrix[:, others]
        problem = LpProblem(
            c=np.zeros(len(others)),
            a_ub=-block, b_ub=-matrix[:, col],
            a_eq=np.ones((1, len(others))), b_eq=np.array([1.0]),
            bounds=(0, None),
        )
        sol = solve_lp(problem)
        if sol.status is LpStatus.OPTIMAL:
            return False
        if sol.status is not LpStatus.INFEASIBLE:
            raise InputError(f"dominance LP did not resolve: {sol.message}")
    return True


def compare_implementable_sets(e_p: Experiment, e_p2: Experiment,
                               rank_tol: float | None = None) -> OrderVerdict:
    """Which experiment can implement a larger set of targets, for every
    admissible cost and prior: decided by column-space containment."""
    verdict = colspace_compare(e_p, e_p2, rank_tol)
    return replace(verdict, order="implementable_sets")
