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
column-space test.  The multipliers are fitted by nonnegative least squares,
and the verdict is the same per-column residual test as for interior
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import MarginalCostMatrix, PosteriorCost, marginal_cost_matrix, total_cost
from .errors import BoundaryMarginalCostError, DimensionMismatchError, InputError
from .experiments import INTERIOR_THRESHOLD, Experiment, PosteriorDistribution, is_bayes_plausible
from .numerics import (
    RESIDUAL_TOL,
    PseudoInverse,
    matrix_rank,
    nonnegative_fit,
    nonnegative_solve,
    pseudo_inverse,
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
                        rank_tol: float | None = None) -> ImplementabilityReport:
    """Decide implementability of ``target`` under ``e_p`` for ``cost``.

    Interior targets use the column-space test on marginal-cost differences
    (with a full-row-rank fast path); targets with boundary posteriors get
    the corner test of :func:`check_implementable_corner` when the cost's
    slope stays bounded, and are rejected outright when it does not (a
    posterior that rules out a state can then never be optimal).
    """
    return _decide(e_p, target, cost, residual_tol, rank_tol, corner=False)


def check_implementable_corner(e_p: Experiment, target: PosteriorDistribution,
                               cost: PosteriorCost, residual_tol: float = RESIDUAL_TOL,
                               rank_tol: float | None = None) -> ImplementabilityReport:
    """Implementability allowing boundary posteriors (bounded-slope costs).

    Looks for multipliers ``eta >= 0``, supported only on the states each
    posterior rules out, such that the columns of ``nabla - eta`` pass the
    pairwise column-space test.  The multipliers minimize the projection
    residuals in least squares (``eta >= 0``), and the fitted ``eta`` is
    returned as the certificate.  On interior targets every multiplier is
    pinned to zero and the verdict coincides with
    :func:`check_implementable`.
    """
    return _decide(e_p, target, cost, residual_tol, rank_tol, corner=True)


def _decide(e_p, target, cost, residual_tol, rank_tol, corner: bool) -> ImplementabilityReport:
    """The one implementability routine: the full-row-rank fast path, or
    else a fit of the free boundary multipliers (if any) followed by the
    per-column projection-residual test."""
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
    eta = np.zeros(n * k)
    if free.any():
        # vec(C @ (diffs - eta @ D)) = vec(C @ diffs) - kron(D', C) vec(eta),
        # with C = I - P the projector off Col(kernel).
        complement = np.eye(n) - projector
        eta[free] = nonnegative_fit(np.kron(d.T, complement)[:, free],
                                    (complement @ diffs).flatten(order="F"))[0]
    eta = eta.reshape((n, k), order="F")
    adjusted = nabla - eta
    adj_diffs = adjusted @ d
    residuals = np.linalg.norm(adj_diffs - projector @ adj_diffs, axis=0)
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
        # Dominated iff some w >= 0, 1'w = 1 and slack s >= 0 have
        # block @ w - s = column.
        block = matrix[:, others]
        coef = np.block([[block, -np.eye(n)], [np.ones((1, len(others))), np.zeros((1, n))]])
        if nonnegative_solve(coef, np.append(matrix[:, col], 1.0)[:, None]) is not None:
            return False
    return True


def compare_implementable_sets(e_p: Experiment, e_p2: Experiment,
                               rank_tol: float | None = None) -> OrderVerdict:
    """Which experiment can implement a larger set of targets, for every
    admissible cost and prior: decided by column-space containment."""
    verdict = colspace_compare(e_p, e_p2, rank_tol)
    return replace(verdict, order="implementable_sets")
