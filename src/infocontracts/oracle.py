"""Independent agent-side solver used to cross-check contracts end to end.

Given a contract, the agent faces a standard flexible-learning problem:
pick any Bayes-plausible distribution of posteriors to maximize expected
payment net of the information cost.  Its value is the upper concave
envelope of the net value at the prior (concavification, Kamenica &
Gentzkow 2011).  This module solves that problem from scratch on a dense
belief grid: evaluate the net payoff of the best report at every grid
belief, then find the best mean-preserving mixture of grid beliefs by LP.
No pseudo-inverse, no first-order condition: agreement with the synthesis
machinery is therefore a genuine two-route check.

The envelope at the prior is supported by at most N + 1 beliefs, so the
grid LP is solved by column generation.  A restricted LP runs over a small
active set of grid beliefs: the prior, the target's posteriors, the extra
beliefs of the grid request, the simplex vertices and the highest-value
beliefs.  Its dual is a plane over the simplex; every grid belief is priced
against it, the worst violators join the active set, and the loop repeats
until no grid value exceeds the plane by more than ``PRICING_TOL``.  By
weak duality the restricted optimum is then the optimum over the whole
grid, to that tolerance.

The grid always includes the prior and, when supplied, the target's
posteriors, so a prescribed target is exactly representable and any
reported optimality gap measures incentives, not discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contracts import Contract
from .costs import PosteriorCost
from .errors import DimensionMismatchError, InputError, SolverFailureError
from .experiments import Belief, Experiment, PosteriorDistribution
from .numerics import LpProblem, LpStatus, solve_lp

DEFAULT_RESOLUTION = {2: 2001, 3: 201}
MIN_RESOLUTION = 101
SUPPORT_TOL = 1e-10
# Column generation stops once no grid value exceeds the dual plane by more
# than PRICING_TOL times max(1, largest |value|).
PRICING_TOL = 1e-10
# Grid beliefs added per pricing round, and highest-value beliefs in the
# starting active set.
PRICING_BATCH = 32


@dataclass(frozen=True)
class GridSpec:
    """Belief-grid request: points per axis plus extra beliefs to include."""

    resolution: int | None = None
    augment: tuple = ()

    def points_per_axis(self, n_states: int) -> int:
        resolution = self.resolution
        if resolution is None:
            try:
                resolution = DEFAULT_RESOLUTION[n_states]
            except KeyError:
                raise InputError(f"no grid default for {n_states} states") from None
        if resolution < MIN_RESOLUTION:
            raise InputError(f"grid resolution must be at least {MIN_RESOLUTION} points per axis")
        return int(resolution)

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "augment": [np.asarray(b.probs if isinstance(b, Belief) else b).tolist()
                        for b in self.augment],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(resolution=data.get("resolution"),
                   augment=tuple(data.get("augment", ())))


def simplex_grid(n_states: int, points_per_axis: int) -> np.ndarray:
    """Uniform grid on the belief simplex, vertices included."""
    steps = points_per_axis - 1
    if n_states == 2:
        t = np.linspace(0.0, 1.0, points_per_axis)
        return np.column_stack([1.0 - t, t])
    if n_states == 3:
        # Rows (i, j, steps - i - j) for i = 0..steps, then j = 0..steps - i.
        counts = np.arange(steps + 1, 0, -1)
        i = np.repeat(np.arange(steps + 1), counts)
        j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.column_stack([i, j, steps - i - j]) / steps
    raise InputError("the best-response solver supports 2 or 3 states only")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Grid optimum of the agent's problem and, if a target was supplied,
    how far that target falls short of it."""

    optimal_value: float
    support_beliefs: tuple[Belief, ...]
    support_weights: np.ndarray
    target_value: float | None
    gap: float | None
    grid: GridSpec
    n_grid_points: int
    lp_columns: int
    pricing_rounds: int

    def to_dict(self) -> dict:
        return {
            "optimal_value": self.optimal_value,
            "support": [b.probs.tolist() for b in self.support_beliefs],
            "weights": self.support_weights.tolist(),
            "target_value": self.target_value,
            "gap": self.gap,
            "n_grid_points": self.n_grid_points,
            "lp_columns": self.lp_columns,
            "pricing_rounds": self.pricing_rounds,
            "grid": self.grid.to_dict(),
        }


def _net_values(points: np.ndarray, utilities: np.ndarray, cost: PosteriorCost) -> np.ndarray:
    payoff = points @ utilities
    return payoff.max(axis=1) - cost.value_many(points)


class _Envelope(NamedTuple):
    """Outcome of column generation: the final active grid indices, the
    restricted LP's weights on them, the dual plane (``[belief, 1] @ plane``
    lies above every grid value to ``PRICING_TOL``) and the rounds run."""

    active: np.ndarray
    weights: np.ndarray
    plane: np.ndarray
    rounds: int


def _concavify(points: np.ndarray, values: np.ndarray, prior: np.ndarray,
               start: np.ndarray) -> _Envelope:
    """Maximize ``values @ w`` over ``w >= 0`` with ``points.T @ w = prior``
    and ``sum(w) = 1`` by column generation from the ``start`` indices,
    which must hold a belief equal to the prior so that every restricted LP
    is feasible.  Each round adds at least one new column, so the loop ends."""
    lifted = np.column_stack([points, np.ones(points.shape[0])])
    b_eq = np.append(prior, 1.0)
    tol = PRICING_TOL * max(1.0, float(np.abs(values).max()))
    active = np.unique(start)
    rounds = 0
    while True:
        rounds += 1
        sol = solve_lp(LpProblem(c=-values[active], a_eq=lifted[active].T, b_eq=b_eq,
                                 bounds=(0, None)))
        if sol.status is not LpStatus.OPTIMAL:
            raise SolverFailureError(f"best-response LP did not resolve: {sol.message}")
        # HiGHS's equality marginals y satisfy values + lifted @ y <= 0 on
        # the active set, so -y is the plane the envelope lies under.
        plane = -sol.dual_eq
        excess = values - lifted @ plane
        excess[active] = -np.inf
        entering = np.flatnonzero(excess > tol)
        if entering.size == 0:
            return _Envelope(active, sol.x, plane, rounds)
        if entering.size > PRICING_BATCH:
            entering = entering[np.argpartition(excess[entering], -PRICING_BATCH)[-PRICING_BATCH:]]
        active = np.concatenate([active, entering])


def agent_best_response(e_p: Experiment, t: Contract, cost: PosteriorCost,
                        prior: Belief, grid: GridSpec | None = None,
                        target: PosteriorDistribution | None = None) -> OracleResult:
    """Solve the agent's learning problem on a belief grid.

    Builds the net value of the best report at every grid belief and
    maximizes its expectation over grid distributions averaging back to the
    prior (an LP, solved by column generation).  Returns the achieving
    support.
    """
    n = e_p.n_states
    if prior.n_states != n:
        raise DimensionMismatchError("prior does not match the experiment")
    if t.payments.shape[0] != e_p.n_realizations:
        raise DimensionMismatchError("contract rows do not match the experiment realizations")
    grid = grid or GridSpec()
    base = simplex_grid(n, grid.points_per_axis(n))
    points = [base, prior.probs[None, :]]
    if target is not None:
        points.append(target.posterior_matrix().T)
    for extra in grid.augment:
        probs = extra.probs if isinstance(extra, Belief) else np.asarray(extra, dtype=float)
        points.append(probs[None, :])
    points = np.vstack(points)

    utilities = e_p.kernel @ t.payments
    values = _net_values(points, utilities, cost)
    finite = np.isfinite(values)
    # The prior, target and augment rows follow the base grid.  The prior's
    # row keeps every restricted LP feasible; where a convex price is
    # infinite at the prior, no mixture of finite-price beliefs reaches it.
    if not finite[base.shape[0]]:
        raise InputError("the cost is infinite at the prior")
    seeded = np.zeros(points.shape[0], dtype=bool)
    seeded[base.shape[0]:] = True
    seeded[:base.shape[0]] = base.max(axis=1) == 1.0        # simplex vertices
    points, values = points[finite], values[finite]
    top = min(PRICING_BATCH, values.size)
    start = np.concatenate([np.flatnonzero(seeded[finite]),
                            np.argpartition(values, -top)[-top:]])
    envelope = _concavify(points, values, prior.probs, start)
    weights = envelope.weights
    optimal = float(values[envelope.active] @ weights)

    keep = weights > SUPPORT_TOL
    support = tuple(Belief(p) for p in points[envelope.active[keep]])
    support_weights = weights[keep] / weights[keep].sum()

    target_value = gap = None
    if target is not None:
        interim = target.posterior_matrix().T @ utilities      # K x K
        target_value = float(
            target.weights @ (np.einsum("kk->k", interim) - cost.value_many(target.posterior_matrix().T))
        )
        gap = optimal - target_value
    return OracleResult(
        optimal_value=optimal, support_beliefs=support,
        support_weights=support_weights, target_value=target_value, gap=gap,
        grid=grid, n_grid_points=points.shape[0],
        lp_columns=int(envelope.active.size), pricing_rounds=envelope.rounds,
    )


def verify_contract(e_p: Experiment, target: PosteriorDistribution,
                    cost: PosteriorCost, t: Contract, tol: float = 1e-5,
                    grid: GridSpec | None = None) -> bool:
    """True iff the prescribed target comes within ``tol`` of the agent's
    grid optimum under the contract (honest reports at its own posteriors)."""
    result = agent_best_response(e_p, t, cost, prior=cost.prior, grid=grid, target=target)
    return bool(result.gap <= tol)
