"""Independent agent-side solver used to cross-check contracts end to end.

Given a contract, the agent faces a standard flexible-learning problem:
pick any Bayes-plausible distribution of posteriors to maximize expected
payment net of the information cost.  Its value is the upper concave
envelope of the net value at the prior (concavification, Kamenica &
Gentzkow 2011).  No pseudo-inverse, no first-order condition: agreement
with the synthesis machinery is therefore a genuine two-route check.
Two routes solve the problem.

Costs built by :func:`~infocontracts.costs.entropy_cost` take an exact
route at any number of states.  The problem is then rational inattention
(Matejka & McKay 2015): with ``u = kernel @ T`` and ``s = 1 / ln(log_base)``
the agent's value is the maximum over report probabilities ``q`` in the
simplex of the concave ``f(q) = s sum_n mu0_n log z_n``, where
``z = exp(u / s) @ q``.  Blahut-Arimoto steps ``q <- q * D(q)``, with
``D_x = sum_n mu0_n exp(u_nx / s) / z_n``, raise ``f`` monotonically; an
active-set Newton step on the support of ``q`` accelerates them.  By
Jensen, ``f(q*) <= f(q) + s log max_x D_x``, and the solve stops once that
bound is within ``CERTIFICATE_TOL`` of ``f``.  ``optimal_value`` is the
upper bound, so a passing ``verify_contract`` is sound.  The support is the
channel's posteriors ``mu_x = mu0 * exp(u_x / s) / (z D_x)`` at weights
``q_x D_x``: they average to the prior exactly and are worth at least
``f(q)``, the lower end of the reported bracket.

Every other cost is solved at 2 or 3 states on a dense belief grid:
evaluate the net payoff of the best report at every grid belief, then find
the best mean-preserving mixture of grid beliefs by LP.  The envelope at the
prior is supported by at most N + 1 beliefs, so the grid LP is solved by
column generation.  A restricted LP runs over a small active set of grid
beliefs: the prior, the target's posteriors, the extra beliefs of the grid
request, the simplex vertices and the highest-value beliefs.  Its dual is a
plane over the simplex; every grid belief is priced against it, the worst
violators join the active set, and the loop repeats until no grid value
exceeds the plane by more than ``PRICING_TOL``.  By weak duality the
restricted optimum is then the optimum over the whole grid, to that
tolerance; it is a lower bound on the agent's optimum over all beliefs.
The grid always includes the prior and, when supplied, the target's
posteriors, so a prescribed target is exactly representable and any
reported optimality gap measures incentives, not discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .contracts import Contract
from .costs import PosteriorCost
from .errors import DimensionMismatchError, InputError, SolverFailureError
from .experiments import Belief, Experiment, PosteriorDistribution
from .numerics import solve_lp

DEFAULT_RESOLUTION = {2: 2001, 3: 201}
MIN_RESOLUTION = 101
SUPPORT_TOL = 1e-10
# Column generation stops once no grid value exceeds the dual plane by more
# than PRICING_TOL times max(1, largest |value|).
PRICING_TOL = 1e-10
# Grid beliefs added per pricing round, and highest-value beliefs in the
# starting active set.
PRICING_BATCH = 32
# The entropy route stops once its upper bound exceeds f(q) by at most
# CERTIFICATE_TOL times max(1, |f(q)|), and fails past MAX_ITERATIONS.
CERTIFICATE_TOL = 1e-12
MAX_ITERATIONS = 500
# A report leaves the support once its probability falls below DROP_TOL
# while D_x < 1.  Line searches halve their step down to MIN_STEP and
# accept a Newton step that gains ARMIJO times its predicted gain.
DROP_TOL = 1e-13
MIN_STEP = 1e-10
ARMIJO = 1e-4
# verify_contract passes a target within VERIFY_TOL of the agent's optimum.
VERIFY_TOL = 1e-5


@dataclass(frozen=True)
class GridSpec:
    """Belief-grid request: points per axis plus extra beliefs to include."""

    resolution: int | None = None
    augment: tuple = ()

    def __post_init__(self):
        if self.resolution is not None and self.resolution < MIN_RESOLUTION:
            raise InputError(f"grid resolution must be at least {MIN_RESOLUTION} points per axis")

    def points_per_axis(self, n_states: int) -> int:
        if self.resolution is not None:
            return int(self.resolution)
        try:
            return DEFAULT_RESOLUTION[n_states]
        except KeyError:
            raise InputError(f"no grid default for {n_states} states") from None

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
    """The agent's optimum under a contract and, if a target was supplied,
    how far that target falls short of it.

    ``route`` names the solver that ran.  On the ``"entropy"`` route,
    ``bracket`` is ``(f(q), optimal_value)``: the value of the returned
    channel and the certified upper bound; no grid is built, so ``grid`` is None and the grid
    counts are 0.  On the ``"grid"`` route ``optimal_value`` is the grid
    optimum, a lower bound on the agent's optimum over all beliefs, and
    ``bracket`` is None.
    """

    optimal_value: float
    support_beliefs: tuple[Belief, ...]
    support_weights: np.ndarray
    target_value: float | None
    gap: float | None
    route: str
    grid: GridSpec | None = None
    n_grid_points: int = 0
    lp_columns: int = 0
    pricing_rounds: int = 0
    bracket: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "optimal_value": self.optimal_value,
            "bracket": None if self.bracket is None else list(self.bracket),
            "support": [b.probs.tolist() for b in self.support_beliefs],
            "weights": self.support_weights.tolist(),
            "target_value": self.target_value,
            "gap": self.gap,
            "n_grid_points": self.n_grid_points,
            "lp_columns": self.lp_columns,
            "pricing_rounds": self.pricing_rounds,
            "grid": None if self.grid is None else self.grid.to_dict(),
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
        try:
            weights, duals = solve_lp(-values[active], lifted[active].T, b_eq)
        except SolverFailureError as exc:
            raise SolverFailureError(f"best-response LP did not resolve: {exc}") from exc
        # HiGHS's equality marginals y satisfy values + lifted @ y <= 0 on
        # the active set, so -y is the plane the envelope lies under.
        plane = -duals
        excess = values - lifted @ plane
        excess[active] = -np.inf
        entering = np.flatnonzero(excess > tol)
        if entering.size == 0:
            return _Envelope(active, weights, plane, rounds)
        if entering.size > PRICING_BATCH:
            entering = entering[np.argpartition(excess[entering], -PRICING_BATCH)[-PRICING_BATCH:]]
        active = np.concatenate([active, entering])


def _entropy_scale(cost: PosteriorCost) -> float | None:
    """``1 / ln(log_base)`` for a cost labelled as ``entropy_cost`` labels
    it, else None.  The label is trusted: the route prices only the prior."""
    if cost.kind == "entropy" and "log_base" in cost.params:
        return 1.0 / math.log(cost.params["log_base"])
    return None


class _Channel(NamedTuple):
    """Outcome of the entropy route: the channel's posteriors (rows) and
    weights, ``f(q)`` and its certified upper bound."""

    posteriors: np.ndarray
    weights: np.ndarray
    value: float
    upper: float


def _rational_inattention(utilities: np.ndarray, prior: np.ndarray, scale: float) -> _Channel:
    """Maximize ``f(q) = scale * sum_n prior_n log (exp(utilities / scale) @ q)_n``
    over the simplex until the Jensen bound certifies ``f`` to
    ``CERTIFICATE_TOL``.  Works in the log domain, each row shifted by its
    maximum; states the prior rules out play no part."""
    charged = prior > 0.0
    mu0 = prior[charged]
    scaled = utilities[charged] / scale
    shift = scaled.max(axis=1)
    lik = np.exp(scaled - shift[:, None])
    base = scale * float(mu0 @ shift)

    def value(q: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            return base + scale * float(mu0 @ np.log(lik @ q))

    def evaluate(q: np.ndarray):
        z = lik @ q
        return z, (mu0 / z) @ lik, value(q)

    q = np.full(lik.shape[1], 1.0 / lik.shape[1])
    for _ in range(MAX_ITERATIONS):
        z, d, f = evaluate(q)
        worst = int(np.argmax(d))
        bound = scale * max(0.0, math.log(d[worst]))
        if bound <= CERTIFICATE_TOL * max(1.0, abs(f)):
            on = q > 0.0
            posteriors = np.zeros((int(on.sum()), prior.size))
            posteriors[:, charged] = (lik[:, on] * (mu0 / z)[:, None]).T / d[on, None]
            return _Channel(posteriors, q[on] * d[on], f, f + bound)
        if q[worst] == 0.0:
            q = _readmit(q, worst, value, f)
            continue
        q = q * d                                   # Blahut-Arimoto step
        q /= q.sum()
        z, d, f = evaluate(q)
        dropped = (q < DROP_TOL) & (d < 1.0)
        if dropped.any():
            q[dropped] = 0.0
            q /= q.sum()
            z, d, f = evaluate(q)
        q = _newton_step(q, lik, mu0, z, d, f, value, scale)
    raise SolverFailureError(
        f"the entropy best response was not certified within {MAX_ITERATIONS} iterations")


def _readmit(q: np.ndarray, report: int, value, f: float) -> np.ndarray:
    """Move weight to a report off the support whose ``D_x`` exceeds 1,
    which makes ``e_x - q`` an ascent direction, halving the step until
    ``f`` rises."""
    direction = -q
    direction[report] += 1.0
    step = 0.5
    while step >= MIN_STEP:
        trial = q + step * direction
        if value(trial) > f:
            return trial
        step *= 0.5
    return q


def _newton_step(q, lik, mu0, z, d, f, value, scale) -> np.ndarray:
    """Newton step for ``f`` on the face of the simplex that holds the
    support of ``q``, from the KKT system for ``sum(q) = 1``, with a
    backtracking line search.  A report the step drives to zero leaves the
    support."""
    on = np.flatnonzero(q > 0.0)
    if on.size < 2:
        return q
    rows = lik[:, on] * (np.sqrt(mu0) / z)[:, None]      # Hessian = -scale * rows' rows
    kkt = np.ones((on.size + 1, on.size + 1))
    kkt[:-1, :-1] = rows.T @ rows
    kkt[-1, -1] = 0.0
    step = np.linalg.lstsq(kkt, np.append(d[on], 0.0), rcond=None)[0][:-1]
    gain = scale * float(d[on] @ step)
    if not gain > 0.0:
        return q
    shrinking = step < 0.0
    limits = -q[on][shrinking] / step[shrinking]
    longest = min(1.0, float(limits.min(initial=np.inf)))
    blocking = on[shrinking][limits <= longest]
    length = longest
    while length >= MIN_STEP:
        trial = q.copy()
        trial[on] += length * step
        if length == longest:
            trial[blocking] = 0.0
        trial = np.maximum(trial, 0.0)
        trial /= trial.sum()
        if value(trial) >= f + ARMIJO * length * gain:
            return trial
        length *= 0.5
    return q


def _merge_coincident(points: np.ndarray, weights: np.ndarray):
    """Pool rows of ``points`` that agree to ``SUPPORT_TOL`` into their
    weighted mean, which keeps the distribution's mean."""
    label = np.arange(len(points))
    for i in range(len(points)):
        for j in range(i):
            if label[j] == j and np.abs(points[i] - points[j]).max() <= SUPPORT_TOL:
                label[i] = j
                break
    _, group = np.unique(label, return_inverse=True)
    mass = np.bincount(group, weights)
    pooled = np.zeros((mass.size, points.shape[1]))
    np.add.at(pooled, group, weights[:, None] * points)
    return pooled / mass[:, None], mass


def _entropy_response(utilities: np.ndarray, cost: PosteriorCost, prior: np.ndarray,
                      scale: float) -> OracleResult:
    channel = _rational_inattention(utilities, prior, scale)
    # f prices information from the agent's prior; the cost's prices are
    # zero at its own prior, so the two differ by the price of the former.
    offset = cost.value_at(prior)
    points, weights = _merge_coincident(channel.posteriors, channel.weights)
    return OracleResult(
        optimal_value=channel.upper - offset, support_beliefs=tuple(Belief(p) for p in points),
        support_weights=weights, target_value=None, gap=None, route="entropy",
        bracket=(channel.value - offset, channel.upper - offset),
    )


def _grid_response(utilities: np.ndarray, cost: PosteriorCost, prior: Belief,
                   grid: GridSpec, target: PosteriorDistribution | None) -> OracleResult:
    n = prior.n_states
    base = simplex_grid(n, grid.points_per_axis(n))
    points = [base, prior.probs[None, :]]
    if target is not None:
        points.append(target.posterior_matrix().T)
    for extra in grid.augment:
        probs = extra.probs if isinstance(extra, Belief) else np.asarray(extra, dtype=float)
        points.append(probs[None, :])
    points = np.vstack(points)

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
    keep = weights > SUPPORT_TOL
    return OracleResult(
        optimal_value=float(values[envelope.active] @ weights),
        support_beliefs=tuple(Belief(p) for p in points[envelope.active[keep]]),
        support_weights=weights[keep] / weights[keep].sum(), target_value=None, gap=None,
        route="grid", grid=grid, n_grid_points=points.shape[0],
        lp_columns=int(envelope.active.size), pricing_rounds=envelope.rounds,
    )


def agent_best_response(e_p: Experiment, t: Contract, cost: PosteriorCost,
                        prior: Belief, grid: GridSpec | None = None,
                        target: PosteriorDistribution | None = None) -> OracleResult:
    """Solve the agent's learning problem under contract ``t``.

    A cost built by ``entropy_cost`` takes the certified
    rational-inattention route at any number of states, and ``grid`` is
    not used.  The route is chosen from the cost's labels (``kind ==
    "entropy"`` with a ``log_base`` param), which promise Shannon prices in
    that base; a cost that carries those labels over other prices is solved
    as if it had the Shannon prices.  Any other cost is solved on the belief grid at 2 or 3
    states: the net value of the best report at every grid belief, and its
    best expectation over grid distributions averaging back to the prior
    (an LP, solved by column generation).  Returns the achieving support
    and, for a target, how far its value falls short of the optimum.
    """
    if prior.n_states != e_p.n_states:
        raise DimensionMismatchError("prior does not match the experiment")
    if t.payments.shape[0] != e_p.n_realizations:
        raise DimensionMismatchError("contract rows do not match the experiment realizations")
    utilities = e_p.kernel @ t.payments
    scale = _entropy_scale(cost)
    if scale is None:
        result = _grid_response(utilities, cost, prior, grid or GridSpec(), target)
    else:
        result = _entropy_response(utilities, cost, prior.probs, scale)
    if target is None:
        return result
    interim = target.posterior_matrix().T @ utilities      # K x K
    target_value = float(
        target.weights @ (np.einsum("kk->k", interim) - cost.value_many(target.posterior_matrix().T))
    )
    return replace(result, target_value=target_value, gap=result.optimal_value - target_value)


def verify_contract(e_p: Experiment, target: PosteriorDistribution,
                    cost: PosteriorCost, t: Contract,
                    grid: GridSpec | None = None) -> bool:
    """True iff the prescribed target comes within ``VERIFY_TOL`` of the
    agent's optimum under the contract (honest reports at its own
    posteriors).

    Under an entropy cost the optimum is the certified upper bound, so a
    pass is sound; on the grid route it is the grid optimum."""
    result = agent_best_response(e_p, t, cost, prior=cost.prior, grid=grid, target=target)
    return bool(result.gap <= VERIFY_TOL)
