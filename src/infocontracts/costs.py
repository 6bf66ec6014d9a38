"""Posterior-separable information costs and their marginal-cost vectors.

A cost assigns a convex price ``c`` to each posterior belief, normalized to
zero at the prior, and the cost of a posterior distribution is the
probability-weighted sum of prices.  The marginal-cost map returns the
gradient of ``c`` pinned down by the normalization ``mu . grad(mu) = c(mu)``,
so each gradient encodes the full supporting hyperplane of ``c`` at ``mu``
(its values at the vertices of the simplex).

Gradients may carry ``+/-inf`` entries at boundary beliefs; operations that
cannot consume extended reals raise typed errors instead of propagating NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundaryMarginalCostError, DimensionMismatchError, InputError
from .experiments import Belief, PosteriorDistribution

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PosteriorCost:
    """A pluggable posterior cost: price map, normalized gradient, flags.

    ``value`` maps a belief vector to an extended real; ``gradient`` maps an
    interior (or, for boundary-finite costs, any) belief vector to the
    normalized gradient.  The two flags describe strict convexity and
    whether the slope blows up at the simplex boundary.

    ``kind`` and ``params`` label the prices for serialization and for the
    oracle: ``kind == "entropy"`` with a ``log_base`` param promises the
    Shannon prices of :func:`entropy_cost` in that base, and the oracle
    solves such a cost by its entropy route, reading ``value`` only at the
    prior; ``kind == "quadratic"`` with a ``scale`` param promises the prices
    of :func:`quadratic_cost`, which its quadratic route prices in closed
    form.
    """

    kind: str
    prior: Belief
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strictly_convex: bool
    infinite_boundary_slope: bool
    value_batch: Callable[[np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def value_at(self, belief) -> float:
        return float(self.value(_probs(belief, self.prior.n_states)))

    def gradient_at(self, belief) -> np.ndarray:
        return np.asarray(self.gradient(_probs(belief, self.prior.n_states)), dtype=float)

    def value_many(self, points: np.ndarray) -> np.ndarray:
        """Price evaluation over rows of ``points``, vectorized when the
        cost supplies a batch implementation."""
        points = np.asarray(points, dtype=float)
        if self.value_batch is not None:
            return np.asarray(self.value_batch(points), dtype=float)
        return np.array([self.value(p) for p in points])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "prior": self.prior.probs.tolist(), **self.params}


def _probs(belief, n: int) -> np.ndarray:
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, dtype=float)
    if probs.size != n:
        raise DimensionMismatchError(f"belief has {probs.size} states, cost expects {n}")
    return probs


def _require_interior_prior(prior: Belief) -> Belief:
    if not isinstance(prior, Belief):
        prior = Belief(prior)
    if not prior.is_interior():
        raise InputError("cost functions must be anchored at an interior prior")
    return prior


def entropy_cost(prior, log_base: float = math.e) -> PosteriorCost:
    """Entropy-reduction cost: price equals the entropy gap to the prior.

    ``c(mu) = H(prior) - H(mu)`` with Shannon entropy in base ``log_base``
    (natural log by default).  The normalized gradient is
    ``log(mu_n) + H(prior)``, with ``-inf`` entries at boundary beliefs.
    """
    prior = _require_interior_prior(prior)
    if log_base <= 1.0:
        raise InputError("log_base must exceed 1")
    scale = 1.0 / math.log(log_base)

    def entropy(p: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p), 0.0)
        return -float(terms.sum())

    h0 = entropy(prior.probs)

    def value(p: np.ndarray) -> float:
        return scale * (h0 - entropy(p))

    def gradient(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return scale * (np.log(p) + h0)

    def value_batch(points: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(points > 0.0, points * np.log(points), 0.0)
        return scale * (h0 + terms.sum(axis=1))

    return PosteriorCost(
        kind="entropy", prior=prior, value=value, gradient=gradient,
        strictly_convex=True, infinite_boundary_slope=True,
        value_batch=value_batch, params={"log_base": log_base},
    )


def quadratic_cost(prior, scale: float = 1.0) -> PosteriorCost:
    """Squared-distance cost ``c(mu) = scale * ||mu - prior||^2``.

    Smooth on the whole simplex with bounded slope, so it admits optimal
    boundary posteriors; used to exercise the corner-solution machinery.
    """
    prior = _require_interior_prior(prior)
    if scale <= 0.0:
        raise InputError("scale must be positive")
    anchor = prior.probs

    def value(p: np.ndarray) -> float:
        return scale * float(np.sum((p - anchor) ** 2))

    def gradient(p: np.ndarray) -> np.ndarray:
        raw = 2.0 * scale * (p - anchor)
        return raw + (value(p) - p @ raw)

    def value_batch(points: np.ndarray) -> np.ndarray:
        return scale * np.sum((points - anchor[None, :]) ** 2, axis=1)

    return PosteriorCost(
        kind="quadratic", prior=prior, value=value, gradient=gradient,
        strictly_convex=True, infinite_boundary_slope=False,
        value_batch=value_batch, params={"scale": scale},
    )


def cost_from_dict(data: dict) -> PosteriorCost:
    """Build a cost from its JSON form {"kind", "prior", "scale"?, "log_base"?}."""
    kind = data.get("kind")
    if "prior" not in data:
        raise InputError("cost JSON needs a 'prior'")
    prior = Belief(data["prior"])
    if kind == "entropy":
        return entropy_cost(prior, log_base=data.get("log_base", math.e))
    if kind == "quadratic":
        return quadratic_cost(prior, scale=data.get("scale", 1.0))
    raise InputError(f"unknown cost kind {kind!r}; expected 'entropy' or 'quadratic'")


def custom_cost(prior, value, gradient, *, kind: str = "custom",
                strictly_convex: bool, infinite_boundary_slope: bool,
                validate: bool = True, rng=None) -> PosteriorCost:
    """Register a user-supplied posterior cost.

    When ``validate`` is set, the zero-at-prior, normalization, and
    convexity requirements are spot-checked on random interior beliefs
    before the cost is accepted.
    """
    prior = _require_interior_prior(prior)
    cost = PosteriorCost(
        kind=kind, prior=prior, value=value, gradient=gradient,
        strictly_convex=strictly_convex,
        infinite_boundary_slope=infinite_boundary_slope,
    )
    if validate:
        _validate_cost(cost, rng=rng)
    return cost


def _validate_cost(cost: PosteriorCost, samples: int = 64, rng=None) -> None:
    rng = np.random.default_rng(0) if rng is None else rng
    n = cost.prior.n_states
    if abs(cost.value_at(cost.prior)) > NORMALIZATION_TOL:
        raise InputError("cost must be zero at its prior")
    draws = rng.dirichlet(np.ones(n), size=(samples, 3))
    for mu, mu2, _ in draws:
        c = cost.value_at(mu)
        if c < -NORMALIZATION_TOL:
            raise InputError("cost must be nonnegative on interior beliefs")
        grad = cost.gradient_at(mu)
        if np.all(np.isfinite(grad)) and abs(mu @ grad - c) > NORMALIZATION_TOL * max(1.0, abs(c)):
            raise InputError("gradient violates the normalization mu . grad = c(mu)")
        alpha = rng.uniform(0.1, 0.9)
        mid = alpha * mu + (1 - alpha) * mu2
        if cost.value_at(mid) > alpha * c + (1 - alpha) * cost.value_at(mu2) + NORMALIZATION_TOL:
            raise InputError("cost fails convexity on a sampled segment")


def marginal_cost_matrix(cost: PosteriorCost, d: PosteriorDistribution) -> np.ndarray:
    """The read-only N x K matrix whose k-th column is the normalized
    gradient at the k-th support posterior.

    Boundary posteriors are rejected outright when the cost's slope blows up
    at the boundary: no finite marginal-cost column exists there and such
    posteriors can never be part of an optimal learning choice.
    """
    if d.n_states != cost.prior.n_states:
        raise DimensionMismatchError("distribution and cost live on different state spaces")
    columns = []
    for belief in d.beliefs:
        if not belief.is_interior() and cost.infinite_boundary_slope:
            raise BoundaryMarginalCostError(
                f"posterior {belief} sits on the simplex boundary and the "
                f"'{cost.kind}' cost has unbounded slope there"
            )
        columns.append(cost.gradient_at(belief))
    matrix = np.column_stack(columns)
    matrix.setflags(write=False)
    return matrix


def total_cost(cost: PosteriorCost, d: PosteriorDistribution) -> float:
    """Probability-weighted sum of prices; ``+inf`` propagates."""
    if d.n_states != cost.prior.n_states:
        raise DimensionMismatchError("distribution and cost live on different state spaces")
    total = 0.0
    for belief, weight in d.support:
        price = cost.value_at(belief)
        if math.isinf(price):
            return math.inf
        total += weight * price
    return total
