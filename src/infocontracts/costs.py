"""Posterior-separable information costs and their marginal-cost vectors.

A cost assigns a convex price ``c`` to each posterior belief, normalized to
zero at the prior, and the cost of a posterior distribution is the
probability-weighted sum of prices.  The marginal-cost map returns the
gradient of ``c`` pinned down by the normalization ``mu . grad(mu) = c(mu)``,
so each gradient encodes the full supporting hyperplane of ``c`` at ``mu``
(its values at the vertices of the simplex).  Beliefs lie along the last
axis: one belief or rows of them, so a whole target is priced in one call.

Gradients may carry ``+/-inf`` entries at boundary beliefs; operations that
cannot consume extended reals raise typed errors instead of propagating NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundaryMarginalCostError, DimensionMismatchError, InputError
from .experiments import INTERIOR_THRESHOLD, Belief, PosteriorDistribution

NORMALIZATION_TOL = 1e-9
# custom_cost spot-checks VALIDATION_SAMPLES random segments, seeded.
VALIDATION_SAMPLES = 64
VALIDATION_SEED = 0


@dataclass(frozen=True, eq=False)
class PosteriorCost:
    """A pluggable posterior cost: price map, normalized gradient, flags.

    ``value`` and ``gradient`` map beliefs along the last axis: one belief
    ``(N,)`` to its extended-real price and its normalized gradient
    ``(N,)``, rows ``(K, N)`` to ``K`` prices and ``K x N`` gradients
    (interior beliefs, or any for boundary-finite costs).  The two flags
    describe strict convexity and whether the slope blows up at the
    simplex boundary.

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
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    strictly_convex: bool
    infinite_boundary_slope: bool
    params: dict = field(default_factory=dict)

    def value_at(self, belief) -> float:
        return float(self.value(_probs(belief, self.prior.n_states)))

    def gradient_at(self, belief) -> np.ndarray:
        return np.asarray(self.gradient(_probs(belief, self.prior.n_states)), dtype=float)

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
    if not (math.isfinite(log_base) and log_base > 1.0):
        raise InputError(f"log_base must be finite and exceed 1, not {log_base}")
    scale = 1.0 / math.log(log_base)
    h0 = -float(np.sum(prior.probs * np.log(prior.probs)))

    def value(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p), 0.0)
        return scale * (h0 + terms.sum(axis=-1))

    def gradient(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return scale * (np.log(p) + h0)

    return PosteriorCost(
        kind="entropy", prior=prior, value=value, gradient=gradient,
        strictly_convex=True, infinite_boundary_slope=True, params={"log_base": log_base},
    )


def quadratic_cost(prior, scale: float = 1.0) -> PosteriorCost:
    """Squared-distance cost ``c(mu) = scale * ||mu - prior||^2``.

    Smooth on the whole simplex with bounded slope, so it admits optimal
    boundary posteriors; used to exercise the corner-solution machinery.
    """
    prior = _require_interior_prior(prior)
    if not (math.isfinite(scale) and scale > 0.0):
        raise InputError(f"scale must be finite and positive, not {scale}")
    anchor = prior.probs

    def value(p: np.ndarray) -> np.ndarray:
        return scale * np.sum((p - anchor) ** 2, axis=-1)

    def gradient(p: np.ndarray) -> np.ndarray:
        raw = 2.0 * scale * (p - anchor)
        return raw + np.expand_dims(value(p) - np.sum(p * raw, axis=-1), -1)

    return PosteriorCost(
        kind="quadratic", prior=prior, value=value, gradient=gradient,
        strictly_convex=True, infinite_boundary_slope=False, params={"scale": scale},
    )


def cost_from_dict(data: dict) -> PosteriorCost:
    """Build a cost from its JSON form {"kind", "prior", "scale"?, "log_base"?}."""
    if not isinstance(data, dict):
        raise InputError(f"cost JSON must be an object, not {type(data).__name__}")
    kind = data.get("kind")
    if "prior" not in data:
        raise InputError("cost JSON needs a 'prior'")
    prior = Belief(data["prior"])
    if kind == "entropy":
        return entropy_cost(prior, log_base=data.get("log_base", math.e))
    if kind == "quadratic":
        return quadratic_cost(prior, scale=data.get("scale", 1.0))
    raise InputError(f"unknown cost kind {kind!r}; expected 'entropy' or 'quadratic'")


def custom_cost(prior, value, gradient, *, strictly_convex: bool,
                infinite_boundary_slope: bool, validate: bool = True) -> PosteriorCost:
    """Register a user-supplied posterior cost of kind ``"custom"``.

    ``value`` and ``gradient`` map one belief; the cost applies them to
    each row.  When ``validate`` is set, the zero-at-prior, normalization,
    and convexity requirements are spot-checked on random interior beliefs
    before the cost is accepted.
    """
    prior = _require_interior_prior(prior)
    cost = PosteriorCost(
        kind="custom", prior=prior, value=_over_rows(value), gradient=_over_rows(gradient),
        strictly_convex=strictly_convex,
        infinite_boundary_slope=infinite_boundary_slope,
    )
    if validate:
        _validate_cost(cost)
    return cost


def _over_rows(f: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], np.ndarray]:
    """A map of one belief, applied to each belief along the last axis."""
    return lambda p: np.apply_along_axis(lambda row: np.asarray(f(row), dtype=float), -1, p)


def _validate_cost(cost: PosteriorCost) -> None:
    rng = np.random.default_rng(VALIDATION_SEED)
    if abs(cost.value_at(cost.prior)) > NORMALIZATION_TOL:
        raise InputError("cost must be zero at its prior")
    draws = rng.dirichlet(np.ones(cost.prior.n_states), size=(VALIDATION_SAMPLES, 3))
    mu, mu2 = draws[:, 0], draws[:, 1]
    c = cost.value(mu)
    if np.any(c < -NORMALIZATION_TOL):
        raise InputError("cost must be nonnegative on interior beliefs")
    grad = cost.gradient(mu)
    finite = np.isfinite(grad).all(axis=1)
    slack = np.abs(np.sum(mu[finite] * grad[finite], axis=1) - c[finite])
    if np.any(slack > NORMALIZATION_TOL * np.maximum(1.0, np.abs(c[finite]))):
        raise InputError("gradient violates the normalization mu . grad = c(mu)")
    alpha = rng.uniform(0.1, 0.9, size=VALIDATION_SAMPLES)
    mid = alpha[:, None] * mu + (1 - alpha[:, None]) * mu2
    if np.any(cost.value(mid) > alpha * c + (1 - alpha) * cost.value(mu2) + NORMALIZATION_TOL):
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
    posts = d.posterior_matrix()
    if cost.infinite_boundary_slope:
        boundary = np.flatnonzero((posts < INTERIOR_THRESHOLD).any(axis=0))
        if boundary.size:
            raise BoundaryMarginalCostError(
                f"posterior {Belief(posts[:, boundary[0]])} sits on the simplex boundary "
                f"and the '{cost.kind}' cost has unbounded slope there"
            )
    matrix = np.asarray(cost.gradient(posts.T), dtype=float).T
    matrix.setflags(write=False)
    return matrix


def total_cost(cost: PosteriorCost, d: PosteriorDistribution) -> float:
    """Probability-weighted sum of prices; ``+inf`` if any price is infinite."""
    if d.n_states != cost.prior.n_states:
        raise DimensionMismatchError("distribution and cost live on different state spaces")
    prices = cost.value(d.posterior_matrix().T)
    if np.isinf(prices).any():
        return math.inf
    return float(d.weights @ prices)
