"""Blackwell experiments, beliefs, and Bayes-plausible posterior distributions.

An experiment is an N x M row-stochastic kernel: rows are states, columns
are realizations, entries are conditional probabilities.  Together with an
interior prior it induces a distribution over posterior beliefs, and any
Bayes-plausible posterior distribution can be folded back into a kernel.
All values here are immutable and freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputError
from .numerics import matrix_rank, nonnegative_solve
from .orders import OrderVerdict, assemble_verdict

# Simplex membership slack for beliefs and kernel rows.
SIMPLEX_TOL = 1e-12
# Beliefs with any coordinate below this are treated as boundary beliefs;
# priors must clear it to count as interior.
INTERIOR_THRESHOLD = 1e-9
# Bayes-plausibility verdict tolerance.
BAYES_TOL = 1e-9
# Unconditional realization probabilities at or below this are dropped.
DROP_TOL = 1e-15


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Belief:
    """A probability vector over the N states."""

    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float).reshape(-1)
        if probs.size < 1 or not np.all(np.isfinite(probs)):
            raise InputError("belief must be a finite probability vector")
        if np.any(probs < -SIMPLEX_TOL) or abs(probs.sum() - 1.0) > 1e-12:
            raise InputError(f"belief {probs} is not on the probability simplex")
        object.__setattr__(self, "probs", _frozen(np.clip(probs, 0.0, None)))

    @classmethod
    def uniform(cls, n_states: int) -> "Belief":
        return cls(np.full(n_states, 1.0 / n_states))

    @property
    def n_states(self) -> int:
        return self.probs.size

    def is_interior(self, threshold: float = INTERIOR_THRESHOLD) -> bool:
        return bool(np.all(self.probs >= threshold))

    def to_dict(self) -> dict:
        return {"probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Belief":
        return cls(data["probs"])

    def __repr__(self):
        return f"Belief({np.array2string(self.probs, precision=6)})"


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


@dataclass(frozen=True, eq=False)
class Experiment:
    """Row-stochastic kernel with state and realization labels."""

    kernel: np.ndarray
    states: tuple[str, ...] = None
    realizations: tuple[str, ...] = None

    def __init__(self, kernel, states=None, realizations=None):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or not np.all(np.isfinite(kernel)):
            raise InputError("kernel must be a finite 2-D array")
        if np.any(kernel < -SIMPLEX_TOL):
            raise InputError("kernel has negative entries")
        row_sums = kernel.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise InputError(f"kernel rows must sum to 1, got {row_sums}")
        n, m = kernel.shape
        states = _default_labels("w", n) if states is None else tuple(states)
        realizations = _default_labels("y", m) if realizations is None else tuple(realizations)
        if len(states) != n or len(realizations) != m:
            raise DimensionMismatchError("label counts do not match the kernel shape")
        object.__setattr__(self, "kernel", _frozen(np.clip(kernel, 0.0, None)))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "realizations", realizations)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_realizations(self) -> int:
        return self.kernel.shape[1]

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "realizations": list(self.realizations),
            "kernel": self.kernel.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Experiment":
        return cls(data["kernel"], data.get("states"), data.get("realizations"))

    def __repr__(self):
        return f"Experiment({self.n_states}x{self.n_realizations})"


@dataclass(frozen=True, eq=False)
class PosteriorDistribution:
    """Finite support of beliefs with probability weights.

    ``dropped`` records realization labels whose unconditional probability
    was (numerically) zero when the distribution was derived from an
    experiment; they carry no posterior.
    """

    beliefs: tuple[Belief, ...]
    weights: np.ndarray
    dropped: tuple[str, ...] = ()

    def __init__(self, beliefs, weights, dropped=()):
        beliefs = tuple(b if isinstance(b, Belief) else Belief(b) for b in beliefs)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if len(beliefs) != weights.size or len(beliefs) == 0:
            raise DimensionMismatchError("need one weight per belief")
        if np.any(weights < -SIMPLEX_TOL) or abs(weights.sum() - 1.0) > 1e-9:
            raise InputError("weights must be a probability vector")
        n = beliefs[0].n_states
        if any(b.n_states != n for b in beliefs):
            raise DimensionMismatchError("beliefs live on different state spaces")
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "weights", _frozen(np.clip(weights, 0.0, None)))
        object.__setattr__(self, "dropped", tuple(dropped))

    @property
    def support(self) -> tuple:
        return tuple(zip(self.beliefs, self.weights))

    @property
    def n_states(self) -> int:
        return self.beliefs[0].n_states

    @property
    def size(self) -> int:
        return len(self.beliefs)

    def posterior_matrix(self) -> np.ndarray:
        """N x K matrix whose k-th column is the k-th posterior."""
        return np.column_stack([b.probs for b in self.beliefs])

    def mean(self) -> np.ndarray:
        return self.posterior_matrix() @ self.weights

    def to_dict(self) -> dict:
        return {
            "posteriors": [b.probs.tolist() for b in self.beliefs],
            "weights": self.weights.tolist(),
            "dropped": list(self.dropped),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PosteriorDistribution":
        return cls(data["posteriors"], data["weights"], data.get("dropped", ()))


def posteriors(e: Experiment, prior: Belief) -> PosteriorDistribution:
    """Posterior distribution induced by ``e`` at an interior prior.

    Realizations with zero unconditional probability are dropped and
    recorded in the result's ``dropped`` field.
    """
    if prior.n_states != e.n_states:
        raise DimensionMismatchError("prior does not match the experiment's state space")
    if not prior.is_interior():
        raise InputError("prior must be interior")
    unconditional = prior.probs @ e.kernel
    keep = unconditional > DROP_TOL
    dropped = tuple(label for label, k in zip(e.realizations, keep) if not k)
    posts = (prior.probs[:, None] * e.kernel[:, keep]) / unconditional[keep]
    beliefs = [Belief(posts[:, j]) for j in range(posts.shape[1])]
    return PosteriorDistribution(beliefs, unconditional[keep] / unconditional[keep].sum(), dropped)


def is_bayes_plausible(d: PosteriorDistribution, prior: Belief, tol: float = BAYES_TOL) -> bool:
    """True iff the weighted average of the posteriors equals the prior."""
    if prior.n_states != d.n_states:
        raise DimensionMismatchError("prior does not match the distribution's state space")
    return bool(np.max(np.abs(d.mean() - prior.probs)) <= tol)


def experiment_from_posteriors(d: PosteriorDistribution, prior: Belief,
                               realizations=None) -> Experiment:
    """Fold a Bayes-plausible posterior distribution back into a kernel.

    Round-trips with :func:`posteriors` up to realization relabeling.
    """
    if not prior.is_interior():
        raise InputError("prior must be interior")
    if not is_bayes_plausible(d, prior):
        raise InputError("posterior distribution is not Bayes-plausible for this prior")
    kernel = (d.posterior_matrix() * d.weights[None, :]) / prior.probs[:, None]
    # Rows sum to one exactly by Bayes plausibility; renormalize the dust.
    kernel /= kernel.sum(axis=1, keepdims=True)
    if realizations is None:
        realizations = _default_labels("x", d.size)
    return Experiment(kernel, realizations=realizations)


def has_full_row_rank(e: Experiment, rank_tol: float | None = None) -> bool:
    return matrix_rank(e.kernel, rank_tol) == e.n_states


def has_uniform_random_noise(e: Experiment, tol: float = 1e-12) -> bool:
    """True iff each state has a unique most-likely realization, those
    realizations are distinct across states, and within each row all
    non-maximal probabilities are equal."""
    kernel = e.kernel
    argmaxes = []
    for row in kernel:
        top = row.max()
        top_idx = np.flatnonzero(row >= top - tol)
        if top_idx.size != 1:
            return False
        rest = np.delete(row, top_idx[0])
        if rest.size and np.max(rest) - np.min(rest) > tol:
            return False
        argmaxes.append(int(top_idx[0]))
    return len(set(argmaxes)) == len(argmaxes)


def blackwell_compare(e: Experiment, f: Experiment) -> OrderVerdict:
    """Blackwell order via garbling feasibility: one nonnegative
    least-squares fit for a row-stochastic ``G >= 0`` with
    ``e.kernel @ G = f.kernel`` in each direction.
    Dominance certificates carry the garbling matrix."""
    if e.n_states != f.n_states:
        raise DimensionMismatchError("experiments live on different state spaces")
    g_fwd = nonnegative_solve(e.kernel, f.kernel, stochastic=True)
    g_bwd = nonnegative_solve(f.kernel, e.kernel, stochastic=True)
    return assemble_verdict(
        "blackwell", g_fwd is not None, g_bwd is not None,
        {"garbling": g_fwd} if g_fwd is not None else None,
        {"garbling_reverse": g_bwd} if g_bwd is not None else None,
    )
