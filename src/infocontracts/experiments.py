"""Blackwell experiments, beliefs, and Bayes-plausible posterior distributions.

An experiment is an N x M row-stochastic kernel: rows are states, columns
are realizations, entries are conditional probabilities.  Together with an
interior prior it induces a distribution over posterior beliefs, and any
Bayes-plausible posterior distribution can be folded back into a kernel.
All values here are immutable and freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError
from .numerics import matrix_rank
from .orders import OrderVerdict, fit_verdict

# Simplex membership slack for beliefs and kernel rows.
SIMPLEX_TOL = 1e-12
# Beliefs with any coordinate below this are treated as boundary beliefs;
# priors must clear it to count as interior.
INTERIOR_THRESHOLD = 1e-9
# Bayes-plausibility verdict tolerance.
BAYES_TOL = 1e-9
# Unconditional realization probabilities at or below this are dropped.
DROP_TOL = 1e-15
# Kernel entries this close count as equal in the uniform-random-noise test.
NOISE_TOL = 1e-12
# A belief and each kernel row must sum to one within SUM_TOL, and the
# weights of a posterior distribution within WEIGHT_SUM_TOL.
SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _on_simplex(probs: np.ndarray) -> np.ndarray:
    """``probs``, one belief or rows of them, checked to lie on the
    probability simplex and clipped at zero."""
    if probs.shape[-1] < 1 or not np.isfinite(probs).all():
        raise InputError("belief must be a finite probability vector")
    off = (probs.min(axis=-1) < -SIMPLEX_TOL) | (abs(probs.sum(axis=-1) - 1.0) > SUM_TOL)
    if off.any():
        raise InputError(f"belief {probs[off][0]} is not on the probability simplex")
    return probs.clip(0.0)


@dataclass(frozen=True, eq=False)
class Belief:
    """A probability vector over the N states."""

    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float).reshape(-1)
        object.__setattr__(self, "probs", _frozen(_on_simplex(probs)))

    @classmethod
    def uniform(cls, n_states: int) -> "Belief":
        return cls(np.full(n_states, 1.0 / n_states))

    @property
    def n_states(self) -> int:
        return self.probs.size

    def is_interior(self) -> bool:
        return bool(np.all(self.probs >= INTERIOR_THRESHOLD))

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
        if np.any(np.abs(row_sums - 1.0) > SUM_TOL):
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

    ``matrix`` is the read-only N x K array of the posteriors (columns),
    built once from ``beliefs`` (``Belief`` values or vectors).  ``dropped``
    records realization labels whose unconditional probability was
    (numerically) zero when the distribution was derived from an
    experiment; they carry no posterior.
    """

    matrix: np.ndarray
    weights: np.ndarray
    dropped: tuple[str, ...] = ()

    def __init__(self, beliefs, weights, dropped=()):
        rows = [b.probs if isinstance(b, Belief) else np.asarray(b, dtype=float).reshape(-1)
                for b in beliefs]
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if len(rows) != weights.size or len(rows) == 0:
            raise DimensionMismatchError("need one weight per belief")
        if len({row.size for row in rows}) > 1:
            raise DimensionMismatchError("beliefs live on different state spaces")
        if (not np.isfinite(weights).all() or np.any(weights < -SIMPLEX_TOL)
                or abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL):
            raise InputError("weights must be a finite probability vector")
        object.__setattr__(self, "matrix", _frozen(_on_simplex(np.array(rows)).T))
        object.__setattr__(self, "weights", _frozen(np.clip(weights, 0.0, None)))
        object.__setattr__(self, "dropped", tuple(dropped))

    @property
    def beliefs(self) -> tuple[Belief, ...]:
        return tuple(Belief(column) for column in self.matrix.T)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def posterior_matrix(self) -> np.ndarray:
        """The read-only N x K matrix whose k-th column is the k-th posterior."""
        return self.matrix

    def mean(self) -> np.ndarray:
        return self.matrix @ self.weights

    def to_dict(self) -> dict:
        return {
            "posteriors": self.matrix.T.tolist(),
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
    return PosteriorDistribution(posts.T, unconditional[keep] / unconditional[keep].sum(), dropped)


def is_bayes_plausible(d: PosteriorDistribution, prior: Belief) -> bool:
    """True iff the weighted average of the posteriors equals the prior."""
    if prior.n_states != d.n_states:
        raise DimensionMismatchError("prior does not match the distribution's state space")
    return bool(np.max(np.abs(d.mean() - prior.probs)) <= BAYES_TOL)


def kernel_from_posteriors(d: PosteriorDistribution, prior: Belief) -> np.ndarray:
    """The N x K kernel that induces ``d`` at ``prior``, as a plain array:
    row n holds ``d``'s posteriors at n, weighted and divided by the prior."""
    if not prior.is_interior():
        raise InputError("prior must be interior")
    if not is_bayes_plausible(d, prior):
        raise InputError("posterior distribution is not Bayes-plausible for this prior")
    kernel = (d.posterior_matrix() * d.weights[None, :]) / prior.probs[:, None]
    # Rows sum to one exactly by Bayes plausibility; renormalize the dust.
    kernel /= kernel.sum(axis=1, keepdims=True)
    return kernel


def experiment_from_posteriors(d: PosteriorDistribution, prior: Belief) -> Experiment:
    """Fold a Bayes-plausible posterior distribution back into a kernel,
    with realizations labelled ``x1, x2, ...``.

    Round-trips with :func:`posteriors` up to realization relabeling.
    """
    kernel = kernel_from_posteriors(d, prior)
    return Experiment(kernel, realizations=_default_labels("x", d.size))


def has_full_row_rank(e: Experiment) -> bool:
    return matrix_rank(e.kernel) == e.n_states


def has_uniform_random_noise(e: Experiment) -> bool:
    """True iff each state has a unique most-likely realization, those
    realizations are distinct across states, and within each row all
    non-maximal probabilities are equal."""
    kernel = e.kernel
    argmaxes = []
    for row in kernel:
        top = row.max()
        top_idx = np.flatnonzero(row >= top - NOISE_TOL)
        if top_idx.size != 1:
            return False
        rest = np.delete(row, top_idx[0])
        if rest.size and np.max(rest) - np.min(rest) > NOISE_TOL:
            return False
        argmaxes.append(int(top_idx[0]))
    return len(set(argmaxes)) == len(argmaxes)


def blackwell_compare(e: Experiment, f: Experiment) -> OrderVerdict:
    """Blackwell order via garbling feasibility: one nonnegative
    least-squares fit for a row-stochastic ``G >= 0`` with
    ``e.kernel @ G = f.kernel`` in each direction.  The certificate holds
    the garbling of each direction found, ``garbling`` and ``garbling_reverse``."""
    return fit_verdict("blackwell", "garbling", e.kernel, f.kernel, stochastic=True)
