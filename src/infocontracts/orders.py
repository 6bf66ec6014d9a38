"""Information orders between contractible experiments.

Three decidable orders are provided: containment of column spaces (which
characterizes comparison of implementable sets, decided by ranks),
containment of conic spans (sufficient for indirect-cost dominance, decided
by one nonnegative least-squares fit per direction), and the complete
likelihood-ratio characterization of indirect-cost dominance for
binary-state experiments with two realizations.  Blackwell comparison lives
with the experiment type itself in :mod:`infocontracts.experiments` and uses
the same fit with row-stochastic rows added.

A general decision procedure for indirect-cost dominance beyond the
binary-binary case is deliberately not offered: outside that case only the
one-sided conic-span test is available (see ``k_dominance_sufficient``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateExperimentError, DimensionMismatchError
from .numerics import matrix_rank, nonnegative_solve


class Relation(Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of comparing two experiments under a named order.

    ``certificate`` is machine-checkable evidence: a garbling matrix, the
    per-column cone coefficients, a likelihood-ratio tuple, or a rank
    transcript, depending on the order.
    """

    order: str
    relation: Relation
    strict: bool = False
    certificate: dict = field(default_factory=dict)

    @property
    def dominates_weakly(self) -> bool:
        return self.relation in (Relation.DOMINATES, Relation.EQUIVALENT)

    def to_dict(self) -> dict:
        cert = {}
        for key, value in self.certificate.items():
            cert[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return {
            "order": self.order,
            "relation": self.relation.value,
            "strict": self.strict,
            "certificate": cert,
        }


def assemble_verdict(order: str, forward: bool, backward: bool,
                     forward_cert=None, backward_cert=None) -> OrderVerdict:
    """Fold the two one-directional answers into a single verdict.

    One-directional dominance is strict by construction (the reverse
    containment failed); mutual dominance is equivalence.
    """
    cert = {}
    if forward and forward_cert:
        cert.update(forward_cert)
    if backward and backward_cert:
        cert.update(backward_cert)
    if forward and backward:
        return OrderVerdict(order, Relation.EQUIVALENT, False, cert)
    if forward:
        return OrderVerdict(order, Relation.DOMINATES, True, cert)
    if backward:
        return OrderVerdict(order, Relation.DOMINATED_BY, True, cert)
    return OrderVerdict(order, Relation.INCOMPARABLE, False, cert)


def _kernel(e) -> np.ndarray:
    kernel = getattr(e, "kernel", e)
    return np.asarray(kernel, dtype=float)


def _check_same_states(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"experiments live on different state spaces: {a.shape[0]} vs {b.shape[0]} states"
        )


def cone_compare(e, f) -> OrderVerdict:
    """Compare conic spans: Cone(a) contains Cone(b) iff some ``G >= 0``
    has ``a @ G = b``, decided by one nonnegative least-squares fit per
    direction.  Dominance certificates carry ``G``, one column of
    coefficients per column of b."""
    a, b = _kernel(e), _kernel(f)
    _check_same_states(a, b)
    g_fwd = nonnegative_solve(a, b)
    g_bwd = nonnegative_solve(b, a)
    return assemble_verdict(
        "cone", g_fwd is not None, g_bwd is not None,
        {"coefficients": g_fwd} if g_fwd is not None else None,
        {"coefficients_reverse": g_bwd} if g_bwd is not None else None,
    )


def colspace_compare(e, f, rank_tol: float | None = None) -> OrderVerdict:
    """Compare column spaces through ranks of the stacked matrix."""
    a, b = _kernel(e), _kernel(f)
    _check_same_states(a, b)
    rank_a = matrix_rank(a, rank_tol)
    rank_b = matrix_rank(b, rank_tol)
    rank_ab = matrix_rank(np.hstack([a, b]), rank_tol)
    forward = rank_ab == rank_a   # Col(a) contains Col(b)
    backward = rank_ab == rank_b
    cert = {"rank_first": rank_a, "rank_second": rank_b, "rank_stacked": rank_ab}
    return assemble_verdict("column_space", forward, backward, cert, cert)


def binary_likelihood_ratios(e) -> tuple[float, float]:
    """Likelihood ratios (l1, l2) of a 2-state, 2-realization experiment.

    l_m is the probability of realization m in state 2 over state 1, with
    columns ordered so that l1 <= 1 <= l2.  Fully revealing realizations map
    to 0 or ``inf``; a never-sent realization or an uninformative kernel is
    rejected.
    """
    kernel = _kernel(e)
    if kernel.shape != (2, 2):
        raise DimensionMismatchError(
            f"likelihood ratios need a 2x2 kernel, got {kernel.shape}; "
            "no general indirect-cost comparison is provided beyond that case"
        )
    ratios = []
    for m in range(2):
        top, bottom = kernel[1, m], kernel[0, m]
        if top == 0.0 and bottom == 0.0:
            raise DegenerateExperimentError(f"realization {m} is never sent")
        ratios.append(math.inf if bottom == 0.0 else top / bottom)
    l1, l2 = sorted(ratios)
    if l1 == l2:
        raise DegenerateExperimentError("uninformative experiment: equal likelihood ratios")
    return l1, l2


def _lr_spreads(e) -> tuple[float, float]:
    l1, l2 = binary_likelihood_ratios(e)
    direct = l2 - l1                                   # inf when l2 = inf
    recip = (math.inf if l1 == 0.0 else 1.0 / l1) - (0.0 if math.isinf(l2) else 1.0 / l2)
    return direct, recip


def binary_k_compare(e, f) -> OrderVerdict:
    """Complete indirect-cost comparison of binary-binary experiments.

    ``e`` dominates iff both its likelihood-ratio spread and the spread of
    the reciprocal ratios weakly exceed those of ``f``.  Revealing
    realizations enter with extended-real arithmetic (a fully revealing
    experiment has both spreads infinite); two infinite spreads compare as
    equal.
    """
    d_e, r_e = _lr_spreads(e)
    d_f, r_f = _lr_spreads(f)
    forward = d_e >= d_f and r_e >= r_f
    backward = d_f >= d_e and r_f >= r_e
    cert = {
        "ratios_first": binary_likelihood_ratios(e),
        "ratios_second": binary_likelihood_ratios(f),
        "spreads_first": (d_e, r_e),
        "spreads_second": (d_f, r_f),
    }
    return assemble_verdict("binary_indirect_cost", forward, backward, cert, cert)


def k_dominance_sufficient(e, f) -> bool:
    """Conic-span test for indirect-cost dominance.

    Sufficient only: a True answer guarantees ``e`` implements anything at
    weakly lower cost than ``f``; a False answer decides nothing.
    """
    return cone_compare(e, f).dominates_weakly
