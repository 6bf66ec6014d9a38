"""Information orders between contractible experiments.

Three decidable orders are provided: containment of column spaces (which
characterizes comparison of implementable sets, decided by ranks),
containment of conic spans (sufficient for indirect-cost dominance, decided
by one nonnegative least-squares fit per column), and the complete
likelihood-ratio characterization of indirect-cost dominance for
binary-state experiments with two realizations.  Blackwell comparison lives
with the experiment type itself in :mod:`infocontracts.experiments` and uses
one fit with row-stochastic rows added.  A Blackwell or cone verdict
certifies each direction it found with its fit; a column-space or
likelihood-ratio verdict carries its rank or spread transcript whatever the
relation, so an incomparable pair shows why.

A general decision procedure for indirect-cost dominance beyond the
binary-binary case is deliberately not offered: outside that case only the
one-sided conic-span test is available (see ``k_dominance_sufficient``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    ``certificate`` is machine-checkable evidence, depending on the order:
    the garbling matrix or the per-column cone coefficients of each
    direction that holds (``name`` forward, ``name + "_reverse"`` backward),
    or the rank or likelihood-ratio transcript of every verdict.
    """

    order: str
    relation: Relation
    strict: bool
    certificate: dict

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
                     certificate: dict) -> OrderVerdict:
    """Fold the two one-directional answers and the certificate into a verdict.

    One-directional dominance is strict by construction (the reverse
    containment failed); mutual dominance is equivalence.
    """
    forward, backward = bool(forward), bool(backward)
    if forward and backward:
        relation = Relation.EQUIVALENT
    elif forward:
        relation = Relation.DOMINATES
    elif backward:
        relation = Relation.DOMINATED_BY
    else:
        relation = Relation.INCOMPARABLE
    return OrderVerdict(order, relation, forward != backward, certificate)


def _check_same_states(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"experiments live on different state spaces: {a.shape[0]} vs {b.shape[0]} states"
        )


def fit_verdict(order: str, name: str, a: np.ndarray, b: np.ndarray,
                stochastic: bool) -> OrderVerdict:
    """Decide ``a @ G = b`` and ``b @ G = a`` by one nonnegative fit each
    way; each fit found is certified, under ``name`` or ``name + "_reverse"``."""
    _check_same_states(a, b)
    forward = nonnegative_solve(a, b, stochastic)
    backward = nonnegative_solve(b, a, stochastic)
    certificate = {}
    if forward is not None:
        certificate[name] = forward
    if backward is not None:
        certificate[name + "_reverse"] = backward
    return assemble_verdict(order, forward is not None, backward is not None, certificate)


def cone_compare(e, f) -> OrderVerdict:
    """Compare conic spans: Cone(a) contains Cone(b) iff some ``G >= 0``
    has ``a @ G = b``, decided by one nonnegative least-squares fit per
    column of b, stopping at the first column outside.  The certificate
    holds ``G`` of each direction found, ``coefficients`` or
    ``coefficients_reverse``: one column of coefficients per column of b."""
    return fit_verdict("cone", "coefficients", e.kernel, f.kernel, stochastic=False)


def colspace_compare(e, f) -> OrderVerdict:
    """Compare column spaces through ranks of the stacked matrix; every
    verdict carries the three ranks."""
    a, b = e.kernel, f.kernel
    _check_same_states(a, b)
    rank_a = matrix_rank(a)
    rank_b = matrix_rank(b)
    rank_ab = matrix_rank(np.hstack([a, b]))
    forward = rank_ab == rank_a   # Col(a) contains Col(b)
    backward = rank_ab == rank_b
    cert = {"rank_first": rank_a, "rank_second": rank_b, "rank_stacked": rank_ab}
    return assemble_verdict("column_space", forward, backward, cert)


def binary_likelihood_ratios(e) -> tuple[float, float]:
    """Likelihood ratios (l1, l2) of a 2-state, 2-realization experiment.

    l_m is the probability of realization m in state 2 over state 1, with
    columns ordered so that l1 <= 1 <= l2.  Fully revealing realizations map
    to 0 or ``inf``; a never-sent realization or an uninformative kernel is
    rejected.
    """
    kernel = e.kernel
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


def _lr_spreads(l1: float, l2: float) -> tuple[float, float]:
    direct = l2 - l1                                   # inf when l2 = inf
    recip = (math.inf if l1 == 0.0 else 1.0 / l1) - (0.0 if math.isinf(l2) else 1.0 / l2)
    return direct, recip


def binary_k_compare(e, f) -> OrderVerdict:
    """Complete indirect-cost comparison of binary-binary experiments.

    ``e`` dominates iff both its likelihood-ratio spread and the spread of
    the reciprocal ratios weakly exceed those of ``f``.  Revealing
    realizations enter with extended-real arithmetic (a fully revealing
    experiment has both spreads infinite); two infinite spreads compare as
    equal.  Every verdict carries both experiments' ratios and spreads.
    """
    ratios_e, ratios_f = binary_likelihood_ratios(e), binary_likelihood_ratios(f)
    d_e, r_e = _lr_spreads(*ratios_e)
    d_f, r_f = _lr_spreads(*ratios_f)
    forward = d_e >= d_f and r_e >= r_f
    backward = d_f >= d_e and r_f >= r_e
    cert = {
        "ratios_first": ratios_e,
        "ratios_second": ratios_f,
        "spreads_first": (d_e, r_e),
        "spreads_second": (d_f, r_f),
    }
    return assemble_verdict("binary_indirect_cost", forward, backward, cert)


def k_dominance_sufficient(e, f) -> bool:
    """Conic-span test for indirect-cost dominance.

    Sufficient only: a True answer guarantees ``e`` implements anything at
    weakly lower cost than ``f``; a False answer decides nothing.
    """
    return cone_compare(e, f).dominates_weakly
