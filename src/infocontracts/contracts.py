"""Contract synthesis and the principal's cost minimization.

Every contract implementing a given target decomposes into three parts: a
pseudo-inverse term that creates the marginal incentives, a bonus that
depends only on the realization of the contractible experiment, and side
bets with zero expected value in every state.  The bonus and the side bets
carry no incentives but determine the agent's rents, so cost minimization
reduces to choosing them optimally subject to nonnegative payments: a
row-minimum shift in closed form when the kernel has no null space and the
target is interior (no side bets or boundary multipliers to choose), and a
small LP over the payments and boundary multipliers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import PosteriorCost
from .errors import (
    DimensionMismatchError,
    InputError,
    NotImplementableError,
    SolverFailureError,
)
from .experiments import (
    INTERIOR_THRESHOLD,
    Belief,
    Experiment,
    PosteriorDistribution,
    kernel_from_posteriors,
)
from .implementability import (ImplementabilityReport, check_implementable, difference_kron,
                              difference_operator)
from .numerics import PseudoInverse, solve_lp
from .orders import binary_likelihood_ratios

# Entries of a limited-liability contract may dip this far below zero
# before we refuse to call it nonnegative (roundoff in a contract read from
# outside; the contracts this module builds are exactly nonnegative).
LL_TOL = 1e-12
# Agreement required between the two expected-payment evaluations.
PAYMENT_AGREEMENT_TOL = 1e-12
# Side bets must have expected value within SIDE_BET_TOL of zero in every
# state.
SIDE_BET_TOL = 1e-9
# Payments at most BINDING_TOL in magnitude are reported as binding cells.
BINDING_TOL = 1e-9
# The zero-rent bonus direction needs |prior @ P @ 1| of at least
# DEGENERATE_BONUS_TOL, P the projector onto the kernel's column space.
DEGENERATE_BONUS_TOL = 1e-12


def rowmin(a: np.ndarray) -> np.ndarray:
    """Vector of row-wise minima."""
    return np.asarray(a, dtype=float).min(axis=1)


@dataclass(frozen=True, eq=False)
class Contract:
    """M x K payment matrix: rows follow the contractible experiment's
    realizations, columns the agent's reports."""

    payments: np.ndarray
    limited_liability: bool = True
    realizations: tuple[str, ...] | None = None
    reports: tuple[str, ...] | None = None

    def __init__(self, payments, limited_liability=True, realizations=None, reports=None):
        payments = np.array(payments, dtype=float)
        if payments.ndim != 2 or not np.all(np.isfinite(payments)):
            raise InputError("payments must be a finite 2-D matrix")
        if limited_liability and payments.min() < -LL_TOL:
            raise InputError(
                f"limited-liability contract has a negative payment ({payments.min():.3e})"
            )
        payments.setflags(write=False)
        object.__setattr__(self, "payments", payments)
        object.__setattr__(self, "limited_liability", bool(limited_liability))
        object.__setattr__(self, "realizations",
                           None if realizations is None else tuple(realizations))
        object.__setattr__(self, "reports", None if reports is None else tuple(reports))

    def to_dict(self) -> dict:
        m, k = self.payments.shape
        return {
            "realizations": list(self.realizations or (f"y{i+1}" for i in range(m))),
            "reports": list(self.reports or (f"x{j+1}" for j in range(k))),
            "payments": self.payments.tolist(),
            "limited_liability": self.limited_liability,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Contract":
        return cls(data["payments"], data.get("limited_liability", True),
                   data.get("realizations"), data.get("reports"))


@dataclass(frozen=True, eq=False)
class ContractFamily:
    """All contracts implementing a target, parametrized by (Z, W).

    Members are ``base + Z 1' + W`` where ``base`` applies the kernel's
    pseudo-inverse to the marginal-cost matrix, ``Z`` is any realization
    bonus, and each column of ``W`` lies in the kernel's null space (columns
    of ``null_basis``).  Every member satisfies the agent's first-order
    condition: all columns of ``kernel @ T - nabla`` coincide.
    """

    experiment: Experiment
    pinv: PseudoInverse
    nabla: np.ndarray          # effective marginal-cost matrix (boundary multipliers folded in)
    base: np.ndarray           # pinv @ nabla, M x K
    null_basis: np.ndarray     # M x d orthonormal basis of ker(kernel)
    report: ImplementabilityReport

    def member(self, z=None, w=None) -> Contract:
        """Family member for a bonus vector ``z`` and side-bet matrix ``w``,
        without limited liability.

        ``w`` may be given directly (validated against ``kernel @ w = 0``)
        or as a coefficient matrix of shape (d, K) over ``null_basis``.
        """
        m, k = self.base.shape
        payments = self.base.copy()
        if z is not None:
            z = np.asarray(z, dtype=float).reshape(-1)
            if z.size != m:
                raise DimensionMismatchError(f"bonus must have {m} entries")
            payments += z[:, None]
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape == (self.null_basis.shape[1], k):
                w = self.null_basis @ w
            if w.shape != (m, k):
                raise DimensionMismatchError(f"side bets must be {m}x{k}")
            if np.max(np.abs(self.experiment.kernel @ w), initial=0.0) > SIDE_BET_TOL:
                raise InputError("side bets must have zero expected value in every state")
            payments += w
        return Contract(payments, limited_liability=False,
                        realizations=self.experiment.realizations)

    def sample_member(self, rng, scale: float = 1.0) -> Contract:
        z = rng.normal(scale=scale, size=self.base.shape[0])
        coeffs = rng.normal(scale=scale, size=(self.null_basis.shape[1], self.base.shape[1]))
        return self.member(z=z, w=coeffs)

    def foc_deviation(self, contract: Contract) -> float:
        """Max pairwise deviation between columns of ``kernel @ T - nabla``;
        zero (to tolerance) for every genuine member."""
        cols = self.experiment.kernel @ contract.payments - self.nabla
        return float(np.ptp(cols, axis=1).max(initial=0.0))

    def zero_rent_member(self, target: PosteriorDistribution, prior: Belief) -> Contract:
        """The member whose expected payment under honest play of ``target``
        is exactly the information cost ``report.first_best``, leaving the
        agent a net payoff of zero: a uniform bonus along ``pinv @ 1``.
        ``target`` and ``prior`` must be the target and cost prior the
        family was synthesized for."""
        projector = self.pinv.projector
        projected_cost = float(target.weights @ np.einsum(
            "nk,nk->k", target.posterior_matrix(), projector @ self.nabla))
        ones = np.ones(self.experiment.n_states)
        denominator = float(prior.probs @ projector @ ones)
        if abs(denominator) < DEGENERATE_BONUS_TOL:
            raise InputError("degenerate bonus direction; cannot normalize the benchmark contract")
        z = (self.report.first_best - projected_cost) / denominator
        payments = self.base + z * (self.pinv.pinv @ ones)[:, None]
        return Contract(payments, limited_liability=False,
                        realizations=self.experiment.realizations)


def synthesize_family(e_p: Experiment, target: PosteriorDistribution,
                      cost: PosteriorCost) -> ContractFamily:
    """Build the (Z, W)-parametrized family of implementing contracts."""
    return _family(e_p, check_implementable(e_p, target, cost))


def _family(e_p: Experiment, report: ImplementabilityReport) -> ContractFamily:
    """The family of an implementable target, from the kernel factorization
    and marginal costs its implementability verdict was decided with."""
    if not report.implementable:
        raise NotImplementableError(
            f"target is not implementable under this experiment: {report.reason}",
            report=report,
        )
    nabla = report.marginal_costs
    if report.eta is not None:
        nabla = nabla - report.eta
    pinv = report.factorization
    return ContractFamily(
        experiment=e_p, pinv=pinv, nabla=nabla, base=pinv.pinv @ nabla,
        null_basis=pinv.null_basis, report=report,
    )


@dataclass(frozen=True, eq=False)
class CostReport:
    """Outcome of the principal's cost minimization for one target.

    ``kappa`` is the minimized expected payment, ``first_best`` the bare
    information cost, and ``agency_rent`` their gap (the premium forced by
    limited liability).  ``kappa`` is computed from the agent's per-state
    multiplier of the optimal contract; ``payment_check`` re-evaluates the
    same expected payment directly from the joint distribution of reports
    and realizations.
    """

    kappa: float
    first_best: float
    agency_rent: float
    contract: Contract | None
    binding_cells: tuple[tuple[int, int], ...] = ()
    payment_check: float | None = None
    mode: str = "interior"
    reason: str = ""

    @property
    def implementable(self) -> bool:
        return math.isfinite(self.kappa)

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "first_best": self.first_best,
            "agency_rent": self.agency_rent,
            "contract": None if self.contract is None else self.contract.to_dict(),
            "binding_cells": [list(c) for c in self.binding_cells],
            "payment_check": self.payment_check,
            "mode": self.mode,
            "reason": self.reason,
        }


def optimal_contract(e_p: Experiment, target: PosteriorDistribution,
                     cost: PosteriorCost) -> CostReport:
    """Cheapest limited-liability contract implementing ``target``.

    When the target has a single posterior, or it is interior and the
    kernel has no null space, the optimum is closed-form: shift the base
    contract by minus its row minima, so every realization leaves at least
    one report unpaid (exactly nonnegative in floating point).  Otherwise
    side bets exist (deficient row rank, or more realizations than states)
    or the boundary multipliers of a corner target are free, and the
    payments are optimized directly by one LP:
    ``T >= 0`` and ``eta >= 0`` on the cells the posteriors rule out, such
    that ``kernel @ T_k - lambda = nabla_k - eta_k`` for every report ``k``
    and some multiplier ``lambda``, minimizing the expected payment.  The
    reported cost is ``first_best + mu0 . lambda(T*)``, which equals the
    expected payment of the optimal contract (re-evaluated independently as
    ``payment_check``).  A payment LP that HiGHS does not solve, or whose
    solution fails re-verification, raises :class:`SolverFailureError`.
    """
    report = check_implementable(e_p, target, cost)
    first_best = report.first_best
    if not report.implementable:
        return CostReport(
            kappa=math.inf, first_best=first_best, agency_rent=math.inf,
            contract=None, mode=report.mode, reason=report.reason,
        )
    family = _family(e_p, report)
    # Boundary multipliers are free on the cells the posteriors rule out.
    free = target.posterior_matrix() < INTERIOR_THRESHOLD
    # A single report needs no incentive: the shift pays nothing.
    if target.size == 1 or (family.null_basis.shape[1] == 0 and not free.any()):
        payments, nabla = family.base - rowmin(family.base)[:, None], family.nabla
    else:
        payments, nabla = _min_payment_lp(e_p.kernel, target, report.marginal_costs, free)
    contract = Contract(payments, limited_liability=True,
                        realizations=e_p.realizations)
    # lambda(T*): the column mean of the first-order condition.
    kappa = first_best + float(cost.prior.probs @ (e_p.kernel @ payments - nabla).mean(axis=1))
    binding = tuple(
        (int(i), int(j)) for i, j in zip(*np.nonzero(np.abs(payments) <= BINDING_TOL))
    )
    check = expected_payment(e_p, target, cost.prior, contract)
    return CostReport(
        kappa=kappa, first_best=first_best, agency_rent=kappa - first_best,
        contract=contract, binding_cells=binding, payment_check=check,
        mode=report.mode,
    )


def _min_payment_lp(kernel, target, nabla, free) -> tuple[np.ndarray, np.ndarray]:
    """Payments ``T >= 0`` (M x K) and boundary multipliers ``eta >= 0`` on
    the ``free`` cells minimizing the expected payment subject to
    ``kernel @ T_k - lambda = nabla_k - eta_k`` for every report ``k``.  The
    free multiplier ``lambda`` is eliminated by the column-difference
    operator ``D`` of :func:`difference_operator`:
    ``kron(D', kernel) vec(T) + kron(D', I) vec(eta) = vec(nabla @ D)`` with
    ``T`` and ``eta`` flattened column by column, both ``kron`` blocks
    assembled by :func:`difference_kron`.  Returns ``T`` and the
    effective marginal costs ``nabla - eta``.  Needs at least two reports."""
    (n, m), k = kernel.shape, nabla.shape[1]
    d = difference_operator(k)
    free = free.flatten(order="F")
    weighted = target.posterior_matrix() * target.weights
    a_eq = np.hstack([difference_kron(kernel, k), difference_kron(np.eye(n), k)[:, free]])
    try:
        x, _ = solve_lp(np.concatenate([(weighted.T @ kernel).reshape(-1), np.zeros(free.sum())]),
                        a_eq, (nabla @ d).flatten(order="F"))
    except SolverFailureError as exc:
        raise SolverFailureError(f"cost-minimization LP did not resolve: {exc}") from exc
    eta = np.zeros(n * k)
    eta[free] = x[m * k:]
    return x[:m * k].reshape(k, m).T, nabla - eta.reshape((n, k), order="F")


def first_best_contract(e_p: Experiment, target: PosteriorDistribution,
                        cost: PosteriorCost) -> Contract:
    """Zero-rent benchmark contract when payments may be negative."""
    return synthesize_family(e_p, target, cost).zero_rent_member(target, cost.prior)


def expected_payment(e_p: Experiment, target: PosteriorDistribution,
                     prior: Belief, t: Contract) -> float:
    """Principal's expected payment under honest play of ``target``.

    Evaluated two ways (posterior-weighted interim payments, and the joint
    state/report distribution); the two must agree to ``1e-12``.
    """
    if t.payments.shape != (e_p.n_realizations, target.size):
        raise DimensionMismatchError(
            f"contract is {t.payments.shape}, expected "
            f"({e_p.n_realizations}, {target.size})"
        )
    utilities = e_p.kernel @ t.payments                   # N x K state-report payments
    posterior_matrix = target.posterior_matrix()
    interim = float(target.weights @ np.einsum("nk,nk->k", posterior_matrix, utilities))
    joint = float(np.sum(prior.probs[:, None] * kernel_from_posteriors(target, prior) * utilities))
    scale = max(1.0, abs(interim))
    if abs(interim - joint) > PAYMENT_AGREEMENT_TOL * scale:
        raise InputError(
            f"expected-payment evaluations disagree ({interim} vs {joint}); "
            "target weights are inconsistent with the prior"
        )
    return interim


@dataclass(frozen=True)
class BinaryRentProfile:
    """Per-unit rent prices of incentives for a 2-state, 2-realization kernel.

    ``du1_rents`` (resp. ``du2_rents``) gives the rents (r1, r2) the
    principal must concede per unit of extra payoff for a correct call of
    state 1 (resp. state 2), in terms of the likelihood ratios l1 <= 1 <= l2
    of the two realizations.  Fully revealing kernels price every rent at
    zero, by the limit convention.
    """

    l1: float
    l2: float
    du1_rents: tuple[float, float]
    du2_rents: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "l1": self.l1, "l2": self.l2,
            "du1_rents": list(self.du1_rents), "du2_rents": list(self.du2_rents),
        }


def binary_rent_profile(e_p: Experiment) -> BinaryRentProfile:
    """Closed-form rent prices from the likelihood-ratio geometry."""
    if e_p.n_states != 2 or e_p.n_realizations != 2:
        raise DimensionMismatchError("rent profile needs a 2-state, 2-realization experiment")
    l1, l2 = binary_likelihood_ratios(e_p)
    if math.isinf(l2):
        du1 = (0.0, l1)          # limit of l2*l1/(l2-l1) as l2 -> inf
        du2 = (0.0, 0.0)
    else:
        span = l2 - l1
        du1 = (l1 / span, l2 * l1 / span)
        du2 = (1.0 / span, l1 / span)
    return BinaryRentProfile(l1=l1, l2=l2, du1_rents=du1, du2_rents=du2)
