"""Dense matrix kernels, nonnegative least squares, and the LP solving
contract used by every other module.

Every nonnegative-feasibility question (is there ``x >= 0`` with
``A x = b``?) is answered by :func:`nonnegative_fit` and decided by its
residual; HiGHS is kept for the LPs that optimize an objective.

Everything here is pure: inputs are never mutated and calls on distinct
problem instances are safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog, nnls

from .errors import DimensionMismatchError, InputError, SolverFailureError

# Default relative factor for the singular-value rank cutoff.  The cutoff is
# sigma_max * max(rows, cols) * RANK_TOL_FACTOR, i.e. scale-free.
RANK_TOL_FACTOR = 1e-12

# Feasibility tolerances: LP constraint violation, and the relative
# least-squares residual behind every column-space and nonnegative-fit
# verdict.
LP_FEASIBILITY_TOL = 1e-7
RESIDUAL_TOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} has non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0:
        raise InputError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class PseudoInverse:
    """Moore-Penrose pseudo-inverse of a dense matrix, its SVD rank, and
    an orthonormal basis of its null space from the same SVD.

    ``projector`` is ``source @ pinv``, the orthogonal projector onto the
    column space of ``source``.
    """

    source: np.ndarray
    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray
    null_basis: np.ndarray

    @property
    def projector(self) -> np.ndarray:
        return self.source @ self.pinv

    def column_space_residual(self, v) -> float:
        """Euclidean norm of the component of ``v`` outside Col(source)."""
        vec = as_vector(v)
        if vec.size != self.source.shape[0]:
            raise DimensionMismatchError(
                f"vector of size {vec.size} vs {self.source.shape[0]} rows"
            )
        return float(np.linalg.norm(vec - self.source @ (self.pinv @ vec)))


def _svd(arr: np.ndarray, rank_tol: float | None, full_matrices: bool = False):
    """The package's only SVD: ``(u, s, vt, rank)`` with singular values
    above ``sigma_max * max(shape) * rank_tol`` counted in the rank."""
    if rank_tol is None:
        rank_tol = RANK_TOL_FACTOR
    if rank_tol <= 0:
        raise InputError("rank_tol must be positive")
    u, s, vt = np.linalg.svd(arr, full_matrices=full_matrices)
    cutoff = (s[0] * max(arr.shape) * rank_tol) if s.size and s[0] > 0 else 0.0
    # Denormal singular values overflow on inversion; they are zero at any
    # representable scale.
    cutoff = max(cutoff, np.finfo(float).smallest_normal)
    return u, s, vt, int(np.count_nonzero(s > cutoff))


def pseudo_inverse(a, rank_tol: float | None = None) -> PseudoInverse:
    """SVD pseudo-inverse with a relative rank cutoff.

    ``rank_tol`` defaults to ``RANK_TOL_FACTOR``.  The returned object
    satisfies the four Penrose identities to ~1e-10 relative.  Every rank,
    projector and null-space basis of the package comes from one SVD.
    """
    arr = as_matrix(a)
    # Only a wide matrix needs the full V for its null basis; a tall one
    # keeps the reduced factors, so nothing N x N is built.
    u, s, vt, rank = _svd(arr, rank_tol, full_matrices=arr.shape[0] < arr.shape[1])
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    null_basis = vt[rank:].T.copy()
    sv = s.copy()
    arr = arr.copy()
    for m in (arr, pinv, sv, null_basis):
        m.setflags(write=False)
    return PseudoInverse(source=arr, pinv=pinv, rank=rank, singular_values=sv,
                         null_basis=null_basis)


def column_space_residual(a, v, rank_tol: float | None = None) -> float:
    """``||(I - A A^+) v||``: zero (up to tolerance) iff v lies in Col(A)."""
    arr, vec = as_matrix(a), as_vector(v)
    if vec.size != arr.shape[0]:
        raise DimensionMismatchError(f"vector of size {vec.size} vs {arr.shape[0]} rows")
    u, _, _, rank = _svd(arr, rank_tol)
    return float(np.linalg.norm(vec - u[:, :rank] @ (u[:, :rank].T @ vec)))


def matrix_rank(a, rank_tol: float | None = None) -> int:
    return _svd(as_matrix(a), rank_tol)[3]


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


@dataclass(frozen=True)
class LpProblem:
    """min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  bounds per variable.

    ``bounds`` is a list of (lo, hi) pairs with ``None`` for unbounded;
    the default leaves every variable free (unlike scipy's default).
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: list | tuple | None = None

    @property
    def n_vars(self) -> int:
        return np.asarray(self.c).size


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    max_violation: float = 0.0
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


_STATUS_MAP = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def solve_lp(problem: LpProblem, feasibility_tol: float = LP_FEASIBILITY_TOL) -> LpSolution:
    """Solve a dense LP with the HiGHS simplex backend.

    An ``OPTIMAL`` result is re-checked: constraint violations above
    ``feasibility_tol`` or a mismatch between the reported and recomputed
    objective downgrade the status to ``FAILED`` rather than returning a
    silently wrong answer.
    """
    c = as_vector(problem.c, "objective")
    kwargs = {}
    if problem.a_ub is not None:
        kwargs["A_ub"] = as_matrix(problem.a_ub, "A_ub")
        kwargs["b_ub"] = as_vector(problem.b_ub, "b_ub")
    if problem.a_eq is not None:
        kwargs["A_eq"] = as_matrix(problem.a_eq, "A_eq")
        kwargs["b_eq"] = as_vector(problem.b_eq, "b_eq")
    bounds = problem.bounds if problem.bounds is not None else (None, None)
    res = linprog(c, bounds=bounds, method="highs", **kwargs)

    status = _STATUS_MAP.get(res.status, LpStatus.FAILED)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, x=None, objective=None, message=res.message)

    x = np.asarray(res.x, dtype=float)
    violation = 0.0
    if problem.a_ub is not None:
        violation = max(violation, float(np.max(kwargs["A_ub"] @ x - kwargs["b_ub"], initial=0.0)))
    if problem.a_eq is not None:
        violation = max(violation, float(np.max(np.abs(kwargs["A_eq"] @ x - kwargs["b_eq"]), initial=0.0)))
    violation = max(violation, _bounds_violation(x, bounds))
    objective = float(c @ x)
    if violation > feasibility_tol or abs(objective - res.fun) > feasibility_tol * max(1.0, abs(objective)):
        return LpSolution(
            status=LpStatus.FAILED, x=x, objective=objective, max_violation=violation,
            message=f"solution failed verification (violation={violation:.3e})",
        )
    dual_eq = getattr(getattr(res, "eqlin", None), "marginals", None)
    dual_ub = getattr(getattr(res, "ineqlin", None), "marginals", None)
    return LpSolution(
        status=LpStatus.OPTIMAL, x=x, objective=objective, max_violation=violation,
        dual_eq=None if dual_eq is None else np.asarray(dual_eq, dtype=float),
        dual_ub=None if dual_ub is None else np.asarray(dual_ub, dtype=float),
    )


def _bounds_violation(x: np.ndarray, bounds) -> float:
    # None bounds become NaN, which fmax skips.
    lo, hi = np.broadcast_to(np.array(bounds, dtype=float).reshape(-1, 2), (x.size, 2)).T
    return float(np.fmax.reduce(np.concatenate([lo - x, x - hi]), initial=0.0))


def nonnegative_fit(a, b) -> tuple[np.ndarray, float]:
    """``x >= 0`` minimizing ``||a @ x - b||`` and that least residual, by
    Lawson-Hanson nonnegative least squares.  Raises
    :class:`SolverFailureError` when the active-set iteration does not
    converge."""
    try:
        x, residual = nnls(a, b)
    except RuntimeError as exc:
        raise SolverFailureError(f"nonnegative least squares did not converge: {exc}") from exc
    return x, float(residual)


def nonnegative_solve(a, b, stochastic: bool = False) -> np.ndarray | None:
    """Nonnegative ``G`` with ``a @ G = b`` (and ``G @ 1 = 1`` when
    ``stochastic``), or None when none exists.

    Without ``stochastic`` the columns of ``G`` are independent: each is one
    nonnegative least-squares fit against its column ``b_j``, accepted iff
    its least residual is at most ``RESIDUAL_TOL * max(1, ||b_j||)``, and
    the first column that fails decides None.  The row sums couple the
    columns of a stochastic ``G``, so it is one fit over ``G`` flattened
    column by column, where ``kron(I, a)`` maps it onto the columns of
    ``b``, decided the same way on the whole right-hand side.
    """
    a, b = as_matrix(a), as_matrix(b)
    if not stochastic:
        columns = []
        for rhs in b.T:
            x, residual = nonnegative_fit(a, rhs)
            if residual > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
                return None
            columns.append(x)
        return np.column_stack(columns)
    m_a, m_b = a.shape[1], b.shape[1]
    coef = np.vstack([np.kron(np.eye(m_b), a), np.kron(np.ones((1, m_b)), np.eye(m_a))])
    rhs = np.concatenate([b.flatten(order="F"), np.ones(m_a)])
    x, residual = nonnegative_fit(coef, rhs)
    if residual > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        return None
    return x.reshape(m_b, m_a).T
