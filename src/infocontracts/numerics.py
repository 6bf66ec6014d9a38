"""Dense matrix kernels, nonnegative least squares, and the one LP call
used by every other module.

Every nonnegative-feasibility question (is there ``x >= 0`` with
``A x = b``?) is answered by :func:`nonnegative_fit` and decided by its
residual.  HiGHS is kept for the LPs that optimize an objective, which are
all in standard form: ``min c'x`` subject to ``A x = b`` and ``x >= 0``.
:func:`solve_lp` calls scipy's bundled HiGHS binding directly (dual simplex,
a fresh solver per call), certifies each optimum by a primal re-check and
LP duality to ``LP_FEASIBILITY_TOL``, returns an exactly nonnegative ``x``
and the equality duals, and raises :class:`SolverFailureError` on anything
else.  Each LP is logged at DEBUG on this module's logger.

Everything here is pure: inputs are never mutated and calls on distinct
problem instances are safe to run concurrently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeResult, nnls
from scipy.optimize._highspy import _core as _highs

from .errors import DimensionMismatchError, InputError, SolverFailureError

# Default relative factor for the singular-value rank cutoff.  The cutoff is
# sigma_max * max(rows, cols) * RANK_TOL_FACTOR, i.e. scale-free.
RANK_TOL_FACTOR = 1e-12

# Feasibility tolerances: LP constraint and sign violation, and the
# relative least-squares residual behind every column-space and
# nonnegative-fit verdict.
LP_FEASIBILITY_TOL = 1e-7
RESIDUAL_TOL = 1e-9

_log = logging.getLogger(__name__)


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


def linprog(c, A_eq, b_eq) -> OptimizeResult:
    """``min c @ x`` subject to ``A_eq @ x = b_eq`` and ``x >= 0`` by one
    fresh HiGHS dual-simplex solve: the options and pivots of
    ``scipy.optimize.linprog(..., method="highs")`` without its wrapper.
    It keeps ``linprog``'s name, keywords and result fields because the
    benchmark tracer and the tests patch this seam.  ``status`` is 0 on an
    optimum, else 1 with HiGHS's model status in lower case as ``message``.
    """
    (m, n), at = A_eq.shape, A_eq.T
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.zeros(n), np.full(n, np.inf)
    lp.row_lower_ = lp.row_upper_ = b_eq
    cols, rows = np.nonzero(at)  # column-major order: compressed sparse columns
    matrix = lp.a_matrix_
    matrix.format_, matrix.num_col_, matrix.num_row_ = _highs.MatrixFormat.kColwise, n, m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    matrix.index_, matrix.value_ = rows.astype(np.int32), at[cols, rows]
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("simplex_strategy", 1)
    highs.passModel(lp)
    highs.run()
    status, info = highs.getModelStatus(), highs.getInfo()
    result = OptimizeResult(status=int(status != _highs.HighsModelStatus.kOptimal),
                            message=highs.modelStatusToString(status).lower(),
                            x=None, fun=None, nit=info.simplex_iteration_count)
    if result.status == 0:
        solution = highs.getSolution()
        result.update(x=np.array(solution.col_value), fun=info.objective_function_value,
                      eqlin=OptimizeResult(marginals=np.array(solution.row_dual)))
    return result


def solve_lp(c, a_eq, b_eq) -> tuple[np.ndarray, np.ndarray]:
    """``x >= 0`` minimizing ``c @ x`` subject to ``a_eq @ x = b_eq``, and
    the equality duals ``y``, by :func:`linprog`.

    Raises :class:`SolverFailureError`, with HiGHS's message, unless HiGHS
    reports an optimum that passes a re-check at ``tol = LP_FEASIBILITY_TOL``:
    the equality residual, ``min(x) >= -tol``, agreement between ``c @ x``
    and the reported objective, and the dual certificate, reduced costs
    ``c - a_eq' y >= -tol * max(1, max|c|)`` and a duality gap
    ``|c'x - b'y| <= tol * max(1, |c'x|)``.  The returned ``x`` is then
    clipped at zero, so it is exactly nonnegative.
    """
    c = as_vector(c, "objective")
    a_eq, b_eq = as_matrix(a_eq, "A_eq"), as_vector(b_eq, "b_eq")
    if a_eq.shape != (b_eq.size, c.size):
        raise DimensionMismatchError(
            f"A_eq of shape {a_eq.shape} vs {b_eq.size} rows and {c.size} columns")
    res = linprog(c, A_eq=a_eq, b_eq=b_eq)
    if res.status != 0:
        _log.debug("LP %dx%d: %s after %s simplex iterations",
                   *a_eq.shape, res.message, res.get("nit"))
        raise SolverFailureError(res.message)
    x, y = np.asarray(res.x, dtype=float), np.asarray(res.eqlin.marginals, dtype=float)
    objective = float(c @ x)
    gap, scale = abs(objective - float(b_eq @ y)), LP_FEASIBILITY_TOL * max(1.0, abs(objective))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("LP %dx%d: %s after %d simplex iterations, duality gap %.3e",
                   *a_eq.shape, res.message, res.nit, gap)
    violation = max(float(np.max(np.abs(a_eq @ x - b_eq))), -float(x.min()))
    if violation > LP_FEASIBILITY_TOL or abs(objective - res.fun) > scale:
        raise SolverFailureError(f"solution failed verification (violation={violation:.3e})")
    reduced = float(np.min(c - a_eq.T @ y))
    if reduced < -LP_FEASIBILITY_TOL * max(1.0, float(np.max(np.abs(c)))) or gap > scale:
        raise SolverFailureError(
            f"solution failed dual verification (reduced cost={reduced:.3e}, gap={gap:.3e})")
    return np.maximum(x, 0.0), y


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
