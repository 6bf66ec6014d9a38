import numpy as np
import pytest
from helpers import brute_force_lp, exact_rank
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infocontracts import (
    InputError,
    LpProblem,
    LpStatus,
    column_space_residual,
    matrix_rank,
    pseudo_inverse,
    solve_lp,
)

SQRT2 = np.sqrt(2.0)
# 3x3 row-stochastic kernel with linearly dependent rows (zero determinant).
DEFICIENT_3X3 = np.array([
    [2.0, SQRT2, 0.0],
    [SQRT2, 2.0, SQRT2],
    [0.0, SQRT2, 2.0],
]) / np.array([[2.0 + SQRT2], [2.0 + 2.0 * SQRT2], [2.0 + SQRT2]])


def test_identity_is_its_own_pseudo_inverse():
    result = pseudo_inverse(np.eye(2))
    np.testing.assert_allclose(result.pinv, np.eye(2), atol=1e-14)
    assert result.rank == 2


def test_symmetric_binary_kernel_inverse_closed_form():
    a = np.array([[0.7, 0.3], [0.3, 0.7]])
    result = pseudo_inverse(a)
    expected = np.array([[0.7, -0.3], [-0.3, 0.7]]) / 0.4
    np.testing.assert_allclose(result.pinv, expected, atol=1e-12)
    np.testing.assert_allclose(a @ result.pinv, np.eye(2), atol=1e-12)
    assert result.rank == 2


def test_deficient_three_state_kernel_has_rank_two():
    assert pseudo_inverse(DEFICIENT_3X3).rank == 2


def test_pseudo_inverse_rejects_bad_input():
    with pytest.raises(InputError):
        pseudo_inverse(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        pseudo_inverse(np.eye(2), rank_tol=-1.0)


def penrose_violation(a, pinv):
    worst = 0.0
    scale = max(1.0, np.linalg.norm(a))
    worst = max(worst, np.max(np.abs(a @ pinv @ a - a)) / scale)
    worst = max(worst, np.max(np.abs(pinv @ a @ pinv - pinv)) / max(1.0, np.linalg.norm(pinv)))
    worst = max(worst, np.max(np.abs((a @ pinv) - (a @ pinv).T)))
    worst = max(worst, np.max(np.abs((pinv @ a) - (pinv @ a).T)))
    return worst


def test_penrose_conditions_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(300):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.normal(size=(rows, cols))
        if rng.random() < 0.3:
            # force rank deficiency by duplicating a row or column
            if rows > 1:
                a[rng.integers(rows)] = a[rng.integers(rows)]
        result = pseudo_inverse(a)
        assert penrose_violation(a, result.pinv) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    a=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(min_value=-10.0, max_value=10.0),
    )
)
def test_penrose_conditions_hypothesis(a):
    result = pseudo_inverse(a)
    kept = result.singular_values[: result.rank]
    # Near the rank cutoff the identities degrade like eps * cond(A); the
    # 1e-10 guarantee is for numerically well-conditioned inputs.
    assume(result.rank == 0 or kept[0] / kept[-1] < 1e5)
    assert penrose_violation(a, result.pinv) < 1e-10


def test_rank_matches_exact_row_reduction_on_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows, cols = rng.integers(1, 7, size=2)
        a = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        if rows > 1 and rng.random() < 0.5:
            a[rng.integers(rows)] = a[rng.integers(rows)] * rng.integers(-2, 3)
        assert matrix_rank(a) == exact_rank(a)


def test_column_space_residual_identity_and_membership():
    assert column_space_residual(np.eye(3), [1.0, -2.0, 0.5]) < 1e-14

    a = np.array([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
    v = np.array([np.log(3.0), -np.log(3.0), 0.0])
    # Col(a) only holds vectors with equal first two coordinates.
    assert column_space_residual(a, v) > 1.0

    b = np.array([[3 / 4, 1 / 4], [1 / 4, 3 / 4], [1 / 2, 1 / 2]])
    # v3 = (v1 + v2) / 2 characterizes Col(b); the same v now fits.
    assert column_space_residual(b, v) < 1e-12


def test_column_space_residual_vanishes_on_range_vectors():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = rng.integers(1, 8, size=2)
        a = rng.normal(size=(rows, cols))
        v = a @ rng.normal(size=cols)
        assert column_space_residual(a, v) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_lp_simple_minimum():
    sol = solve_lp(LpProblem(c=np.array([1.0]), bounds=[(3.0, None)]))
    assert sol.is_optimal
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_lp_scalar_scaling_feasibility():
    sol = solve_lp(LpProblem(
        c=np.zeros(1),
        a_eq=np.array([[0.7], [0.3]]), b_eq=np.array([0.35, 0.15]),
        bounds=(0, None),
    ))
    assert sol.is_optimal
    assert sol.x[0] == pytest.approx(0.5, abs=1e-9)


def test_lp_infeasible():
    sol = solve_lp(LpProblem(
        c=np.zeros(1),
        a_eq=np.array([[1.0], [-1.0]]), b_eq=np.array([1.0, 1.0]),
        bounds=(0, None),
    ))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_lp_unbounded():
    sol = solve_lp(LpProblem(c=np.array([-1.0]), bounds=(0, None)))
    assert sol.status is LpStatus.UNBOUNDED


def test_lp_optimal_solutions_satisfy_constraints():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.integers(1, 5)
        k = rng.integers(1, 6)
        problem = LpProblem(
            c=rng.normal(size=n),
            a_ub=rng.normal(size=(k, n)), b_ub=rng.normal(size=k) + 1.0,
            bounds=[(-2.0, 2.0)] * n,
        )
        sol = solve_lp(problem)
        if sol.is_optimal:
            assert sol.max_violation <= 1e-7


def test_lp_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, 7))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(k, n)) if k else None
        b_ub = rng.normal(size=k) + 0.5 if k else None
        use_eq = n >= 2 and rng.random() < 0.4
        a_eq = rng.normal(size=(1, n)) if use_eq else None
        b_eq = rng.normal(size=1) * 0.3 if use_eq else None
        status, value = brute_force_lp(c, a_ub, b_ub, a_eq, b_eq, box=2.0)
        sol = solve_lp(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                                 bounds=[(-2.0, 2.0)] * n))
        if status == "infeasible":
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.is_optimal
            assert sol.objective == pytest.approx(value, abs=1e-6)
            checked += 1
    assert checked >= 20


def test_lp_exposes_duals_consistent_with_weak_duality():
    # min c.x, A_ub x <= b: dual objective b.y with y <= 0 must not exceed
    # the primal optimum.
    problem = LpProblem(
        c=np.array([1.0, 2.0]),
        a_ub=np.array([[-1.0, -1.0]]), b_ub=np.array([-1.0]),
        bounds=(0, None),
    )
    sol = solve_lp(problem)
    assert sol.is_optimal
    assert sol.dual_ub is not None
    dual_value = float(problem.b_ub @ sol.dual_ub)
    assert dual_value <= sol.objective + 1e-9


def test_one_svd_yields_projector_and_null_basis():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = rng.integers(1, 8, size=2)
        a = rng.normal(size=(rows, cols))
        if rows > 1 and rng.random() < 0.5:
            a[rng.integers(rows)] = a[rng.integers(rows)]
        result = pseudo_inverse(a)
        basis = result.null_basis
        assert basis.shape == (cols, cols - result.rank)
        np.testing.assert_allclose(a @ basis, 0.0, atol=1e-10)
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        np.testing.assert_allclose(result.projector, a @ result.pinv, atol=1e-10)


def test_only_a_null_basis_builds_full_factors(monkeypatch):
    # Rank and residual queries keep the reduced SVD; a pseudo-inverse needs
    # the full V only for the null basis of a wide matrix.  Nothing
    # rows x rows is built for a tall one.
    shapes = []
    svd = np.linalg.svd

    def recorded(*args, **kwargs):
        u, s, vt = svd(*args, **kwargs)
        shapes.append((u.shape, vt.shape))
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", recorded)
    tall = np.random.default_rng(17).normal(size=(3000, 3))
    tall[:, 2] = tall[:, 0] + tall[:, 1]
    for a in (tall, tall[:400].T):
        shapes.clear()
        rows, cols = a.shape
        result = pseudo_inverse(a)
        assert result.rank == matrix_rank(a) == 2
        assert column_space_residual(a, a[:, 0]) < 1e-9
        reduced = ((rows, 3), (3, cols))
        assert shapes[1:] == [reduced, reduced]
        assert shapes[0] == (reduced if rows > cols else ((rows, rows), (cols, cols)))
        assert result.null_basis.shape == (cols, cols - 2)
        np.testing.assert_allclose(a @ result.null_basis, 0.0, atol=1e-9)


def test_bounds_check_agrees_with_a_per_variable_loop():
    from infocontracts.numerics import _bounds_violation

    def reference(x, bounds):
        if isinstance(bounds, tuple):
            bounds = [bounds] * x.size
        worst = 0.0
        for xi, (lo, hi) in zip(x, bounds):
            if lo is not None:
                worst = max(worst, lo - xi)
            if hi is not None:
                worst = max(worst, xi - hi)
        return worst

    rng = np.random.default_rng(13)
    choices = [None, -1.0, 0.0, 0.5, 2.0]
    for _ in range(300):
        n = int(rng.integers(1, 7))
        x = rng.normal(size=n)
        pairs = [(choices[rng.integers(5)], choices[rng.integers(5)]) for _ in range(n)]
        for bounds in (pairs, pairs[0]):
            assert _bounds_violation(x, bounds) == reference(x, bounds)
