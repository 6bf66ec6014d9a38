import logging

import numpy as np
import pytest
import scipy.optimize
from helpers import brute_force_lp, exact_rank
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infocontracts import (
    DimensionMismatchError,
    InputError,
    SolverFailureError,
    column_space_residual,
    matrix_rank,
    numerics,
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
    # Scaled by the largest entry, not the Frobenius norm: the norm of a
    # pinv with entries near 1e200 overflows and would zero the second term.
    worst = 0.0
    worst = max(worst, np.max(np.abs(a @ pinv @ a - a)) / max(1.0, np.abs(a).max()))
    worst = max(worst, np.max(np.abs(pinv @ a @ pinv - pinv)) / max(1.0, np.abs(pinv).max()))
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
    # min x1 with x1 - x2 = 3: the slack x2 >= 0 makes x1 >= 3.
    x, _ = solve_lp(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([3.0]))
    assert x[0] == pytest.approx(3.0, abs=1e-9)


def test_lp_scalar_scaling_feasibility():
    x, _ = solve_lp(np.zeros(1), np.array([[0.7], [0.3]]), np.array([0.35, 0.15]))
    assert x[0] == pytest.approx(0.5, abs=1e-9)


def test_lp_infeasible():
    with pytest.raises(SolverFailureError, match="infeasible"):
        solve_lp(np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


def test_lp_unbounded():
    with pytest.raises(SolverFailureError, match="unbounded"):
        solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    rng = np.random.default_rng(43)
    for _ in range(10):
        with pytest.raises(SolverFailureError, match="unbounded"):
            solve_lp(*_unbounded_standard_form(rng))


def test_lp_rejects_mismatched_dimensions():
    # HiGHS takes its sizes from the matrix and does not refuse a vector of
    # another length (a 3-entry cost on a 2-column matrix solves as
    # "optimal"), so solve_lp must refuse it first.
    a = np.array([[1.0, -1.0]])
    for c, b in ((np.ones(3), np.ones(1)), (np.ones(1), np.ones(1)), (np.ones(2), np.ones(2))):
        with pytest.raises(DimensionMismatchError):
            solve_lp(c, a, b)


def _bounded_standard_form(rng, feasible=True):
    """Random LP over the simplex (first row ``1'x = 1``) with up to two
    more rows: feasible by construction, or with the other rows'
    right-hand side drawn at random (often infeasible) when not
    ``feasible``."""
    n = int(rng.integers(2, 7))
    a = np.vstack([np.ones(n), rng.normal(size=(int(rng.integers(0, 3)), n))])
    if feasible:
        b = a @ rng.dirichlet(np.ones(n))
    else:
        b = np.append(1.0, 3.0 * rng.normal(size=a.shape[0] - 1))
    return rng.normal(size=n), a, b


def _unbounded_standard_form(rng):
    """Feasible LP with a recession direction ``1`` (``a @ 1 = 0``) along
    which the objective falls without end."""
    n = int(rng.integers(3, 7))
    a = rng.normal(size=(int(rng.integers(1, 3)), n))
    a[:, -1] = -a[:, :-1].sum(axis=1)
    c = rng.normal(size=n)
    c[-1] -= c.sum() + 1.0
    return c, a, a @ rng.dirichlet(np.ones(n))


def _oracle_shaped(rng):
    """The grid oracle's restricted LP: mixture weights over belief points
    (the simplex's vertices and random interior points) averaging to the
    prior, maximizing a random net value."""
    points = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=37)])
    prior = rng.dirichlet(np.ones(3) * 3.0)
    values = rng.normal(size=40) - (points ** 2).sum(axis=1)
    return -values, np.column_stack([points, np.ones(40)]).T, np.append(prior, 1.0)


def test_lp_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(9)
    checked = infeasible = 0
    for i in range(80):
        c, a, b = _bounded_standard_form(rng, feasible=i % 4 != 0)
        status, value = brute_force_lp(c, a, b)
        if status == "infeasible":
            with pytest.raises(SolverFailureError):
                solve_lp(c, a, b)
            infeasible += 1
        else:
            x, _ = solve_lp(c, a, b)
            assert x.min() >= 0.0
            np.testing.assert_allclose(a @ x, b, atol=1e-7)
            assert float(c @ x) == pytest.approx(value, abs=1e-6)
            checked += 1
    assert checked >= 50 and infeasible >= 5


def test_lp_duals_certify_the_optimum():
    # The equality duals y solve max b'y subject to A'y <= c: reduced costs
    # are nonnegative and the duality gap closes.  The oracle's stopping
    # rule trusts exactly this of its restricted LPs.
    rng = np.random.default_rng(21)
    problems = [_bounded_standard_form(rng) for _ in range(100)]
    problems += [_oracle_shaped(rng) for _ in range(20)]
    for c, a, b in problems:
        x, y = solve_lp(c, a, b)
        assert y.shape == b.shape
        assert np.min(c - a.T @ y) >= -1e-9
        assert abs(c @ x - b @ y) <= 1e-9 * max(1.0, abs(c @ x))


def test_direct_highs_call_matches_scipy_linprog():
    # numerics.linprog poses the LP to HiGHS itself; scipy's public linprog
    # is the independent reference.  Same options, so the same pivots: the
    # answers agree to the last bit, and failures stay failures.
    rng = np.random.default_rng(41)
    feasible = [_bounded_standard_form(rng) for _ in range(60)] + [
        _oracle_shaped(rng) for _ in range(20)]
    failing = [_bounded_standard_form(rng, feasible=False) for _ in range(40)] + [
        _unbounded_standard_form(rng) for _ in range(20)]
    compared = failed = 0
    for c, a, b in feasible + failing:
        ours = numerics.linprog(c, A_eq=a, b_eq=b)
        reference = scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert (ours.status == 0) == (reference.status == 0), (ours.message, reference.message)
        if reference.status != 0:
            failed += 1
            continue
        np.testing.assert_array_equal(ours.x, reference.x)
        np.testing.assert_array_equal(ours.eqlin.marginals, reference.eqlin.marginals)
        assert ours.fun == reference.fun and ours.nit == reference.nit
        compared += 1
    assert compared >= 80 and failed >= 30


def test_perturbed_duals_fail_the_dual_certificate(monkeypatch):
    # The primal answer is intact, so only the dual check can catch a wrong
    # y.  Moving y along e_1 - prior_1 e_last keeps b'y but drives the
    # reduced cost of a support point negative; moving it along -e_last
    # keeps every reduced cost nonnegative but opens the duality gap.
    c, a, b = _oracle_shaped(np.random.default_rng(47))
    real = numerics.linprog
    along_e1 = np.zeros(b.size)
    along_e1[0], along_e1[-1] = 1.0, -b[0]
    for shift, numbers in ((1e-3 * along_e1, r"reduced cost=-\S+, gap="),
                           (-1e-3 * np.eye(b.size)[-1], r"reduced cost=\d\S+, gap=1\.000e-03")):
        def perturbed(*args, shift=shift, **kwargs):
            res = real(*args, **kwargs)
            res.eqlin.marginals = res.eqlin.marginals + shift
            return res

        monkeypatch.setattr(numerics, "linprog", perturbed)
        with pytest.raises(SolverFailureError, match=r"failed dual verification \(" + numbers):
            solve_lp(c, a, b)


def test_each_lp_logs_one_debug_line(caplog):
    c, a, b = np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([3.0])
    with caplog.at_level(logging.INFO, logger="infocontracts.numerics"):
        solve_lp(c, a, b)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="infocontracts.numerics"):
        solve_lp(c, a, b)
        with pytest.raises(SolverFailureError):
            solve_lp(np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    solved, failed = (r.getMessage() for r in caplog.records)
    assert solved.startswith("LP 1x2: optimal after ") and "duality gap 0.000e+00" in solved
    assert failed.startswith("LP 2x1: infeasible after ")


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
