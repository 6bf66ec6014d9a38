import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from helpers import brute_force_lp, exact_rank
from hypothesis import assume, example, given, settings
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
# Condition 2.8e4: the identities hold only to 2.5e-10, in numpy's pinv too.
@example(a=np.array([[1, 1e-4, 1e-4, 1e-4], [1e-4, 4, 1e-4, 1e-4], [1e-4, 1e-4, 1e-4, 1e-4]]))
def test_penrose_conditions_hypothesis(a):
    result = pseudo_inverse(a)
    kept = result.singular_values[: result.rank]
    # Near the rank cutoff the identities degrade like eps * cond(A); the
    # 1e-10 guarantee is for numerically well-conditioned inputs.
    assume(result.rank == 0 or kept[0] / kept[-1] < 1e5)
    violation = penrose_violation(a, result.pinv)
    if violation >= 1e-10:
        # Some inputs admitted here lose more than eps * cond(A); numpy's
        # pinv, at the same rank cutoff, shows what any SVD pseudo-inverse loses.
        reference = np.linalg.pinv(a, max(a.shape) * numerics.RANK_TOL_FACTOR)
        assert violation < 10.0 * penrose_violation(a, reference)


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


def _oracle_shaped(rng, size=40):
    """The shape of the oracle's restricted LP: mixture weights over ``size``
    belief points (the simplex's vertices and random interior points)
    averaging to the prior, maximizing a random net value."""
    points = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=size - 3)])
    prior = rng.dirichlet(np.ones(3) * 3.0)
    values = rng.normal(size=size) - (points ** 2).sum(axis=1)
    return -values, np.column_stack([points, np.ones(size)]).T, np.append(prior, 1.0)


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
    # is the independent reference.  Same options (dual simplex, presolve
    # off), so the same pivots: the answers agree to the last bit, and
    # failures stay failures.  The LPs run one after another on this
    # thread's reused solver, so this also shows that nothing carries over.
    rng = np.random.default_rng(41)
    feasible = [_bounded_standard_form(rng) for _ in range(60)] + [
        _oracle_shaped(rng) for _ in range(20)]
    failing = [_bounded_standard_form(rng, feasible=False) for _ in range(40)] + [
        _unbounded_standard_form(rng) for _ in range(20)]
    compared = failed = 0
    for c, a, b in feasible + failing:
        ours = numerics.linprog(c, A_eq=a, b_eq=b)
        reference = scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None),
                                           method="highs-ds", options={"presolve": False})
        assert (ours.status == 0) == (reference.status == 0), (ours.message, reference.message)
        if reference.status != 0:
            failed += 1
            continue
        np.testing.assert_array_equal(ours.x, reference.x)
        np.testing.assert_array_equal(ours.eqlin.marginals, reference.eqlin.marginals)
        assert ours.fun == reference.fun and ours.nit == reference.nit
        compared += 1
    assert compared >= 80 and failed >= 30


def _answer(res) -> tuple:
    """Every field of a ``linprog`` result, arrays as their bytes."""
    solved = res.status == 0
    return (res.status, res.message, res.nit, res.fun, solved and res.x.tobytes(),
            solved and res.eqlin.marginals.tobytes())


def _solve_all(problems) -> list:
    return [_answer(numerics.linprog(c, A_eq=a, b_eq=b)) for c, a, b in problems]


def _on_new_threads(*jobs) -> list:
    """Run each job on a thread of its own, all at once, switching threads
    every microsecond; their results."""
    results = [None] * len(jobs)

    def run(i):
        results[i] = jobs[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_a_reused_solver_carries_nothing_from_one_lp_to_the_next():
    # Each thread keeps one HiGHS solver.  On a new thread the first LP
    # meets a new solver; solved again after an infeasible, an unbounded and
    # a larger LP on that solver, it gets the same point, duals, objective
    # and iteration count to the last bit.
    rng = np.random.default_rng(53)
    first = _oracle_shaped(rng)
    infeasible = (np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    sequence = [first, infeasible, _unbounded_standard_form(rng), _oracle_shaped(rng, 400), first]
    (answers,) = _on_new_threads(lambda: _solve_all(sequence))
    assert [a[0] for a in answers] == [0, 1, 1, 0, 0]
    assert "infeasible" in answers[1][1] and "unbounded" in answers[2][1]
    assert answers[0][2] > 0 and answers[3][2] > 0
    assert answers[-1] == answers[0]


def test_lps_on_two_threads_match_the_same_lps_in_series():
    rng = np.random.default_rng(59)
    problems = [_bounded_standard_form(rng, feasible=i % 3 != 0) for i in range(30)]
    problems += [_oracle_shaped(rng) for _ in range(10)] + [
        _unbounded_standard_form(rng) for _ in range(5)]
    serial = _solve_all(problems)
    evens, odds = _on_new_threads(lambda: _solve_all(problems[0::2] * 4),
                                  lambda: _solve_all(problems[1::2] * 4))
    assert evens == serial[0::2] * 4 and odds == serial[1::2] * 4
    assert {a[0] for a in serial} == {0, 1}


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


@pytest.mark.parametrize(("rhs", "miss", "passes"), [
    (3.0, 5e-8, True), (3.0, 2e-7, False), (3e10, 1e-3, True), (3e10, 3e4, False)])
def test_equality_residual_is_absolute_until_rounding_of_the_rhs_exceeds_it(
        monkeypatch, rhs, miss, passes):
    # min x1 subject to x0 + x1 = rhs: the optimum (rhs, 0) has objective,
    # duals and duality gap all zero, so moving x0 by ``miss`` leaves the
    # equality residual as the only failing check.  Below max|b| = 1e5 the
    # tolerance is the absolute 1e-7; at 3e10 it is 1e-12 of max|b|.
    c, a, b = np.array([0.0, 1.0]), np.array([[1.0, 1.0]]), np.array([rhs])
    real = numerics.linprog

    def moved(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = res.x + np.array([miss, 0.0])
        return res

    monkeypatch.setattr(numerics, "linprog", moved)
    if passes:
        x, _ = solve_lp(c, a, b)
        assert x[0] == rhs + miss
    else:
        with pytest.raises(SolverFailureError, match=r"solution failed verification \(violation="):
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


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs here and in a fresh interpreter: one payment LP on a kernel with a null
# space, a quadratic-cost oracle call and an LP-bearing `contract --verify`.
COLD_PATHS = """
import json
from click.testing import CliRunner
import infocontracts.cli
from infocontracts import (Belief, Experiment, PosteriorDistribution, agent_best_response,
                           optimal_contract, quadratic_cost)


def cold_paths(workdir):
    inputs = {"experiment": {"kernel": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]},
              "target": {"posteriors": [[0.7, 0.3], [0.3, 0.7]], "weights": [0.5, 0.5]},
              "cost": {"kind": "quadratic", "prior": [0.5, 0.5]}}
    side_bets = Experiment(inputs["experiment"]["kernel"])
    target = PosteriorDistribution(inputs["target"]["posteriors"], inputs["target"]["weights"])
    cost = quadratic_cost(Belief(inputs["cost"]["prior"]))
    report = optimal_contract(side_bets, target, cost)
    result = agent_best_response(side_bets, report.contract, cost, cost.prior, target=target)
    args = ["contract", "--verify"]
    for option, payload in inputs.items():
        path = f"{workdir}/{option}.json"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        args += [f"--{option}", path]
    verified = CliRunner().invoke(infocontracts.cli.main, args)
    return {
        "kappa": report.kappa.hex(),
        "payments": [x.hex() for x in report.contract.payments.ravel().tolist()],
        "optimal_value": result.optimal_value.hex(),
        "support": [x.hex() for b in result.support_beliefs for x in b.probs.tolist()]
        + [x.hex() for x in result.support_weights.tolist()],
        "verify": [verified.exit_code, verified.output],
    }
"""


def _fresh_python(script: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cold_paths_never_import_scipy_optimize(tmp_path):
    # numerics loads scipy's HiGHS binding from its file, so neither the
    # import nor an LP runs scipy.optimize's __init__; the answers are the
    # same bits as in this process, where scipy.optimize is loaded.
    script = COLD_PATHS + (
        "import sys\nprint(json.dumps([cold_paths(sys.argv[1]), 'scipy.optimize' in sys.modules]))")
    fresh, loaded = json.loads(_fresh_python(script, str(tmp_path)))
    assert loaded is False
    namespace = {}
    exec(COLD_PATHS, namespace)
    assert fresh == namespace["cold_paths"](tmp_path)
    exit_code, output = fresh["verify"]
    assert exit_code == 0 and abs(json.loads(output)["oracle_gap"]) <= 1e-9


BOTH_ORDERS = """
import gc
import sys
import types
for name in sys.argv[1:]:
    __import__(name)
import scipy.optimize
from infocontracts import numerics
core = "scipy.optimize._highspy._core"
cores = [m for m in gc.get_objects() if isinstance(m, types.ModuleType) and m.__name__ == core]
assert len(cores) == 1 and cores[0] is numerics._highs is sys.modules[core], cores
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert res.status == 0 and res.x.tolist() == [1.0, 0.0], res
x, y = numerics.solve_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
assert x.tolist() == [1.0, 0.0] and y.tolist() == [1.0], (x, y)
"""


@pytest.mark.parametrize("order", [("infocontracts.numerics", "scipy.optimize"),
                                   ("scipy.optimize", "infocontracts.numerics")])
def test_one_highs_binding_in_either_import_order(order):
    _fresh_python(BOTH_ORDERS, *order)


def test_a_missing_highs_binding_is_an_import_error_naming_its_folder(tmp_path):
    script = f"""
import scipy
scipy.__file__ = {str(tmp_path / "scipy" / "__init__.py")!r}
try:
    import infocontracts
except ImportError as exc:
    print(exc)
"""
    assert _fresh_python(script).strip() == (
        f"scipy's HiGHS binding is missing from {tmp_path / 'scipy' / 'optimize' / '_highspy'}")
