import numpy as np
import pytest
from helpers import (
    corner_multiplier_instance,
    equal_rows_instance,
    grid_lp_best_response,
    grid_priced,
    random_interior_prior,
    random_stochastic,
    shannon_entropy,
    stalled_linprog,
    tilted_implementable_target,
)

from infocontracts import (
    Belief,
    Contract,
    Experiment,
    GridSpec,
    InputError,
    NotImplementableError,
    SolverFailureError,
    agent_best_response,
    custom_cost,
    entropy_cost,
    first_best_contract,
    optimal_contract,
    oracle,
    posteriors,
    quadratic_cost,
    simplex_grid,
    synthesize_family,
    verify_contract,
)

BINARY = Experiment([[0.7, 0.3], [0.3, 0.7]])


@pytest.fixture
def binary_instance():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    target = posteriors(BINARY, prior)
    return prior, cost, target


def test_simplex_grid_shapes():
    two = simplex_grid(2, 101)
    assert two.shape == (101, 2)
    np.testing.assert_allclose(two.sum(axis=1), 1.0)
    three = simplex_grid(3, 101)
    assert three.shape == (101 * 102 // 2, 3)
    np.testing.assert_allclose(three.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(InputError):
        simplex_grid(4, 101)


def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec(resolution=50).points_per_axis(2)
    assert GridSpec().points_per_axis(2) == 2001
    assert GridSpec().points_per_axis(3) == 201


def test_zero_contract_means_no_learning(binary_instance):
    prior, cost, _ = binary_instance
    result = agent_best_response(BINARY, Contract(np.zeros((2, 2))), cost, prior)
    assert result.optimal_value == pytest.approx(0.0, abs=1e-12)
    assert len(result.support_beliefs) == 1
    np.testing.assert_allclose(result.support_beliefs[0].probs, prior.probs, atol=1e-9)


def test_first_best_gives_agent_zero_net_payoff(binary_instance):
    prior, cost, target = binary_instance
    contract = first_best_contract(BINARY, target, cost)
    result = agent_best_response(BINARY, contract, cost, prior, target=target)
    assert abs(result.optimal_value) <= 1e-6
    assert result.gap <= 1e-6


def test_optimal_contract_round_trip(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    result = agent_best_response(BINARY, report.contract, cost, prior, target=target)
    assert result.gap <= 1e-6
    assert result.gap >= -1e-9
    # the prescribed posteriors appear in the optimal support
    support = np.array([b.probs for b in result.support_beliefs])
    for belief in target.beliefs:
        assert np.min(np.linalg.norm(support - belief.probs[None, :], axis=1)) <= 1e-6
    assert verify_contract(BINARY, target, cost, report.contract)


def test_zero_contract_fails_verification_for_costly_target(binary_instance):
    prior, cost, target = binary_instance
    assert not verify_contract(BINARY, target, cost, Contract(np.zeros((2, 2))))


def test_perturbed_binding_cell_breaks_optimality(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    payments = report.contract.payments.copy()
    row, col = report.binding_cells[0]
    payments[row, col] += 0.1            # reward a wrong report
    perturbed = Contract(payments)
    result = agent_best_response(BINARY, perturbed, cost, prior, target=target)
    assert result.gap > 1e-5
    assert not verify_contract(BINARY, target, cost, perturbed)


def test_family_members_verify_globally(binary_instance):
    prior, cost, target = binary_instance
    family = synthesize_family(BINARY, target, cost)
    rng = np.random.default_rng(3)
    for _ in range(5):
        member = family.sample_member(rng)
        assert verify_contract(BINARY, target, cost, member)


def test_report_independent_bonus_shifts_value_linearly(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    base_result = agent_best_response(BINARY, report.contract, cost, prior, target=target)
    bonus = np.array([0.25, 0.4])
    shifted = Contract(report.contract.payments + bonus[:, None])
    shifted_result = agent_best_response(BINARY, shifted, cost, prior, target=target)
    expected_shift = float(prior.probs @ BINARY.kernel @ bonus)
    assert shifted_result.optimal_value - base_result.optimal_value == pytest.approx(
        expected_shift, abs=1e-9)
    before = sorted(tuple(np.round(b.probs, 6)) for b in base_result.support_beliefs)
    after = sorted(tuple(np.round(b.probs, 6)) for b in shifted_result.support_beliefs)
    assert before == after


def test_optimum_at_least_value_of_no_learning(binary_instance):
    prior, cost, _ = binary_instance
    rng = np.random.default_rng(11)
    for _ in range(10):
        contract = Contract(rng.uniform(0.0, 2.0, size=(2, 2)))
        result = agent_best_response(BINARY, contract, cost, prior)
        utilities = BINARY.kernel @ contract.payments
        stay_put = float(np.max(prior.probs @ utilities))
        assert result.optimal_value >= stay_put - 1e-9


def test_grid_refinement_converges(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    coarse = agent_best_response(BINARY, report.contract, grid_priced(cost), prior,
                                 grid=GridSpec(resolution=501), target=target)
    fine = agent_best_response(BINARY, report.contract, grid_priced(cost), prior,
                               grid=GridSpec(resolution=1001), target=target)
    assert abs(fine.optimal_value - coarse.optimal_value) <= max(coarse.gap, 1e-9) + 1e-9


def test_boundary_beliefs_never_support_entropy_optimum(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    result = agent_best_response(BINARY, report.contract, cost, prior, target=target)
    for belief in result.support_beliefs:
        assert belief.probs.min() > 1e-9


def test_three_state_oracle_confirms_corner_synthesis():
    rng = np.random.default_rng(21)
    cases = 0
    while cases < 5:
        kernel = random_stochastic(rng, 3, 2)
        target, cost = tilted_implementable_target(rng, kernel)
        e = Experiment(kernel)
        try:
            family = synthesize_family(e, target, cost)
        except NotImplementableError:
            continue
        member = family.member()
        result = agent_best_response(e, member, cost, cost.prior,
                                     grid=GridSpec(resolution=151), target=target)
        assert result.gap <= 1e-5
        cases += 1


def test_positive_verdicts_round_trip_through_synthesis_and_oracle():
    # Whenever the feasibility check says yes, synthesis must deliver a
    # contract whose first-order residual vanishes and whose target the
    # independent solver confirms as globally optimal.
    from helpers import random_binary_experiment, random_binary_target, random_interior_prior
    from infocontracts import check_implementable

    rng = np.random.default_rng(31)
    confirmed = 0
    while confirmed < 15:
        if rng.random() < 0.5:
            e = random_binary_experiment(rng)
            prior = random_interior_prior(rng, 2)
            cost = entropy_cost(prior)
            target = random_binary_target(rng, prior)
            grid = GridSpec()
        else:
            kernel = random_stochastic(rng, 3, 2)
            e = Experiment(kernel)
            target, cost = tilted_implementable_target(rng, kernel)
            grid = GridSpec(resolution=151)
        if not check_implementable(e, target, cost).implementable:
            continue
        family = synthesize_family(e, target, cost)
        member = family.sample_member(rng)
        assert family.foc_deviation(member) <= 1e-9
        assert verify_contract(e, target, cost, member, grid=grid)
        confirmed += 1


def test_unsupported_state_count():
    cost = grid_priced(entropy_cost(Belief.uniform(4)))
    e = Experiment(np.eye(4))
    with pytest.raises(InputError):
        agent_best_response(e, Contract(np.zeros((4, 4))), cost, Belief.uniform(4))


def test_everywhere_infinite_cost_is_an_error():
    from infocontracts import custom_cost

    prior = Belief.uniform(2)
    impossible = custom_cost(
        prior, lambda mu: np.inf, lambda mu: np.zeros(2),
        strictly_convex=False, infinite_boundary_slope=False,
        finite_on_boundary=False, validate=False,
    )
    with pytest.raises(InputError):
        agent_best_response(Experiment(np.eye(2)), Contract(np.zeros((2, 2))),
                            impossible, prior)


def test_grid_augmentation_and_spec_round_trip(binary_instance):
    prior, cost, target = binary_instance
    special = Belief([0.123, 0.877])
    grid = GridSpec(resolution=101, augment=(special,))
    assert GridSpec.from_dict(grid.to_dict()).resolution == 101
    report = optimal_contract(BINARY, target, cost)
    result = agent_best_response(BINARY, report.contract, grid_priced(cost), prior,
                                 grid=grid, target=target)
    # augmented points participate: grid carries base + prior + target + extra
    assert result.n_grid_points == 101 + 1 + 2 + 1


def _grid_cases():
    """(experiment, contract, cost, prior, grid, target) over every regime
    the column-generation route must match the full grid LP on."""
    rng = np.random.default_rng(41)
    coarse = GridSpec(resolution=101)
    cases = []
    for _ in range(4):           # 3 states, Dirichlet priors, random contracts
        prior = Belief(rng.dirichlet(np.full(3, 2.0)))
        cost = (grid_priced(entropy_cost(prior)) if rng.random() < 0.5
                else quadratic_cost(prior, rng.uniform(0.5, 2)))
        e = Experiment(random_stochastic(rng, 3, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), cost, prior, coarse, None))
    for _ in range(4):           # 2 states, random contracts, default grid
        prior = random_interior_prior(rng, 2)
        cost = (grid_priced(entropy_cost(prior)) if rng.random() < 0.5
                else quadratic_cost(prior, rng.uniform(0.5, 2)))
        e = Experiment(random_stochastic(rng, 2, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 2))), cost, prior, GridSpec(), None))
    for _ in range(3):           # rank-deficient equal-row kernels, optimal contracts
        e, target, cost = equal_rows_instance(rng)
        contract = optimal_contract(e, target, cost).contract
        cases.append((e, contract, grid_priced(cost), cost.prior, coarse, target))
    for _ in range(3):           # 3x2 corner kernels, quadratic cost, optimal contracts
        e, target, cost = corner_multiplier_instance(rng)
        contract = optimal_contract(e, target, cost).contract
        cases.append((e, contract, cost, cost.prior, coarse, target))
    e, target, cost = equal_rows_instance(rng)   # augment beliefs off the grid
    extra = (Belief([0.1234, 0.4321, 0.4445]), Belief([0.7071, 0.1, 0.1929]))
    cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), grid_priced(cost), cost.prior,
                  GridSpec(resolution=101, augment=extra), target))
    prior = Belief([0.3, 0.3, 0.4])              # infinite price where mu_1 > 0.8
    walled = custom_cost(
        prior, lambda mu: np.inf if mu[0] > 0.8 else float(np.sum((mu - prior.probs) ** 2)),
        lambda mu: 2.0 * (mu - prior.probs), strictly_convex=True,
        infinite_boundary_slope=False, finite_on_boundary=False, validate=False,
    )
    cases.append((Experiment(np.eye(3)), Contract(np.diag([3.0, 1.0, 0.5])), walled, prior,
                  coarse, None))
    return cases


@pytest.mark.parametrize("case", _grid_cases())
def test_column_generation_matches_the_full_grid_lp(case):
    e, contract, cost, prior, grid, target = case
    result = agent_best_response(e, contract, cost, prior, grid=grid, target=target)
    full = grid_lp_best_response(e, contract, cost, prior, grid=grid, target=target)
    assert abs(result.optimal_value - full) <= 1e-9
    weights = result.support_weights
    support = np.array([b.probs for b in result.support_beliefs])
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(weights @ support, prior.probs, rtol=0, atol=1e-9)
    assert np.all(np.isfinite(cost.value_many(support)))


def _spy_envelope(monkeypatch):
    seen = {}
    concavify = oracle._concavify

    def spy(points, values, prior, start):
        seen.update(points=points, values=values, start=start,
                    envelope=concavify(points, values, prior, start))
        return seen["envelope"]

    monkeypatch.setattr(oracle, "_concavify", spy)
    return seen


def _plane_excess(seen) -> float:
    """Largest amount by which a grid value exceeds the final dual plane,
    and the tolerance the route stops at."""
    points, values = seen["points"], seen["values"]
    lifted = np.column_stack([points, np.ones(len(points))])
    excess = float(np.max(values - lifted @ seen["envelope"].plane))
    return excess, oracle.PRICING_TOL * max(1.0, float(np.abs(values).max()))


def test_pricing_certifies_an_optimum_outside_the_starting_set(monkeypatch):
    # Report 1 pays five times report 2, so the highest values all sit near
    # the first vertex; the envelope also needs an interior belief leaning
    # to state 2, which the starting set does not hold.
    seen = _spy_envelope(monkeypatch)
    prior = Belief([0.6, 0.4])
    result = agent_best_response(Experiment(np.eye(2)), Contract(np.diag([5.0, 1.0])),
                                 grid_priced(entropy_cost(prior)), prior)
    assert result.pricing_rounds > 1
    support = {tuple(b.probs) for b in result.support_beliefs}
    starting = {tuple(seen["points"][i]) for i in seen["start"]}
    assert support - starting
    excess, tol = _plane_excess(seen)
    assert excess <= tol
    payments = np.diag([5.0, 1.0])
    full = grid_lp_best_response(Experiment(np.eye(2)), Contract(payments),
                                 grid_priced(entropy_cost(prior)), prior)
    assert abs(result.optimal_value - full) <= 1e-9


@pytest.mark.parametrize("payments", [np.zeros((3, 3)), np.array([[1.0] * 3, [0.5] * 3, [2.0] * 3])])
def test_flat_envelope_is_certified_at_the_prior(monkeypatch, payments):
    # A zero or report-independent contract pays an affine function of the
    # belief, so the net value is concave and the agent stays at the prior.
    seen = _spy_envelope(monkeypatch)
    prior = Belief([0.2, 0.5, 0.3])
    e = Experiment([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    result = agent_best_response(e, Contract(payments), grid_priced(entropy_cost(prior)), prior,
                                 grid=GridSpec(resolution=101))
    assert result.optimal_value == pytest.approx(float(prior.probs @ e.kernel @ payments[:, 0]),
                                                 abs=1e-12)
    assert len(result.support_beliefs) == 1
    np.testing.assert_allclose(result.support_beliefs[0].probs, prior.probs, atol=1e-12)
    excess, tol = _plane_excess(seen)
    assert excess <= tol


def test_result_reports_columns_and_rounds(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    result = agent_best_response(BINARY, report.contract, grid_priced(cost), prior, target=target)
    payload = result.to_dict()
    for key in ("lp_columns", "pricing_rounds"):
        assert type(payload[key]) is int and payload[key] > 0
        assert payload[key] == getattr(result, key)
    assert result.lp_columns < result.n_grid_points


def test_three_state_solve_at_401_points_per_axis_stays_small():
    rng = np.random.default_rng(43)
    e, target, cost = equal_rows_instance(rng)
    contract = optimal_contract(e, target, cost).contract
    result = agent_best_response(e, contract, grid_priced(cost), cost.prior,
                                 grid=GridSpec(resolution=401), target=target)
    assert result.n_grid_points == 401 * 402 // 2 + 1 + target.size
    assert result.lp_columns <= 1000
    assert -1e-9 <= result.gap <= 1e-6


def test_failed_restricted_lp_is_a_solver_failure(binary_instance, monkeypatch):
    from infocontracts import numerics

    prior, cost, _ = binary_instance
    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    with pytest.raises(SolverFailureError, match="best-response LP did not resolve: stalled"):
        agent_best_response(BINARY, Contract(np.eye(2)), grid_priced(cost), prior)


def test_cost_infinite_at_the_prior_is_an_input_error():
    prior = Belief([0.5, 0.5])
    walled = custom_cost(
        prior, lambda mu: np.inf if mu[0] >= 0.5 else 0.0, lambda mu: np.zeros(2),
        strictly_convex=False, infinite_boundary_slope=False,
        finite_on_boundary=False, validate=False,
    )
    with pytest.raises(InputError, match="infinite at the prior"):
        agent_best_response(Experiment(np.eye(2)), Contract(np.zeros((2, 2))), walled, prior)


def test_simplex_grid_matches_the_row_by_row_construction():
    for points in (101, 150, 201):
        steps = points - 1
        rows = [np.column_stack([np.full(steps - i + 1, i), np.arange(steps - i + 1),
                                 steps - i - np.arange(steps - i + 1)])
                for i in range(steps + 1)]
        np.testing.assert_array_equal(simplex_grid(3, points), np.vstack(rows) / steps)


def _entropy_cases():
    """(experiment, contract, cost, agent prior) for the entropy route,
    with contracts that are not optimal for any particular target."""
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(3):           # 2 states, random contracts
        prior = random_interior_prior(rng, 2)
        e = Experiment(random_stochastic(rng, 2, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), entropy_cost(prior), prior))
    for _ in range(3):           # 3 states, Dirichlet priors, random contracts
        prior = Belief(rng.dirichlet(np.full(3, 2.0)))
        e = Experiment(random_stochastic(rng, 3, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), entropy_cost(prior), prior))
    for _ in range(2):           # rank-2 equal-row kernels
        e, _, cost = equal_rows_instance(rng)
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), cost, cost.prior))
    payments = rng.uniform(0, 2, (3, 3))
    payments[:, 0] = 0.5 * payments[:, 1]        # report 1 is dominated: optimum on a face
    prior = Belief([0.3, 0.45, 0.25])
    cases.append((Experiment(random_stochastic(rng, 3, 3)), Contract(payments),
                  entropy_cost(prior), prior))
    prior = Belief([0.2, 0.5, 0.3])              # entropy in bits
    cases.append((Experiment(random_stochastic(rng, 3, 2)), Contract(rng.uniform(0, 3, (2, 3))),
                  entropy_cost(prior, log_base=2), prior))
    prior = Belief([0.5, 0.2, 0.3])              # the agent's prior is not the cost's
    cases.append((Experiment(random_stochastic(rng, 3, 3)), Contract(rng.uniform(0, 2, (3, 2))),
                  entropy_cost(Belief.uniform(3)), prior))
    return cases


def _independent_net_value(e, contract, cost, beliefs) -> np.ndarray:
    """Net value of the best report at each belief (row), with the entropy
    price recomputed from its formula."""
    scale = 1.0 / np.log(cost.params["log_base"])
    price = [scale * (shannon_entropy(cost.prior.probs) - shannon_entropy(b)) for b in beliefs]
    return (beliefs @ e.kernel @ contract.payments).max(axis=1) - np.array(price)


@pytest.mark.parametrize("case", _entropy_cases())
def test_entropy_route_brackets_the_grid_lp(case):
    e, contract, cost, prior = case
    result = agent_best_response(e, contract, cost, prior)
    assert result.route == "entropy"
    lower, upper = result.bracket
    assert upper == result.optimal_value
    assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * max(1.0, abs(lower))
    support = np.array([b.probs for b in result.support_beliefs])
    weights = result.support_weights
    assert weights.min() > 0.0
    np.testing.assert_allclose(weights @ support, prior.probs, rtol=0, atol=1e-12)
    value = float(weights @ _independent_net_value(e, contract, cost, support))
    scale = max(1.0, abs(upper))
    assert lower - 1e-10 * scale <= value <= upper + 1e-10 * scale
    # A grid optimum is a lower bound on the agent's optimum, and a grid
    # that also holds the support is worth at least the support.
    grid = GridSpec(resolution=2001 if e.n_states == 2 else 101, augment=result.support_beliefs)
    full = grid_lp_best_response(e, contract, cost, prior, grid=grid)
    assert lower - 1e-9 <= full <= upper + 1e-9


def test_dominated_report_gets_no_weight():
    e, contract, cost, prior = _entropy_cases()[8]
    result = agent_best_response(e, contract, cost, prior)
    utilities = e.kernel @ contract.payments
    for belief in result.support_beliefs:
        assert np.argmax(belief.probs @ utilities) != 0
    assert len(result.support_beliefs) <= 2


@pytest.mark.parametrize("payments", [np.zeros((3, 3)), np.array([[1.0] * 3, [0.5] * 3, [2.0] * 3])])
def test_entropy_route_merges_coincident_posteriors_at_the_prior(payments):
    prior = Belief([0.2, 0.5, 0.3])
    e = Experiment([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    result = agent_best_response(e, Contract(payments), entropy_cost(prior), prior)
    assert result.optimal_value == pytest.approx(float(prior.probs @ e.kernel @ payments[:, 0]),
                                                 abs=1e-12)
    assert len(result.support_beliefs) == 1
    np.testing.assert_allclose(result.support_beliefs[0].probs, prior.probs, atol=1e-12)
    assert result.support_weights == pytest.approx([1.0], abs=1e-12)


def test_entropy_route_verifies_optimal_contracts_beyond_three_states():
    rng = np.random.default_rng(59)
    for n, m in ((4, 4), (4, 6), (10, 12)):
        for _ in range(2):
            e = Experiment(random_stochastic(rng, n, m))
            prior = random_interior_prior(rng, n, low=0.5 / n)
            cost = entropy_cost(prior)
            target = posteriors(Experiment(random_stochastic(rng, n, 3)), prior)
            report = optimal_contract(e, target, cost)
            assert report.implementable
            assert verify_contract(e, target, cost, report.contract)
            result = agent_best_response(e, report.contract, cost, prior, target=target)
            assert -1e-9 <= result.gap <= 1e-6


def test_entropy_route_builds_no_grid_and_runs_no_lp(binary_instance, monkeypatch):
    from infocontracts import numerics

    prior, cost, target = binary_instance
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "solve_lp", counted("solve_lp", oracle.solve_lp))
    monkeypatch.setattr(oracle, "simplex_grid", counted("simplex_grid", oracle.simplex_grid))
    monkeypatch.setattr(numerics, "linprog", counted("linprog", numerics.linprog))
    contract = Contract([[4.0, 0.0], [0.0, 3.0]])
    result = agent_best_response(BINARY, contract, cost, prior, grid=GridSpec(resolution=501),
                                 target=target)
    assert calls == []
    payload = result.to_dict()
    assert payload["route"] == "entropy" and payload["grid"] is None
    assert payload["bracket"] == list(result.bracket)
    assert payload["n_grid_points"] == payload["lp_columns"] == payload["pricing_rounds"] == 0
    agent_best_response(BINARY, contract, quadratic_cost(prior), prior)
    assert "simplex_grid" in calls and "solve_lp" in calls


def test_entropy_route_past_its_iteration_cap_is_a_solver_failure(binary_instance, monkeypatch):
    prior, cost, _ = binary_instance
    contract = Contract([[4.0, 0.0], [0.0, 3.0]])
    agent_best_response(BINARY, contract, cost, prior)
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverFailureError, match="not certified"):
        agent_best_response(BINARY, contract, cost, prior)
