import numpy as np
import pytest
from helpers import (
    SIDE_BETS,
    corner_instance,
    corner_multiplier_instance,
    equal_rows_instance,
    full_rank_corner_instance,
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
    DimensionMismatchError,
    Experiment,
    InputError,
    NotImplementableError,
    PosteriorDistribution,
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
    with pytest.raises(InputError, match="simplex grid"):
        simplex_grid(4, 101)


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


def _large_quadratic_instance():
    """Well-conditioned 3x3 kernel (singular values 1, 0.6, 0.4), a target,
    another target off the agent's optimum under the target's contracts, and
    a quadratic cost at scale 1e7, so payments and the agent's values are ~1e7."""
    e = Experiment([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
    prior = Belief([0.3, 0.3, 0.4])
    target = posteriors(Experiment([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]), prior)
    other = posteriors(Experiment([[0.55, 0.3, 0.15], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]), prior)
    return e, prior, target, other, quadratic_cost(prior, scale=1e7)


def _spread(e, contract):
    return np.ptp(e.kernel @ contract.payments, axis=1).max()


def test_verify_tolerance_scales_with_the_incentives():
    # Payments rounded to 6 significant digits leave the target 5e-12 of
    # the payments' spread under the agent's optimum at any scale; at 1e7
    # that is 6e-5 in absolute terms, which an absolute 1e-5 test would reject.
    e, prior, target, _, cost = _large_quadratic_instance()
    payments = optimal_contract(e, target, cost).contract.payments
    rounded = Contract(np.vectorize(lambda x: float(f"{x:.6g}"))(payments))
    result = agent_best_response(e, rounded, cost, prior, target=target)
    assert result.route == "quadratic"
    assert oracle.VERIFY_TOL < result.gap <= 1e-11 * _spread(e, rounded)
    assert verify_contract(e, target, cost, rounded)


def test_verify_still_rejects_a_target_off_the_optimum_at_a_large_scale():
    e, prior, target, other, cost = _large_quadratic_instance()
    contract = optimal_contract(e, target, cost).contract
    result = agent_best_response(e, contract, cost, prior, target=other)
    assert result.gap > 1e-4 * _spread(e, contract)
    assert not verify_contract(e, other, cost, contract)


def test_a_large_realization_bonus_does_not_widen_the_verify_tolerance():
    # A bonus z adds the same mu0 . (kernel @ z) ~ 1e6 to the optimum and
    # to every target's value, so the gaps stay ~1e-3 at scale 1.
    e, prior, target, other, _ = _large_quadratic_instance()
    cost = quadratic_cost(prior, scale=1.0)
    family = synthesize_family(e, target, cost)
    z = np.full(3, 1e6)
    member = family.member(z=z)
    result = agent_best_response(e, member, cost, prior, target=other)
    unbonused = agent_best_response(e, family.member(), cost, prior, target=other)
    assert result.optimal_value == pytest.approx(
        unbonused.optimal_value + float(prior.probs @ e.kernel @ z), rel=1e-12)
    assert 1e-4 < result.gap < 1e-2
    assert verify_contract(e, target, cost, member)
    assert not verify_contract(e, other, cost, member)


@pytest.mark.parametrize("route", ["entropy", "quadratic"])
def test_a_realization_bonus_moves_neither_the_gap_nor_the_verdict(route):
    # A bonus adds the same mu0 . (kernel @ bonus) to the optimum and to the
    # target's value.  At 1e11 the payments' own rounding moves the gap by
    # up to ~2e-6 of the spread, so only the verdict is held there.
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        e = Experiment(random_stochastic(rng, n, int(rng.integers(n, n + 3))))
        target, entropy = tilted_implementable_target(rng, e.kernel)
        cost = {"entropy": entropy, "quadratic": quadratic_cost(entropy.prior, 1.0)}[route]
        payments = optimal_contract(e, target, cost).contract.payments
        unbonused = agent_best_response(e, Contract(payments), cost, cost.prior, target=target)
        verdict = verify_contract(e, target, cost, Contract(payments))
        for bonus in (1e6, 1e9, 1e11):
            contract = Contract(payments + bonus)
            result = agent_best_response(e, contract, cost, cost.prior, target=target)
            assert result.route == route
            assert verify_contract(e, target, cost, contract) == verdict
            if bonus <= 1e9:
                assert abs(result.gap - unbonused.gap) <= 1e-8 * max(1.0, _spread(e, contract))


def _optimal_contracts_plus_1e11():
    """(experiment, target, cost, contract): the optimal contract of
    ``_large_quadratic_instance`` under its quadratic cost at scale 1, and
    the side-bets optimal contract under a quadratic cost at the uniform
    prior, each with 1e11 added to every payment."""
    e, prior, target, _, _ = _large_quadratic_instance()
    cost = quadratic_cost(prior, scale=1.0)
    side_e, side_target = SIDE_BETS
    half = quadratic_cost(Belief([0.5, 0.5]))
    return [(e, target, cost, Contract(optimal_contract(e, target, cost).contract.payments + 1e11)),
            (side_e, side_target, half,
             Contract(optimal_contract(side_e, side_target, half).contract.payments + 1e11))]


@pytest.mark.parametrize("case", _optimal_contracts_plus_1e11(), ids=["quadratic", "side_bets"])
def test_an_optimal_contract_plus_1e11_still_verifies(case):
    # At 1e11 one ulp of a payment is 1.5e-5, over VERIFY_TOL at a spread
    # under 1.2: the optimum and the target's value must not be compared at
    # the payments' level.
    e, target, cost, contract = case
    result = agent_best_response(e, contract, cost, cost.prior, target=target)
    assert abs(result.gap) <= 1e-9 * max(1.0, _spread(e, contract))
    assert verify_contract(e, target, cost, contract)


@pytest.mark.parametrize("scale", [1e5, 1e7])
@pytest.mark.parametrize("with_target", [True, False])
def test_quadratic_route_certifies_a_value_that_cancels_to_zero(scale, with_target):
    # The family's base member leaves the agent no rent: its value cancels
    # to ~1e-11 (1e5) or ~1e-9 (1e7) from payments of up to ~1e5 or ~1e7,
    # whose rounding alone keeps the bracket wider than 1e-12 * max(1, |value|).
    e, prior, target, _, _ = _large_quadratic_instance()
    cost = quadratic_cost(prior, scale=scale)
    member = synthesize_family(e, target, cost).member()
    result = agent_best_response(e, member, cost, prior, target=target if with_target else None)
    largest = float(np.abs(e.kernel @ member.payments).max())
    lower, upper = result.bracket
    assert result.route == "quadratic" and upper == result.optimal_value
    assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * largest
    assert abs(upper) <= oracle.CERTIFICATE_TOL * largest
    support = np.array([b.probs for b in result.support_beliefs])
    np.testing.assert_allclose(result.support_weights @ support, prior.probs, rtol=0, atol=1e-12)
    if with_target:
        assert result.pricing_rounds == 0
        assert verify_contract(e, target, cost, member)


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
        result = agent_best_response(e, member, cost, cost.prior, target=target)
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
        else:
            kernel = random_stochastic(rng, 3, 2)
            e = Experiment(kernel)
            target, cost = tilted_implementable_target(rng, kernel)
        if not check_implementable(e, target, cost).implementable:
            continue
        family = synthesize_family(e, target, cost)
        member = family.sample_member(rng)
        assert family.foc_deviation(member) <= 1e-9
        assert verify_contract(e, target, cost, member)
        confirmed += 1


def test_unsupported_state_count():
    # A cost without the entropy or quadratic labels is refused at every
    # number of states, by agent_best_response and by verify_contract.
    for n in (2, 3, 4):
        prior = Belief.uniform(n)
        cost = grid_priced(entropy_cost(prior))
        e, contract = Experiment(np.eye(n)), Contract(np.eye(n))
        with pytest.raises(InputError, match="'entropy' or 'quadratic'"):
            agent_best_response(e, contract, cost, prior)
        with pytest.raises(InputError, match="'entropy' or 'quadratic'"):
            verify_contract(e, posteriors(e, prior), cost, contract)


def test_everywhere_infinite_cost_is_an_error():
    from infocontracts import custom_cost

    prior = Belief.uniform(2)
    impossible = custom_cost(
        prior, lambda mu: np.inf, lambda mu: np.zeros(2),
        strictly_convex=False, infinite_boundary_slope=False, validate=False,
    )
    with pytest.raises(InputError):
        agent_best_response(Experiment(np.eye(2)), Contract(np.zeros((2, 2))),
                            impossible, prior)


def _grid_cases():
    """(experiment, contract, cost, prior, points per axis, target) over
    every regime whose exact-route bracket must hold the full grid LP, and
    one walled custom cost, which the oracle refuses."""
    rng = np.random.default_rng(41)
    coarse = 101
    cases = []
    for _ in range(4):           # 3 states, Dirichlet priors, random contracts
        prior = Belief(rng.dirichlet(np.full(3, 2.0)))
        cost = (entropy_cost(prior) if rng.random() < 0.5
                else quadratic_cost(prior, rng.uniform(0.5, 2)))
        e = Experiment(random_stochastic(rng, 3, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), cost, prior, coarse, None))
    for _ in range(4):           # 2 states, random contracts, fine grid
        prior = random_interior_prior(rng, 2)
        cost = (entropy_cost(prior) if rng.random() < 0.5
                else quadratic_cost(prior, rng.uniform(0.5, 2)))
        e = Experiment(random_stochastic(rng, 2, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 2))), cost, prior, 2001, None))
    for _ in range(3):           # rank-deficient equal-row kernels, optimal contracts
        e, target, cost = equal_rows_instance(rng)
        contract = optimal_contract(e, target, cost).contract
        cases.append((e, contract, cost, cost.prior, coarse, target))
    for _ in range(3):           # 3x2 corner kernels, quadratic cost, optimal contracts
        e, target, cost = corner_multiplier_instance(rng)
        contract = optimal_contract(e, target, cost).contract
        cases.append((e, contract, cost, cost.prior, coarse, target))
    prior = Belief([0.3, 0.3, 0.4])              # infinite price where mu_1 > 0.8
    walled = custom_cost(
        prior, lambda mu: np.inf if mu[0] > 0.8 else float(np.sum((mu - prior.probs) ** 2)),
        lambda mu: 2.0 * (mu - prior.probs), strictly_convex=True,
        infinite_boundary_slope=False, validate=False,
    )
    cases.append((Experiment(np.eye(3)), Contract(np.diag([3.0, 1.0, 0.5])), walled, prior,
                  coarse, None))
    return cases


@pytest.mark.parametrize("case", _grid_cases())
def test_column_generation_matches_the_full_grid_lp(case):
    e, contract, cost, prior, points, target = case
    if cost.kind == "custom":
        with pytest.raises(InputError, match="'entropy' or 'quadratic'"):
            agent_best_response(e, contract, cost, prior, target=target)
        return
    result = agent_best_response(e, contract, cost, prior, target=target)
    assert result.route == cost.kind
    lower, upper = result.bracket
    assert upper == result.optimal_value
    assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * max(1.0, abs(lower))
    # Every grid distribution is worth at most the certified bound, and a
    # grid that also holds the support is worth at least the support.
    full = grid_lp_best_response(e, contract, cost, prior, points,
                                 extra=result.support_beliefs, target=target)
    assert lower - 1e-9 <= full <= upper + 1e-9
    weights = result.support_weights
    support = np.array([b.probs for b in result.support_beliefs])
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(weights @ support, prior.probs, rtol=0, atol=1e-9)
    assert np.all(np.isfinite(cost.value_many(support)))


@pytest.mark.parametrize("payments", [np.zeros((3, 3)), np.array([[1.0] * 3, [0.5] * 3, [2.0] * 3])])
def test_flat_envelope_is_certified_at_the_prior(payments):
    # A zero or report-independent contract pays an affine function of the
    # belief, so the net value is concave and the agent stays at the prior;
    # with no target, the quadratic route certifies it after one LP.
    prior = Belief([0.2, 0.5, 0.3])
    e = Experiment([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    contract, cost = Contract(payments), quadratic_cost(prior)
    result = agent_best_response(e, contract, cost, prior)
    stay = float(prior.probs @ e.kernel @ payments[:, 0])
    assert result.route == "quadratic" and result.pricing_rounds == 1
    assert result.optimal_value == pytest.approx(stay, abs=1e-12)
    lower, upper = result.bracket
    assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * max(1.0, abs(lower))
    assert len(result.support_beliefs) == 1
    np.testing.assert_allclose(result.support_beliefs[0].probs, prior.probs, atol=1e-12)


# (kernel, contract, prior, quadratic scale) under which the agent learns
# nothing, and the best chord through the prior between two beliefs of a
# 2001-point grid falls short of the prior's own value by less than HiGHS's
# dual tolerance, 1e-7.
STAY_AT_PRIOR = [
    ([[0.6522288394293919, 0.3477711605706081], [0.629177982313584, 0.37082201768641604]],
     [[1.9640497098347263, 1.8741536635721607, 2.1767023818236906, 1.2020766607339213],
      [1.8996772646648203, 0.05310074887050509, 0.20328001422474817, 0.5864422434490192]],
     [0.8212274900846773, 0.17877250991532273], 0.7685016657372419),
    ([[0.5589496449800504, 0.44105035501994955], [0.5689260883569772, 0.43107391164302283]],
     [[0.8496316368544196, 2.1725923150852533, 2.7296603304629468, 2.4841468750619287],
      [2.0612903599292944, 1.1013221571659497, 0.9569134500977214, 2.2501982635862983]],
     [0.8550915142762338, 0.1449084857237663], 0.5183840060940349),
    ([[0.9891971367974909, 0.010802863202509104], [0.957600102441123, 0.04239989755887688]],
     [[0.8359856606787038, 2.798988735299183, 2.1827050432462443],
      [2.273213321205861, 1.2529114777727965, 2.685896837026113]],
     [0.22947472204609237, 0.7705252779539076], 2.426242937100863),
]


@pytest.mark.parametrize("kernel, payments, prior, scale", STAY_AT_PRIOR)
def test_grid_route_is_worth_at_least_learning_nothing(kernel, payments, prior, scale):
    # The near-tie chords do not lead the quadratic route off the prior.
    e, contract, prior = Experiment(kernel), Contract(payments), Belief(prior)
    cost = quadratic_cost(prior, scale)
    result = agent_best_response(e, contract, cost, prior)
    stay = float((prior.probs @ e.kernel @ contract.payments).max())
    assert _two_state_chords(e, contract, cost, prior) < stay
    assert abs(result.optimal_value - stay) <= 1e-12
    assert len(result.support_beliefs) == 1
    np.testing.assert_allclose(result.support_beliefs[0].probs, prior.probs, rtol=0, atol=1e-12)


def test_failed_restricted_lp_is_a_solver_failure(monkeypatch):
    from infocontracts import numerics

    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    with pytest.raises(SolverFailureError, match="best-response LP did not resolve: stalled"):
        agent_best_response(*TWO_ROUNDS)


def test_cost_infinite_at_the_prior_is_an_input_error():
    # Refused as a custom cost, before any price is read.
    prior = Belief([0.5, 0.5])
    walled = custom_cost(
        prior, lambda mu: np.inf if mu[0] >= 0.5 else 0.0, lambda mu: np.zeros(2),
        strictly_convex=False, infinite_boundary_slope=False, validate=False,
    )
    with pytest.raises(InputError, match="'entropy' or 'quadratic' costs only, not 'custom'"):
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
    full = grid_lp_best_response(e, contract, cost, prior, 2001 if e.n_states == 2 else 101,
                                 extra=result.support_beliefs)
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
    result = agent_best_response(BINARY, contract, cost, prior, target=target)
    assert calls == []
    payload = result.to_dict()
    assert payload["route"] == "entropy" and "grid" not in payload
    assert payload["bracket"] == list(result.bracket)
    assert payload["n_grid_points"] == payload["lp_columns"] == payload["pricing_rounds"] == 0
    with pytest.raises(InputError, match="'entropy' or 'quadratic'"):
        agent_best_response(BINARY, contract, grid_priced(cost), prior)
    assert calls == []


def test_entropy_route_past_its_iteration_cap_is_a_solver_failure(binary_instance, monkeypatch):
    prior, cost, _ = binary_instance
    contract = Contract([[4.0, 0.0], [0.0, 3.0]])
    agent_best_response(BINARY, contract, cost, prior)
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
    with pytest.raises(SolverFailureError, match="not certified"):
        agent_best_response(BINARY, contract, cost, prior)


def _quadratic_cases():
    """(experiment, contract, cost, agent prior, target) for the quadratic
    route at 2 and 3 states: random contracts at Dirichlet priors, some
    priced from a cost prior apart from the agent's, and optimal contracts
    for corner targets, whose optimum holds a boundary posterior."""
    rng = np.random.default_rng(61)
    cases = []
    for i in range(40):
        n = 2 + i % 2
        prior = random_interior_prior(rng, n)
        anchor = Belief(rng.dirichlet(np.full(n, 3.0))) if i % 3 == 0 else prior
        cost = quadratic_cost(anchor, rng.uniform(0.5, 2.0))
        e = Experiment(random_stochastic(rng, n, 3))
        cases.append((e, Contract(rng.uniform(0, 2, (3, 3))), cost, prior, None))
    for _ in range(6):
        e, target, cost = corner_multiplier_instance(rng)
        cases.append((e, optimal_contract(e, target, cost).contract, cost, cost.prior, target))
    while len(cases) < 52:
        drawn = corner_instance(rng)
        if drawn is None:
            continue
        e, target, cost, _ = drawn
        report = optimal_contract(e, target, cost)
        if report.implementable:
            cases.append((e, report.contract, cost, cost.prior, target))
    return cases


def _certified_quadratic_response(e, contract, cost, prior, target):
    """The quadratic route's answer, checked against itself: a certified
    bracket, and a support that averages to the prior and is worth its lower
    end when the agent's value is recomputed here."""
    result = agent_best_response(e, contract, cost, prior, target=target)
    assert result.route == "quadratic" and result.n_grid_points == 0
    lower, upper = result.bracket
    assert upper == result.optimal_value
    assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * max(1.0, abs(lower))
    support = np.array([b.probs for b in result.support_beliefs])
    weights = result.support_weights
    assert weights.min() > 0.0
    np.testing.assert_allclose(weights @ support, prior.probs, rtol=0, atol=1e-12)
    price = cost.params["scale"] * ((support - cost.prior.probs) ** 2).sum(axis=1)
    value = float(weights @ ((support @ e.kernel @ contract.payments).max(axis=1) - price))
    assert abs(value - lower) <= 1e-12 * max(1.0, abs(lower))
    return result


@pytest.mark.parametrize("case", _quadratic_cases())
def test_quadratic_route_brackets_the_grid_lp(case):
    e, contract, cost, prior, target = case
    result = _certified_quadratic_response(e, contract, cost, prior, target)
    upper = result.optimal_value
    # Every grid distribution is worth at most the certified bound.  At 3
    # states the grid also holds the support, which a coarse grid misses.
    if e.n_states == 2:
        full = grid_lp_best_response(e, contract, cost, prior, 2001, target=target)
    else:
        full = grid_lp_best_response(e, contract, cost, prior, 101,
                                     extra=result.support_beliefs, target=target)
    assert -1e-12 <= upper - full <= 1e-5


def _two_state_chords(e, contract, cost, prior) -> float:
    """The best chord of the agent's net value through the prior between two
    beliefs of a 2001-point grid on either side of it: a lower bound on the
    optimum that needs no LP."""
    p = np.linspace(0.0, 1.0, 2001)
    beliefs = np.column_stack([p, 1.0 - p])
    price = cost.params["scale"] * ((beliefs - cost.prior.probs) ** 2).sum(axis=1)
    value = (beliefs @ e.kernel @ contract.payments).max(axis=1) - price
    p0 = prior.probs[0]
    left, right = p < p0, p > p0
    toward_right = (p0 - p[left][:, None]) / (p[right][None, :] - p[left][:, None])
    return float(((1.0 - toward_right) * value[left][:, None]
                  + toward_right * value[right][None, :]).max())


@pytest.mark.parametrize("scale, bonus", [(1e11, 0.0), (1e6, 1e11)])
def test_quadratic_route_certifies_agent_values_near_1e11(scale, bonus):
    # The optimal side-bets contract at cost scale 1e11, and at scale 1e6
    # with a report-independent bonus of 1e11: the agent's net values reach
    # ~1e11, where the restricted LP posed with costs -values failed in
    # HiGHS ("solve error").
    e, target = SIDE_BETS
    cost = quadratic_cost(Belief([0.5, 0.5]), scale=scale)
    payments = optimal_contract(e, target, cost).contract.payments + bonus
    contract = Contract(payments, limited_liability=True)
    result = _certified_quadratic_response(e, contract, cost, cost.prior, target)
    assert result.gap <= oracle.VERIFY_TOL * max(1.0, np.ptp(e.kernel @ payments, axis=1).max())
    chords = _two_state_chords(e, contract, cost, cost.prior)
    assert -1e-12 <= (result.optimal_value - chords) / result.optimal_value <= 1e-9
    assert verify_contract(e, target, cost, contract)


def test_quadratic_route_verifies_corner_contracts_beyond_three_states():
    rng = np.random.default_rng(67)
    for n, corners in ((4, 1), (4, 2), (5, 2)):
        e, target, cost = full_rank_corner_instance(rng, n, corners)
        report = optimal_contract(e, target, cost)
        assert verify_contract(e, target, cost, report.contract)
        result = agent_best_response(e, report.contract, cost, cost.prior, target=target)
        assert result.route == "quadratic"
        assert -1e-9 <= result.gap <= 1e-6
        with pytest.raises(InputError, match="'entropy' or 'quadratic'"):
            agent_best_response(e, report.contract, grid_priced(cost), cost.prior, target=target)


# A 2-state instance whose first restricted LP misses the optimum's vertex
# posterior, so the route needs a second round.
TWO_ROUNDS = (Experiment([[0.663, 0.164, 0.173], [0.571, 0.352, 0.077]]),
              Contract([[2.911, 4.439, 3.429], [3.547, 0.387, 0.006], [0.172, 1.241, 5.918]]),
              quadratic_cost(Belief([0.269, 0.731]), 0.247), Belief([0.18, 0.82]))


def test_quadratic_route_reports_its_lp_work_and_builds_no_grid(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simplex_grid(*args, **kwargs)

    monkeypatch.setattr(oracle, "simplex_grid", counted)
    result = agent_best_response(*TWO_ROUNDS)
    assert calls == []
    payload = result.to_dict()
    assert payload["route"] == "quadratic" and payload["n_grid_points"] == 0
    assert payload["pricing_rounds"] == 2
    assert type(payload["lp_columns"]) is int and payload["lp_columns"] > 0
    assert any(b.probs.min() == 0.0 for b in result.support_beliefs)


def test_quadratic_route_past_its_round_cap_is_a_solver_failure(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ROUNDS", 1)
    with pytest.raises(SolverFailureError, match="not certified within 1 rounds"):
        agent_best_response(*TWO_ROUNDS)


def _target_start_cases():
    """(experiment, contract, cost, target, optimal) at 2 to 4 states under
    entropy and quadratic costs: random interior targets, quadratic targets
    with boundary posteriors, each at its optimal contract and at that
    contract perturbed off the optimum, and entropy targets with a boundary
    posterior under contracts made for other targets."""
    rng = np.random.default_rng(73)
    drawn = []
    for n in (2, 3, 4):
        for make in (entropy_cost, quadratic_cost):
            prior = random_interior_prior(rng, n, low=0.5 / n)
            e = Experiment(random_stochastic(rng, n, n + 2))
            drawn.append((e, posteriors(Experiment(random_stochastic(rng, n, 3)), prior),
                          make(prior)))
    weight = 0.3                                 # a vertex posterior at 2 states
    vertex = PosteriorDistribution([[1.0, 0.0], [0.2 / 0.7, 0.5 / 0.7]], [weight, 1 - weight])
    drawn.append((Experiment([[0.8, 0.2], [0.25, 0.75]]), vertex, quadratic_cost(Belief([0.5, 0.5]))))
    for n, corners in ((3, 1), (4, 1), (4, 2)):
        drawn.append(full_rank_corner_instance(rng, n, corners))
    cases = []
    for e, target, cost in drawn:
        report = optimal_contract(e, target, cost)
        assert report.implementable
        payments = report.contract.payments
        nudged = payments + rng.uniform(0.0, 0.5, payments.shape) * max(1.0, payments.max())
        cases += [(e, report.contract, cost, target, True),
                  (e, Contract(nudged), cost, target, False)]
        if cost.kind == "entropy":
            corner = np.zeros(e.n_states)
            corner[0] = 1.0
            rest = (cost.prior.probs - 0.1 * corner) / 0.9
            boundary = PosteriorDistribution([corner, rest], [0.1, 0.9])
            contract = Contract(rng.uniform(0.0, 2.0, (e.n_realizations, 2)))
            cases.append((e, contract, cost, boundary, False))
    return cases


def _support_value(e, contract, cost, result) -> float:
    """The support's value, its price recomputed from the cost's formula."""
    support = np.array([b.probs for b in result.support_beliefs])
    if cost.kind == "entropy":
        net = _independent_net_value(e, contract, cost, support)
    else:
        price = cost.params["scale"] * ((support - cost.prior.probs) ** 2).sum(axis=1)
        net = (support @ e.kernel @ contract.payments).max(axis=1) - price
    np.testing.assert_allclose(result.support_weights @ support, cost.prior.probs,
                               rtol=0, atol=1e-12)
    return float(result.support_weights @ net)


@pytest.mark.parametrize("case", _target_start_cases())
def test_a_solve_from_the_target_agrees_with_one_without_it(case):
    e, contract, cost, target, optimal = case
    cold = agent_best_response(e, contract, cost, cost.prior)
    warm = agent_best_response(e, contract, cost, cost.prior, target=target)
    value = cold.optimal_value
    assert abs(warm.optimal_value - value) <= 2 * oracle.CERTIFICATE_TOL * max(1.0, abs(value))
    for result in (cold, warm):
        lower, upper = result.bracket
        assert upper == result.optimal_value
        assert 0.0 <= upper - lower <= oracle.CERTIFICATE_TOL * max(1.0, abs(lower))
        scale = max(1.0, abs(upper))
        assert lower - 1e-10 * scale <= _support_value(e, contract, cost, result) <= upper + 1e-10 * scale
        # Each solve's support is worth no more than the other's bound.
        assert lower <= warm.optimal_value + 1e-12 * scale
        assert lower <= cold.optimal_value + 1e-12 * scale
    if optimal:
        assert abs(warm.gap) <= 1e-9 * max(1.0, abs(value))
        assert verify_contract(e, target, cost, contract)
    else:
        assert warm.gap > 1e-6
        assert not verify_contract(e, target, cost, contract)


def test_optimal_contracts_are_certified_at_the_target(monkeypatch):
    from infocontracts import numerics

    cases = [case for case in _target_start_cases() if case[4]]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "_newton_step", counted("newton", oracle._newton_step))
    monkeypatch.setattr(numerics, "linprog", counted("linprog", numerics.linprog))
    routes = set()
    for e, contract, cost, target, _ in cases:
        result = agent_best_response(e, contract, cost, cost.prior, target=target)
        routes.add(result.route)
        assert result.lp_columns == result.pricing_rounds == 0
    assert routes == {"entropy", "quadratic"} and calls == []
    # The same solves without the target take Newton steps and LPs.
    for e, contract, cost, _, _ in cases:
        agent_best_response(e, contract, cost, cost.prior)
    assert {"newton", "linprog"} <= set(calls)


# Kernel, uniform prior and contract of a target that averages to
# (0.075, 0.925), not the prior.
IMPLAUSIBLE = (Experiment([[0.7, 0.3], [0.2, 0.8]]), Contract([[0.0, 0.0], [5.0, 5.0]]),
               PosteriorDistribution([[0.05, 0.95], [0.1, 0.9]], [0.5, 0.5]))


@pytest.mark.parametrize("cost", [quadratic_cost(Belief.uniform(2), scale=0.1),
                                  entropy_cost(Belief.uniform(2))])
def test_a_target_that_is_not_bayes_plausible_is_an_input_error(cost):
    e, contract, target = IMPLAUSIBLE
    with pytest.raises(InputError, match="Bayes plausibility"):
        agent_best_response(e, contract, cost, cost.prior, target=target)
    with pytest.raises(InputError, match="Bayes plausibility"):
        verify_contract(e, target, cost, contract)


@pytest.mark.parametrize("cost", [quadratic_cost(Belief.uniform(2)), entropy_cost(Belief.uniform(2)),
                                  grid_priced(entropy_cost(Belief.uniform(2)))])
def test_a_target_of_the_wrong_shape_is_a_dimension_mismatch(cost):
    contract = Contract([[2.0, 0.0], [0.0, 2.0]])
    three_states = PosteriorDistribution([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]], [0.5, 0.5])
    three_posteriors = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]], [0.4, 0.4, 0.2])
    for target, what in ((three_states, "states"), (three_posteriors, "one posterior per")):
        with pytest.raises(DimensionMismatchError, match=what):
            agent_best_response(BINARY, contract, cost, cost.prior, target=target)
        with pytest.raises(DimensionMismatchError, match=what):
            verify_contract(BINARY, target, cost, contract)


def test_an_entropy_start_that_leaves_a_state_no_report_starts_uniform():
    # exp(-1000) underflows, so the target's one played report has zero
    # likelihood in state 0; Blahut-Arimoto starts from uniform weights.
    e = Experiment([[1.0, 0.0], [0.0, 1.0]])
    contract = Contract([[1000.0, 0.0], [0.0, 0.0]])
    cost = entropy_cost(Belief.uniform(2))
    target = PosteriorDistribution([[0.9, 0.1], [0.5, 0.5]], [0.0, 1.0])
    result = agent_best_response(e, contract, cost, cost.prior, target=target)
    assert result.optimal_value == agent_best_response(e, contract, cost, cost.prior).optimal_value
    assert result.optimal_value == pytest.approx(500.0, rel=1e-12)
    assert result.gap == pytest.approx(500.0, rel=1e-12)
