import math

import numpy as np
import pytest
from helpers import (
    corner_multiplier_instance,
    direct_min_payment,
    equal_rows_instance,
    full_rank_corner_instance,
    random_binary_experiment,
    random_binary_target,
    random_interior_prior,
    random_stochastic,
    shannon_entropy,
    stalled_linprog,
    tilted_implementable_target,
)

from infocontracts import (
    Belief,
    Contract,
    DegenerateExperimentError,
    SolverFailureError,
    DimensionMismatchError,
    Experiment,
    NotImplementableError,
    PosteriorDistribution,
    agent_best_response,
    binary_rent_profile,
    check_implementable,
    entropy_cost,
    expected_payment,
    first_best_contract,
    marginal_cost_matrix,
    optimal_contract,
    posteriors,
    quadratic_cost,
    rowmin,
    synthesize_family,
    total_cost,
)

BINARY = Experiment([[0.7, 0.3], [0.3, 0.7]])
BINARY_SKEWED = Experiment([[0.5, 0.5], [0.2, 0.8]])


@pytest.fixture
def binary_instance():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    target = posteriors(BINARY, prior)
    return prior, cost, target


def test_family_base_solves_binary_system(binary_instance):
    prior, cost, target = binary_instance
    family = synthesize_family(BINARY, target, cost)
    # 2x2 invertible kernel: base must solve kernel @ base = nabla directly
    nabla = np.array([[np.log(1.4), np.log(0.6)], [np.log(0.6), np.log(1.4)]])
    np.testing.assert_allclose(BINARY.kernel @ family.base, nabla, atol=1e-12)
    assert family.null_basis.shape[1] == 0   # square full rank: no side bets


def test_family_members_satisfy_foc(binary_instance):
    prior, cost, target = binary_instance
    family = synthesize_family(BINARY, target, cost)
    rng = np.random.default_rng(2)
    for _ in range(20):
        member = family.sample_member(rng, scale=2.0)
        assert family.foc_deviation(member) <= 1e-9


def test_family_foc_across_ranks_500_samples():
    rng = np.random.default_rng(3)
    samples = 0
    while samples < 500:
        if rng.random() < 0.5:
            e = random_binary_experiment(rng)
            prior = random_interior_prior(rng, 2)
            cost = entropy_cost(prior)
            target = random_binary_target(rng, prior)
        else:
            kernel = random_stochastic(rng, 3, 2)     # rank-2 deficient
            e = Experiment(kernel)
            target, cost = tilted_implementable_target(rng, kernel)
        try:
            family = synthesize_family(e, target, cost)
        except NotImplementableError:
            continue
        for _ in range(5):
            member = family.sample_member(rng, scale=1.5)
            assert family.foc_deviation(member) <= 1e-9
            samples += 1


def test_family_rejects_bad_side_bets(binary_instance):
    prior, cost, target = binary_instance
    family = synthesize_family(BINARY, target, cost)
    from infocontracts import InputError
    with pytest.raises(InputError):
        family.member(w=np.ones((2, 2)))


def test_synthesize_rejects_non_implementable():
    cost = entropy_cost(Belief.uniform(3))
    e = Experiment([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
    off_line = PosteriorDistribution(
        [[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3]], [0.5, 0.5])
    with pytest.raises(NotImplementableError) as err:
        synthesize_family(e, off_line, cost)
    assert err.value.report is not None


def test_optimal_contract_uninformative_target():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    target = PosteriorDistribution([prior], [1.0])
    report = optimal_contract(BINARY, target, cost)
    np.testing.assert_allclose(report.contract.payments, 0.0, atol=1e-12)
    assert report.kappa == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kernel", [
    [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
    [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]],
])
def test_uninformative_target_under_a_kernel_with_side_bets(kernel):
    # A single report needs no incentive, also when the kernel has a null
    # space (2x3, and a rank-2 3x4 kernel at a non-uniform prior).
    n = len(kernel)
    prior = Belief(np.arange(1, n + 1) / np.arange(1, n + 1).sum())
    target = PosteriorDistribution([prior], [1.0])
    report = optimal_contract(Experiment(kernel), target, entropy_cost(prior))
    np.testing.assert_allclose(report.contract.payments, 0.0, atol=1e-12)
    assert report.kappa == pytest.approx(0.0, abs=1e-12)
    assert report.payment_check == pytest.approx(0.0, abs=1e-12)


def test_optimal_contract_binary_closed_form(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    family = synthesize_family(BINARY, target, cost)
    mins = rowmin(family.base)
    expected_kappa = total_cost(cost, target) - float((prior.probs @ BINARY.kernel) @ mins)
    assert report.kappa == pytest.approx(expected_kappa, abs=1e-12)
    # two independent evaluations of the same number
    assert report.payment_check == pytest.approx(report.kappa, abs=1e-9)
    assert report.agency_rent >= -1e-9
    # every realization leaves some report unpaid
    assert all(any((r, c) in report.binding_cells for c in range(2)) for r in range(2))


def test_optimal_contract_identity_kernel_benchmark():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    target = posteriors(BINARY, prior)   # posteriors 0.3 / 0.7
    report = optimal_contract(Experiment(np.eye(2)), target, cost)
    nabla = np.array([[np.log(1.4), np.log(0.6)], [np.log(0.6), np.log(1.4)]])
    expected = total_cost(cost, target) - float(prior.probs @ rowmin(nabla))
    assert report.kappa == pytest.approx(expected, abs=1e-12)


def test_optimal_contract_not_implementable_sentinel():
    cost = entropy_cost(Belief.uniform(3))
    e = Experiment([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
    off_line = PosteriorDistribution(
        [[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3]], [0.5, 0.5])
    report = optimal_contract(e, off_line, cost)
    assert math.isinf(report.kappa)
    assert report.contract is None


def test_deficient_rank_optimum_beats_random_feasible_points():
    rng = np.random.default_rng(5)
    cases = 0
    while cases < 20:
        kernel = random_stochastic(rng, 3, 2)
        target, cost = tilted_implementable_target(rng, kernel)
        e = Experiment(kernel)
        try:
            family = synthesize_family(e, target, cost)
        except NotImplementableError:
            continue
        report = optimal_contract(e, target, cost)
        assert np.all(report.contract.payments >= -1e-12)
        mu_ep = cost.prior.probs @ kernel
        for _ in range(20):
            z = rng.normal(scale=2.0, size=2)
            coeffs = rng.normal(scale=2.0, size=(family.null_basis.shape[1], 2))
            w = family.null_basis @ coeffs
            payments = family.base + z[:, None] + w
            shift = max(0.0, -payments.min())      # push into feasibility
            z_feasible = z + shift
            value = total_cost(cost, target) + float(mu_ep @ z_feasible)
            assert report.kappa <= value + 1e-9
        cases += 1


def test_first_best_contract_binary(binary_instance):
    prior, cost, target = binary_instance
    contract = first_best_contract(BINARY, target, cost)
    assert not contract.limited_liability
    payment = expected_payment(BINARY, target, prior, contract)
    assert payment == pytest.approx(total_cost(cost, target), abs=1e-9)
    assert payment == pytest.approx(np.log(2.0) - shannon_entropy([0.3, 0.7]), abs=1e-9)


def test_first_best_contract_uninformative_target():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    target = PosteriorDistribution([prior], [1.0])
    contract = first_best_contract(BINARY, target, cost)
    assert expected_payment(BINARY, target, prior, contract) == pytest.approx(0.0, abs=1e-12)


def test_first_best_on_deficient_rank_kernels():
    rng = np.random.default_rng(13)
    cases = 0
    while cases < 20:
        kernel = random_stochastic(rng, 3, 2)
        target, cost = tilted_implementable_target(rng, kernel)
        e = Experiment(kernel)
        try:
            contract = first_best_contract(e, target, cost)
        except NotImplementableError:
            continue
        payment = expected_payment(e, target, cost.prior, contract)
        assert payment == pytest.approx(total_cost(cost, target), abs=1e-9)
        cases += 1


def test_expected_payment_examples(binary_instance):
    prior, cost, target = binary_instance
    ones = Contract(np.ones((2, 2)))
    assert expected_payment(BINARY, target, prior, ones) == pytest.approx(1.0, abs=1e-12)

    pay_if_correct = Contract(np.eye(2))
    assert expected_payment(BINARY, target, prior, pay_if_correct) == pytest.approx(0.58, abs=1e-12)

    zero = Contract(np.zeros((2, 2)))
    assert expected_payment(BINARY, target, prior, zero) == 0.0


def test_expected_payment_shape_check(binary_instance):
    prior, cost, target = binary_instance
    with pytest.raises(DimensionMismatchError):
        expected_payment(BINARY, target, prior, Contract(np.zeros((3, 2))))


def test_rent_profile_symmetric_kernel():
    profile = binary_rent_profile(BINARY)
    assert profile.l1 == pytest.approx(3 / 7, abs=1e-15)
    assert profile.l2 == pytest.approx(7 / 3, abs=1e-15)
    assert profile.du1_rents[0] == pytest.approx(9 / 40, abs=1e-12)
    assert profile.du1_rents[1] == pytest.approx(21 / 40, abs=1e-12)
    assert profile.du2_rents[0] == pytest.approx(21 / 40, abs=1e-12)
    assert profile.du2_rents[1] == pytest.approx(9 / 40, abs=1e-12)


def test_rent_profile_skewed_kernel():
    profile = binary_rent_profile(BINARY_SKEWED)
    assert profile.du1_rents[0] == pytest.approx(1 / 3, abs=1e-12)
    assert profile.du1_rents[1] == pytest.approx(8 / 15, abs=1e-12)
    assert profile.du2_rents[0] == pytest.approx(5 / 6, abs=1e-12)
    assert profile.du2_rents[1] == pytest.approx(1 / 3, abs=1e-12)


def test_rent_profile_perfect_monitoring_is_free():
    profile = binary_rent_profile(Experiment(np.eye(2)))
    assert profile.l1 == 0.0 and math.isinf(profile.l2)
    assert profile.du1_rents == (0.0, 0.0)
    assert profile.du2_rents == (0.0, 0.0)


def test_rent_profile_rejects_degenerate_kernels():
    with pytest.raises(DegenerateExperimentError):
        binary_rent_profile(Experiment([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        binary_rent_profile(Experiment(np.eye(3)))


def test_rowmin_inequality_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n, m, k = rng.integers(1, 6, size=3)
        g = rng.uniform(0.0, 2.0, size=(n, m))
        v = rng.normal(scale=3.0, size=(m, k))
        gap = rowmin(g @ v) - g @ rowmin(v)
        assert np.all(gap >= -1e-12)


def test_kappa_decomposition_over_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        e = random_binary_experiment(rng)
        prior = random_interior_prior(rng, 2)
        cost = entropy_cost(prior)
        target = random_binary_target(rng, prior)
        report = optimal_contract(e, target, cost)
        assert report.agency_rent >= -1e-9
        assert report.kappa == pytest.approx(report.first_best + report.agency_rent, abs=1e-12)
        assert report.kappa == pytest.approx(report.payment_check, abs=1e-9)


def test_contract_serialization_round_trip(binary_instance):
    prior, cost, target = binary_instance
    report = optimal_contract(BINARY, target, cost)
    data = report.contract.to_dict()
    clone = Contract.from_dict(data)
    np.testing.assert_allclose(clone.payments, report.contract.payments)
    assert clone.limited_liability


def _assert_kappa_is_direct_optimum(e, target, cost):
    report = optimal_contract(e, target, cost)
    optimum = direct_min_payment(e.kernel, target, marginal_cost_matrix(cost, target).matrix)
    assert report.payment_check == pytest.approx(optimum, rel=1e-8, abs=1e-10)
    assert report.kappa == pytest.approx(optimum, rel=1e-8, abs=1e-10)
    assert report.agency_rent == pytest.approx(report.kappa - report.first_best, abs=1e-12)
    assert report.agency_rent >= -1e-9
    return report


def test_kappa_matches_direct_lp_on_equal_row_kernels_at_dirichlet_priors():
    # Rank-2 3x3 kernels: the prior lies outside Col(kernel), so the base
    # term pinv @ nabla does not cost exactly the information cost.
    rng = np.random.default_rng(23)
    for _ in range(30):
        e, target, cost = equal_rows_instance(rng)
        _assert_kappa_is_direct_optimum(e, target, cost)


def test_kappa_matches_direct_lp_on_corner_targets_with_positive_multiplier():
    rng = np.random.default_rng(29)
    for _ in range(30):
        e, target, cost = corner_multiplier_instance(rng)
        assert check_implementable(e, target, cost).eta.max() > 1e-3
        report = _assert_kappa_is_direct_optimum(e, target, cost)
        assert report.mode == "corner"


def _assert_no_profitable_deviation(e, target, cost, report):
    result = agent_best_response(e, report.contract, cost, cost.prior, target=target)
    assert result.gap <= 1e-5


def test_corner_multipliers_are_priced_jointly_with_the_payments():
    # A full-rank kernel whose corner target leaves the boundary multiplier
    # free: fixing it before pricing overpaid (kappa 7.0966).
    e = Experiment([[0.85, 0.14, 0.01], [0.19, 0.55, 0.26], [0.04, 0.72, 0.24]])
    prior = np.array([0.24, 0.37, 0.39])
    ruled_out = np.array([0.0, 0.05, 0.95])
    target = PosteriorDistribution([ruled_out, (prior - 0.38 * ruled_out) / 0.62], [0.38, 0.62])
    cost = quadratic_cost(Belief(prior), scale=1.1)
    report = _assert_kappa_is_direct_optimum(e, target, cost)
    assert report.kappa == pytest.approx(5.543607300394841, rel=1e-8)
    _assert_no_profitable_deviation(e, target, cost, report)


def test_kappa_matches_direct_lp_on_full_rank_3x3_corner_targets():
    rng = np.random.default_rng(37)
    for _ in range(40):
        e, target, cost = full_rank_corner_instance(rng, 3, 1)
        report = _assert_kappa_is_direct_optimum(e, target, cost)
        assert report.mode == "corner"
        _assert_no_profitable_deviation(e, target, cost, report)


def test_kappa_matches_direct_lp_with_several_free_multipliers():
    rng = np.random.default_rng(43)
    for _ in range(40):
        e, target, cost = full_rank_corner_instance(rng, 4, 2)
        assert _assert_kappa_is_direct_optimum(e, target, cost).mode == "corner"


def test_closed_form_kappa_matches_direct_lp_on_full_rank_square_kernels(monkeypatch):
    # A full-rank square kernel has no side bets, so an interior target is
    # priced by the row-minimum shift without any LP (a stalled HiGHS would
    # raise).  The direct LP, with the state multiplier free, must agree.
    from infocontracts import numerics

    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    rng = np.random.default_rng(53)
    for n in (3, 4):
        for _ in range(30):
            kernel = random_stochastic(rng, n, n)
            while np.linalg.svd(kernel, compute_uv=False)[-1] < 0.05:
                kernel = random_stochastic(rng, n, n)
            prior = random_interior_prior(rng, n)
            signal = Experiment(random_stochastic(rng, n, int(rng.integers(2, 5))))
            target, cost = posteriors(signal, prior), entropy_cost(prior)
            report = optimal_contract(Experiment(kernel), target, cost)
            optimum = direct_min_payment(kernel, target, marginal_cost_matrix(cost, target).matrix)
            assert report.kappa == pytest.approx(optimum, rel=0, abs=1e-8)
            assert report.payment_check == pytest.approx(optimum, rel=0, abs=1e-8)


def _payment_lp_with_dust(monkeypatch, dust) -> list:
    """Make HiGHS answer the payment LP with ``dust`` in place of its first
    zero payment; the returned list receives that entry's index."""
    from infocontracts import numerics

    real, entries = numerics.linprog, []

    def dusty(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = res.x.copy()
        entries.append(int(np.flatnonzero(res.x == 0.0)[0]))
        res.x[entries[-1]] = dust
        return res

    monkeypatch.setattr(numerics, "linprog", dusty)
    return entries


def test_solver_dust_on_a_payment_is_cleared_to_zero(monkeypatch):
    # -1.038e-10 is the dust HiGHS once returned on a 4x6 entropy instance.
    # It lies inside the LP's re-check tolerance, so the payment is exactly
    # zero and kappa is the direct optimum.
    rng = np.random.default_rng(31)
    e, target, cost = equal_rows_instance(rng)
    entries = _payment_lp_with_dust(monkeypatch, -1.038e-10)
    report = optimal_contract(e, target, cost)
    (m, k), (entry,) = report.contract.payments.shape, entries
    assert entry < m * k
    assert report.contract.payments[entry % m, entry // m] == 0.0
    assert report.contract.payments.min() == 0.0
    optimum = direct_min_payment(e.kernel, target, marginal_cost_matrix(cost, target).matrix)
    assert report.kappa == pytest.approx(optimum, abs=1e-8)


def test_roundoff_negative_payment_is_a_solver_failure(monkeypatch):
    # A payment past the LP's re-check tolerance is a solver failure, not a
    # malformed contract, and so is an LP that HiGHS stops without an answer.
    from infocontracts import numerics

    rng = np.random.default_rng(31)
    e, target, cost = equal_rows_instance(rng)
    _payment_lp_with_dust(monkeypatch, -1e-6)
    with pytest.raises(SolverFailureError, match="did not resolve: solution failed verification"):
        optimal_contract(e, target, cost)
    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    with pytest.raises(SolverFailureError, match="did not resolve: stalled"):
        optimal_contract(e, target, cost)


def test_optimal_contract_factors_the_kernel_once(monkeypatch):
    rng = np.random.default_rng(37)
    kernel = random_stochastic(rng, 4, 6)
    prior = Belief(rng.dirichlet(np.full(4, 4.0)))
    target = posteriors(Experiment(random_stochastic(rng, 4, 3)), prior)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = optimal_contract(Experiment(kernel), target, entropy_cost(prior))
    assert report.implementable
    assert calls == [(4, 6)]


def test_information_cost_is_priced_once_per_call(monkeypatch):
    from infocontracts import contracts, implementability

    e, target, cost = equal_rows_instance(np.random.default_rng(47))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return total_cost(*args, **kwargs)

    monkeypatch.setattr(implementability, "total_cost", counted)
    monkeypatch.setattr(contracts, "total_cost", counted, raising=False)
    report = optimal_contract(e, target, cost)
    assert len(calls) == 1
    assert report.first_best == total_cost(cost, target)
    calls.clear()
    zero_rent = first_best_contract(e, target, cost)
    assert len(calls) == 1
    assert expected_payment(e, target, cost.prior, zero_rent) == pytest.approx(
        report.first_best, abs=1e-9)
