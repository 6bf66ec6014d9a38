import numpy as np
import pytest
from helpers import (
    corner_instance,
    corner_multiplier_instance,
    grid_search_corner_verdict,
    random_stochastic,
    tilted_implementable_target,
)

from infocontracts import (
    Belief,
    BoundaryMarginalCostError,
    DimensionMismatchError,
    Experiment,
    InputError,
    PosteriorDistribution,
    Relation,
    SolverFailureError,
    check_implementable,
    check_no_dominance,
    check_unique_implementable,
    compare_implementable_sets,
    custom_cost,
    entropy_cost,
    marginal_cost_matrix,
    pseudo_inverse,
    quadratic_cost,
)

RANK2_EQUAL_ROWS = Experiment([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
RANK2_SYMMETRIC = Experiment([[3 / 4, 1 / 4], [1 / 4, 3 / 4], [1 / 2, 1 / 2]])

ON_LINE = PosteriorDistribution([[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.5, 0.5])
OFF_LINE = PosteriorDistribution([[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3]], [0.5, 0.5])


@pytest.fixture
def entropy3():
    return entropy_cost(Belief.uniform(3))


def test_rank2_verdict_table(entropy3):
    assert check_implementable(RANK2_EQUAL_ROWS, ON_LINE, entropy3).implementable
    assert not check_implementable(RANK2_EQUAL_ROWS, OFF_LINE, entropy3).implementable
    assert check_implementable(RANK2_SYMMETRIC, OFF_LINE, entropy3).implementable
    assert not check_implementable(RANK2_SYMMETRIC, ON_LINE, entropy3).implementable


def test_residual_certificates_populate(entropy3):
    good = check_implementable(RANK2_EQUAL_ROWS, ON_LINE, entropy3)
    assert good.residuals.size == 1
    assert good.residuals[0] <= 1e-9 * good.diff_norms[0] + 1e-12
    assert good.lambda_certificate is not None

    bad = check_implementable(RANK2_EQUAL_ROWS, OFF_LINE, entropy3)
    assert bad.residuals[0] > 0.5
    assert bad.lambda_certificate is None
    assert "column space" in bad.reason


def test_full_row_rank_fast_path(entropy3):
    e = Experiment(np.eye(3))
    report = check_implementable(e, ON_LINE, entropy3)
    assert report.implementable and report.full_row_rank
    assert report.residuals.size == 0


def test_lambda_certificate_reconstructs_foc(entropy3):
    report = check_implementable(RANK2_EQUAL_ROWS, ON_LINE, entropy3)
    # the canonical contract pinv @ nabla has per-state payoff multiplier
    # lambda: kernel @ T - nabla must equal lambda in every column
    nabla = marginal_cost_matrix(entropy3, ON_LINE)
    pinv = pseudo_inverse(RANK2_EQUAL_ROWS.kernel)
    foc = RANK2_EQUAL_ROWS.kernel @ (pinv.pinv @ nabla) - nabla
    np.testing.assert_allclose(foc[:, 0], report.lambda_certificate, atol=1e-9)
    np.testing.assert_allclose(foc[:, 1], report.lambda_certificate, atol=1e-9)


def test_infinite_cost_is_not_implementable():
    prior = Belief.uniform(2)

    def value(mu):
        return np.inf if mu[0] > 0.9 else float(np.sum((mu - prior.probs) ** 2))

    def gradient(mu):
        raw = 2.0 * (mu - prior.probs)
        return raw + (value(mu) - mu @ raw)

    cost = custom_cost(prior, value, gradient, strictly_convex=True,
                       infinite_boundary_slope=False, validate=False)
    target = PosteriorDistribution([[0.95, 0.05], [0.05, 0.95]], [0.5, 0.5])
    report = check_implementable(Experiment(np.eye(2)), target, cost)
    assert not report.implementable
    assert "infinite" in report.reason


def test_boundary_target_under_unbounded_slope_cost_rejected():
    cost = entropy_cost(Belief.uniform(2))
    revealing = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    report = check_implementable(Experiment(np.eye(2)), revealing, cost)
    assert not report.implementable
    assert "boundary" in report.reason


def test_corner_full_rank_boundary_target_implementable():
    quad = quadratic_cost(Belief.uniform(2))
    revealing = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    report = check_implementable(Experiment([[0.8, 0.2], [0.3, 0.7]]), revealing, quad)
    assert report.implementable
    assert report.mode == "corner"
    assert report.full_row_rank


def test_corner_needs_finite_gradients():
    # Entropy prices mislabelled as having a bounded slope: the target is
    # decided in corner mode, where the -inf gradient entries must raise.
    entropy = entropy_cost(Belief.uniform(2))
    cost = custom_cost(entropy.prior, entropy.value, entropy.gradient, strictly_convex=True,
                       infinite_boundary_slope=False)
    revealing = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(BoundaryMarginalCostError):
        check_implementable(Experiment([[0.8, 0.2], [0.3, 0.7]]), revealing, cost)


def test_revealing_target_under_uninformative_kernel_is_rejected():
    # No report-contingent payoffs exist, so costly learning cannot be
    # optimal; the complementary-slackness system must be infeasible.
    quad = quadratic_cost(Belief.uniform(2))
    revealing = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    report = check_implementable(Experiment([[1.0], [1.0]]), revealing, quad)
    assert not report.implementable


def test_corner_lp_agrees_with_grid_search():
    rng = np.random.default_rng(61)
    seen = {True: 0, False: 0}
    trials = 0
    while trials < 50:
        instance = corner_instance(rng)
        if instance is None:
            continue
        e, target, cost, zero_state = instance
        feasible_grid, best, threshold = grid_search_corner_verdict(e, target, cost, zero_state)
        if not feasible_grid and best < 4.0 * threshold:
            continue    # too close to call for a finite grid
        trials += 1
        report = check_implementable(e, target, cost)
        assert report.implementable == feasible_grid
        seen[feasible_grid] += 1
        if report.implementable:
            assert np.all(report.eta >= -1e-12)
            mask = target.posterior_matrix() > 1e-9
            assert np.all(report.eta[mask] == 0.0)
    assert min(seen.values()) >= 5    # both verdicts exercised


def test_unique_implementability():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    e = Experiment([[0.7, 0.3], [0.3, 0.7]])
    two = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    assert check_unique_implementable(e, two, cost)

    three = PosteriorDistribution(
        [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]], [1 / 3, 1 / 3, 1 / 3])
    assert not check_unique_implementable(e, three, cost)

    def value(mu):
        return float(abs(mu[1] - 0.5))

    def gradient(mu):
        raw = np.array([0.0, 1.0 if mu[1] >= 0.5 else -1.0])
        return raw + (value(mu) - mu @ raw)

    affine_cost = custom_cost(prior, value, gradient, strictly_convex=False,
                              infinite_boundary_slope=False, validate=False)
    assert not check_unique_implementable(e, two, affine_cost)


def test_no_dominance_simple_matrices():
    assert check_no_dominance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not check_no_dominance(np.array([[1.0, 0.0], [1.0, 0.0]]))
    # identical columns are allowed
    assert check_no_dominance(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_no_dominance_of_strictly_convex_gradients():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        prior = Belief(rng.dirichlet(np.ones(n) * 4.0 + 1.0))
        cost = entropy_cost(prior)
        posts = rng.dirichlet(np.ones(n) * 2.0 + 0.5, size=k)
        weights = rng.dirichlet(np.ones(k))
        mean = weights @ posts
        posts = posts + (prior.probs - mean)[None, :]
        if posts.min() < 1e-3:
            continue
        dist = PosteriorDistribution(posts, weights)
        assert check_no_dominance(marginal_cost_matrix(cost, dist))


def test_compare_implementable_sets():
    full = Experiment(np.eye(3))
    assert compare_implementable_sets(full, RANK2_EQUAL_ROWS).relation is Relation.DOMINATES
    assert compare_implementable_sets(RANK2_EQUAL_ROWS, RANK2_SYMMETRIC).relation is Relation.INCOMPARABLE
    assert compare_implementable_sets(RANK2_EQUAL_ROWS, RANK2_EQUAL_ROWS).relation is Relation.EQUIVALENT

    garbled_to_rank1 = Experiment(RANK2_EQUAL_ROWS.kernel @ np.array([[0.5, 0.5], [0.5, 0.5]]))
    verdict = compare_implementable_sets(RANK2_EQUAL_ROWS, garbled_to_rank1)
    assert verdict.relation is Relation.DOMINATES
    assert verdict.strict


def test_colspace_dominance_implies_implementable_set_containment():
    rng = np.random.default_rng(71)
    cases = 0
    while cases < 40:
        kernel = random_stochastic(rng, 3, int(rng.integers(2, 4)))
        garbling = random_stochastic(rng, kernel.shape[1], 2)
        weaker = Experiment(kernel @ garbling)
        stronger = Experiment(kernel)
        if compare_implementable_sets(stronger, weaker).relation not in (
                Relation.DOMINATES, Relation.EQUIVALENT):
            continue
        target, cost = tilted_implementable_target(rng, weaker.kernel)
        if not check_implementable(weaker, target, cost).implementable:
            continue    # tilt can push posteriors onto the simplex edge
        cases += 1
        assert check_implementable(stronger, target, cost).implementable


def _point_on_invariant_arc(rng, ratio):
    """Sample x with x1*x2/(1-x1-x2)^2 equal to ``ratio`` (the invariant
    carved out by Col(RANK2_SYMMETRIC) under an entropy price)."""
    x1 = rng.uniform(0.05, 0.55)
    a = 1.0 - x1
    # ratio*(a-u)^2 = x1*u, smaller root keeps x3 = a-u positive
    disc = np.sqrt(x1 * x1 + 4.0 * ratio * a * x1)
    u = (2.0 * ratio * a + x1 - disc) / (2.0 * ratio)
    return np.array([x1, u, a - u])


def test_symmetric_rank2_kernel_implements_exactly_its_invariant_arcs():
    # Under the kernel whose column space is {v3 = (v1+v2)/2}, a two-point
    # entropy target is implementable iff both posteriors share the value
    # of x1*x2/x3^2; pairs from one arc must pass, pairs off it must fail.
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 20:
        ratio = rng.uniform(0.3, 0.9)
        x = _point_on_invariant_arc(rng, ratio)
        y = _point_on_invariant_arc(rng, ratio)
        if np.linalg.norm(x - y) < 1e-2:
            continue
        weight = rng.uniform(0.3, 0.7)
        prior = Belief(weight * x + (1 - weight) * y)
        cost = entropy_cost(prior)
        on_arc = PosteriorDistribution([x, y], [weight, 1 - weight])
        assert check_implementable(RANK2_SYMMETRIC, on_arc, cost).implementable

        # replace y by an off-arc point and rebalance x so the pair still
        # averages to the same prior
        z = _point_on_invariant_arc(rng, ratio * rng.uniform(1.5, 2.5))
        x_adj = (prior.probs - (1 - weight) * z) / weight
        if x_adj.min() < 1e-3:
            continue
        off_arc = PosteriorDistribution([x_adj, z], [weight, 1 - weight])
        x_ratio = x_adj[0] * x_adj[1] / x_adj[2] ** 2
        z_ratio = z[0] * z[1] / z[2] ** 2
        if abs(x_ratio - z_ratio) < 1e-2:
            continue
        assert not check_implementable(RANK2_SYMMETRIC, off_arc, cost).implementable
        checked += 1


def test_equal_rows_kernel_implements_exactly_matched_odds():
    # Under the kernel with two identical rows, implementable entropy
    # targets keep x1/x2 constant across posteriors, pinned by the prior.
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 20:
        odds = rng.uniform(0.5, 2.0)

        def point():
            x2 = rng.uniform(0.08, 0.9 / (1.0 + odds))
            return np.array([odds * x2, x2, 1.0 - (1.0 + odds) * x2])

        x, y = point(), point()
        if abs(x[2] - y[2]) < 1e-2:
            continue
        weight = rng.uniform(0.3, 0.7)
        prior = Belief(weight * x + (1 - weight) * y)
        cost = entropy_cost(prior)
        matched = PosteriorDistribution([x, y], [weight, 1 - weight])
        assert check_implementable(RANK2_EQUAL_ROWS, matched, cost).implementable

        # tilt y off the matched-odds line, rebalancing x to keep the prior
        y_tilt = y + np.array([0.03, -0.03, 0.0])
        x_adj = (prior.probs - (1 - weight) * y_tilt) / weight
        if min(y_tilt.min(), x_adj.min()) < 1e-3:
            continue
        if abs(x_adj[0] / x_adj[1] - y_tilt[0] / y_tilt[1]) < 1e-2:
            continue    # rebalancing happened to restore matched odds
        mismatched = PosteriorDistribution([x_adj, y_tilt], [weight, 1 - weight])
        assert not check_implementable(RANK2_EQUAL_ROWS, mismatched, cost).implementable
        checked += 1


def test_bayes_inconsistent_target_is_rejected():
    cost = entropy_cost(Belief.uniform(3))
    lopsided = PosteriorDistribution(
        [[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.9, 0.1])
    with pytest.raises(InputError):
        check_implementable(RANK2_EQUAL_ROWS, lopsided, cost)


def test_corner_lp_without_a_trustworthy_answer_is_a_solver_failure(monkeypatch):
    from infocontracts import numerics

    def stalled(*args, **kwargs):
        raise RuntimeError("stalled")

    e, target, cost = corner_multiplier_instance(np.random.default_rng(41))
    monkeypatch.setattr(numerics, "nnls", stalled)
    with pytest.raises(SolverFailureError, match="stalled"):
        check_implementable(e, target, cost)


def test_an_experiment_and_a_target_on_different_states_are_a_dimension_mismatch():
    cost = entropy_cost(Belief.uniform(3))
    target = PosteriorDistribution([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]], [0.5, 0.5])
    with pytest.raises(DimensionMismatchError, match="state spaces"):
        check_implementable(Experiment([[0.7, 0.3], [0.3, 0.7]]), target, cost)
