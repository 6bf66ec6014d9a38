import math

import numpy as np
import pytest
from helpers import shannon_entropy
from hypothesis import given, settings
from hypothesis import strategies as st

from infocontracts import (
    Belief,
    BoundaryMarginalCostError,
    InputError,
    PosteriorDistribution,
    cost_from_dict,
    custom_cost,
    entropy_cost,
    marginal_cost_matrix,
    quadratic_cost,
    total_cost,
)


def test_entropy_cost_zero_at_prior():
    prior = Belief([0.3, 0.7])
    cost = entropy_cost(prior)
    assert cost.value_at(prior) == pytest.approx(0.0, abs=1e-15)
    grad = cost.gradient_at(prior)
    assert prior.probs @ grad == pytest.approx(0.0, abs=1e-12)


def test_entropy_gradient_binary_closed_form():
    cost = entropy_cost(Belief.uniform(2))
    mu = np.array([0.7, 0.3])
    grad = cost.gradient_at(mu)
    np.testing.assert_allclose(grad, [np.log(1.4), np.log(0.6)], atol=1e-12)
    expected_value = np.log(2.0) - shannon_entropy(mu)
    assert mu @ grad == pytest.approx(expected_value, abs=1e-12)
    assert expected_value == pytest.approx(0.08228, abs=5e-6)


def test_entropy_value_three_state():
    cost = entropy_cost(Belief.uniform(3))
    mu = np.array([0.25, 0.25, 0.5])
    assert cost.value_at(mu) == pytest.approx(np.log(3.0) - shannon_entropy(mu), abs=1e-12)
    assert cost.value_at(mu) == pytest.approx(0.05889, abs=5e-6)


def test_entropy_log_base_toggle():
    nats = entropy_cost(Belief.uniform(2))
    bits = entropy_cost(Belief.uniform(2), log_base=2.0)
    mu = np.array([0.9, 0.1])
    assert bits.value_at(mu) == pytest.approx(nats.value_at(mu) / math.log(2.0), abs=1e-12)


def test_entropy_boundary_behavior():
    cost = entropy_cost(Belief.uniform(2))
    vertex = np.array([1.0, 0.0])
    assert cost.value_at(vertex) == pytest.approx(np.log(2.0), abs=1e-12)
    grad = cost.gradient_at(vertex)
    assert grad[1] == -np.inf


def test_quadratic_cost_values():
    prior = Belief.uniform(2)
    cost = quadratic_cost(prior, scale=1.0)
    assert cost.value_at(prior) == 0.0
    assert cost.value_at(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InputError):
        quadratic_cost(prior, scale=0.0)


def directional_derivative(cost, mu, mu2, eps=1e-5):
    # Richardson-extrapolated one-sided difference along mu -> mu2.
    def slope(h):
        return (cost.value_at(mu + h * (mu2 - mu)) - cost.value_at(mu)) / h
    return 2.0 * slope(eps / 2.0) - slope(eps)


@pytest.mark.parametrize("make_cost", [
    lambda prior: entropy_cost(prior),
    lambda prior: quadratic_cost(prior, scale=0.8),
])
def test_gradient_matches_directional_derivatives(make_cost):
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        prior = Belief(rng.dirichlet(np.ones(n) * 3.0 + 1.0))
        cost = make_cost(prior)
        mu = rng.dirichlet(np.ones(n) * 3.0 + 1.0)
        mu2 = rng.dirichlet(np.ones(n) * 3.0 + 1.0)
        expected = (mu2 - mu) @ cost.gradient_at(mu)
        assert directional_derivative(cost, mu, mu2) == pytest.approx(expected, abs=1e-6)


def test_quadratic_normalization_at_specific_point():
    cost = quadratic_cost(Belief.uniform(2), scale=1.0)
    mu = np.array([0.8, 0.2])
    grad = cost.gradient_at(mu)
    assert mu @ grad == pytest.approx(cost.value_at(mu), abs=1e-12)
    mu2 = np.array([0.3, 0.7])
    assert directional_derivative(cost, mu, mu2) == pytest.approx(
        (mu2 - mu) @ grad, abs=1e-8)


def test_normalization_identity_random_beliefs():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        prior = Belief(rng.dirichlet(np.ones(n) * 2.0 + 0.5))
        cost = entropy_cost(prior) if rng.random() < 0.5 else quadratic_cost(prior, 2.0)
        mu = rng.dirichlet(np.ones(n))
        if mu.min() <= 1e-9:
            continue
        grad = cost.gradient_at(mu)
        value = cost.value_at(mu)
        assert abs(mu @ grad - value) <= 1e-9 * max(1.0, abs(value))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=4),
    entropy=st.booleans(),
)
def test_normalization_identity_hypothesis(weights, entropy):
    mu = np.array(weights) / np.sum(weights)
    prior = Belief.uniform(mu.size)
    cost = entropy_cost(prior) if entropy else quadratic_cost(prior, scale=1.5)
    grad = cost.gradient_at(mu)
    value = cost.value_at(mu)
    assert abs(mu @ grad - value) <= 1e-9 * max(1.0, abs(value))


def test_convexity_on_random_segments():
    rng = np.random.default_rng(41)
    cost = entropy_cost(Belief.uniform(3))
    for _ in range(200):
        mu, mu2 = rng.dirichlet(np.ones(3), size=2)
        alpha = rng.uniform(0.0, 1.0)
        mid = alpha * mu + (1 - alpha) * mu2
        assert cost.value_at(mid) <= alpha * cost.value_at(mu) + (1 - alpha) * cost.value_at(mu2) + 1e-12


def test_contraction_toward_prior_is_cheaper():
    rng = np.random.default_rng(43)
    prior = Belief.uniform(3)
    cost = entropy_cost(prior)
    for _ in range(100):
        posts = rng.dirichlet(np.ones(3), size=2)
        weight = rng.uniform(0.2, 0.8)
        mean = weight * posts[0] + (1 - weight) * posts[1]
        # recenter so the pair averages to the prior
        posts = posts + (prior.probs - mean)[None, :]
        if posts.min() <= 1e-6:
            continue
        original = PosteriorDistribution(posts, [weight, 1 - weight])
        alpha = rng.uniform(0.1, 0.9)
        contracted = PosteriorDistribution(
            (1 - alpha) * posts + alpha * prior.probs[None, :], [weight, 1 - weight])
        assert total_cost(cost, contracted) <= total_cost(cost, original) + 1e-12


def test_marginal_cost_matrix_binary():
    cost = entropy_cost(Belief.uniform(2))
    dist = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    nabla = marginal_cost_matrix(cost, dist)
    np.testing.assert_allclose(
        nabla,
        [[np.log(1.4), np.log(0.6)], [np.log(0.6), np.log(1.4)]],
        atol=1e-12,
    )


def test_marginal_cost_matrix_at_own_uniform_prior_is_zero():
    prior = Belief.uniform(3)
    cost = entropy_cost(prior)
    dist = PosteriorDistribution([prior], [1.0])
    nabla = marginal_cost_matrix(cost, dist)
    np.testing.assert_allclose(nabla, np.zeros((3, 1)), atol=1e-12)


def test_marginal_cost_matrix_column_difference_three_state():
    cost = entropy_cost(Belief.uniform(3))
    dist = PosteriorDistribution(
        [[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.5, 0.5])
    nabla = marginal_cost_matrix(cost, dist)
    diff = nabla[:, 0] - nabla[:, 1]
    np.testing.assert_allclose(
        diff, [np.log(3 / 5), np.log(3 / 5), np.log(3.0)], atol=1e-12)


def test_marginal_cost_matrix_rejects_boundary_for_entropy():
    cost = entropy_cost(Belief.uniform(2))
    dist = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(BoundaryMarginalCostError):
        marginal_cost_matrix(cost, dist)
    # bounded-slope costs accept the same distribution
    quad = quadratic_cost(Belief.uniform(2))
    assert np.all(np.isfinite(marginal_cost_matrix(quad, dist)))


def test_total_cost_values():
    prior = Belief.uniform(2)
    cost = entropy_cost(prior)
    uninformative = PosteriorDistribution([prior], [1.0])
    assert total_cost(cost, uninformative) == 0.0

    half = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    assert total_cost(cost, half) == pytest.approx(
        np.log(2.0) - shannon_entropy([0.3, 0.7]), abs=1e-12)

    revealing = PosteriorDistribution([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert total_cost(cost, revealing) == pytest.approx(np.log(2.0), abs=1e-12)


def test_custom_cost_validation_catches_bad_plugins():
    prior = Belief.uniform(2)

    def value(mu):
        return float(np.sum((mu - prior.probs) ** 2))

    def bad_gradient(mu):
        return 2.0 * (mu - prior.probs) + 1.0   # breaks the normalization

    with pytest.raises(InputError):
        custom_cost(prior, value, bad_gradient, strictly_convex=True,
                    infinite_boundary_slope=False)

    def nonconvex_value(mu):
        return -float(np.sum((mu - prior.probs) ** 2))

    def nonconvex_gradient(mu):
        raw = -2.0 * (mu - prior.probs)
        return raw + (nonconvex_value(mu) - mu @ raw)

    with pytest.raises(InputError):
        custom_cost(prior, nonconvex_value, nonconvex_gradient, strictly_convex=False,
                    infinite_boundary_slope=False)


def test_cost_from_dict():
    cost = cost_from_dict({"kind": "entropy", "prior": [0.5, 0.5]})
    assert cost.kind == "entropy"
    quad = cost_from_dict({"kind": "quadratic", "prior": [0.5, 0.5], "scale": 2.0})
    assert quad.value_at(np.array([1.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(InputError):
        cost_from_dict({"kind": "nope", "prior": [0.5, 0.5]})


def test_cost_serialization_round_trip():
    quad = quadratic_cost(Belief([0.3, 0.7]), scale=2.5)
    clone = cost_from_dict(quad.to_dict())
    mu = np.array([0.6, 0.4])
    assert clone.value_at(mu) == quad.value_at(mu)
    bits = entropy_cost(Belief.uniform(2), log_base=2.0)
    assert cost_from_dict(bits.to_dict()).value_at(mu) == pytest.approx(bits.value_at(mu))
