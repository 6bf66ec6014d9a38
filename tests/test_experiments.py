import math

import numpy as np
import pytest
from helpers import random_stochastic

from infocontracts import (
    Belief,
    DimensionMismatchError,
    Experiment,
    InputError,
    PosteriorDistribution,
    Relation,
    blackwell_compare,
    experiment_from_posteriors,
    has_full_row_rank,
    has_uniform_random_noise,
    is_bayes_plausible,
    posteriors,
)

BINARY_SYMMETRIC = Experiment([[0.7, 0.3], [0.3, 0.7]])
BINARY_SKEWED = Experiment([[0.5, 0.5], [0.2, 0.8]])

SQRT2 = np.sqrt(2.0)
DEFICIENT_3X3 = Experiment(np.array([
    [2.0, SQRT2, 0.0],
    [SQRT2, 2.0, SQRT2],
    [0.0, SQRT2, 2.0],
]) / np.array([[2.0 + SQRT2], [2.0 + 2.0 * SQRT2], [2.0 + SQRT2]]))

# One dominant realization per state, equal noise on the rest.
UNIFORM_NOISE_3X4 = Experiment([
    [3 / 6, 1 / 6, 1 / 6, 1 / 6],
    [1 / 5, 2 / 5, 1 / 5, 1 / 5],
    [1 / 7, 1 / 7, 4 / 7, 1 / 7],
])


def test_belief_validation():
    assert Belief([0.25, 0.75]).is_interior()
    assert not Belief([1.0, 0.0]).is_interior()
    with pytest.raises(InputError):
        Belief([0.5, 0.6])
    with pytest.raises(InputError):
        Belief([-0.1, 1.1])


def test_experiment_validation():
    with pytest.raises(InputError):
        Experiment([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(InputError):
        Experiment([[1.1, -0.1], [0.5, 0.5]])
    e = Experiment([[0.5, 0.5]], states=["up"], realizations=["a", "b"])
    assert e.states == ("up",)


def test_posteriors_binary_symmetric():
    dist = posteriors(BINARY_SYMMETRIC, Belief.uniform(2))
    chances = sorted(b.probs[1] for b in dist.beliefs)
    assert chances == pytest.approx([0.3, 0.7], abs=1e-12)
    np.testing.assert_allclose(dist.weights, [0.5, 0.5], atol=1e-12)


def test_posteriors_binary_skewed():
    dist = posteriors(BINARY_SKEWED, Belief.uniform(2))
    np.testing.assert_allclose(dist.weights, [0.35, 0.65], atol=1e-12)
    assert dist.beliefs[0].probs[1] == pytest.approx(2 / 7, abs=1e-12)
    assert dist.beliefs[1].probs[1] == pytest.approx(8 / 13, abs=1e-12)


def test_posteriors_uninformative_column_of_ones():
    e = Experiment([[1.0], [1.0]])
    prior = Belief([0.4, 0.6])
    dist = posteriors(e, prior)
    assert dist.size == 1
    np.testing.assert_allclose(dist.beliefs[0].probs, prior.probs, atol=1e-12)


def test_posteriors_drops_dead_realizations():
    e = Experiment([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]], realizations=["a", "b", "dead"])
    dist = posteriors(e, Belief.uniform(2))
    assert dist.dropped == ("dead",)
    assert dist.size == 2


def test_posteriors_requires_interior_prior():
    with pytest.raises(InputError):
        posteriors(BINARY_SYMMETRIC, Belief([1.0, 0.0]))


def test_bayes_plausibility_checks():
    dist = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    assert is_bayes_plausible(dist, Belief.uniform(2))
    assert not is_bayes_plausible(
        PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.9, 0.1]), Belief.uniform(2))

    three = PosteriorDistribution(
        [[0.5, 1 / 6, 1 / 3], [1 / 6, 0.5, 1 / 3]], [0.5, 0.5])
    assert is_bayes_plausible(three, Belief.uniform(3))


def test_experiment_from_posteriors_binary():
    dist = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    e = experiment_from_posteriors(dist, Belief.uniform(2))
    np.testing.assert_allclose(e.kernel, [[0.7, 0.3], [0.3, 0.7]], atol=1e-12)


def test_experiment_from_posteriors_single_posterior():
    prior = Belief([0.4, 0.6])
    dist = PosteriorDistribution([prior], [1.0])
    e = experiment_from_posteriors(dist, prior)
    np.testing.assert_allclose(e.kernel, [[1.0], [1.0]], atol=1e-12)


def test_experiment_from_posteriors_three_state():
    dist = PosteriorDistribution(
        [[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.5, 0.5])
    e = experiment_from_posteriors(dist, Belief.uniform(3))
    np.testing.assert_allclose(
        e.kernel, [[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]], atol=1e-12)


def test_experiment_from_posteriors_rejects_implausible():
    dist = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.9, 0.1])
    with pytest.raises(InputError):
        experiment_from_posteriors(dist, Belief.uniform(2))


def test_posterior_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n, m = rng.integers(2, 5, size=2)
        e = Experiment(random_stochastic(rng, n, m))
        prior = Belief(rng.dirichlet(np.ones(n) * 4.0 + 1.0))
        dist = posteriors(e, prior)
        assert is_bayes_plausible(dist, prior)
        back = experiment_from_posteriors(dist, prior)
        kept = [j for j, label in enumerate(e.realizations) if label not in dist.dropped]
        np.testing.assert_allclose(back.kernel, e.kernel[:, kept], atol=1e-9)


def test_full_row_rank_predicates():
    assert has_full_row_rank(UNIFORM_NOISE_3X4)
    assert not has_full_row_rank(DEFICIENT_3X3)
    assert has_full_row_rank(Experiment(np.eye(4)))


def test_uniform_random_noise_predicate():
    assert has_uniform_random_noise(UNIFORM_NOISE_3X4)
    assert not has_uniform_random_noise(DEFICIENT_3X3)
    assert has_uniform_random_noise(Experiment(np.eye(4)))
    # unique maxima but unequal noise
    assert not has_uniform_random_noise(Experiment([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]))
    # shared argmax column
    assert not has_uniform_random_noise(Experiment([[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]]))


def test_informative_binary_experiments_have_full_row_rank():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = rng.integers(2, 6)
        kernel = random_stochastic(rng, 2, m)
        e = Experiment(kernel)
        informative = np.max(np.abs(kernel[0] - kernel[1])) > 1e-9
        if informative:
            assert has_full_row_rank(e)


def random_uniform_noise_kernel(rng, n, m):
    columns = rng.permutation(m)[:n]
    kernel = np.zeros((n, m))
    for row, col in enumerate(columns):
        noise = rng.uniform(0.01, 1.0 / (m + 1))
        kernel[row, :] = noise
        kernel[row, col] = 1.0 - noise * (m - 1)
    return kernel


def test_uniform_noise_implies_full_row_rank():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, n + 3))
        e = Experiment(random_uniform_noise_kernel(rng, n, m))
        assert has_uniform_random_noise(e)
        assert has_full_row_rank(e)


def test_blackwell_garbling_is_detected():
    garbling = np.array([[0.9, 0.1], [0.1, 0.9]])
    garbled = Experiment(BINARY_SYMMETRIC.kernel @ garbling)
    verdict = blackwell_compare(BINARY_SYMMETRIC, garbled)
    assert verdict.relation is Relation.DOMINATES
    g = verdict.certificate["garbling"]
    assert np.all(g >= -1e-9)
    np.testing.assert_allclose(BINARY_SYMMETRIC.kernel @ g, garbled.kernel, atol=1e-8)


def test_blackwell_incomparable_pair():
    verdict = blackwell_compare(BINARY_SYMMETRIC, BINARY_SKEWED)
    assert verdict.relation is Relation.INCOMPARABLE


def test_blackwell_self_comparison_is_equivalent():
    assert blackwell_compare(BINARY_SYMMETRIC, BINARY_SYMMETRIC).relation is Relation.EQUIVALENT


def test_blackwell_requires_same_state_space():
    with pytest.raises(DimensionMismatchError):
        blackwell_compare(BINARY_SYMMETRIC, Experiment(np.eye(3)))


def test_serialization_round_trip():
    e = Experiment([[0.7, 0.3], [0.3, 0.7]], states=["lo", "hi"])
    assert Experiment.from_dict(e.to_dict()).states == ("lo", "hi")
    b = Belief([0.25, 0.75])
    np.testing.assert_allclose(Belief.from_dict(b.to_dict()).probs, b.probs)
    d = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    round_tripped = PosteriorDistribution.from_dict(d.to_dict())
    np.testing.assert_allclose(round_tripped.weights, d.weights)


def test_a_distribution_holds_one_read_only_posterior_matrix():
    dist = PosteriorDistribution([Belief([0.2, 0.8]), [0.6, 0.4]], [0.5, 0.5])
    matrix = dist.posterior_matrix()
    assert matrix is dist.posterior_matrix() and not matrix.flags.writeable
    np.testing.assert_array_equal(matrix, [[0.2, 0.6], [0.8, 0.4]])
    assert [b.probs.tolist() for b in dist.beliefs] == [[0.2, 0.8], [0.6, 0.4]]
    assert not hasattr(dist, "support")
    with pytest.raises(DimensionMismatchError, match="state spaces"):
        PosteriorDistribution([[0.5, 0.5], [1.0]], [0.5, 0.5])
    with pytest.raises(InputError, match="simplex"):
        PosteriorDistribution([[0.5, 0.5], [0.9, 0.3]], [0.5, 0.5])


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 1.0]])
def test_non_finite_weights_are_refused(weights):
    # NaN passes both the sign and the sum check; it must not reach a cost.
    with pytest.raises(InputError, match="finite probability vector"):
        PosteriorDistribution([[0.5, 0.5], [0.5, 0.5]], weights)
