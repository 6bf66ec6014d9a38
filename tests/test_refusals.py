"""Each input check refuses with its typed error.

One case per refusal that the rest of the suite never raises: the input,
the error type the library promises, and a fragment of its message.
"""

import math

import numpy as np
import pytest

from infocontracts import (
    Belief,
    Contract,
    DimensionMismatchError,
    Experiment,
    InputError,
    PosteriorDistribution,
    check_no_dominance,
    column_space_residual,
    cost_from_dict,
    custom_cost,
    entropy_cost,
    is_bayes_plausible,
    numerics,
    posteriors,
    synthesize_family,
)

BINARY = Experiment([[0.7, 0.3], [0.3, 0.7]])
BINARY_TARGET = PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
UNIFORM2 = Belief.uniform(2)


def _family():
    return synthesize_family(BINARY, BINARY_TARGET, entropy_cost(UNIFORM2))


CASES = {
    # contracts
    "contract_non_finite_payment": (
        lambda: Contract([[math.nan, 1.0], [0.0, 1.0]]), InputError, "finite 2-D"),
    "contract_negative_payment_under_limited_liability": (
        lambda: Contract([[-1.0, 1.0], [0.0, 1.0]]), InputError, "negative payment"),
    "member_bonus_of_the_wrong_size": (
        lambda: _family().member(z=[1.0, 2.0, 3.0]), DimensionMismatchError, "bonus must have"),
    "member_side_bets_of_the_wrong_shape": (
        lambda: _family().member(w=np.zeros((3, 3))), DimensionMismatchError, "side bets must"),
    # experiments
    "kernel_non_finite": (
        lambda: Experiment([[math.inf, 0.0], [0.5, 0.5]]), InputError, "finite 2-D"),
    "label_counts_off_the_kernel": (
        lambda: Experiment([[0.5, 0.5], [0.5, 0.5]], states=["only"]),
        DimensionMismatchError, "label counts"),
    "one_weight_for_two_beliefs": (
        lambda: PosteriorDistribution([[0.5, 0.5], [0.4, 0.6]], [1.0]),
        DimensionMismatchError, "one weight per belief"),
    "weights_not_a_probability_vector": (
        lambda: PosteriorDistribution([[0.5, 0.5], [0.4, 0.6]], [0.3, 0.3]),
        InputError, "probability vector"),
    "posteriors_at_a_prior_on_other_states": (
        lambda: posteriors(BINARY, Belief.uniform(3)), DimensionMismatchError, "state space"),
    "bayes_plausibility_at_a_prior_on_other_states": (
        lambda: is_bayes_plausible(BINARY_TARGET, Belief.uniform(3)),
        DimensionMismatchError, "state space"),
    "belief_non_finite": (lambda: Belief([math.nan, 1.0]), InputError, "finite probability"),
    # costs
    "cost_at_a_boundary_prior": (
        lambda: entropy_cost([1.0, 0.0]), InputError, "interior prior"),
    "entropy_log_base_of_one": (
        lambda: entropy_cost(UNIFORM2, log_base=1.0), InputError, "log_base"),
    "price_of_a_belief_on_other_states": (
        lambda: entropy_cost(UNIFORM2).value_at([0.2, 0.3, 0.5]),
        DimensionMismatchError, "cost expects 2"),
    "cost_json_without_a_prior": (
        lambda: cost_from_dict({"kind": "entropy"}), InputError, "needs a 'prior'"),
    "custom_cost_not_zero_at_its_prior": (
        lambda: custom_cost(UNIFORM2, lambda p: 1.0, lambda p: np.ones(2),
                            strictly_convex=True, infinite_boundary_slope=False),
        InputError, "zero at its prior"),
    # implementability
    "no_dominance_test_of_non_finite_entries": (
        lambda: check_no_dominance([[math.nan, 1.0], [0.0, 1.0]]), InputError, "finite entries"),
    # numerics
    "matrix_of_one_dimension": (
        lambda: numerics.as_matrix([1.0, 2.0]), InputError, "must be 2-D"),
    "matrix_without_rows": (
        lambda: numerics.as_matrix(np.zeros((0, 2))), InputError, "positive dimensions"),
    "matrix_non_finite": (
        lambda: numerics.as_matrix([[math.inf]]), InputError, "non-finite"),
    "vector_empty": (lambda: numerics.as_vector([]), InputError, "is empty"),
    "vector_non_finite": (lambda: numerics.as_vector([math.nan]), InputError, "non-finite"),
    "column_space_residual_of_the_wrong_size": (
        lambda: column_space_residual(np.eye(2), [1.0, 2.0, 3.0]),
        DimensionMismatchError, "vector of size 3"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_refusal(build, error, message):
    with pytest.raises(error, match=message) as caught:
        build()
    assert type(caught.value) is error
