import math

import numpy as np
import pytest
from helpers import (
    direct_min_payment,
    direct_nonnegative_feasible,
    random_binary_experiment,
    random_binary_target,
    random_interior_prior,
    random_stochastic,
)

from infocontracts import (
    Belief,
    DegenerateExperimentError,
    DimensionMismatchError,
    Experiment,
    PosteriorDistribution,
    Relation,
    SolverFailureError,
    binary_k_compare,
    binary_likelihood_ratios,
    blackwell_compare,
    colspace_compare,
    cone_compare,
    entropy_cost,
    k_dominance_sufficient,
    marginal_cost_matrix,
    optimal_contract,
    quadratic_cost,
)

BINARY = Experiment([[0.7, 0.3], [0.3, 0.7]])
BINARY_SKEWED = Experiment([[0.5, 0.5], [0.2, 0.8]])
RANK2_EQUAL_ROWS = Experiment([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
RANK2_SYMMETRIC = Experiment([[3 / 4, 1 / 4], [1 / 4, 3 / 4], [1 / 2, 1 / 2]])


def test_likelihood_ratios_ordering_and_extremes():
    l1, l2 = binary_likelihood_ratios(BINARY)
    assert (l1, l2) == (pytest.approx(3 / 7), pytest.approx(7 / 3))
    l1, l2 = binary_likelihood_ratios(Experiment(np.eye(2)))
    assert l1 == 0.0 and math.isinf(l2)
    with pytest.raises(DegenerateExperimentError):
        binary_likelihood_ratios(Experiment([[0.4, 0.6], [0.4, 0.6]]))
    with pytest.raises(DegenerateExperimentError):
        # a realization that is never sent has no likelihood ratio
        binary_likelihood_ratios(Experiment([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        binary_likelihood_ratios(Experiment([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]))


def test_cone_identity_dominates_everything():
    rng = np.random.default_rng(1)
    identity = Experiment(np.eye(3))
    for _ in range(10):
        other = Experiment(random_stochastic(rng, 3, int(rng.integers(2, 5))))
        verdict = cone_compare(identity, other)
        assert verdict.relation in (Relation.DOMINATES, Relation.EQUIVALENT)


def test_cone_garbling_direction():
    garbling = np.array([[0.8, 0.2], [0.3, 0.7]])
    garbled = Experiment(BINARY.kernel @ garbling)
    verdict = cone_compare(BINARY, garbled)
    assert verdict.relation is Relation.DOMINATES
    coeffs = verdict.certificate["coefficients"]
    assert np.all(coeffs >= -1e-9)
    np.testing.assert_allclose(BINARY.kernel @ coeffs, garbled.kernel, atol=1e-8)


def test_cone_incomparable_pair():
    assert cone_compare(BINARY, BINARY_SKEWED).relation is Relation.INCOMPARABLE


def test_colspace_verdicts():
    assert colspace_compare(BINARY, BINARY_SKEWED).relation is Relation.EQUIVALENT
    assert colspace_compare(RANK2_EQUAL_ROWS, RANK2_SYMMETRIC).relation is Relation.INCOMPARABLE
    rank1 = Experiment(RANK2_EQUAL_ROWS.kernel @ np.array([[0.5, 0.5], [0.5, 0.5]]))
    verdict = colspace_compare(RANK2_EQUAL_ROWS, rank1)
    assert verdict.relation is Relation.DOMINATES
    assert verdict.strict
    assert verdict.certificate["rank_stacked"] == 2


def test_binary_cost_order_on_worked_pair():
    verdict = binary_k_compare(BINARY, BINARY_SKEWED)
    assert verdict.relation is Relation.DOMINATES
    spreads = verdict.certificate["spreads_first"]
    assert spreads[0] == pytest.approx(40 / 21, abs=1e-12)
    assert spreads[1] == pytest.approx(40 / 21, abs=1e-12)
    other = verdict.certificate["spreads_second"]
    assert other[0] == pytest.approx(1.2, abs=1e-12)
    assert other[1] == pytest.approx(1.875, abs=1e-12)


def test_binary_cost_order_reflexive_and_revealing():
    assert binary_k_compare(BINARY, BINARY).relation is Relation.EQUIVALENT
    revealing = Experiment(np.eye(2))
    assert binary_k_compare(revealing, BINARY).relation is Relation.DOMINATES
    assert binary_k_compare(BINARY, revealing).relation is Relation.DOMINATED_BY


def test_cone_sufficiency_and_its_gap():
    garbling = np.array([[0.9, 0.1], [0.2, 0.8]])
    garbled = Experiment(BINARY.kernel @ garbling)
    assert k_dominance_sufficient(BINARY, garbled)
    assert k_dominance_sufficient(Experiment(np.eye(2)), BINARY)
    # the canonical witness that the cone test is sufficient only: the cone
    # verdict fails while the complete likelihood-ratio test still dominates
    assert not k_dominance_sufficient(BINARY, BINARY_SKEWED)
    assert binary_k_compare(BINARY, BINARY_SKEWED).relation is Relation.DOMINATES


def _informative_garbled_pair(rng):
    while True:
        e = random_binary_experiment(rng, min_det=0.1)
        garbling = random_stochastic(rng, 2, 2)
        f_kernel = e.kernel @ garbling
        if abs(np.linalg.det(f_kernel)) >= 0.02:
            return e, Experiment(f_kernel)


def test_order_implication_chain_on_garbled_pairs():
    rng = np.random.default_rng(101)
    for _ in range(300):
        e, f = _informative_garbled_pair(rng)
        assert blackwell_compare(e, f).dominates_weakly
        assert cone_compare(e, f).dominates_weakly
        assert binary_k_compare(e, f).dominates_weakly


def test_cone_certificates_reverify():
    rng = np.random.default_rng(103)
    for _ in range(200):
        e, f = _informative_garbled_pair(rng)
        verdict = cone_compare(e, f)
        assert verdict.dominates_weakly
        coeffs = verdict.certificate["coefficients"]
        assert np.all(coeffs >= -1e-9)
        assert np.max(np.abs(e.kernel @ coeffs - f.kernel)) <= 1e-9


def test_canonical_pair_dominance_holds_for_every_target():
    # The incomparable-but-ranked pair: the symmetric kernel must be weakly
    # cheaper for a sweep of priors and targets, per its k2 dominance.
    for prior_high in (0.35, 0.5, 0.62):
        prior = Belief([1 - prior_high, prior_high])
        cost = entropy_cost(prior)
        for lo in (0.1, 0.25):
            for hi in (0.7, 0.9):
                if not lo < prior_high < hi:
                    continue
                w_hi = (prior_high - lo) / (hi - lo)
                target = PosteriorDistribution(
                    [[1 - lo, lo], [1 - hi, hi]], [1 - w_hi, w_hi])
                kappa_first = optimal_contract(BINARY, target, cost).kappa
                kappa_second = optimal_contract(BINARY_SKEWED, target, cost).kappa
                assert kappa_first <= kappa_second + 1e-9


def test_binary_cost_order_predicts_kappa_ordering():
    rng = np.random.default_rng(107)
    instances = 0
    while instances < 200:
        e = random_binary_experiment(rng, min_det=0.05)
        f = random_binary_experiment(rng, min_det=0.05)
        verdict = binary_k_compare(e, f)
        if not verdict.dominates_weakly:
            continue
        prior = random_interior_prior(rng, 2)
        cost = entropy_cost(prior)
        target = random_binary_target(rng, prior)
        kappa_e = optimal_contract(e, target, cost).kappa
        kappa_f = optimal_contract(f, target, cost).kappa
        assert kappa_e <= kappa_f + 1e-9
        instances += 1


def _spreads(e) -> tuple[float, float]:
    low, high = binary_likelihood_ratios(e)
    return high - low, 1.0 / low - 1.0 / high


def test_binary_cost_order_denial_has_a_witness():
    # The "only if" half: when one of e's spreads falls at least 10 % short
    # of f's, some target and cost make e strictly dearer than f.
    rng = np.random.default_rng(109)
    pairs = 0
    while pairs < 20:
        e = random_binary_experiment(rng, min_det=0.05)
        f = random_binary_experiment(rng, min_det=0.05)
        (d_e, r_e), (d_f, r_f) = _spreads(e), _spreads(f)
        if binary_k_compare(e, f).dominates_weakly or not (d_e <= 0.9 * d_f or r_e <= 0.9 * r_f):
            continue
        witness = None
        for i in range(60):
            prior = random_interior_prior(rng, 2)
            cost = entropy_cost(prior) if i % 2 == 0 else quadratic_cost(prior, rng.uniform(0.5, 2))
            target = random_binary_target(rng, prior)
            kappa_e = optimal_contract(e, target, cost).kappa
            kappa_f = optimal_contract(f, target, cost).kappa
            if kappa_e > kappa_f + 1e-9:
                witness = target, cost, kappa_e, kappa_f
                break
        assert witness is not None, (e.kernel, f.kernel)
        target, cost, kappa_e, kappa_f = witness
        nabla = marginal_cost_matrix(cost, target)
        direct_e = direct_min_payment(e.kernel, target, nabla)
        direct_f = direct_min_payment(f.kernel, target, nabla)
        assert direct_e == pytest.approx(kappa_e, rel=1e-8, abs=1e-10)
        assert direct_f == pytest.approx(kappa_f, rel=1e-8, abs=1e-10)
        assert direct_e > direct_f + 1e-9
        pairs += 1


def test_cone_compare_fits_one_column_at_a_time(monkeypatch):
    from infocontracts import numerics

    rng = np.random.default_rng(113)
    a = random_stochastic(rng, 3, 4)
    b = a @ random_stochastic(rng, 4, 4)          # inside Cone(a): every column is checked
    fits, lps = [], []
    real_nnls, real_linprog = numerics.nnls, numerics.linprog

    def counted_nnls(coef, rhs, **kwargs):
        fits.append(coef.shape)
        return real_nnls(coef, rhs, **kwargs)

    def counted_linprog(*args, **kwargs):
        lps.append(kwargs.get("A_eq"))
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(numerics, "nnls", counted_nnls)
    monkeypatch.setattr(numerics, "linprog", counted_linprog)
    verdict = cone_compare(Experiment(a), Experiment(b))
    assert verdict.dominates_weakly
    # Forward: one (3, 4) fit per column of b.  Backward: the columns of a
    # up to the first one outside Cone(b), which ends the direction.
    outside = next(j for j in range(4) if not direct_nonnegative_feasible(b, a[:, [j]], False))
    assert fits == [(3, 4)] * (4 + outside + 1)
    assert lps == []
    np.testing.assert_allclose(a @ verdict.certificate["coefficients"], b, atol=1e-9)
    assert verdict.certificate["coefficients"].min() >= 0.0


def test_order_lps_without_a_trustworthy_answer_are_solver_failures(monkeypatch):
    from infocontracts import numerics

    def stalled(*args, **kwargs):
        raise RuntimeError("stalled")

    monkeypatch.setattr(numerics, "nnls", stalled)
    for compare in (cone_compare, blackwell_compare):
        with pytest.raises(SolverFailureError, match="stalled"):
            compare(BINARY, BINARY_SKEWED)


_DIRECTIONS = {
    Relation.DOMINATES: (True, False),
    Relation.DOMINATED_BY: (False, True),
    Relation.EQUIVALENT: (True, True),
    Relation.INCOMPARABLE: (False, False),
}


def _order_pair(rng, shape, kind):
    n, m = shape
    first = random_stochastic(rng, n, m)
    if kind == "independent":
        return first, random_stochastic(rng, n, m)
    if kind == "garbled":
        return first, first @ random_stochastic(rng, m, m)
    if kind == "sparse":
        # One or two nonzero entries per garbling row: the certificate sits
        # on the boundary of the nonnegative orthant.
        garbling = np.zeros((m, m))
        for row in garbling:
            cols = rng.choice(m, size=int(rng.integers(1, 3)), replace=False)
            row[cols] = rng.dirichlet(np.ones(cols.size))
        return first, first @ garbling
    return first, first[:, rng.permutation(m)]


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4), (4, 6)])
def test_order_verdicts_match_a_direct_lp(shape):
    rng = np.random.default_rng(127)
    for kind in ("garbled", "independent", "sparse", "permuted"):
        for _ in range(6):
            a, b = _order_pair(rng, shape, kind)
            e, f = Experiment(a), Experiment(b)
            for compare, stochastic in ((blackwell_compare, True), (cone_compare, False)):
                expected = (direct_nonnegative_feasible(a, b, stochastic),
                            direct_nonnegative_feasible(b, a, stochastic))
                assert _DIRECTIONS[compare(e, f).relation] == expected, (kind, compare.__name__)
            if kind != "independent":
                assert blackwell_compare(e, f).dominates_weakly
            if kind == "permuted":
                assert blackwell_compare(e, f).relation is Relation.EQUIVALENT


def test_incomparable_k2_and_column_space_verdicts_carry_their_transcript():
    # Each experiment has the wider spread of one kind: 50/9 against 25/12.
    first = Experiment([[0.9, 0.1], [0.4, 0.6]])
    second = Experiment([[0.6, 0.4], [0.1, 0.9]])
    verdict = binary_k_compare(first, second)
    assert verdict.relation is Relation.INCOMPARABLE and verdict.strict is False
    cert = verdict.certificate
    assert cert["ratios_first"] == (pytest.approx(4 / 9), pytest.approx(6.0))
    assert cert["ratios_second"] == (pytest.approx(1 / 6), pytest.approx(9 / 4))
    assert cert["spreads_first"] == (pytest.approx(50 / 9), pytest.approx(25 / 12))
    assert cert["spreads_second"] == (pytest.approx(25 / 12), pytest.approx(50 / 9))
    verdict = colspace_compare(RANK2_EQUAL_ROWS, RANK2_SYMMETRIC)
    assert verdict.relation is Relation.INCOMPARABLE and verdict.strict is False
    assert verdict.certificate == {"rank_first": 2, "rank_second": 2, "rank_stacked": 3}


def test_strict_is_a_python_bool_under_every_order():
    # The k2 spreads compare as numpy scalars; a numpy bool in the verdict
    # would not serialize to JSON.
    for compare in (binary_k_compare, colspace_compare, cone_compare, blackwell_compare):
        for e, f in ((BINARY, BINARY_SKEWED), (BINARY_SKEWED, BINARY), (BINARY, BINARY)):
            assert type(compare(e, f).strict) is bool
