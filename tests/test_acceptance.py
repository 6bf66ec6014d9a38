"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest
from helpers import (
    corner_instance,
    grid_search_corner_verdict,
    random_binary_experiment,
    random_binary_target,
    random_interior_prior,
    random_stochastic,
    tilted_implementable_target,
)

from infocontracts import (
    Belief,
    Experiment,
    NotImplementableError,
    PosteriorDistribution,
    Relation,
    agent_best_response,
    binary_k_compare,
    binary_rent_profile,
    blackwell_compare,
    check_implementable,
    cone_compare,
    entropy_cost,
    expected_payment,
    first_best_contract,
    has_full_row_rank,
    has_uniform_random_noise,
    optimal_contract,
    pseudo_inverse,
    rowmin,
    synthesize_family,
    total_cost,
    verify_contract,
)

BINARY = Experiment([[0.7, 0.3], [0.3, 0.7]])
BINARY_SKEWED = Experiment([[0.5, 0.5], [0.2, 0.8]])

RANK2_EQUAL_ROWS = Experiment([[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]])
RANK2_SYMMETRIC = Experiment([[3 / 4, 1 / 4], [1 / 4, 3 / 4], [1 / 2, 1 / 2]])
ON_LINE = PosteriorDistribution([[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.5, 0.5])
OFF_LINE = PosteriorDistribution([[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3]], [0.5, 0.5])

SQRT2 = np.sqrt(2.0)
DEFICIENT_3X3 = Experiment(np.array([
    [2.0, SQRT2, 0.0],
    [SQRT2, 2.0, SQRT2],
    [0.0, SQRT2, 2.0],
]) / np.array([[2.0 + SQRT2], [2.0 + 2.0 * SQRT2], [2.0 + SQRT2]]))
UNIFORM_NOISE_3X4 = Experiment([
    [3 / 6, 1 / 6, 1 / 6, 1 / 6],
    [1 / 5, 2 / 5, 1 / 5, 1 / 5],
    [1 / 7, 1 / 7, 4 / 7, 1 / 7],
])


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:>2} {name:<38} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def close(a, b, tol) -> bool:
    return abs(a - b) <= tol


def test_criterion_1_rent_coefficients():
    first = binary_rent_profile(BINARY)
    second = binary_rent_profile(BINARY_SKEWED)
    ok = all([
        close(first.du1_rents[0], 0.225, 1e-12),
        close(first.du1_rents[1], 0.525, 1e-12),
        close(first.du2_rents[0], 0.525, 1e-12),
        close(first.du2_rents[1], 0.225, 1e-12),
        close(second.du1_rents[0], 1 / 3, 1e-12),
        close(second.du1_rents[1], 8 / 15, 1e-12),
        close(second.du2_rents[0], 5 / 6, 1e-12),
        close(second.du2_rents[1], 1 / 3, 1e-12),
        # the rounded values as usually quoted
        close(second.du1_rents[0], 0.33, 5e-3),
        close(second.du1_rents[1], 0.53, 5e-3),
        close(second.du2_rents[0], 0.83, 5e-3),
        close(second.du2_rents[1], 0.33, 5e-3),
    ])
    report(1, "binary rent coefficients", ok)


def test_criterion_2_order_verdicts():
    k2 = binary_k_compare(BINARY, BINARY_SKEWED)
    spreads = k2.certificate["spreads_first"]
    others = k2.certificate["spreads_second"]
    ok = all([
        blackwell_compare(BINARY, BINARY_SKEWED).relation is Relation.INCOMPARABLE,
        cone_compare(BINARY, BINARY_SKEWED).relation is Relation.INCOMPARABLE,
        k2.relation is Relation.DOMINATES,
        close(spreads[0], 40 / 21, 1e-12),
        close(spreads[1], 40 / 21, 1e-12),
        spreads[0] >= others[0] and close(others[0], 1.2, 1e-12),
        spreads[1] >= others[1] and close(others[1], 1.875, 1e-12),
    ])
    report(2, "binary pair order verdicts", ok)


def test_criterion_3_rank2_implementability_table():
    cost = entropy_cost(Belief.uniform(3))
    start = time.perf_counter()
    reports = {
        ("first", "on"): check_implementable(RANK2_EQUAL_ROWS, ON_LINE, cost),
        ("first", "off"): check_implementable(RANK2_EQUAL_ROWS, OFF_LINE, cost),
        ("second", "off"): check_implementable(RANK2_SYMMETRIC, OFF_LINE, cost),
        ("second", "on"): check_implementable(RANK2_SYMMETRIC, ON_LINE, cost),
    }
    elapsed = time.perf_counter() - start
    ok = all([
        reports[("first", "on")].implementable,
        not reports[("first", "off")].implementable,
        reports[("second", "off")].implementable,
        not reports[("second", "on")].implementable,
        all(r.residuals.size == 1 for r in reports.values()),
        elapsed < 1.0,
    ])
    report(3, f"rank-2 verdict table ({elapsed:.3f}s)", ok)


def test_criterion_4_row_rank_predicates():
    ok = all([
        has_full_row_rank(UNIFORM_NOISE_3X4),
        not has_full_row_rank(DEFICIENT_3X3),
        has_uniform_random_noise(UNIFORM_NOISE_3X4),
        not has_uniform_random_noise(DEFICIENT_3X3),
    ])
    report(4, "row-rank and noise predicates", ok)


@pytest.fixture(scope="module")
def random_binary_instances():
    rng = np.random.default_rng(2024)
    instances = []
    while len(instances) < 100:
        e = random_binary_experiment(rng)
        prior = random_interior_prior(rng, 2)
        cost = entropy_cost(prior)
        target = random_binary_target(rng, prior)
        instances.append((e, prior, cost, target))
    return instances


def test_criterion_5_oracle_round_trip(random_binary_instances):
    start = time.perf_counter()
    ok = True
    for e, prior, cost, target in random_binary_instances:
        cost_report = optimal_contract(e, target, cost)
        ok &= verify_contract(e, target, cost, cost_report.contract)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(5, f"oracle round-trip x100 ({elapsed:.1f}s)", ok)


def test_criterion_6_no_limited_liability_benchmark(random_binary_instances):
    ok = True
    for e, prior, cost, target in random_binary_instances:
        contract = first_best_contract(e, target, cost)
        payment = expected_payment(e, target, prior, contract)
        ok &= close(payment, total_cost(cost, target), 1e-9)
        result = agent_best_response(e, contract, cost, prior, target=target)
        ok &= abs(result.optimal_value) <= 1e-5
        if not ok:
            break
    report(6, "zero-rent benchmark x100", ok)


def _penrose_ok(rng, count=1000) -> bool:
    for _ in range(count):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.normal(size=(rows, cols))
        if rows > 1 and rng.random() < 0.25:
            a[rng.integers(rows)] = a[rng.integers(rows)]
        result = pseudo_inverse(a)
        pinv = result.pinv
        scale = max(1.0, float(np.linalg.norm(a)))
        checks = [
            np.max(np.abs(a @ pinv @ a - a)) / scale,
            np.max(np.abs(pinv @ a @ pinv - pinv)) / max(1.0, float(np.linalg.norm(pinv))),
            np.max(np.abs((a @ pinv) - (a @ pinv).T)),
            np.max(np.abs((pinv @ a) - (pinv @ a).T)),
        ]
        if max(checks) > 1e-10:
            return False
    return True


def _rowmin_ok(rng, count=1000) -> bool:
    for _ in range(count):
        n, m, k = rng.integers(1, 6, size=3)
        g = rng.uniform(0.0, 2.0, size=(n, m))
        v = rng.normal(scale=3.0, size=(m, k))
        if np.min(rowmin(g @ v) - g @ rowmin(v)) < -1e-12:
            return False
    return True


def _foc_ok(rng, count=500) -> bool:
    samples = 0
    while samples < count:
        if rng.random() < 0.5:
            e = random_binary_experiment(rng)
            prior = random_interior_prior(rng, 2)
            cost = entropy_cost(prior)
            target = random_binary_target(rng, prior)
        else:
            kernel = random_stochastic(rng, 3, 2)
            e = Experiment(kernel)
            target, cost = tilted_implementable_target(rng, kernel)
        try:
            family = synthesize_family(e, target, cost)
        except NotImplementableError:
            continue
        for _ in range(10):
            member = family.sample_member(rng, scale=1.5)
            if family.foc_deviation(member) > 1e-9:
                return False
            samples += 1
    return True


def _cone_certificates_ok(rng, count=200) -> bool:
    for _ in range(count):
        e = random_binary_experiment(rng, min_det=0.1)
        garbling = random_stochastic(rng, 2, 2)
        f = Experiment(e.kernel @ garbling)
        verdict = cone_compare(e, f)
        if not verdict.dominates_weakly:
            return False
        coeffs = verdict.certificate["coefficients"]
        if np.min(coeffs) < -1e-9 or np.max(np.abs(e.kernel @ coeffs - f.kernel)) > 1e-9:
            return False
    return True


def _order_chain_ok(rng, count=1000) -> bool:
    done = 0
    while done < count:
        e = random_binary_experiment(rng, min_det=0.1)
        garbling = random_stochastic(rng, 2, 2)
        f_kernel = e.kernel @ garbling
        if abs(np.linalg.det(f_kernel)) < 0.02:
            continue
        f = Experiment(f_kernel)
        if not blackwell_compare(e, f).dominates_weakly:
            return False
        if not cone_compare(e, f).dominates_weakly:
            return False
        if not binary_k_compare(e, f).dominates_weakly:
            return False
        done += 1
    return True


def test_criterion_7_property_suites():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    results = {
        "penrose": _penrose_ok(rng),
        "rowmin": _rowmin_ok(rng),
        "foc": _foc_ok(rng),
        "cone_certificates": _cone_certificates_ok(rng),
        "order_chain": _order_chain_ok(rng),
    }
    elapsed = time.perf_counter() - start
    ok = all(results.values())
    failed = [k for k, v in results.items() if not v]
    label = f"property suites ({elapsed:.1f}s)" + (f" failed={failed}" if failed else "")
    report(7, label, ok)


def test_criterion_8_cone_dominance_bounds_kappa():
    rng = np.random.default_rng(888)
    ok = True
    done = 0
    while done < 200:
        e = random_binary_experiment(rng, min_det=0.1)
        garbling = random_stochastic(rng, 2, 2)
        f_kernel = e.kernel @ garbling
        if abs(np.linalg.det(f_kernel)) < 0.02:
            continue
        f = Experiment(f_kernel)
        prior = random_interior_prior(rng, 2)
        cost = entropy_cost(prior)
        target = random_binary_target(rng, prior)
        kappa_e = optimal_contract(e, target, cost).kappa
        kappa_f = optimal_contract(f, target, cost).kappa
        ok &= kappa_e <= kappa_f + 1e-9
        if not ok:
            break
        done += 1
    report(8, "cone dominance bounds indirect cost", ok)


def test_criterion_9_corner_check_vs_grid_search():
    rng = np.random.default_rng(999)
    ok = True
    trials = 0
    feasible_seen = infeasible_seen = 0
    while trials < 50:
        instance = corner_instance(rng)
        if instance is None:
            continue
        e, target, cost, zero_state = instance
        grid_verdict, best, threshold = grid_search_corner_verdict(e, target, cost, zero_state)
        if not grid_verdict and best < 4.0 * threshold:
            continue    # too close to call for a finite grid
        trials += 1
        lp_report = check_implementable(e, target, cost)
        ok &= lp_report.implementable == grid_verdict
        feasible_seen += grid_verdict
        infeasible_seen += not grid_verdict
        if not ok:
            break
    ok &= feasible_seen >= 5 and infeasible_seen >= 5
    report(9, f"corner test vs grid ({feasible_seen}+/{infeasible_seen}-)", ok)
