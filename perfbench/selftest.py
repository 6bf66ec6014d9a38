"""Self-tests of the benchmark's checkers and instance generators.

Run from the root of a checkout (they are outside the library's test
selection, and do not import the library):

    python3 -m pytest -q -p no:cacheprovider perfbench/selftest.py

Each checker must pass a right answer and reject a planted wrong one; a
repeated operation may reuse a verdict only for a bit-identical output.
"""

import numpy as np

import checks
import instances


def _case(kind: str) -> instances.ContractCase:
    return next(c for c in instances.contract_round(11, 1) if c.kind == kind)


def _right_answer(case) -> dict:
    """A correct optimal_contract outcome, built from the direct LP alone."""
    optimum, payments = checks.min_payment(case)
    return {
        "kappa": optimum,
        "first_best": checks.information_cost(case),
        "payment_check": checks.expected_payment(case, payments),
        "payments": payments,
        "first_best_payments": None,
    }


def test_contract_check_rejects_kappa_off_by_1e_6():
    for kind in ("equal_rows_uniform", "null_4x6", "corner_uniform"):
        case = _case(kind)
        answer = _right_answer(case)
        assert checks.check_contract(case, answer) == []
        answer["kappa"] += 1e-6
        problems = checks.check_contract(case, answer)
        assert problems and all(p.startswith("kappa ") for p in problems)


def test_contract_check_rejects_negative_payment_and_wrong_verdict():
    case = _case("full_2x2")
    answer = _right_answer(case)
    answer["payments"] = answer["payments"] - answer["payments"].max() - 1e-3
    assert any("negative payment" in p for p in checks.check_contract(case, answer))
    outside = _case("outside_3x3")
    assert not checks.independent_verdict(outside)
    assert checks.check_contract(outside, answer)


def test_garbling_check_rejects_negative_entry():
    rng = np.random.default_rng(5)
    a = rng.dirichlet(np.ones(3), size=3)
    g = rng.dirichlet(np.ones(3), size=3)
    b = a @ g
    assert checks.check_garbling(a, b, g) == []
    bad = g.copy()
    bad[0, 0] -= 1e-3 + bad[0, 0]
    bad[0, 1] += 1e-3 + g[0, 0]
    assert any("negative entry" in p for p in checks.check_garbling(a, b, bad))


def test_order_check_rejects_negative_garbling_certificate():
    pair = next(p for p in instances.orders_round(3, 1) if p.kind == "garbled_3x3")
    g = np.linalg.lstsq(pair.first, pair.second, rcond=None)[0]
    relation = "dominates"
    verdicts = {
        "blackwell": (relation, {"garbling": g}),
        "cone": (relation, {"coefficients": g}),
        "col": ("equivalent", {}),
    }
    assert checks.check_orders(pair, verdicts) == []
    bad = g.copy()
    bad[0, 0] = -1e-3
    verdicts["blackwell"] = (relation, {"garbling": bad})
    assert any("negative entry" in p for p in checks.check_orders(pair, verdicts))


def _oracle_answer(case, payments) -> dict:
    honest = np.arange(case.posteriors.shape[1])
    value = float(case.weights @ checks.net_value(case, payments, case.posteriors.T, honest))
    return {"gap": 0.0, "optimal_value": value, "target_value": value,
            "support": case.posteriors.T, "weights": case.weights}


def test_oracle_check_rejects_gap_of_1e_4():
    case = next(c for c in instances.verify_round(2, 1) if c.kind == "equal_rows_uniform")
    payments = checks.min_payment(case)[1]
    answer = _oracle_answer(case, payments)
    assert checks.check_oracle(case, payments, answer) == []
    answer["gap"] = 1e-4
    answer["optimal_value"] += 1e-4
    assert any("oracle gap" in p for p in checks.check_oracle(case, payments, answer))


def test_oracle_check_rejects_support_off_the_prior():
    case = next(c for c in instances.verify_round(2, 1) if c.kind == "full_2x2")
    payments = checks.min_payment(case)[1]
    answer = _oracle_answer(case, payments)
    answer["weights"] = case.weights[::-1]
    assert any("averages to the prior" in p for p in checks.check_oracle(case, payments, answer))


def _arrays(items):
    return [np.concatenate([np.ravel(v) for v in vars(item).values()
                            if isinstance(v, np.ndarray)]) for item in items]


def test_generators_repeat_for_the_same_seed():
    for make in (instances.contract_round, instances.verify_round, instances.orders_round):
        first, again = _arrays(make(7, 3)), _arrays(make(7, 3))
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        other = _arrays(make(8, 3))
        assert not all(np.array_equal(x, y) for x, y in zip(first, other))


def test_rounds_hold_the_same_kinds_and_fixed_fault_instances():
    rounds = [instances.contract_round(seed, index) for seed, index in ((1, 1), (2, 5))]
    assert [c.kind for c in rounds[0]] == [c.kind for c in rounds[1]]
    faults = [_arrays([c for c in r if c.kappa_fault]) for r in rounds]
    assert faults[0] and all(np.array_equal(x, y) for x, y in zip(*faults))


def test_generated_instances_have_their_verdicts():
    for case in instances.contract_round(4, 2):
        assert checks.independent_verdict(case) == case.implementable, case.kind


def test_a_repeat_inherits_a_verdict_only_when_its_output_is_identical():
    from run import same_result

    payments = np.array([[0.25, 0.5], [1.0, 0.0]])
    result = {"kappa": 0.5, "payments": payments, "first_best_payments": None,
              "verdicts": {"cone": ("dominates", {"coefficients": payments})}}
    again = {"kappa": 0.5, "payments": payments.copy(), "first_best_payments": None,
             "verdicts": {"cone": ("dominates", {"coefficients": payments.copy()})}}
    assert same_result(result, again)
    again["payments"][0, 0] = np.nextafter(0.25, 1.0)
    assert not same_result(result, again)
    assert not same_result(result, dict(result, kappa=np.nextafter(0.5, 1.0)))
    assert not same_result(result, dict(result, first_best_payments=payments))


def test_round_median_moves_in_proportion_with_the_slow_share():
    from run import round_median

    fast = [1.0, 1.0, 2.0, 2.0, 2.0, 5.0]         # one round, machine at full speed
    slow = [1.3 * t for t in fast]
    values = [round_median(fast * (10 - k) + slow * k, len(fast)) for k in range(11)]
    steps = np.diff(values)
    assert np.allclose(steps, steps[0]) and steps[0] > 0
