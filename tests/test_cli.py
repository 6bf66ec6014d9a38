import json

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import stalled_linprog

from infocontracts import (
    Belief,
    Experiment,
    InputError,
    PosteriorDistribution,
    binary_rent_profile,
    check_implementable,
    entropy_cost,
    optimal_contract,
)
from infocontracts.cli import main

BINARY = {"kernel": [[0.7, 0.3], [0.3, 0.7]]}
BINARY_SKEWED = {"kernel": [[0.5, 0.5], [0.2, 0.8]]}
RANK2 = {"kernel": [[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]]}
ON_LINE = {"posteriors": [[0.25, 0.25, 0.5], [5 / 12, 5 / 12, 1 / 6]], "weights": [0.5, 0.5]}
OFF_LINE = {"posteriors": [[0.5, 1 / 6, 1 / 3], [1 / 6, 0.5, 1 / 3]], "weights": [0.5, 0.5]}
ENTROPY3 = {"kind": "entropy", "prior": [1 / 3, 1 / 3, 1 / 3]}
ENTROPY2 = {"kind": "entropy", "prior": [0.5, 0.5]}
QUADRATIC2 = {"kind": "quadratic", "prior": [0.5, 0.5]}
BINARY_TARGET = {"posteriors": [[0.7, 0.3], [0.3, 0.7]], "weights": [0.5, 0.5]}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_implementable_command_matches_library(runner, tmp_path):
    args = [
        "implementable",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", ON_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    report = check_implementable(
        Experiment(RANK2["kernel"]),
        PosteriorDistribution(ON_LINE["posteriors"], ON_LINE["weights"]),
        entropy_cost(Belief(ENTROPY3["prior"])),
    )
    assert payload["implementable"] is report.implementable is True
    np.testing.assert_allclose(payload["residuals"], report.residuals, atol=1e-15)


def test_implementable_strict_negative_exits_3(runner, tmp_path):
    args = [
        "implementable", "--strict",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 3


def test_malformed_kernel_exits_2(runner, tmp_path):
    bad = {"kernel": [[0.5, 0.4], [0.3, 0.7]]}
    args = [
        "implementable",
        "--experiment", write(tmp_path, "e.json", bad),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 2


def test_unparsable_json_exits_2(runner, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    args = [
        "implementable",
        "--experiment", str(path),
        "--target", str(path),
        "--cost", str(path),
    ]
    assert runner.invoke(main, args).exit_code == 2


def test_contract_command_reports_kappa(runner, tmp_path):
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
        "--verify",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    report = optimal_contract(
        Experiment(BINARY["kernel"]),
        PosteriorDistribution(BINARY_TARGET["posteriors"], BINARY_TARGET["weights"]),
        entropy_cost(Belief.uniform(2)),
    )
    assert payload["kappa"] == pytest.approx(report.kappa, abs=1e-12)
    assert payload["oracle_gap"] <= 1e-5
    np.testing.assert_allclose(payload["contract"]["payments"],
                               report.contract.payments, atol=1e-12)


def test_contract_command_no_ll(runner, tmp_path):
    args = [
        "contract", "--no-ll",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["expected_payment"] == pytest.approx(payload["first_best"], abs=1e-9)
    assert payload["limited_liability"] is False


def test_contract_command_not_implementable_exits_3(runner, tmp_path):
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["kappa"] == "inf"


def test_flags_that_would_do_nothing_are_rejected(runner, tmp_path):
    # contract has no residual verdict and its LP tolerance is fixed;
    # implementable solves no LP.
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    for args in (["contract", "--tol-residual", "1e-3"], ["contract", "--tol-lp", "1e-3"],
                 ["implementable", "--tol-lp", "1e-3"]):
        result = runner.invoke(main, args + inputs)
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output


def test_compare_command_all_orders(runner, tmp_path):
    first = write(tmp_path, "e1.json", BINARY)
    second = write(tmp_path, "e2.json", BINARY_SKEWED)
    expected = {"blackwell": "incomparable", "cone": "incomparable",
                "col": "equivalent", "k2": "dominates"}
    for order, relation in expected.items():
        result = runner.invoke(main, ["compare", "--order", order,
                                      "--first", first, "--second", second])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["relation"] == relation


def test_compare_shape_error_exits_2(runner, tmp_path):
    first = write(tmp_path, "e1.json", RANK2)
    second = write(tmp_path, "e2.json", BINARY)
    result = runner.invoke(main, ["compare", "--order", "col",
                                  "--first", first, "--second", second])
    assert result.exit_code == 2


def test_oracle_command(runner, tmp_path):
    contract = {"payments": [[2.0, 0.0], [0.0, 2.0]], "limited_liability": True}
    args = [
        "oracle",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--cost", write(tmp_path, "c.json", QUADRATIC2),
        "--contract", write(tmp_path, "k.json", contract),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--grid", "501",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["gap"] is not None
    assert payload["n_grid_points"] >= 501
    for key in ("lp_columns", "pricing_rounds"):
        assert type(payload[key]) is int and payload[key] > 0


def test_demo_binary_pair_reproduces_rent_table(runner):
    result = runner.invoke(main, ["demo", "example1", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    first = binary_rent_profile(Experiment(BINARY["kernel"]))
    assert payload["rent_profiles"]["E1"]["du1_rents"] == pytest.approx(list(first.du1_rents))
    assert payload["orders"]["blackwell"]["relation"] == "incomparable"
    assert payload["orders"]["cone"]["relation"] == "incomparable"
    assert payload["orders"]["k2"]["relation"] == "dominates"
    # rounded values as usually quoted
    e2 = payload["rent_profiles"]["E2"]
    assert e2["du1_rents"][0] == pytest.approx(1 / 3, abs=1e-12)
    assert e2["du1_rents"][1] == pytest.approx(8 / 15, abs=1e-12)
    assert e2["du2_rents"][0] == pytest.approx(5 / 6, abs=1e-12)

    table = runner.invoke(main, ["demo", "example1"])
    assert table.exit_code == 0
    assert "0.225" in table.output and "0.525" in table.output


def test_demo_rank2_table(runner):
    result = runner.invoke(main, ["demo", "appendixE", "--json"])
    assert result.exit_code == 0, result.output
    verdicts = json.loads(result.output)["verdicts"]
    assert verdicts["E1/on_line"]["implementable"] is True
    assert verdicts["E1/off_line"]["implementable"] is False
    assert verdicts["E2/off_line"]["implementable"] is True
    assert verdicts["E2/on_line"]["implementable"] is False


def test_demo_unknown_name_exits_2(runner):
    assert runner.invoke(main, ["demo", "nope"]).exit_code == 2


def test_table_format(runner, tmp_path):
    args = [
        "implementable", "--format", "table",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", ON_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "implementable: True" in result.output


def test_output_file_and_stdin(runner, tmp_path):
    out = tmp_path / "report.json"
    args = [
        "compare", "--order", "k2",
        "--first", write(tmp_path, "e1.json", BINARY),
        "--second", "-",
        "--output", str(out),
    ]
    result = runner.invoke(main, args, input=json.dumps(BINARY_SKEWED))
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["relation"] == "dominates"


def test_contract_json_round_trips_through_oracle_command(runner, tmp_path):
    # contract emitted by one command is consumable by another
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
        "--output", str(tmp_path / "contract_report.json"),
    ]
    assert runner.invoke(main, args).exit_code == 0
    contract = json.loads((tmp_path / "contract_report.json").read_text())["contract"]
    (tmp_path / "contract.json").write_text(json.dumps(contract))
    oracle_args = [
        "oracle",
        "--experiment", write(tmp_path, "e2.json", BINARY),
        "--cost", write(tmp_path, "c2.json", ENTROPY2),
        "--contract", str(tmp_path / "contract.json"),
        "--target", write(tmp_path, "t2.json", BINARY_TARGET),
        "--grid", "501",
    ]
    result = runner.invoke(main, oracle_args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["gap"] <= 1e-5


def test_solver_failures_exit_4_without_a_traceback(runner, tmp_path, monkeypatch):
    from infocontracts import numerics

    def nnls_stalled(*args, **kwargs):
        raise RuntimeError("stalled")

    monkeypatch.setattr(numerics, "nnls", nnls_stalled)
    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    side_bets = {"kernel": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}
    runs = [
        ["compare", "--order", "cone",
         "--first", write(tmp_path, "a.json", BINARY),
         "--second", write(tmp_path, "b.json", BINARY_SKEWED)],
        ["contract",
         "--experiment", write(tmp_path, "e.json", side_bets),
         "--target", write(tmp_path, "t.json", BINARY_TARGET),
         "--cost", write(tmp_path, "c.json", ENTROPY2)],
    ]
    for args in runs:
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert "solver failure" in result.output and "stalled" in result.output


def test_contract_verify_with_a_too_coarse_grid_exits_2(runner, tmp_path):
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    # The grid is validated whether or not --verify asks for the oracle.
    for args in (["contract", "--verify", "--grid", "50"], ["contract", "--grid", "5"]):
        result = runner.invoke(main, args + inputs)
        assert result.exit_code == 2, result.output
        assert "grid resolution" in result.output
        assert not isinstance(result.exception, InputError)


def test_oracle_solver_failures_exit_4(runner, tmp_path, monkeypatch):
    from infocontracts import numerics

    # Only the oracle's LP stalls: the binary contract is closed-form.
    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    experiment = write(tmp_path, "e.json", BINARY)
    cost = write(tmp_path, "c.json", QUADRATIC2)
    contract = {"payments": [[2.0, 0.0], [0.0, 2.0]], "limited_liability": True}
    runs = [
        ["oracle", "--experiment", experiment, "--cost", cost,
         "--contract", write(tmp_path, "k.json", contract)],
        ["contract", "--verify", "--experiment", experiment, "--cost", cost,
         "--target", write(tmp_path, "t.json", BINARY_TARGET)],
    ]
    for args in runs:
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert "solver failure" in result.output and "stalled" in result.output


def test_contract_no_ll_prices_the_target_once(runner, tmp_path, monkeypatch):
    from infocontracts import cli, contracts, costs, implementability

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return costs.total_cost(*args, **kwargs)

    for module in (implementability, contracts, cli):
        monkeypatch.setattr(module, "total_cost", counted, raising=False)
    args = [
        "contract", "--no-ll",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    cost = entropy_cost(Belief(ENTROPY2["prior"]))
    target = PosteriorDistribution(BINARY_TARGET["posteriors"], BINARY_TARGET["weights"])
    assert json.loads(result.output)["first_best"] == costs.total_cost(cost, target)


def test_contract_verify_on_four_states(runner, tmp_path):
    kernel = [[0.6, 0.2, 0.1, 0.1], [0.1, 0.5, 0.3, 0.1], [0.2, 0.1, 0.6, 0.1],
              [0.1, 0.2, 0.2, 0.5]]
    target = {"kernel": [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6], [0.3, 0.3, 0.4]]}
    args = [
        "contract", "--verify",
        "--experiment", write(tmp_path, "e.json", {"kernel": kernel}),
        "--target", write(tmp_path, "t.json", target),
        "--cost", write(tmp_path, "c.json", {"kind": "entropy", "prior": [0.3, 0.2, 0.25, 0.25]}),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert -1e-9 <= payload["oracle_gap"] <= 1e-5
