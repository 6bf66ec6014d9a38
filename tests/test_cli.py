import io
import json
import sys
from collections import namedtuple

import numpy as np
import pytest
from helpers import SIDE_BETS, stalled_linprog

from infocontracts import (
    Belief,
    Experiment,
    InputError,
    PosteriorDistribution,
    binary_rent_profile,
    check_implementable,
    entropy_cost,
    optimal_contract,
    quadratic_cost,
)
from infocontracts import __version__
from infocontracts.cli import CliError, main
from infocontracts.oracle import CERTIFICATE_TOL

BINARY = {"kernel": [[0.7, 0.3], [0.3, 0.7]]}
BINARY_SKEWED = {"kernel": [[0.5, 0.5], [0.2, 0.8]]}
RANK2 = {"kernel": [[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]]}
ON_LINE = {"posteriors": [[0.25, 0.25, 0.5], [5 / 12, 5 / 12, 1 / 6]], "weights": [0.5, 0.5]}
OFF_LINE = {"posteriors": [[0.5, 1 / 6, 1 / 3], [1 / 6, 0.5, 1 / 3]], "weights": [0.5, 0.5]}
ENTROPY3 = {"kind": "entropy", "prior": [1 / 3, 1 / 3, 1 / 3]}
ENTROPY2 = {"kind": "entropy", "prior": [0.5, 0.5]}
QUADRATIC2 = {"kind": "quadratic", "prior": [0.5, 0.5]}
BINARY_TARGET = {"posteriors": [[0.7, 0.3], [0.3, 0.7]], "weights": [0.5, 0.5]}


Result = namedtuple("Result", "exit_code output exception")


@pytest.fixture
def invoke(capsys, monkeypatch):
    """Runs ``main(args)`` in-process, with ``input`` on stdin and ``env``
    set, and returns its exit code, its stdout followed by its stderr, and
    the exception it raised (exit code 1), if any."""

    def run(args, input=None, env=None):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            for name, value in (env or {}).items():
                patch.setenv(name, value)
            if input is not None:
                patch.setattr(sys, "stdin", io.StringIO(input))
            try:
                exit_code, exception = main(args), None
            except Exception as exc:
                exit_code, exception = 1, exc
        out, err = capsys.readouterr()
        return Result(exit_code, out + err, exception)

    return run


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_implementable_command_matches_library(invoke, tmp_path):
    args = [
        "implementable",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", ON_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    report = check_implementable(
        Experiment(RANK2["kernel"]),
        PosteriorDistribution(ON_LINE["posteriors"], ON_LINE["weights"]),
        entropy_cost(Belief(ENTROPY3["prior"])),
    )
    assert payload["implementable"] is report.implementable is True
    np.testing.assert_allclose(payload["residuals"], report.residuals, atol=1e-15)


def test_implementable_strict_negative_exits_3(invoke, tmp_path):
    args = [
        "implementable", "--strict",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = invoke(args)
    assert result.exit_code == 3


def test_malformed_kernel_exits_2(invoke, tmp_path):
    bad = {"kernel": [[0.5, 0.4], [0.3, 0.7]]}
    args = [
        "implementable",
        "--experiment", write(tmp_path, "e.json", bad),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = invoke(args)
    assert result.exit_code == 2


def test_unparsable_json_exits_2(invoke, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    args = [
        "implementable",
        "--experiment", str(path),
        "--target", str(path),
        "--cost", str(path),
    ]
    assert invoke(args).exit_code == 2


def test_contract_command_reports_kappa(invoke, tmp_path):
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
        "--verify",
    ]
    result = invoke(args)
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


def test_contract_command_no_ll(invoke, tmp_path):
    args = [
        "contract", "--no-ll",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["expected_payment"] == pytest.approx(payload["first_best"], abs=1e-9)
    assert payload["limited_liability"] is False


def test_contract_command_not_implementable_exits_3(invoke, tmp_path):
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", OFF_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = invoke(args)
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["kappa"] == "inf"


def test_rejected_boundary_target_is_labelled_corner(invoke, tmp_path):
    # Entropy's slope is unbounded at the boundary, so the revealing target
    # is rejected; it still has boundary posteriors, so its mode is corner.
    revealing = {"posteriors": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", revealing),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    result = invoke(["implementable"] + inputs)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["implementable"] is False and payload["mode"] == "corner"
    result = invoke(["contract"] + inputs)
    assert result.exit_code == 3, result.output
    payload = json.loads(result.output)
    assert payload["kappa"] == "inf" and payload["mode"] == "corner"


def test_flags_that_would_do_nothing_are_rejected(invoke, tmp_path):
    # Every numerical tolerance is a fixed module constant, so no command
    # takes a tolerance flag; no cost the CLI loads is solved on a belief
    # grid, so no command takes a grid flag.
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    for args in (["contract", "--tol-residual", "1e-3"], ["contract", "--tol-lp", "1e-3"],
                 ["implementable", "--tol-lp", "1e-3"], ["implementable", "--tol-rank", "1e-3"],
                 ["implementable", "--tol-residual", "1e-3"], ["contract", "--tol-rank", "1e-3"],
                 ["contract", "--grid", "501"], ["contract", "--verify", "--grid", "501"],
                 # argparse reports a missing required option before an
                 # unknown one, so the oracle call names its contract.
                 ["oracle", "--grid", "501", "--contract",
                  write(tmp_path, "k.json", {"payments": [[2.0, 0.0], [0.0, 2.0]]})]):
        result = invoke(args + inputs)
        assert result.exit_code == 2, result.output
        assert "unrecognized arguments" in result.output


def test_environment_variables_do_not_change_a_command(invoke, tmp_path):
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    plain = invoke(args)
    assert plain.exit_code == 0, plain.output
    for env in ({"INFOCONTRACTS_CONTRACT_GRID": "5"}, {"INFOCONTRACTS_CONTRACT_VERIFY": "1"}):
        result = invoke(args, env=env)
        assert result.exit_code == plain.exit_code, result.output
        assert result.output == plain.output


def test_compare_command_all_orders(invoke, tmp_path):
    first = write(tmp_path, "e1.json", BINARY)
    second = write(tmp_path, "e2.json", BINARY_SKEWED)
    expected = {"blackwell": "incomparable", "cone": "incomparable",
                "col": "equivalent", "k2": "dominates"}
    for order, relation in expected.items():
        result = invoke(["compare", "--order", order,
                                      "--first", first, "--second", second])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["relation"] == relation


def test_compare_shape_error_exits_2(invoke, tmp_path):
    first = write(tmp_path, "e1.json", RANK2)
    second = write(tmp_path, "e2.json", BINARY)
    result = invoke(["compare", "--order", "col",
                                  "--first", first, "--second", second])
    assert result.exit_code == 2


def test_oracle_command(invoke, tmp_path):
    contract = {"payments": [[2.0, 0.0], [0.0, 2.0]], "limited_liability": True}
    args = [
        "oracle",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--cost", write(tmp_path, "c.json", QUADRATIC2),
        "--contract", write(tmp_path, "k.json", contract),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
    ]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["gap"] is not None
    assert payload["route"] == "quadratic" and "grid" not in payload
    lower, upper = payload["bracket"]
    assert upper == payload["optimal_value"]
    assert 0.0 <= upper - lower <= CERTIFICATE_TOL * max(1.0, abs(lower))
    # The target is optimal under the contract: certified there, no LP runs.
    for key in ("lp_columns", "pricing_rounds"):
        assert type(payload[key]) is int and payload[key] == 0
    # Without a target the restricted LP picks the reports.
    result = invoke(args[:-2])
    assert result.exit_code == 0, result.output
    untargeted = json.loads(result.output)
    assert untargeted["gap"] is None
    assert untargeted["optimal_value"] == pytest.approx(payload["optimal_value"], rel=1e-12)
    for key in ("lp_columns", "pricing_rounds"):
        assert type(untargeted[key]) is int and untargeted[key] > 0


@pytest.mark.parametrize("cost", [QUADRATIC2, ENTROPY2])
def test_oracle_target_of_the_wrong_shape_or_off_the_prior_exits_2(invoke, tmp_path, cost):
    three = {"posteriors": [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]], "weights": [0.4, 0.4, 0.2]}
    implausible = {"posteriors": [[0.05, 0.95], [0.1, 0.9]], "weights": [0.5, 0.5]}
    runs = [
        (BINARY, {"payments": [[2.0, 0.0], [0.0, 2.0]]}, three, "one posterior per"),
        ({"kernel": [[0.7, 0.3], [0.2, 0.8]]}, {"payments": [[0.0, 0.0], [5.0, 5.0]]},
         implausible, "Bayes plausibility"),
    ]
    for experiment, contract, target, message in runs:
        result = invoke([
            "oracle",
            "--experiment", write(tmp_path, "e.json", experiment),
            "--cost", write(tmp_path, "c.json", cost),
            "--contract", write(tmp_path, "k.json", contract),
            "--target", write(tmp_path, "t.json", target),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output and "Traceback" not in result.output


def test_demo_binary_pair_reproduces_rent_table(invoke):
    result = invoke(["demo", "example1", "--json"])
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

    table = invoke(["demo", "example1"])
    assert table.exit_code == 0
    assert "0.225" in table.output and "0.525" in table.output


def test_demo_rank2_table(invoke):
    result = invoke(["demo", "appendixE", "--json"])
    assert result.exit_code == 0, result.output
    verdicts = json.loads(result.output)["verdicts"]
    assert verdicts["E1/on_line"]["implementable"] is True
    assert verdicts["E1/off_line"]["implementable"] is False
    assert verdicts["E2/off_line"]["implementable"] is True
    assert verdicts["E2/on_line"]["implementable"] is False


def test_demo_unknown_name_exits_2(invoke):
    assert invoke(["demo", "nope"]).exit_code == 2


def test_table_format(invoke, tmp_path):
    args = [
        "implementable", "--format", "table",
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--target", write(tmp_path, "t.json", ON_LINE),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    result = invoke(args)
    assert result.exit_code == 0
    assert "implementable: True" in result.output


def test_output_file_and_stdin(invoke, tmp_path):
    out = tmp_path / "report.json"
    args = [
        "compare", "--order", "k2",
        "--first", write(tmp_path, "e1.json", BINARY),
        "--second", "-",
        "--output", str(out),
    ]
    result = invoke(args, input=json.dumps(BINARY_SKEWED))
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["relation"] == "dominates"


def test_contract_json_round_trips_through_oracle_command(invoke, tmp_path):
    # contract emitted by one command is consumable by another
    args = [
        "contract",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
        "--output", str(tmp_path / "contract_report.json"),
    ]
    assert invoke(args).exit_code == 0
    contract = json.loads((tmp_path / "contract_report.json").read_text())["contract"]
    (tmp_path / "contract.json").write_text(json.dumps(contract))
    oracle_args = [
        "oracle",
        "--experiment", write(tmp_path, "e2.json", BINARY),
        "--cost", write(tmp_path, "c2.json", ENTROPY2),
        "--contract", str(tmp_path / "contract.json"),
        "--target", write(tmp_path, "t2.json", BINARY_TARGET),
    ]
    result = invoke(oracle_args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["gap"] <= 1e-5


def test_oracle_reads_the_contract_report_as_written(invoke, tmp_path):
    # the --output file of contract, unchanged, is a valid --contract
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    target = ["--target", write(tmp_path, "t.json", BINARY_TARGET)]
    report = str(tmp_path / "report.json")
    assert invoke(["contract", *inputs, *target, "--output", report]).exit_code == 0
    result = invoke(["oracle", *inputs, *target, "--contract", report])
    assert result.exit_code == 0, result.output
    payments = json.loads((tmp_path / "report.json").read_text())["contract"]["payments"]
    plain = write(tmp_path, "k.json", {"payments": payments})
    assert result.output == invoke(["oracle", *inputs, *target,
                                                 "--contract", plain]).output
    assert json.loads(result.output)["gap"] <= 1e-5


def test_oracle_refuses_a_report_without_a_contract(invoke, tmp_path):
    inputs = [
        "--experiment", write(tmp_path, "e.json", RANK2),
        "--cost", write(tmp_path, "c.json", ENTROPY3),
    ]
    report = str(tmp_path / "report.json")
    result = invoke(["contract", *inputs, "--target",
                                  write(tmp_path, "t.json", OFF_LINE), "--output", report])
    assert result.exit_code == 3
    assert json.loads((tmp_path / "report.json").read_text())["contract"] is None
    result = invoke(["oracle", *inputs, "--contract", report])
    assert result.exit_code == 2
    assert "report.json" in result.output and "no contract" in result.output
    assert "Traceback" not in result.output


def test_solver_failures_exit_4_without_a_traceback(invoke, tmp_path, monkeypatch):
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
        result = invoke(args)
        assert result.exit_code == 4, result.output
        assert "solver failure" in result.output and "stalled" in result.output


@pytest.mark.parametrize("scale", [1e10, 1e11])
def test_contract_verify_resolves_side_bets_at_large_cost_scales(invoke, tmp_path, scale):
    # At 1e10 the payment LP's residual is ~1e-16 of its right-hand side,
    # and at 1e11 the agent's values reach ~1e11; both LPs resolve.
    experiment, target = SIDE_BETS
    result = invoke([
        "contract", "--verify",
        "--experiment", write(tmp_path, "e.json", {"kernel": experiment.kernel.tolist()}),
        "--target", write(tmp_path, "t.json", {
            "posteriors": [b.probs.tolist() for b in target.beliefs],
            "weights": target.weights.tolist()}),
        "--cost", write(tmp_path, "c.json", {**QUADRATIC2, "scale": scale}),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    report = optimal_contract(experiment, target, quadratic_cost(Belief([0.5, 0.5]), scale=scale))
    assert payload["kappa"] == report.kappa
    assert 0.0 <= payload["oracle_gap"] <= 1e-12 * payload["oracle_optimal_value"]


def test_contract_verify_with_a_too_coarse_grid_exits_2(invoke, tmp_path):
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    # No cost the CLI loads takes the grid route, so --grid is gone.
    for args in (["contract", "--verify", "--grid", "50"], ["contract", "--grid", "5"]):
        result = invoke(args + inputs)
        assert result.exit_code == 2, result.output
        assert "unrecognized arguments" in result.output
        assert not isinstance(result.exception, InputError)


def test_oracle_solver_failures_exit_4(invoke, tmp_path, monkeypatch):
    from infocontracts import numerics

    # The oracle's restricted LP stalls without a target, and on a target
    # it cannot certify (a third report the agent should not play); the
    # side-bets contract stalls at its payment LP.
    monkeypatch.setattr(numerics, "linprog", stalled_linprog)
    experiment = write(tmp_path, "e.json", BINARY)
    cost = write(tmp_path, "c.json", QUADRATIC2)
    contract = {"payments": [[2.0, 0.0], [0.0, 2.0]], "limited_liability": True}
    three = {"payments": [[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]], "limited_liability": True}
    off_optimum = {"posteriors": [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]], "weights": [0.4, 0.4, 0.2]}
    e, target = SIDE_BETS
    runs = [
        (["oracle", "--experiment", experiment, "--cost", cost,
          "--contract", write(tmp_path, "k.json", contract)], "best-response LP"),
        (["oracle", "--experiment", experiment, "--cost", cost,
          "--contract", write(tmp_path, "k3.json", three),
          "--target", write(tmp_path, "t3.json", off_optimum)], "best-response LP"),
        (["contract", "--verify", "--experiment", write(tmp_path, "side.json", e.to_dict()),
          "--cost", cost, "--target", write(tmp_path, "t.json", target.to_dict())],
         "cost-minimization LP"),
    ]
    for args, stage in runs:
        result = invoke(args)
        assert result.exit_code == 4, result.output
        assert "solver failure" in result.output and "stalled" in result.output
        assert stage in result.output


def test_contract_no_ll_prices_the_target_once(invoke, tmp_path, monkeypatch):
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
    result = invoke(args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    cost = entropy_cost(Belief(ENTROPY2["prior"]))
    target = PosteriorDistribution(BINARY_TARGET["posteriors"], BINARY_TARGET["weights"])
    assert json.loads(result.output)["first_best"] == costs.total_cost(cost, target)


def test_contract_verify_on_four_states(invoke, tmp_path):
    kernel = [[0.6, 0.2, 0.1, 0.1], [0.1, 0.5, 0.3, 0.1], [0.2, 0.1, 0.6, 0.1],
              [0.1, 0.2, 0.2, 0.5]]
    target = {"kernel": [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6], [0.3, 0.3, 0.4]]}
    args = [
        "contract", "--verify",
        "--experiment", write(tmp_path, "e.json", {"kernel": kernel}),
        "--target", write(tmp_path, "t.json", target),
        "--cost", write(tmp_path, "c.json", {"kind": "entropy", "prior": [0.3, 0.2, 0.25, 0.25]}),
    ]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert -1e-9 <= payload["oracle_gap"] <= 1e-5


def test_ragged_or_non_numeric_arrays_exit_2(invoke, tmp_path):
    ragged = write(tmp_path, "ragged.json", {"kernel": [[0.5, 0.5], [1.0]]})
    binary = write(tmp_path, "e.json", BINARY)
    cost = write(tmp_path, "c.json", ENTROPY2)
    runs = [
        (["compare", "--order", "col", "--first", ragged, "--second", binary],
         "bad experiment"),
        (["oracle", "--experiment", binary, "--cost", cost,
          "--contract", write(tmp_path, "k.json", {"payments": "abc"})], "bad contract"),
        (["contract", "--experiment", binary, "--cost", cost, "--target",
          write(tmp_path, "t.json", {"posteriors": [[0.7, 0.3], [1.0]], "weights": [0.5, 0.5]})],
         "bad target"),
    ]
    for args, message in runs:
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert message in result.output


def test_output_into_a_missing_directory_exits_2(invoke, tmp_path):
    missing = tmp_path / "missing" / "report.json"
    result = invoke(["compare", "--order", "col",
                                  "--first", write(tmp_path, "e1.json", BINARY),
                                  "--second", write(tmp_path, "e2.json", BINARY_SKEWED),
                                  "--output", str(missing)])
    assert result.exit_code == 2, result.output
    assert str(missing) in result.output and not missing.parent.exists()


def test_table_formats_of_contract_compare_and_oracle(invoke, tmp_path):
    inputs = [
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    target = ["--target", write(tmp_path, "t.json", BINARY_TARGET)]
    result = invoke(["contract", "--verify", "--format", "table", *inputs, *target])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("kappa: ")
    assert any(line.startswith("oracle_gap: ") for line in lines)
    payments = lines[lines.index("payments:") + 1:]
    assert len(payments) == 2 and all(len(row.split()) == 2 for row in payments)

    result = invoke(["compare", "--order", "k2", "--format", "table",
                                  "--first", write(tmp_path, "e1.json", BINARY),
                                  "--second", write(tmp_path, "e2.json", BINARY_SKEWED)])
    assert result.exit_code == 0, result.output
    assert result.output == "order: binary_indirect_cost\nrelation: dominates\nstrict\n"

    contract = write(tmp_path, "k.json", {"payments": [[2.0, 0.0], [0.0, 2.0]]})
    result = invoke(["oracle", "--format", "table", *inputs, *target,
                                  "--contract", contract])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [
        "optimal value", "target value", "gap", "support"]
    assert len(lines) > 4 and all(" @ (" in line for line in lines[4:])


def test_demo_rank2_table_without_json(invoke):
    result = invoke(["demo", "appendixE"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("implementability of the two targets")
    verdicts = dict(line.strip().split(": ", 1) for line in lines[1:])
    assert sorted(verdicts) == ["E1/off_line", "E1/on_line", "E2/off_line", "E2/on_line"]
    for key, implementable in (("E1/on_line", "True"), ("E1/off_line", "False"),
                               ("E2/off_line", "True"), ("E2/on_line", "False")):
        assert verdicts[key].startswith(implementable + " (residuals: ")


def test_contract_no_ll_on_a_target_that_cannot_be_implemented_exits_3(invoke, tmp_path):
    args = [
        "contract", "--no-ll",
        "--experiment", write(tmp_path, "e.json", {"kernel": [[0.5, 0.5], [0.5, 0.5]]}),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    result = invoke(args)
    assert result.exit_code == 3, result.output
    payload = json.loads(result.output)
    assert payload["kappa"] == "inf" and payload["reason"]


def test_help_on_each_command_and_the_version_exit_0(invoke):
    for args in (["--help"], ["implementable", "--help"], ["contract", "--help"],
                 ["compare", "--help"], ["oracle", "--help"], ["demo", "--help"]):
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert result.output.startswith("usage: infocontracts")
    result = invoke(["--version"])
    assert result.exit_code == 0 and result.output == f"infocontracts, version {__version__}\n"


def test_a_missing_required_option_exits_2(invoke, tmp_path):
    binary = write(tmp_path, "e.json", BINARY)
    for args, missing in ((["contract", "--experiment", binary, "--cost", binary], "--target"),
                          (["compare", "--first", binary, "--second", binary], "--order"),
                          (["demo"], "name"), ([], "COMMAND")):
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert "Error: the following arguments are required: " + missing in result.output


def test_which_usage_line_a_usage_error_prints(invoke, tmp_path):
    binary = write(tmp_path, "e.json", BINARY)
    base = ["contract", "--experiment", binary, "--target", binary, "--cost", binary]
    # An unknown option is left over by the command's parser and refused by the
    # program's, so the program's usage line comes first.
    result = invoke(base + ["--grid", "5"])
    assert result.exit_code == 2
    assert result.output.startswith("usage: infocontracts [-h] [--version] COMMAND ...\n")
    assert "Error: unrecognized arguments: --grid 5" in result.output
    # A missing option or a bad value is the command's own error, after its usage line.
    for args in (base[:-2], base + ["--format", "xml"]):
        result = invoke(args)
        assert result.exit_code == 2
        assert result.output.startswith("usage: infocontracts contract [-h]"), result.output


def test_the_in_process_call_form_prints_the_report_or_raises(invoke, tmp_path, capsys):
    args = [
        "contract", "--verify",
        "--experiment", write(tmp_path, "e.json", BINARY),
        "--target", write(tmp_path, "t.json", BINARY_TARGET),
        "--cost", write(tmp_path, "c.json", ENTROPY2),
    ]
    expected = invoke(args)
    assert main.main(args=args, prog_name="infocontracts", standalone_mode=False) == 0
    assert capsys.readouterr().out == expected.output
    assert json.loads(expected.output)["oracle_gap"] <= 1e-5
    # Without standalone mode an error is raised, not printed.
    with pytest.raises(CliError) as error:
        main.main(args=args + ["--grid", "5"], prog_name="infocontracts", standalone_mode=False)
    assert error.value.exit_code == 2 and "unrecognized arguments" in str(error.value)
    assert capsys.readouterr() == ("", "")


def test_output_naming_a_directory_exits_2(invoke, tmp_path):
    result = invoke(["compare", "--order", "col",
                     "--first", write(tmp_path, "e1.json", BINARY),
                     "--second", write(tmp_path, "e2.json", BINARY_SKEWED),
                     "--output", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert f"Error: cannot write the report to {tmp_path}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("text", ["[1, 2]", "null"])
@pytest.mark.parametrize("command", ["implementable", "contract", "oracle"])
def test_a_cost_file_that_is_not_an_object_exits_2(invoke, tmp_path, command, text):
    cost = tmp_path / "c.json"
    cost.write_text(text)
    args = [command, "--experiment", write(tmp_path, "e.json", BINARY), "--cost", str(cost),
            "--target", write(tmp_path, "t.json", BINARY_TARGET)]
    if command == "oracle":
        args += ["--contract", write(tmp_path, "k.json", {"payments": [[1.0, 0.0], [0.0, 1.0]]})]
    result = invoke(args)
    assert result.exit_code == 2 and result.exception is None, result.output
    assert "cost JSON must be an object" in result.output


@pytest.mark.parametrize("text", [
    '{"kind": "quadratic", "prior": [0.5, 0.5], "scale": NaN}',
    '{"kind": "quadratic", "prior": [0.5, 0.5], "scale": Infinity}',
    '{"kind": "entropy", "prior": [0.5, 0.5], "log_base": 1e400}',
    '{"kind": "entropy", "prior": [0.5, 0.5], "log_base": NaN}',
], ids=["scale_nan", "scale_inf", "log_base_inf", "log_base_nan"])
def test_a_non_finite_cost_parameter_exits_2(invoke, tmp_path, text):
    # NaN fails every comparison and inf passes the sign checks: each must be
    # refused as input, not surface as a verdict or as an unrelated error.
    cost = tmp_path / "c.json"
    cost.write_text(text)
    inputs = ["--experiment", write(tmp_path, "e.json", {"kernel": [[0.5, 0.3, 0.2],
                                                                     [0.2, 0.3, 0.5]]}),
              "--target", write(tmp_path, "t.json", BINARY_TARGET), "--cost", str(cost)]
    for args in (["implementable"], ["contract", "--verify"]):
        result = invoke(args + inputs)
        assert result.exit_code == 2 and result.exception is None, result.output
        assert "must be finite" in result.output


def test_compare_k2_shows_why_a_pair_is_incomparable(invoke, tmp_path):
    result = invoke(["compare", "--order", "k2",
                     "--first", write(tmp_path, "e1.json", {"kernel": [[0.9, 0.1], [0.4, 0.6]]}),
                     "--second", write(tmp_path, "e2.json", {"kernel": [[0.6, 0.4], [0.1, 0.9]]})])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["relation"] == "incomparable" and payload["strict"] is False
    np.testing.assert_allclose(payload["certificate"]["spreads_first"], [50 / 9, 25 / 12])
    np.testing.assert_allclose(payload["certificate"]["spreads_second"], [25 / 12, 50 / 9])
