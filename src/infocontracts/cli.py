"""Command-line front end.

Every command is a thin wrapper over the library: inputs are JSON files (or
``-`` for stdin), outputs are JSON (default) or plain-text tables.  Exit
codes: 0 on success, 2 on malformed input, 3 when a negative verdict must
fail the pipeline (``implementable --strict``, or ``contract`` on a target
that cannot be implemented), 4 when a solver (HiGHS, or the nonnegative
least-squares iteration) gives no trustworthy answer.  Every option can
also be supplied through an ``INFOCONTRACTS_``-prefixed environment
variable.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import click

from . import __version__
from .contracts import (
    Contract,
    binary_rent_profile,
    expected_payment,
    optimal_contract,
    synthesize_family,
    _zero_rent,
)
from .costs import cost_from_dict, entropy_cost
from .errors import InputError, NotImplementableError, SolverFailureError
from .experiments import Belief, Experiment, PosteriorDistribution, blackwell_compare, posteriors
from .implementability import check_implementable
from .oracle import GridSpec, agent_best_response
from .orders import binary_k_compare, colspace_compare, cone_compare

CONTEXT_SETTINGS = {"auto_envvar_prefix": "INFOCONTRACTS"}


class CliInputError(click.ClickException):
    exit_code = 2


class CliSolverError(click.ClickException):
    exit_code = 4


@contextmanager
def _library_errors():
    """Turn the library's typed failures into clean CLI exits."""
    try:
        yield
    except InputError as exc:
        raise CliInputError(str(exc)) from exc
    except SolverFailureError as exc:
        raise CliSolverError(f"solver failure: {exc}") from exc


def _load_json(path: str, what: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read {what} from {path}: {exc}") from exc


def _load_experiment(path: str) -> Experiment:
    try:
        return Experiment.from_dict(_load_json(path, "experiment"))
    except (InputError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad experiment in {path}: {exc}") from exc


def _load_cost(path: str):
    try:
        return cost_from_dict(_load_json(path, "cost"))
    except (InputError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad cost in {path}: {exc}") from exc


def _load_target(path: str, prior: Belief) -> PosteriorDistribution:
    data = _load_json(path, "target")
    try:
        if "kernel" in data:
            return posteriors(Experiment.from_dict(data), prior)
        return PosteriorDistribution.from_dict(data)
    except (InputError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad target in {path}: {exc}") from exc


def _load_contract(path: str) -> Contract:
    try:
        return Contract.from_dict(_load_json(path, "contract"))
    except (InputError, KeyError, TypeError) as exc:
        raise CliInputError(f"bad contract in {path}: {exc}") from exc


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload: dict, output: str | None, as_table, table: bool) -> None:
    text = as_table(payload) if table else json.dumps(_jsonable(payload), indent=2)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        click.echo(text)


def _fmt(x, digits: int = 4) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return "inf" if math.isinf(x) else f"{x:.{digits}g}"
    return str(x)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "table"]), default="json",
    show_default=True, help="Report format.",
)
_output_option = click.option("--output", type=click.Path(writable=True, dir_okay=False),
                              default=None, help="Write the report to a file instead of stdout.")
_tol_rank = click.option("--tol-rank", type=float, default=None,
                         help="Relative singular-value cutoff for rank decisions.")
_tol_residual = click.option("--tol-residual", type=float, default=1e-9, show_default=True,
                             help="Relative tolerance for column-space residual verdicts.")


@click.group(context_settings=CONTEXT_SETTINGS)
@click.version_option(version=__version__, prog_name="infocontracts")
def main():
    """Decide which learning targets a noisy contractible experiment can
    incentivize, synthesize cost-minimizing contracts, and compare
    experiments under the information orders."""


@main.command("implementable")
@click.option("--experiment", "experiment_path", required=True, help="Contractible experiment JSON.")
@click.option("--target", "target_path", required=True,
              help="Target JSON: {posteriors, weights} or an experiment to convert at the prior.")
@click.option("--cost", "cost_path", required=True, help="Cost JSON: {kind, prior, ...}.")
@click.option("--strict", is_flag=True, help="Exit 3 when the verdict is negative.")
@_tol_residual
@_tol_rank
@_format_option
@_output_option
def cmd_implementable(experiment_path, target_path, cost_path, strict, tol_residual,
                      tol_rank, fmt, output):
    """Decide whether the target can be incentivized, with certificates."""
    e_p = _load_experiment(experiment_path)
    cost = _load_cost(cost_path)
    target = _load_target(target_path, cost.prior)
    with _library_errors():
        report = check_implementable(e_p, target, cost, residual_tol=tol_residual,
                                     rank_tol=tol_rank)

    def as_table(payload):
        lines = [f"implementable: {payload['implementable']}", f"mode: {payload['mode']}"]
        if payload["residuals"]:
            lines.append("pair residuals: " + ", ".join(_fmt(r) for r in payload["residuals"]))
        if payload["reason"]:
            lines.append(f"reason: {payload['reason']}")
        return "\n".join(lines)

    _emit(report.to_dict(), output, as_table, fmt == "table")
    if strict and not report.implementable:
        sys.exit(3)


@main.command("contract")
@click.option("--experiment", "experiment_path", required=True)
@click.option("--target", "target_path", required=True)
@click.option("--cost", "cost_path", required=True)
@click.option("--no-ll", "no_ll", is_flag=True,
              help="Drop limited liability: return the zero-rent benchmark contract.")
@click.option("--verify", is_flag=True, help="Run the independent agent solver and embed the gap.")
@click.option("--grid", type=int, default=None,
              help="Grid points per axis for --verify (grid route; unused under an entropy cost).")
@_tol_rank
@_format_option
@_output_option
def cmd_contract(experiment_path, target_path, cost_path, no_ll, verify, grid,
                 tol_rank, fmt, output):
    """Synthesize the cost-minimizing (or zero-rent benchmark) contract."""
    e_p = _load_experiment(experiment_path)
    cost = _load_cost(cost_path)
    target = _load_target(target_path, cost.prior)
    contract = None
    failed = False
    with _library_errors():
        grid_spec = GridSpec(resolution=grid)
        try:
            if no_ll:
                family = synthesize_family(e_p, target, cost, rank_tol=tol_rank)
                contract = _zero_rent(family, target, cost.prior)
                payload = {
                    "contract": contract.to_dict(),
                    "expected_payment": expected_payment(e_p, target, cost.prior, contract),
                    "first_best": family.report.first_best,
                    "limited_liability": False,
                }
            else:
                report = optimal_contract(e_p, target, cost, rank_tol=tol_rank)
                contract = report.contract
                payload = report.to_dict()
                failed = not report.implementable
        except NotImplementableError as exc:
            payload = {"kappa": math.inf, "reason": str(exc)}
            failed = True

        if verify and contract is not None:
            result = agent_best_response(e_p, contract, cost, cost.prior,
                                         grid=grid_spec, target=target)
            payload["oracle_gap"] = result.gap
            payload["oracle_optimal_value"] = result.optimal_value

    def as_table(payload):
        lines = []
        for key in ("kappa", "first_best", "agency_rent", "expected_payment",
                    "payment_check", "oracle_gap", "reason"):
            value = payload.get(key)
            if value is not None and value != "":
                lines.append(f"{key}: {_fmt(value)}")
        if payload.get("contract"):
            lines.append("payments:")
            for row in payload["contract"]["payments"]:
                lines.append("  " + "  ".join(_fmt(v) for v in row))
        return "\n".join(lines)

    _emit(payload, output, as_table, fmt == "table")
    if failed:
        sys.exit(3)


_ORDERS = {
    "blackwell": blackwell_compare,
    "col": colspace_compare,
    "cone": cone_compare,
    "k2": binary_k_compare,
}


@main.command("compare")
@click.option("--order", type=click.Choice(sorted(_ORDERS)), required=True)
@click.option("--first", "first_path", required=True)
@click.option("--second", "second_path", required=True)
@_format_option
@_output_option
def cmd_compare(order, first_path, second_path, fmt, output):
    """Compare two experiments under an information order.

    The verdict is data, not failure: exit code 0 for any valid input.
    """
    first = _load_experiment(first_path)
    second = _load_experiment(second_path)
    with _library_errors():
        verdict = _ORDERS[order](first, second)

    def as_table(payload):
        return f"order: {payload['order']}\nrelation: {payload['relation']}" + (
            "\nstrict" if payload["strict"] else ""
        )

    _emit(verdict.to_dict(), output, as_table, fmt == "table")


@main.command("oracle")
@click.option("--experiment", "experiment_path", required=True)
@click.option("--cost", "cost_path", required=True)
@click.option("--contract", "contract_path", required=True)
@click.option("--target", "target_path", default=None,
              help="Optional target whose optimality gap should be measured.")
@click.option("--grid", type=int, default=None,
              help="Grid points per axis (grid route; unused under an entropy cost).")
@_format_option
@_output_option
def cmd_oracle(experiment_path, cost_path, contract_path, target_path, grid, fmt, output):
    """Solve the agent's learning problem under a given contract."""
    e_p = _load_experiment(experiment_path)
    cost = _load_cost(cost_path)
    contract = _load_contract(contract_path)
    target = None if target_path is None else _load_target(target_path, cost.prior)
    with _library_errors():
        result = agent_best_response(e_p, contract, cost, cost.prior,
                                     grid=GridSpec(resolution=grid), target=target)

    def as_table(payload):
        lines = [f"optimal value: {_fmt(payload['optimal_value'])}"]
        if payload["gap"] is not None:
            lines.append(f"target value: {_fmt(payload['target_value'])}")
            lines.append(f"gap: {_fmt(payload['gap'])}")
        lines.append("support:")
        for probs, w in zip(payload["support"], payload["weights"]):
            lines.append("  " + _fmt(w) + " @ (" + ", ".join(_fmt(p) for p in probs) + ")")
        return "\n".join(lines)

    _emit(result.to_dict(), output, as_table, fmt == "table")


# Worked instances behind the named demos: the pair of Blackwell-incomparable
# binary experiments, and the pair of rank-2 three-state experiments with the
# two targets that separate them.
BINARY_PAIR_FIRST = [[0.7, 0.3], [0.3, 0.7]]
BINARY_PAIR_SECOND = [[0.5, 0.5], [0.2, 0.8]]

RANK2_FIRST = [[3 / 8, 5 / 8], [3 / 8, 5 / 8], [3 / 4, 1 / 4]]
RANK2_SECOND = [[3 / 4, 1 / 4], [1 / 4, 3 / 4], [1 / 2, 1 / 2]]
EQUAL_FIRST_TWO_TARGET = ([[1 / 4, 1 / 4, 1 / 2], [5 / 12, 5 / 12, 1 / 6]], [0.5, 0.5])
SWAPPED_FIRST_TWO_TARGET = ([[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3]], [0.5, 0.5])


def _demo_binary_rents() -> dict:
    e1, e2 = Experiment(BINARY_PAIR_FIRST), Experiment(BINARY_PAIR_SECOND)
    return {
        "rent_profiles": {
            "E1": binary_rent_profile(e1).to_dict(),
            "E2": binary_rent_profile(e2).to_dict(),
        },
        "orders": {
            "blackwell": blackwell_compare(e1, e2).to_dict(),
            "cone": cone_compare(e1, e2).to_dict(),
            "k2": binary_k_compare(e1, e2).to_dict(),
        },
    }


def _demo_binary_rents_table(payload: dict) -> str:
    lines = ["rent needed per unit of incentive (r1, r2):"]
    for name, prof in payload["rent_profiles"].items():
        du1, du2 = prof["du1_rents"], prof["du2_rents"]
        lines.append(f"  {name}: du1 -> ({_fmt(du1[0])}, {_fmt(du1[1])})"
                     f"   du2 -> ({_fmt(du2[0])}, {_fmt(du2[1])})")
    lines.append("order verdicts (E1 vs E2):")
    for order, verdict in payload["orders"].items():
        lines.append(f"  {order}: {verdict['relation']}")
    return "\n".join(lines)


def _demo_rank2_verdicts() -> dict:
    cost = entropy_cost(Belief.uniform(3))
    pairs = (("E1", Experiment(RANK2_FIRST)), ("E2", Experiment(RANK2_SECOND)))
    targets = (("on_line", EQUAL_FIRST_TWO_TARGET), ("off_line", SWAPPED_FIRST_TWO_TARGET))
    verdicts = {}
    for ename, e in pairs:
        for tname, (posts, weights) in targets:
            report = check_implementable(e, PosteriorDistribution(posts, weights), cost)
            verdicts[f"{ename}/{tname}"] = report.to_dict()
    return {"verdicts": verdicts}


def _demo_rank2_verdicts_table(payload: dict) -> str:
    lines = ["implementability of the two targets under the two rank-2 experiments:"]
    for key, report in payload["verdicts"].items():
        residuals = ", ".join(_fmt(r) for r in report["residuals"]) or "-"
        lines.append(f"  {key}: {report['implementable']} (residuals: {residuals})")
    return "\n".join(lines)


_DEMOS = {
    "example1": (_demo_binary_rents, _demo_binary_rents_table),
    "appendixE": (_demo_rank2_verdicts, _demo_rank2_verdicts_table),
}


@main.command("demo")
@click.argument("name", type=click.Choice(sorted(_DEMOS)))
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@_output_option
def cmd_demo(name, as_json, output):
    """Reproduce a named worked example end to end."""
    build, as_table = _DEMOS[name]
    payload = build()
    _emit(payload, output, as_table, not as_json)


if __name__ == "__main__":
    main()
