"""Command-line front end.

Every command is a thin wrapper over the library: inputs are JSON files (or
``-`` for stdin), outputs are JSON (default) or plain-text tables.  Exit
codes: 0 on success, 2 on a usage error, malformed input or an ``--output``
path that cannot be written, 3 when a negative verdict must
fail the pipeline (``implementable --strict``, or ``contract`` on a target
that cannot be implemented), 4 when a solver (HiGHS, or the nonnegative
least-squares iteration) gives no trustworthy answer.  Options come from
the command line only: no environment variable changes a command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

from . import __version__
from .contracts import (
    Contract,
    binary_rent_profile,
    expected_payment,
    optimal_contract,
    synthesize_family,
)
from .costs import cost_from_dict, entropy_cost
from .errors import InputError, NotImplementableError, SolverFailureError
from .experiments import Belief, Experiment, PosteriorDistribution, blackwell_compare, posteriors
from .implementability import check_implementable
from .oracle import agent_best_response
from .orders import binary_k_compare, colspace_compare, cone_compare


class CliError(Exception):
    """A clean exit: ``Error: <message>`` on stderr, after the usage line
    for a usage error, and ``exit_code`` (2, or 4 for a solver failure)."""

    def __init__(self, message: str, exit_code: int = 2, usage: str = ""):
        super().__init__(message)
        self.exit_code = exit_code
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, usage=self.format_usage())


@contextmanager
def _library_errors():
    """Turn the library's typed failures into clean CLI exits."""
    try:
        yield
    except InputError as exc:
        raise CliError(str(exc)) from exc
    except SolverFailureError as exc:
        raise CliError(f"solver failure: {exc}", exit_code=4) from exc


def _load(path: str, what: str, build):
    """``build`` applied to the JSON read from ``path`` (``-`` for stdin);
    unreadable or malformed input exits 2 with a message naming ``what``."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as handle:
                data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what} from {path}: {exc}") from exc
    try:
        return build(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad {what} in {path}: {exc}") from exc


def _load_target(path: str, prior: Belief) -> PosteriorDistribution:
    """A target given as ``{posteriors, weights}``, or as an experiment
    whose posteriors at ``prior`` it is."""
    return _load(path, "target", lambda data: posteriors(Experiment.from_dict(data), prior)
                 if "kernel" in data else PosteriorDistribution.from_dict(data))


def _contract_from_json(data) -> Contract:
    """A contract given as ``{payments, ...}``, or as the report that
    ``contract --output`` writes, which nests it under ``"contract"``."""
    if isinstance(data, dict) and "payments" not in data:
        data = data.get("contract")
        if data is None:
            raise InputError("no payments and no contract (a report on a target "
                             "that cannot be implemented holds none)")
    return Contract.from_dict(data)


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
        try:
            with open(output, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write the report to {output}: {exc}") from exc
    else:
        print(text)


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return "inf" if math.isinf(x) else f"{x:.4g}"
    return str(x)


def cmd_implementable(args) -> int:
    """Decide whether the target can be incentivized, with certificates."""
    e_p = _load(args.experiment, "experiment", Experiment.from_dict)
    cost = _load(args.cost, "cost", cost_from_dict)
    target = _load_target(args.target, cost.prior)
    with _library_errors():
        report = check_implementable(e_p, target, cost)

    def as_table(payload):
        lines = [f"implementable: {payload['implementable']}", f"mode: {payload['mode']}"]
        if payload["residuals"]:
            lines.append("pair residuals: " + ", ".join(_fmt(r) for r in payload["residuals"]))
        if payload["reason"]:
            lines.append(f"reason: {payload['reason']}")
        return "\n".join(lines)

    _emit(report.to_dict(), args.output, as_table, args.format == "table")
    return 3 if args.strict and not report.implementable else 0


def cmd_contract(args) -> int:
    """Synthesize the cost-minimizing (or zero-rent benchmark) contract."""
    e_p = _load(args.experiment, "experiment", Experiment.from_dict)
    cost = _load(args.cost, "cost", cost_from_dict)
    target = _load_target(args.target, cost.prior)
    contract = None
    failed = False
    with _library_errors():
        try:
            if args.no_ll:
                family = synthesize_family(e_p, target, cost)
                contract = family.zero_rent_member(target, cost.prior)
                payload = {
                    "contract": contract.to_dict(),
                    "expected_payment": expected_payment(e_p, target, cost.prior, contract),
                    "first_best": family.report.first_best,
                    "limited_liability": False,
                }
            else:
                report = optimal_contract(e_p, target, cost)
                contract = report.contract
                payload = report.to_dict()
                failed = not report.implementable
        except NotImplementableError as exc:
            payload = {"kappa": math.inf, "reason": str(exc)}
            failed = True

        if args.verify and contract is not None:
            result = agent_best_response(e_p, contract, cost, cost.prior, target=target)
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

    _emit(payload, args.output, as_table, args.format == "table")
    return 3 if failed else 0


_ORDERS = {
    "blackwell": blackwell_compare,
    "col": colspace_compare,
    "cone": cone_compare,
    "k2": binary_k_compare,
}


def cmd_compare(args) -> int:
    """Compare two experiments under an information order.

    The verdict is data, not failure: exit code 0 for any valid input.
    """
    first = _load(args.first, "experiment", Experiment.from_dict)
    second = _load(args.second, "experiment", Experiment.from_dict)
    with _library_errors():
        verdict = _ORDERS[args.order](first, second)

    def as_table(payload):
        return f"order: {payload['order']}\nrelation: {payload['relation']}" + (
            "\nstrict" if payload["strict"] else ""
        )

    _emit(verdict.to_dict(), args.output, as_table, args.format == "table")
    return 0


def cmd_oracle(args) -> int:
    """Solve the agent's learning problem under a given contract."""
    e_p = _load(args.experiment, "experiment", Experiment.from_dict)
    cost = _load(args.cost, "cost", cost_from_dict)
    contract = _load(args.contract, "contract", _contract_from_json)
    target = None if args.target is None else _load_target(args.target, cost.prior)
    with _library_errors():
        result = agent_best_response(e_p, contract, cost, cost.prior, target=target)

    def as_table(payload):
        lines = [f"optimal value: {_fmt(payload['optimal_value'])}"]
        if payload["gap"] is not None:
            lines.append(f"target value: {_fmt(payload['target_value'])}")
            lines.append(f"gap: {_fmt(payload['gap'])}")
        lines.append("support:")
        for probs, w in zip(payload["support"], payload["weights"]):
            lines.append("  " + _fmt(w) + " @ (" + ", ".join(_fmt(p) for p in probs) + ")")
        return "\n".join(lines)

    _emit(result.to_dict(), args.output, as_table, args.format == "table")
    return 0


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


def cmd_demo(args) -> int:
    """Reproduce a named worked example end to end."""
    build, as_table = _DEMOS[args.name]
    _emit(build(), args.output, as_table, not args.as_json)
    return 0


def _parser() -> _Parser:
    parser = _Parser(prog="infocontracts", allow_abbrev=False, description=(
        "Decide which learning targets a noisy contractible experiment can incentivize, "
        "synthesize cost-minimizing contracts, and compare experiments under the information "
        "orders."))
    parser.add_argument("--version", action="version",
                        version=f"infocontracts, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *required, report=True):
        sub = commands.add_parser(run.__name__[4:], help=run.__doc__.splitlines()[0],
                                  description=run.__doc__, allow_abbrev=False)
        for flag, help in required:
            sub.add_argument(flag, required=True, help=help)
        if report:
            sub.add_argument("--format", choices=["json", "table"], default="json",
                             help="Report format (default: json).")
        sub.add_argument("--output", help="Write the report to a file instead of stdout.")
        sub.set_defaults(run=run)
        return sub

    inputs = (("--experiment", "Contractible experiment JSON."),
              ("--cost", "Cost JSON: {kind, prior, ...}."),
              ("--target", "Target JSON: {posteriors, weights} or an experiment to convert at "
                           "the prior."))
    sub = command(cmd_implementable, *inputs)
    sub.add_argument("--strict", action="store_true", help="Exit 3 when the verdict is negative.")
    sub = command(cmd_contract, *inputs)
    sub.add_argument("--no-ll", action="store_true",
                     help="Drop limited liability: return the zero-rent benchmark contract.")
    sub.add_argument("--verify", action="store_true",
                     help="Run the independent agent solver and embed the gap.")
    sub = command(cmd_compare, ("--first", None), ("--second", None))
    sub.add_argument("--order", choices=sorted(_ORDERS), required=True)
    sub = command(cmd_oracle, *inputs[:2], (
        "--contract", "A contract {payments, ...}, or the report that contract --output writes."))
    sub.add_argument("--target", help="Optional target whose optimality gap should be measured.")
    sub = command(cmd_demo, report=False)
    sub.add_argument("name", choices=sorted(_DEMOS))
    sub.add_argument("--json", dest="as_json", action="store_true", help="Machine-readable output.")
    return parser


_PARSER = _parser()


def _run(argv) -> int:
    args = _PARSER.parse_args(argv)
    return args.run(args)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code; errors print ``Error: ...`` on stderr."""
    try:
        return _run(argv)
    except CliError as exc:
        sys.stderr.write(f"{exc.usage}Error: {exc}\n")
        return exc.exit_code
    except SystemExit as exc:               # --help and --version print, then exit 0
        return exc.code


# The in-process call form the benchmark uses, ``main.main(args=...,
# prog_name=..., standalone_mode=False)``: it raises ``CliError`` instead of printing it.
main.main = lambda args=None, prog_name=None, standalone_mode=False: _run(args)


if __name__ == "__main__":
    sys.exit(main())
