"""The three workloads: what one operation runs and how its output is checked.

A workload builds its operations one round at a time from the seed and the
round's index.  Every round holds the same kinds of operation in the same
numbers, with fresh parameters, and a run measures whole rounds in a seeded
order: every kind is spread evenly through the run, and the share of failed
operations does not depend on the run's length.

The library is imported here, so ``run.py`` puts the checkout's ``src``
first on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import instances
from infocontracts import cli, contracts, costs, experiments, orders
from infocontracts.experiments import Belief, Experiment, PosteriorDistribution


@dataclass
class Op:
    """One operation: its generated instance plus the library inputs."""

    case: object
    inputs: tuple = ()
    argv: list = field(default_factory=list)


def _library_inputs(case: instances.ContractCase) -> tuple:
    prior = Belief(case.prior)
    cost = (costs.entropy_cost(prior) if case.cost == "entropy"
            else costs.quadratic_cost(prior, scale=case.scale))
    target = PosteriorDistribution(case.posteriors.T, case.weights)
    return Experiment(case.kernel), target, cost


# -------------------------------------------------------------- contracts

def build_contracts(seed: int, index: int, workdir: str) -> list[Op]:
    return [Op(case, _library_inputs(case)) for case in instances.contract_round(seed, index)]


def run_contracts(op: Op) -> dict:
    e_p, target, cost = op.inputs
    report = contracts.optimal_contract(e_p, target, cost)
    zero_rent = None
    if report.implementable:
        zero_rent = contracts.first_best_contract(e_p, target, cost)
    return {
        "kappa": report.kappa,
        "first_best": report.first_best,
        "payment_check": report.payment_check,
        "payments": None if report.contract is None else report.contract.payments,
        "first_best_payments": None if zero_rent is None else zero_rent.payments,
    }


# ----------------------------------------------------------------- verify

def build_verify(seed: int, index: int, workdir: str) -> list[Op]:
    """Write each instance's experiment, target and cost as JSON files and
    prepare the ``contract --verify`` command line that reads them."""
    ops = []
    for i, case in enumerate(instances.verify_round(seed, index)):
        e_p, target, cost = _library_inputs(case)
        paths = {}
        for name, data in (("experiment", e_p.to_dict()), ("target", target.to_dict()),
                           ("cost", cost.to_dict())):
            paths[name] = os.path.join(workdir, f"verify-{i}-{name}.json")
            with open(paths[name], "w") as handle:
                json.dump(data, handle)
        argv = ["contract", "--experiment", paths["experiment"], "--target", paths["target"],
                "--cost", paths["cost"], "--verify"]
        ops.append(Op(case, argv=argv))
    return ops


def verify_runner(tracer=None):
    """Runs ``contract --verify`` in-process and keeps the agent-side
    solution it computed, whose support the CLI's JSON report leaves out.
    With a tracer, the CLI call itself is a span named ``cli``."""
    solve = cli.agent_best_response
    last = []

    def tapped(*args, **kwargs):
        last.append(solve(*args, **kwargs))
        return last[-1]

    cli.agent_best_response = tapped
    invoke = cli.main.main if tracer is None else tracer.span("cli", cli.main.main)

    def run(op: Op) -> dict:
        last.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            invoke(args=op.argv, prog_name="infocontracts", standalone_mode=False)
        return {"payload": out.getvalue(), "oracle": last[-1] if last else None}

    return run


def check_verify(op: Op, result: dict) -> list[str]:
    payload = json.loads(result["payload"])
    if payload.get("contract") is None:
        return ["contract --verify returned no contract"]
    payments = np.asarray(payload["contract"]["payments"], dtype=float)
    problems = checks.check_contract(op.case, {
        "kappa": payload["kappa"],
        "first_best": payload["first_best"],
        "payment_check": payload["payment_check"],
        "payments": payments,
    })
    oracle = result["oracle"]
    if oracle is None:
        return problems + ["the CLI ran no agent-side solver"]
    if payload["oracle_gap"] != oracle.gap:
        problems.append("reported oracle_gap differs from the solver's gap")
    return problems + checks.check_oracle(op.case, payments, {
        "gap": oracle.gap,
        "optimal_value": oracle.optimal_value,
        "target_value": oracle.target_value,
        "support": [b.probs for b in oracle.support_beliefs],
        "weights": oracle.support_weights,
    })


# ----------------------------------------------------------------- orders

def build_orders(seed: int, index: int, workdir: str) -> list[Op]:
    return [Op(pair, (Experiment(pair.first), Experiment(pair.second)))
            for pair in instances.orders_round(seed, index)]


def run_orders(op: Op) -> dict:
    e, f = op.inputs
    verdicts = {
        "blackwell": experiments.blackwell_compare(e, f),
        "cone": orders.cone_compare(e, f),
        "col": orders.colspace_compare(e, f),
    }
    if e.kernel.shape == (2, 2):
        verdicts["k2"] = orders.binary_k_compare(e, f)
    return {name: (v.relation.value, v.certificate) for name, v in verdicts.items()}


BUILD = {"contracts": build_contracts, "verify": build_verify, "orders": build_orders}
CHECK = {
    "contracts": lambda op, result: checks.check_contract(op.case, result),
    "verify": check_verify,
    "orders": lambda op, result: checks.check_orders(op.case, result),
}


def runner(name: str, tracer=None):
    """The function that runs one operation of workload ``name``.  Build it
    after the tracer's wrappers are installed."""
    if name == "verify":
        return verify_runner(tracer)
    return {"contracts": run_contracts, "orders": run_orders}[name]
