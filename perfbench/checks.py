"""Independent checks of the library's outputs.

Nothing here imports the library: prices and gradients are recomputed from
their formulas, column-space verdicts come from ``numpy.linalg.lstsq``
residuals, and the optimal cost and the order verdicts come from LPs posed
directly to ``scipy.optimize.linprog``.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

# A posterior coordinate below this rules the state out (corner targets).
BOUNDARY = 1e-9
# Payments may dip this far below zero (LP vertex roundoff).
NONNEG_TOL = 1e-12
# Relative agreement required between a reported cost and the direct LP
# optimum, and between two evaluations of the same expected payment.
COST_TOL = 1e-8
PAYMENT_TOL = 1e-10
# First-order-condition and certificate residuals, relative to the data scale.
FOC_TOL = 1e-8
CERT_TOL = 1e-7
# Column-space verdicts: relative lstsq residual below this means "inside".
COLSPACE_TOL = 1e-6
# An order LP whose least l1 violation exceeds this is infeasible.
ORDER_INFEASIBLE = 1e-9
# Oracle checks.
ORACLE_GAP_TOL = 1e-5
SUPPORT_TOL = 1e-7


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------- costs

def price(case, mu: np.ndarray) -> float:
    """Posterior price, zero at the prior."""
    mu = np.asarray(mu, dtype=float)
    if case.cost == "entropy":
        return _neg_entropy(mu) - _neg_entropy(case.prior)
    return case.scale * float(np.sum((mu - case.prior) ** 2))


def _neg_entropy(p: np.ndarray) -> float:
    pos = p[p > 0.0]
    return float(pos @ np.log(pos))


def gradient(case, mu: np.ndarray) -> np.ndarray:
    """Gradient normalized so that ``mu . gradient = price``."""
    mu = np.asarray(mu, dtype=float)
    if case.cost == "entropy":
        with np.errstate(divide="ignore"):
            return np.log(mu) - _neg_entropy(case.prior)
    raw = 2.0 * case.scale * (mu - case.prior)
    return raw + (price(case, mu) - mu @ raw)


def gradients(case) -> np.ndarray:
    return np.column_stack([gradient(case, case.posteriors[:, k])
                            for k in range(case.posteriors.shape[1])])


def information_cost(case) -> float:
    return float(sum(w * price(case, case.posteriors[:, k])
                     for k, w in enumerate(case.weights)))


def free_cells(case) -> np.ndarray:
    """Cells (state, posterior) a corner target rules out."""
    return case.posteriors < BOUNDARY


# ------------------------------------------------------- contract checks

def expected_payment(case, payments: np.ndarray) -> float:
    """sum_k w_k * post_k . (K T)_k under honest reports."""
    utilities = case.kernel @ payments
    return float(case.weights @ np.einsum("nk,nk->k", case.posteriors, utilities))


def colspace_residual(a: np.ndarray, v: np.ndarray) -> float:
    """Relative least-squares residual of ``v`` against Col(a)."""
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    coef = np.linalg.lstsq(a, v, rcond=None)[0]
    return float(np.linalg.norm(a @ coef - v)) / norm


def min_payment(case):
    """Direct payment-minimization LP.

    Variables: payments T >= 0 (M x K, column-major), a free multiplier
    lambda (N), and eta >= 0 on the cells a corner target rules out.
    Constraints: K T_k - lambda + eta_k = grad_k for every report k.
    Objective: the expected payment.  Returns (optimal cost, T), or
    (None, None) when no such contract exists.
    """
    kernel, posts, weights = case.kernel, case.posteriors, case.weights
    n, m = kernel.shape
    k = posts.shape[1]
    rhs = gradients(case).flatten(order="F")
    if not np.all(np.isfinite(rhs)):
        return None, None                   # a ruled-out state at infinite slope
    free = free_cells(case).flatten(order="F")
    a_eq = np.hstack([
        np.kron(np.eye(k), kernel),
        -np.kron(np.ones((k, 1)), np.eye(n)),
        np.eye(n * k)[:, free],
    ])
    c = np.concatenate([
        ((posts * weights).T @ kernel).reshape(-1),
        np.zeros(n + int(free.sum())),
    ])
    bounds = [(0, None)] * (m * k) + [(None, None)] * n + [(0, None)] * int(free.sum())
    res = linprog(c, A_eq=a_eq, b_eq=rhs, bounds=bounds, method="highs")
    if res.status == 2:
        return None, None
    if res.status != 0:
        raise RuntimeError(f"direct payment LP failed: {res.message}")
    return float(res.fun), res.x[:m * k].reshape(k, m).T


def independent_verdict(case) -> bool:
    """Implementability decided without the library.

    Interior targets: every marginal-cost difference must lie in
    Col(kernel), by lstsq residual.  Corner targets: the direct LP must be
    feasible (boundary multipliers can absorb the rest).
    """
    grad = gradients(case)
    if free_cells(case).any():
        return min_payment(case)[0] is not None
    diffs = grad[:, :-1] - grad[:, -1:]
    return all(colspace_residual(case.kernel, diffs[:, j]) <= COLSPACE_TOL
               for j in range(diffs.shape[1]))


def foc_violation(case, payments: np.ndarray) -> float:
    """How far ``payments`` is from the agent's first-order condition.

    The columns of K T - grad must coincide, except that a column may sit
    below the common value on a state its posterior rules out (where the
    multiplier eta >= 0 absorbs the gap).  Returns the worst violation,
    relative to the gradients' scale.
    """
    grad = gradients(case)
    free = free_cells(case)
    d = case.kernel @ payments - grad
    worst = 0.0
    for i in range(d.shape[0]):
        bound = d[i, ~free[i]]
        if bound.size == 0:
            continue                        # every posterior rules state i out
        worst = max(worst, float(np.ptp(bound)))
        # Free cells: eta = lambda_i - d >= 0.
        worst = max(worst, float((d[i, free[i]] - bound.mean()).max(initial=0.0)))
    return worst / max(1.0, float(np.abs(grad).max()))


def check_contract(case, result: dict) -> list[str]:
    """Check one ``optimal_contract`` (+ ``first_best_contract``) outcome.

    ``result`` holds ``kappa``, ``first_best``, ``payment_check``,
    ``payments`` (None when not implementable) and ``first_best_payments``.
    """
    problems = []
    verdict = independent_verdict(case)
    if case.implementable and not verdict:
        problems.append("instance built implementable fails the independent test")
    implementable = result["payments"] is not None
    if implementable != verdict:
        problems.append(f"implementable={implementable}, independent test says {verdict}")
    if not implementable:
        if np.isfinite(result["kappa"]):
            problems.append("finite kappa for a target that cannot be implemented")
        return problems
    if not verdict:
        return problems

    payments = np.asarray(result["payments"], dtype=float)
    if payments.min() < -NONNEG_TOL:
        problems.append(f"negative payment {payments.min():.3e}")
    foc = foc_violation(case, payments)
    if foc > FOC_TOL:
        problems.append(f"first-order condition violated by {foc:.3e}")
    paid = expected_payment(case, payments)
    if _rel(result["payment_check"], paid) > PAYMENT_TOL:
        problems.append(f"payment_check {result['payment_check']!r} != expected payment {paid!r}")
    optimum, _ = min_payment(case)
    if _rel(paid, optimum) > COST_TOL:
        problems.append(f"contract pays {paid!r}, direct LP optimum is {optimum!r}")
    if _rel(result["kappa"], optimum) > COST_TOL:
        problems.append(f"kappa {result['kappa']!r} != direct LP optimum {optimum!r}")
    info = information_cost(case)
    if _rel(result["first_best"], info) > PAYMENT_TOL:
        problems.append(f"first_best {result['first_best']!r} != information cost {info!r}")

    zero_rent = result.get("first_best_payments")
    if zero_rent is not None:
        zero_rent = np.asarray(zero_rent, dtype=float)
        foc = foc_violation(case, zero_rent)
        if foc > FOC_TOL:
            problems.append(f"zero-rent contract violates the first-order condition by {foc:.3e}")
        paid = expected_payment(case, zero_rent)
        if _rel(paid, info) > COST_TOL:
            problems.append(f"zero-rent contract pays {paid!r}, information cost is {info!r}")
    return problems


# ----------------------------------------------------------- oracle checks

def net_value(case, payments: np.ndarray, beliefs: np.ndarray, reports=None) -> np.ndarray:
    """Net value at each belief (row): the payment of the given report, or
    of the best report when ``reports`` is None, minus the price."""
    payoff = beliefs @ (case.kernel @ payments)
    gross = payoff.max(axis=1) if reports is None else payoff[np.arange(len(beliefs)), reports]
    return gross - np.array([price(case, b) for b in beliefs])


def check_oracle(case, payments: np.ndarray, oracle: dict) -> list[str]:
    """Check an agent-side solution: ``gap``, ``optimal_value``,
    ``target_value``, ``support`` (rows) and ``weights``."""
    problems = []
    payments = np.asarray(payments, dtype=float)
    gap = oracle["gap"]
    if not gap <= ORACLE_GAP_TOL:
        problems.append(f"oracle gap {gap!r} exceeds {ORACLE_GAP_TOL}")
    if gap < -ORACLE_GAP_TOL:
        problems.append(f"target beats the grid optimum by {-gap!r}")
    if _rel(oracle["optimal_value"] - oracle["target_value"], gap) > PAYMENT_TOL:
        problems.append("gap != optimal value - target value")

    honest = np.arange(case.posteriors.shape[1])
    target_value = float(case.weights @ net_value(case, payments, case.posteriors.T, honest))
    if _rel(oracle["target_value"], target_value) > PAYMENT_TOL:
        problems.append(f"target value {oracle['target_value']!r} != recomputed {target_value!r}")

    support = np.asarray(oracle["support"], dtype=float)
    weights = np.asarray(oracle["weights"], dtype=float)
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > SUPPORT_TOL:
        problems.append("support weights are not a probability vector")
    mean_error = float(np.abs(weights @ support - case.prior).max())
    if mean_error > SUPPORT_TOL:
        problems.append(f"support averages to the prior only within {mean_error:.3e}")
    support_value = float(weights @ net_value(case, payments, support))
    if _rel(support_value, oracle["optimal_value"]) > SUPPORT_TOL:
        problems.append(f"support is worth {support_value!r}, "
                        f"reported optimum {oracle['optimal_value']!r}")
    return problems


# ------------------------------------------------------------ order checks

def _nonneg_solution_distance(a: np.ndarray, b: np.ndarray, stochastic: bool) -> float:
    """Least l1 violation of ``a @ G = b`` over G >= 0 (row-stochastic when
    ``stochastic``); zero iff such a G exists."""
    n, m_a = a.shape
    m_b = b.shape[1]
    n_g = m_a * m_b
    n_eq = n * m_b
    # G column-major: a @ G[:, j] = b[:, j]; slacks s+ - s- absorb misfit.
    a_eq = np.hstack([np.kron(np.eye(m_b), a), np.eye(n_eq), -np.eye(n_eq)])
    b_eq = b.flatten(order="F")
    if stochastic:
        rows = np.hstack([np.kron(np.ones((1, m_b)), np.eye(m_a)), np.zeros((m_a, 2 * n_eq))])
        a_eq = np.vstack([a_eq, rows])
        b_eq = np.concatenate([b_eq, np.ones(m_a)])
    c = np.concatenate([np.zeros(n_g), np.ones(2 * n_eq)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"order LP failed: {res.message}")
    return float(res.fun)


def check_garbling(a: np.ndarray, b: np.ndarray, g) -> list[str]:
    """``g`` must be row-stochastic, nonnegative, and satisfy a @ g = b."""
    g = np.asarray(g, dtype=float)
    problems = []
    if g.shape != (a.shape[1], b.shape[1]):
        return [f"garbling has shape {g.shape}"]
    if g.min() < -CERT_TOL:
        problems.append(f"garbling has a negative entry {g.min():.3e}")
    if np.abs(g.sum(axis=1) - 1.0).max() > CERT_TOL:
        problems.append("garbling rows do not sum to one")
    if np.abs(a @ g - b).max() > CERT_TOL:
        problems.append("garbling does not map the first kernel onto the second")
    return problems


def check_cone(a: np.ndarray, b: np.ndarray, v) -> list[str]:
    """``v`` must be nonnegative with a @ v = b."""
    v = np.asarray(v, dtype=float)
    problems = []
    if v.shape != (a.shape[1], b.shape[1]):
        return [f"cone coefficients have shape {v.shape}"]
    if v.min() < -CERT_TOL:
        problems.append(f"cone coefficient {v.min():.3e} is negative")
    if np.abs(a @ v - b).max() > CERT_TOL:
        problems.append("cone coefficients do not reproduce the other kernel")
    return problems


def _likelihood_spreads(k: np.ndarray) -> tuple[float, float]:
    ratios = sorted(np.inf if k[0, j] == 0.0 else k[1, j] / k[0, j] for j in range(2))
    l1, l2 = ratios
    direct = l2 - l1
    recip = (np.inf if l1 == 0.0 else 1.0 / l1) - (0.0 if np.isinf(l2) else 1.0 / l2)
    return direct, recip


def k2_directions(a: np.ndarray, b: np.ndarray) -> tuple[bool, bool]:
    """Binary indirect-cost order from the likelihood-ratio spreads."""
    (da, ra), (db, rb) = _likelihood_spreads(a), _likelihood_spreads(b)
    return da >= db and ra >= rb, db >= da and rb >= ra


DIRECTIONS = {
    "dominates": (True, False),
    "dominated_by": (False, True),
    "equivalent": (True, True),
    "incomparable": (False, False),
}


def check_orders(pair, verdicts: dict) -> list[str]:
    """Check one pair's verdicts.

    ``verdicts`` maps ``blackwell``, ``cone``, ``col`` and (2x2 only)
    ``k2`` to ``(relation value, certificate dict)``.
    """
    a, b = pair.first, pair.second
    problems = []
    way = {name: DIRECTIONS[rel] for name, (rel, _) in verdicts.items()}

    cert = verdicts["blackwell"][1]
    for forward, key, (x, y) in ((0, "garbling", (a, b)), (1, "garbling_reverse", (b, a))):
        if way["blackwell"][forward]:
            problems += check_garbling(x, y, cert.get(key))
        if (_nonneg_solution_distance(x, y, True) <= ORDER_INFEASIBLE) != way["blackwell"][forward]:
            problems.append(f"blackwell {'backward' if forward else 'forward'} verdict "
                            "disagrees with the direct garbling LP")
    cert = verdicts["cone"][1]
    for forward, key, (x, y) in ((0, "coefficients", (a, b)), (1, "coefficients_reverse", (b, a))):
        if way["cone"][forward]:
            problems += check_cone(x, y, cert.get(key))
        if (_nonneg_solution_distance(x, y, False) <= ORDER_INFEASIBLE) != way["cone"][forward]:
            problems.append(f"cone {'backward' if forward else 'forward'} verdict "
                            "disagrees with the direct cone LP")
    for forward, (x, y) in ((0, (a, b)), (1, (b, a))):
        inside = all(colspace_residual(x, y[:, j]) <= COLSPACE_TOL for j in range(y.shape[1]))
        if inside != way["col"][forward]:
            problems.append(f"column-space {'backward' if forward else 'forward'} verdict "
                            "disagrees with the lstsq residuals")
    if "k2" in verdicts and way["k2"] != k2_directions(a, b):
        problems.append("k2 verdict disagrees with the likelihood-ratio spreads")

    for d in (0, 1):
        if way["blackwell"][d] and not way["cone"][d]:
            problems.append("Blackwell dominance without cone dominance")
        if way["cone"][d] and not way["col"][d]:
            problems.append("cone dominance without column-space dominance")
        if "k2" in verdicts and way["cone"][d] and not way["k2"][d]:
            problems.append("cone dominance without k2 dominance")
    if pair.dominant and not way["blackwell"][0]:
        problems.append("(E, E G) pair not reported as Blackwell dominance")
    return problems
