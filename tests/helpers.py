"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own kernels: rank is
recomputed by exact fraction Gaussian elimination, LPs by brute-force
basic-solution enumeration or posed straight to ``scipy.optimize.linprog``,
so agreement is a genuine two-route check.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from infocontracts import Belief, Experiment, PosteriorDistribution, entropy_cost

# The 2x3 kernel with a side bet (a null direction of the kernel) and a
# symmetric binary target: one payment LP, and the oracle certifies its
# optimal contract at the target with no LP.
SIDE_BETS = (Experiment([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),
             PosteriorDistribution([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5]))


def exact_rank(matrix) -> int:
    """Row-reduction rank over the rationals (exact for integer input)."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(matrix).tolist()]
    rank = 0
    n_rows = len(rows)
    n_cols = len(rows[0])
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(n_rows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def brute_force_lp(c, a_eq, b_eq, tol=1e-9):
    """Basic-solution enumeration oracle for standard-form LPs
    ``min c @ x`` subject to ``a_eq @ x = b_eq`` and ``x >= 0`` whose
    feasible set is bounded, for example because one row is ``1'x = 1``.

    A bounded feasible set is a polytope, and any optimum sits at a vertex:
    a basic feasible solution, nonzero only on ``rank(a_eq)`` linearly
    independent columns.  Every such column set is tried.  Returns
    (status, optimal value).
    """
    c, a_eq, b_eq = (np.asarray(v, dtype=float) for v in (c, a_eq, b_eq))
    rank = np.linalg.matrix_rank(a_eq)
    best = None
    for basis in combinations(range(c.size), rank):
        columns = a_eq[:, basis]
        if np.linalg.matrix_rank(columns) < rank:
            continue
        x = np.zeros(c.size)
        x[list(basis)] = np.linalg.lstsq(columns, b_eq, rcond=None)[0]
        if np.abs(a_eq @ x - b_eq).max() <= tol and x.min() >= -tol:
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return ("optimal", best) if best is not None else ("infeasible", None)


def stalled_linprog(*args, **kwargs):
    """Stand-in for ``numerics.linprog``, the library's direct HiGHS call,
    that stops without an answer, as HiGHS does when it hits an iteration
    limit."""
    return SimpleNamespace(status=1, message="stalled", x=None, fun=None, nit=0)


def random_stochastic(rng, n, m) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=n)


def random_binary_experiment(rng, min_det: float = 0.05) -> Experiment:
    while True:
        kernel = random_stochastic(rng, 2, 2)
        if abs(np.linalg.det(kernel)) >= min_det:
            return Experiment(kernel)


def random_interior_prior(rng, n, low: float = 0.1) -> Belief:
    while True:
        probs = rng.dirichlet(np.ones(n))
        if probs.min() >= low:
            return Belief(probs)


def random_binary_target(rng, prior: Belief, margin: float = 0.03) -> PosteriorDistribution:
    """Two posteriors straddling a binary prior, weighted Bayes-plausibly."""
    p = prior.probs[1]
    lo = rng.uniform(0.02, p - margin)
    hi = rng.uniform(p + margin, 0.98)
    w_hi = (p - lo) / (hi - lo)
    return PosteriorDistribution([[1 - lo, lo], [1 - hi, hi]], [1 - w_hi, w_hi])


def tilted_implementable_target(rng, kernel, tilt: float = 0.6):
    """Target + entropy cost implementable under ``kernel`` by construction.

    The log-ratio of the two posteriors is placed inside Col(kernel) (which
    always contains the ones vector), which is exactly what the entropy
    cost's implementability condition asks for.
    """
    n = kernel.shape[0]
    direction = kernel @ rng.normal(size=kernel.shape[1])
    direction *= tilt / max(1.0, np.abs(direction).max())
    base = rng.dirichlet(np.ones(n) * 5.0)
    tilted = base * np.exp(direction)
    tilted /= tilted.sum()
    weight = rng.uniform(0.25, 0.75)
    prior = Belief(weight * tilted + (1 - weight) * base)
    target = PosteriorDistribution([tilted, base], [weight, 1 - weight])
    return target, entropy_cost(prior)


def shannon_entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -float(terms.sum())


def corner_instance(rng):
    """Rank-2 kernel on 3 states, one boundary posterior with a single
    ruled-out state, quadratic cost at a random interior prior.  Returns
    None when the draw fails to produce an interior second posterior."""
    from infocontracts import pseudo_inverse, quadratic_cost

    while True:
        kernel = random_stochastic(rng, 3, 2)
        if pseudo_inverse(kernel).rank == 2:
            break
    zero_state = int(rng.integers(3))
    x1 = np.zeros(3)
    others = [i for i in range(3) if i != zero_state]
    split = rng.uniform(0.15, 0.85)
    x1[others[0]], x1[others[1]] = split, 1.0 - split
    weight = rng.uniform(0.1, 0.4)
    prior = rng.dirichlet(np.ones(3) * 6.0 + 2.0)
    x2 = (prior - weight * x1) / (1.0 - weight)
    if x2.min() < 0.02:
        return None
    target = PosteriorDistribution([x1, x2], [weight, 1.0 - weight])
    cost = quadratic_cost(Belief(prior), scale=rng.uniform(0.5, 2.0))
    return Experiment(kernel), target, cost, zero_state


def grid_search_corner_verdict(e, target, cost, zero_state, n_grid=2001):
    """Brute-force oracle for the boundary-multiplier system: scan the
    multiplier on a grid and test the projection residual directly.
    Returns (verdict, best residual, decision threshold)."""
    from infocontracts import marginal_cost_matrix, pseudo_inverse

    nabla = marginal_cost_matrix(cost, target)
    d = nabla[:, 0] - nabla[:, 1]
    pinv = pseudo_inverse(e.kernel)
    complement = np.eye(3) - pinv.projector
    direction = complement[:, zero_state]
    unconstrained = (complement @ d) @ direction / max(direction @ direction, 1e-30)
    span = 3.0 * abs(unconstrained) + 1.0
    grid = np.linspace(0.0, span, n_grid)
    residuals = np.linalg.norm(
        (complement @ d)[None, :] - grid[:, None] * direction[None, :], axis=1)
    best = float(residuals.min())
    spacing = span / (n_grid - 1)
    threshold = 2.0 * spacing + 1e-9
    return best <= threshold, best, threshold


def direct_min_payment(kernel, target, nabla) -> float:
    """Cheapest limited-liability expected payment, by one LP posed straight
    to scipy at 1e-10 primal and dual feasibility tolerances, whose point
    must meet the equality constraints to 1e-9 of the right-hand side's
    scale.

    Variables: payments T >= 0 (M x K, column by column), a free multiplier
    lambda (N), and eta >= 0 on the cells a posterior rules out.
    Constraints: kernel @ T_k - lambda + eta_k = nabla_k for every report k.
    Objective: the expected payment under honest reports.
    """
    kernel = np.asarray(kernel, dtype=float)
    n, m = kernel.shape
    posts = target.posterior_matrix()
    k = posts.shape[1]
    free = (posts < 1e-9).flatten(order="F")
    a_eq = np.hstack([
        np.kron(np.eye(k), kernel),
        -np.kron(np.ones((k, 1)), np.eye(n)),
        np.eye(n * k)[:, free],
    ])
    c = np.concatenate([((posts * target.weights).T @ kernel).reshape(-1),
                        np.zeros(n + int(free.sum()))])
    bounds = [(0, None)] * (m * k) + [(None, None)] * n + [(0, None)] * int(free.sum())
    b_eq = np.asarray(nabla, dtype=float).flatten(order="F")
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    residual = np.abs(a_eq @ res.x - b_eq).max()
    assert residual <= 1e-9 * max(1.0, np.abs(b_eq).max()), residual
    return float(res.fun)


def equal_rows_instance(rng):
    """3x3 kernel whose first two rows coincide (rank 2, one-dimensional
    null space) and an entropy target at a Dirichlet prior that is
    implementable by construction: the target's experiment cannot tell
    states 1 and 2 apart either, so its log-posterior differences keep equal
    first two coordinates."""
    r, s = random_stochastic(rng, 2, 3)
    q_row, u_row = random_stochastic(rng, 2, 3)
    prior = random_interior_prior(rng, 3)
    q = np.vstack([q_row, q_row, u_row])
    unconditional = prior.probs @ q
    posts = prior.probs[:, None] * q / unconditional
    target = PosteriorDistribution(posts.T, unconditional)
    return Experiment(np.vstack([r, r, s])), target, entropy_cost(prior)


def corner_multiplier_instance(rng):
    """Rank-2 3x2 kernel and a quadratic-cost corner target at a Dirichlet
    prior that is implementable only with a positive boundary multiplier.

    The first posterior rules out state z.  The kernel's first column is an
    affine function of the marginal-cost difference minus a * e_z (a > 0),
    so Col(kernel) = span{1, first column} contains that difference once
    the multiplier a is subtracted.
    """
    from infocontracts import quadratic_cost

    prior = random_interior_prior(rng, 3, low=0.15).probs
    scale = rng.uniform(0.5, 2.0)
    while True:
        z = int(rng.integers(3))
        mu1 = np.zeros(3)
        others = [i for i in range(3) if i != z]
        split = rng.uniform(0.15, 0.85)
        mu1[others[0]], mu1[others[1]] = split, 1.0 - split
        w1 = rng.uniform(0.1, 0.4)
        mu2 = (prior - w1 * mu1) / (1.0 - w1)
        if mu2.min() >= 0.02:
            break
    direction = 2.0 * scale * (mu1 - mu2)
    direction[z] -= rng.uniform(0.2, 1.0) * scale
    direction -= direction.mean()
    first = 0.5 + rng.uniform(0.2, 0.4) * rng.choice([-1.0, 1.0]) * direction / np.abs(direction).max()
    target = PosteriorDistribution([mu1, mu2], [w1, 1.0 - w1])
    return Experiment(np.column_stack([first, 1.0 - first])), target, quadratic_cost(Belief(prior), scale)


def direct_nonnegative_feasible(a, b, stochastic: bool) -> bool:
    """Whether some ``G >= 0`` has ``a @ G = b`` (with rows summing to one
    when ``stochastic``), by one LP posed straight to scipy: the least l1
    misfit over such ``G``, which is zero iff one exists."""
    n, m_a = a.shape
    m_b = b.shape[1]
    n_eq = n * m_b
    a_eq = np.hstack([np.kron(np.eye(m_b), a), np.eye(n_eq), -np.eye(n_eq)])
    b_eq = b.flatten(order="F")
    if stochastic:
        rows = np.hstack([np.kron(np.ones((1, m_b)), np.eye(m_a)), np.zeros((m_a, 2 * n_eq))])
        a_eq = np.vstack([a_eq, rows])
        b_eq = np.concatenate([b_eq, np.ones(m_a)])
    c = np.concatenate([np.zeros(m_a * m_b), np.ones(2 * n_eq)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return bool(res.fun <= 1e-9)


def full_rank_corner_instance(rng, n, n_corner):
    """Full-rank n x n kernel and a quadratic-cost target at a Dirichlet
    prior.  The first ``n_corner`` posteriors each rule out between one and
    n - 2 states; a last interior posterior restores the prior.  The kernel
    has no null space, so every finite-cost target is implementable, but
    the boundary multipliers are free and need not be unique."""
    from infocontracts import quadratic_cost

    while True:
        kernel = random_stochastic(rng, n, n)
        if abs(np.linalg.det(kernel)) >= 0.02:
            break
    prior = rng.dirichlet(np.ones(n) * 6.0 + 2.0)
    while True:
        posts, weights = [], []
        for _ in range(n_corner):
            ruled_out = rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)
            x = rng.dirichlet(np.ones(n))
            x[ruled_out] = 0.0
            posts.append(x / x.sum())
            weights.append(rng.uniform(0.1, 0.6 / n_corner))
        last = (prior - np.array(weights) @ np.array(posts)) / (1.0 - sum(weights))
        if last.min() >= 0.02:
            break
    target = PosteriorDistribution(posts + [last], weights + [1.0 - sum(weights)])
    return Experiment(kernel), target, quadratic_cost(Belief(prior), scale=rng.uniform(0.5, 2.0))


def grid_lp_best_response(e_p, contract, cost, prior, points_per_axis, extra=(),
                          target=None) -> float:
    """The agent's optimum over a uniform belief grid of ``points_per_axis``
    points per axis, plus the prior, the target's posteriors and the
    ``extra`` beliefs, as one LP over every belief posed straight to scipy,
    with no column generation.  The grid is built here, cell by cell, not
    by the library.  Returns the optimal value.

    HiGHS's default feasibility tolerances (1e-7) can stop this LP up to
    ~1e-8 below its optimum on 2-state grids of 2001 points, so they are
    tightened to 1e-10."""
    steps = points_per_axis - 1
    cells = [c for c in product(range(steps + 1), repeat=e_p.n_states - 1) if sum(c) <= steps]
    points = [np.array([(*c, steps - sum(c)) for c in cells]) / steps, prior.probs[None, :]]
    if target is not None:
        points.append(target.posterior_matrix().T)
    points += [b.probs[None, :] for b in extra]
    points = np.vstack(points)
    values = (points @ e_p.kernel @ contract.payments).max(axis=1) - cost.value(points)
    finite = np.isfinite(values)
    points, values = points[finite], values[finite]
    res = linprog(-values, A_eq=np.vstack([points.T, np.ones(len(points))]),
                  b_eq=np.append(prior.probs, 1.0), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(-res.fun)


def grid_priced(cost):
    """The same prices under the kind ``"custom"``: an entropy or quadratic
    cost keeps its vectorized price but loses the labels of its exact
    route, so the agent-side solver refuses it with an ``InputError``."""
    return replace(cost, kind="custom")
