"""Independent agent-side solver used to cross-check contracts end to end.

Given a contract, the agent faces a standard flexible-learning problem:
pick any Bayes-plausible distribution of posteriors to maximize expected
payment net of the information cost.  Its value is the upper concave
envelope of the net value at the prior (concavification, Kamenica &
Gentzkow 2011).  No pseudo-inverse, no first-order condition: agreement
with the synthesis machinery is therefore a genuine two-route check.
Two routes solve the problem, chosen by the cost, and both certify their
answer, so a passing ``verify_contract`` is sound.  Any other cost is an
``InputError``.

Every route solves in one level-free frame, ``u = kernel @ (T - z 1') -
level``: the realization bonus ``z`` holds each realization's smallest
payment under the contract ``T``, and ``level`` each state's largest
remaining expected payment, so the rows of ``u`` peak at 0.  As posteriors
average to the prior, every value drops by ``prior @ (kernel @ z + level)``.
The gap is taken in the frame, where a bonus cannot cancel it away, and only
``optimal_value``, ``bracket`` and ``target_value`` get the offset back.

Costs built by :func:`~infocontracts.costs.entropy_cost` take an exact
route at any number of states.  The problem is then rational inattention
(Matejka & McKay 2015): with ``s = 1 / ln(log_base)``
the agent's value is the maximum over report probabilities ``q`` in the
simplex of the concave ``f(q) = s sum_n mu0_n log z_n``, where
``z = exp(u / s) @ q``.  Blahut-Arimoto steps ``q <- q * D(q)``, with
``D_x = sum_n mu0_n exp(u_nx / s) / z_n``, raise ``f`` monotonically; an
active-set Newton step on the support of ``q`` accelerates them.  By
Jensen, ``f(q*) <= f(q) + s log max_x D_x`` at every ``q``, and the solve
stops once that bound is within ``CERTIFICATE_TOL`` of ``f``.  It starts
from a target's weights, where an optimal target is certified before any
step, and otherwise from uniform ``q``.  ``optimal_value`` is the upper
bound.  The support is the channel's posteriors ``mu_x = mu0 * exp(u_x /
s) / (z D_x)`` at weights ``q_x D_x``: they average to the prior exactly
and are worth at least ``f(q)``, the lower end of the reported bracket.

Costs built by :func:`~infocontracts.costs.quadratic_cost` take an exact
route at any number of states.  With cost prior ``a`` and scale ``s``,
report ``k``'s best posterior against a multiplier ``lam`` is the Euclidean
projection ``m_k = proj(a + (u_k - lam) / (2 s))`` onto the simplex, worth
``h_k = m_k @ (u_k - lam) - s ||m_k - a||^2``, and by weak duality every
``lam`` bounds the agent's value by ``g(lam) = mu0 @ lam + max_k h_k``.
Semismooth Newton steps on the KKT system (``sum_A w_k m_k = mu0``,
``h_k = t`` on the active reports ``A``) polish the multiplier, the
posteriors and their weights, and the solve stops once ``g`` is within
``CERTIFICATE_TOL * max(1, |value|)`` of the polished support's value, the
lower end of the bracket.  ``optimal_value`` is ``g``.  A target is tried
first, from the multiplier fitted to its posteriors, so an optimal one is
certified with no LP.  Otherwise column generation takes over: a restricted
LP mixes a few beliefs (columns) into the prior, and its dual is a plane over
the simplex above their values.  Each round polishes the LP's support, and
failing the certificate, each ``m_k`` at the plane's slope that lies above
the plane joins the columns with the polished supports, for at most
``MAX_ROUNDS`` rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .contracts import Contract
from .costs import PosteriorCost
from .errors import DimensionMismatchError, InputError, SolverFailureError
from .experiments import Belief, Experiment, PosteriorDistribution, is_bayes_plausible
from .numerics import solve_lp

SUPPORT_TOL = 1e-10
# A belief joins the columns once its value exceeds the dual plane by more
# than PRICING_TOL times max(1, largest |value|), for at most MAX_ROUNDS
# restricted LPs.
PRICING_TOL = 1e-10
MAX_ROUNDS = 20
# The entropy route stops once its upper bound exceeds f(q) by at most
# CERTIFICATE_TOL times max(1, |f(q)|), and fails past MAX_ITERATIONS.
CERTIFICATE_TOL = 1e-12
MAX_ITERATIONS = 500
# The quadratic route stops on the same certificate, after at most
# NEWTON_STEPS Newton steps a round, each halved down to NEWTON_MIN_STEP
# until it cuts the KKT residual by ARMIJO times its length.
NEWTON_STEPS = 30
NEWTON_MIN_STEP = 1e-3
# A report leaves the support once its probability falls below DROP_TOL
# while D_x < 1.  Line searches halve their step down to MIN_STEP and
# accept a Newton step that gains ARMIJO times its predicted gain.
DROP_TOL = 1e-13
MIN_STEP = 1e-10
ARMIJO = 1e-4
# verify_contract passes a target within VERIFY_TOL * max(1, spread) of the
# agent's optimum, where spread is the widest range across reports of a
# state's expected payment: it scales with the incentives, and neither a
# report-independent bonus nor side bets move it.
VERIFY_TOL = 1e-5


def simplex_grid(n_states: int, points_per_axis: int) -> np.ndarray:
    """Uniform grid on the belief simplex, vertices included, at 2 or 3
    states.  No solver uses it; it stays for the benchmark tracer, which
    wraps it."""
    steps = points_per_axis - 1
    if n_states == 2:
        t = np.linspace(0.0, 1.0, points_per_axis)
        return np.column_stack([1.0 - t, t])
    if n_states == 3:
        # Rows (i, j, steps - i - j) for i = 0..steps, then j = 0..steps - i.
        counts = np.arange(steps + 1, 0, -1)
        i = np.repeat(np.arange(steps + 1), counts)
        j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.column_stack([i, j, steps - i - j]) / steps
    raise InputError(f"the simplex grid is built at 2 or 3 states, not {n_states}")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """The agent's optimum under a contract and, if a target was supplied,
    how far that target falls short of it.

    ``route`` names the solver that ran, ``"entropy"`` or ``"quadratic"``;
    ``lp_columns`` and ``pricing_rounds`` count the columns of the last
    restricted LP and the LPs run.  ``bracket`` is ``(value of the support,
    optimal_value)``: on the entropy route ``f(q)`` and its certified upper
    bound, on the quadratic route the dual bound ``g`` above.  So
    ``optimal_value`` bounds the agent's optimum from above.
    ``n_grid_points`` is always 0; it stays for the benchmark tracer.
    ``gap`` is taken in the level-free frame (module docstring), the values
    at the payments' level.
    """

    optimal_value: float
    support_beliefs: tuple[Belief, ...]
    support_weights: np.ndarray
    target_value: float | None
    gap: float | None
    route: str
    bracket: tuple[float, float]
    n_grid_points: int = 0
    lp_columns: int = 0
    pricing_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "optimal_value": self.optimal_value,
            "bracket": list(self.bracket),
            "support": [b.probs.tolist() for b in self.support_beliefs],
            "weights": self.support_weights.tolist(),
            "target_value": self.target_value,
            "gap": self.gap,
            "n_grid_points": self.n_grid_points,
            "lp_columns": self.lp_columns,
            "pricing_rounds": self.pricing_rounds,
        }


def _net_values(points: np.ndarray, utilities: np.ndarray, cost: PosteriorCost) -> np.ndarray:
    payoff = points @ utilities
    return payoff.max(axis=1) - cost.value_many(points)


def _restricted_lp(points: np.ndarray, values: np.ndarray, prior: np.ndarray):
    """Weights ``w >= 0`` maximizing ``values @ w`` with ``points.T @ w =
    prior`` and ``sum(w) = 1``, and the dual plane: ``[belief, 1] @ plane``
    lies above every value in ``values``.  In the level-free frame the
    costs ``-values`` are the size of the payments' spread, not their level."""
    lifted = np.column_stack([points, np.ones(points.shape[0])])
    try:
        weights, duals = solve_lp(-values, lifted.T, np.append(prior, 1.0))
    except SolverFailureError as exc:
        raise SolverFailureError(f"best-response LP did not resolve: {exc}") from exc
    # HiGHS's equality marginals y satisfy -values >= lifted @ y: -y is the plane.
    return weights, -duals


def _route(cost: PosteriorCost) -> tuple[str, float]:
    """The route for a cost and its scale, read from the labels that
    ``entropy_cost`` and ``quadratic_cost`` attach: ``("entropy",
    1 / ln(log_base))`` or ``("quadratic", scale)``, and ``InputError`` for
    any other cost.  The labels are trusted: the entropy route prices only
    the prior, and the quadratic route prices by the labelled formula."""
    if cost.kind == "entropy" and "log_base" in cost.params:
        return "entropy", 1.0 / math.log(cost.params["log_base"])
    if cost.kind == "quadratic" and "scale" in cost.params:
        return "quadratic", float(cost.params["scale"])
    raise InputError(f"the agent-side solver takes 'entropy' or 'quadratic' costs only, "
                     f"not {cost.kind!r}")


class _Channel(NamedTuple):
    """Outcome of the entropy route: the channel's posteriors (rows) and
    weights, ``f(q)`` and its certified upper bound."""

    posteriors: np.ndarray
    weights: np.ndarray
    value: float
    upper: float


def _rational_inattention(utilities: np.ndarray, prior: np.ndarray, scale: float,
                         start: np.ndarray | None) -> _Channel:
    """Maximize ``f(q) = scale * sum_n prior_n log (exp(utilities / scale) @ q)_n``
    over the simplex until the Jensen bound certifies ``f`` to
    ``CERTIFICATE_TOL``, from the report probabilities ``start`` or, without
    them or where they leave a state no report, uniform ones.  The rows of
    ``utilities`` peak at 0, so no likelihood overflows; states the prior
    rules out play no part."""
    charged = prior > 0.0
    mu0 = prior[charged]
    lik = np.exp(utilities[charged] / scale)

    def value(q: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            return scale * float(mu0 @ np.log(lik @ q))

    def evaluate(q: np.ndarray):
        z = lik @ q
        return z, (mu0 / z) @ lik, value(q)

    if start is None or not (lik @ start > 0.0).all():
        q = np.full(lik.shape[1], 1.0 / lik.shape[1])
    else:
        q = start / start.sum()
    for _ in range(MAX_ITERATIONS):
        z, d, f = evaluate(q)
        worst = int(np.argmax(d))
        bound = scale * max(0.0, math.log(d[worst]))
        if bound <= CERTIFICATE_TOL * max(1.0, abs(f)):
            on = q > 0.0
            posteriors = np.zeros((int(on.sum()), prior.size))
            posteriors[:, charged] = (lik[:, on] * (mu0 / z)[:, None]).T / d[on, None]
            return _Channel(posteriors, q[on] * d[on], f, f + bound)
        if q[worst] == 0.0:
            q = _readmit(q, worst, value, f)
            continue
        q = q * d                                   # Blahut-Arimoto step
        q /= q.sum()
        z, d, f = evaluate(q)
        dropped = (q < DROP_TOL) & (d < 1.0)
        if dropped.any():
            q[dropped] = 0.0
            q /= q.sum()
            z, d, f = evaluate(q)
        q = _newton_step(q, lik, mu0, z, d, f, value, scale)
    raise SolverFailureError(
        f"the entropy best response was not certified within {MAX_ITERATIONS} iterations")


def _readmit(q: np.ndarray, report: int, value, f: float) -> np.ndarray:
    """Move weight to a report off the support whose ``D_x`` exceeds 1,
    which makes ``e_x - q`` an ascent direction, halving the step until
    ``f`` rises."""
    direction = -q
    direction[report] += 1.0
    step = 0.5
    while step >= MIN_STEP:
        trial = q + step * direction
        if value(trial) > f:
            return trial
        step *= 0.5
    return q


def _newton_step(q, lik, mu0, z, d, f, value, scale) -> np.ndarray:
    """Newton step for ``f`` on the face of the simplex that holds the
    support of ``q``, from the KKT system for ``sum(q) = 1``, with a
    backtracking line search.  A report the step drives to zero leaves the
    support."""
    on = np.flatnonzero(q > 0.0)
    if on.size < 2:
        return q
    rows = lik[:, on] * (np.sqrt(mu0) / z)[:, None]      # Hessian = -scale * rows' rows
    kkt = np.ones((on.size + 1, on.size + 1))
    kkt[:-1, :-1] = rows.T @ rows
    kkt[-1, -1] = 0.0
    step = np.linalg.lstsq(kkt, np.append(d[on], 0.0), rcond=None)[0][:-1]
    gain = scale * float(d[on] @ step)
    if not gain > 0.0:
        return q
    shrinking = step < 0.0
    limits = -q[on][shrinking] / step[shrinking]
    longest = min(1.0, float(limits.min(initial=np.inf)))
    blocking = on[shrinking][limits <= longest]
    length = longest
    while length >= MIN_STEP:
        trial = q.copy()
        trial[on] += length * step
        if length == longest:
            trial[blocking] = 0.0
        trial = np.maximum(trial, 0.0)
        trial /= trial.sum()
        if value(trial) >= f + ARMIJO * length * gain:
            return trial
        length *= 0.5
    return q


def _merge_coincident(points: np.ndarray, weights: np.ndarray):
    """Pool rows of ``points`` that agree to ``SUPPORT_TOL`` into their
    weighted mean, which keeps the distribution's mean."""
    label = np.arange(len(points))
    for i in range(len(points)):
        for j in range(i):
            if label[j] == j and np.abs(points[i] - points[j]).max() <= SUPPORT_TOL:
                label[i] = j
                break
    _, group = np.unique(label, return_inverse=True)
    mass = np.bincount(group, weights)
    pooled = np.zeros((mass.size, points.shape[1]))
    np.add.at(pooled, group, weights[:, None] * points)
    return pooled / mass[:, None], mass


def _entropy_response(utilities: np.ndarray, cost: PosteriorCost, prior: np.ndarray,
                      scale: float, start: np.ndarray | None) -> OracleResult:
    channel = _rational_inattention(utilities, prior, scale, start)
    # f prices information from the agent's prior; the cost's prices are
    # zero at its own prior, so the two differ by the price of the former.
    offset = cost.value_at(prior)
    points, weights = _merge_coincident(channel.posteriors, channel.weights)
    return OracleResult(
        optimal_value=channel.upper - offset, support_beliefs=tuple(Belief(p) for p in points),
        support_weights=weights, target_value=None, gap=None, route="entropy",
        bracket=(channel.value - offset, channel.upper - offset),
    )


def _project_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``x`` onto the simplex, by
    sorting: the support is the prefix of the sorted row on which
    ``x_j - (partial sum - 1) / j`` stays positive.  Rows are rescaled to
    sum to one against the rounding of large entries."""
    desc = -np.sort(-x, axis=1)
    excess = np.cumsum(desc, axis=1) - 1.0
    size = (desc > excess / np.arange(1, x.shape[1] + 1)).sum(axis=1)
    shift = excess[np.arange(x.shape[0]), size - 1] / size
    projected = np.maximum(x - shift[:, None], 0.0)
    return projected / projected.sum(axis=1, keepdims=True)


def _priced(utilities: np.ndarray, anchor: np.ndarray, scale: float, lam: np.ndarray):
    """Each report's priced posterior ``m_k = proj(anchor + (u_k - lam) / (2 scale))``
    (rows), the maximizer of ``m @ (u_k - lam) - scale ||m - anchor||^2``
    over the simplex, and that maximum ``h_k``."""
    shifted = utilities.T - lam
    m = _project_rows(anchor + shifted / (2.0 * scale))
    h = np.einsum("kn,kn->k", m, shifted) - scale * ((m - anchor) ** 2).sum(axis=1)
    return m, h


class _Kkt(NamedTuple):
    """A point of the quadratic route's KKT system: the multiplier, the
    level ``t``, the active reports and their weights."""

    lam: np.ndarray
    level: float
    active: np.ndarray
    weights: np.ndarray


def _kkt_polish(utilities: np.ndarray, anchor: np.ndarray, scale: float, prior: np.ndarray,
                start: _Kkt) -> _Kkt:
    """Semismooth Newton steps on ``sum_A w_k m_k(lam) = prior``,
    ``h_k(lam) = t`` on the active reports ``A`` and ``1' lam = 0``, while
    each step shrinks the residual.  ``m_k`` moves by ``-P_k / (2 scale)``
    per unit of ``lam``, with ``P_k`` the centring projector on its support,
    and ``h_k`` by ``-m_k``."""
    n, active = prior.size, start.active
    size = n + 1 + active.size

    def residual(point: _Kkt) -> tuple[np.ndarray, np.ndarray]:
        m, h = _priced(utilities[:, active], anchor, scale, point.lam)
        return np.concatenate([point.weights @ m - prior, h - point.level, [point.lam.sum()]]), m

    point = start
    r, m = residual(point)
    for _ in range(NEWTON_STEPS):
        jac = np.zeros((size, size))
        for i, (w, mk) in enumerate(zip(point.weights, m)):
            on = (mk > 0.0).astype(float)
            jac[:n, :n] -= w / (2.0 * scale) * (np.diag(on) - np.outer(on, on) / on.sum())
            jac[:n, n + 1 + i] = mk
            jac[n + i, :n] = -mk
        jac[n:n + active.size, n] = -1.0
        jac[-1, :n] = 1.0
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        # A step this small changes nothing the certificate can see: take
        # it if it helps, then stop.  Larger steps halve until they help.
        final = np.abs(step).max() <= CERTIFICATE_TOL * max(
            1.0, abs(point.level), float(np.abs(point.lam).max()))
        length = 1.0
        while True:
            trial = _Kkt(point.lam + length * step[:n], point.level + length * step[n],
                         active, point.weights + length * step[n + 1:])
            r_trial, m_trial = residual(trial)
            if np.linalg.norm(r_trial) <= (1.0 - ARMIJO * length) * np.linalg.norm(r):
                break
            length *= 0.5
            if final or length < NEWTON_MIN_STEP:
                return point
        point, r, m = trial, r_trial, m_trial
        if final:
            break
    return point


def _with_active_set(utilities: np.ndarray, anchor: np.ndarray, scale: float,
                     prior: np.ndarray, point: _Kkt) -> _Kkt:
    """Polish ``point``, then, once per report at most, drop the active
    report of most negative weight or admit, at weight zero, the report
    whose ``h_k`` exceeds the level most, and polish again."""
    point = _kkt_polish(utilities, anchor, scale, prior, point)
    for _ in range(utilities.shape[1]):
        excess = _priced(utilities, anchor, scale, point.lam)[1] - point.level
        excess[point.active] = -np.inf
        if point.weights.min() < 0.0 and point.active.size > 1:
            keep = np.arange(point.active.size) != np.argmin(point.weights)
            point = point._replace(active=point.active[keep], weights=point.weights[keep])
        elif excess.max() > 0.0:
            point = point._replace(active=np.append(point.active, np.argmax(excess)),
                                   weights=np.append(point.weights, 0.0))
        else:
            break
        point = _kkt_polish(utilities, anchor, scale, prior, point)
    return point


def _fitted_multiplier(utilities: np.ndarray, anchor: np.ndarray, scale: float,
                       posts: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The multiplier under which each active report's priced posterior is
    its row of ``posts``, by least squares on ``lam_n - c_k = u_kn - 2 scale
    (p_kn - anchor_n)`` wherever ``p_kn > 0``.  A state no row charges gets
    the least ``lam_n`` that keeps every row off it,
    ``max_k u_kn + 2 scale anchor_n + c_k``."""
    n, u = anchor.size, utilities[:, active]
    k, state = np.nonzero(posts > 0.0)
    rows = np.zeros((k.size, n + active.size))
    rows[np.arange(k.size), state] = 1.0
    rows[np.arange(k.size), n + k] = -1.0
    rhs = u[state, k] - 2.0 * scale * (posts[k, state] - anchor[state])
    fit = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    kink = (u + 2.0 * scale * anchor[:, None] + fit[n:]).max(axis=1)
    lam = np.where((posts > 0.0).any(axis=0), fit[:n], kink)
    return lam - lam.mean()


def _quadratic_response(utilities: np.ndarray, cost: PosteriorCost, prior: np.ndarray,
                        scale: float, target: PosteriorDistribution | None) -> OracleResult:
    """The quadratic route (module docstring).  A target, which holds one
    posterior per report, is tried first: every report active at the
    target's weights, from the multiplier fitted to its posteriors.  The
    LP's columns start as the prior, which keeps every LP feasible, the
    simplex vertices, each report's posterior priced at ``lam = 0`` and the
    target's posteriors.  Each round's Newton polish starts from a
    multiplier fitted to the LP's support and, failing that, from the LP's
    dual plane; failing both, the posteriors priced at the plane that lie
    above it and both polished supports join the columns.  The support must
    average to the prior within ``CERTIFICATE_TOL * max(1, max|u| /
    scale)``, the rounding of the priced posteriors."""
    anchor, n = cost.prior.probs, prior.size
    mean_tol = CERTIFICATE_TOL * max(1.0, float(np.abs(utilities).max()) / scale)

    def certified(lam: np.ndarray, active: np.ndarray, weights: np.ndarray,
                  lp_columns: int, rounds: int) -> tuple[OracleResult | None, np.ndarray]:
        """Polish ``lam`` with ``active`` played at ``weights``; the result
        if the certificate passes, else None, and the polished support."""
        level_at = float(_priced(utilities[:, active], anchor, scale, lam)[1].mean())
        point = _with_active_set(utilities, anchor, scale, prior,
                                 _Kkt(lam, level_at, active, weights))
        m, h = _priced(utilities, anchor, scale, point.lam)
        mass, support = np.maximum(point.weights, 0.0), m[point.active]
        lower = float(mass @ _net_values(support, utilities, cost))
        # Rounding can leave g a few ulps under the value it bounds.
        upper = max(float(prior @ point.lam + h.max()), lower)
        if (np.abs(mass @ support - prior).max() > mean_tol
                or upper - lower > CERTIFICATE_TOL * max(1.0, abs(lower))):
            return None, support
        points, mass = _merge_coincident(support[mass > 0.0], mass[mass > 0.0])
        return OracleResult(
            optimal_value=upper, support_beliefs=tuple(Belief(p) for p in points),
            support_weights=mass, target_value=None, gap=None, route="quadratic",
            lp_columns=lp_columns, pricing_rounds=rounds, bracket=(lower, upper),
        ), support

    seeds = []
    if target is not None:
        posts = target.posterior_matrix().T
        every = np.arange(posts.shape[0])
        result, _ = certified(_fitted_multiplier(utilities, anchor, scale, posts, every),
                              every, target.weights, 0, 0)
        if result is not None:
            return result
        seeds.append(posts)
    columns = np.vstack([prior[None, :], np.eye(n),
                         _priced(utilities, anchor, scale, np.zeros(n))[0], *seeds])
    values = _net_values(columns, utilities, cost)
    for rounds in range(1, MAX_ROUNDS + 1):
        lp_weights, plane = _restricted_lp(columns, values, prior)
        slope, level = plane[:-1] - plane[:-1].mean(), plane[-1] + plane[:-1].mean()
        on = lp_weights > 0.0
        active, played = np.unique(np.argmax(columns[on] @ utilities, axis=1),
                                   return_inverse=True)
        weights = np.bincount(played, lp_weights[on])
        posts = np.zeros((active.size, n))
        np.add.at(posts, played, lp_weights[on, None] * columns[on])
        posts /= weights[:, None]
        tried = []
        for lam in (_fitted_multiplier(utilities, anchor, scale, posts, active), slope):
            result, support = certified(lam, active, weights, columns.shape[0], rounds)
            if result is not None:
                return result
            tried.append(support)
        priced, gain = _priced(utilities, anchor, scale, slope)
        above = gain > level + PRICING_TOL * max(1.0, float(np.abs(values).max()))
        entering = np.vstack([priced[above], *tried])
        columns = np.vstack([columns, entering])
        values = np.concatenate([values, _net_values(entering, utilities, cost)])
    raise SolverFailureError(f"the best response was not certified within {MAX_ROUNDS} rounds")


def agent_best_response(e_p: Experiment, t: Contract, cost: PosteriorCost,
                        prior: Belief, target: PosteriorDistribution | None = None) -> OracleResult:
    """Solve the agent's learning problem under contract ``t``.

    A cost built by ``entropy_cost`` takes the certified
    rational-inattention route and one built by ``quadratic_cost`` the
    certified projection route, both at any number of states.  The route
    is chosen from the cost's labels (``kind == "entropy"`` with a
    ``log_base`` param, or ``kind == "quadratic"`` with a ``scale`` param),
    which promise those prices; a cost that carries the labels over other
    prices is solved as if it had the labelled prices.  Any other cost is
    an ``InputError``.  Returns the certified optimum, the achieving
    support and, for a target, how far its value falls short of the
    optimum.  A target holds one posterior per contract column, on the
    experiment's states (``DimensionMismatchError`` otherwise), averages
    back to ``prior`` (``InputError`` otherwise), and is where the exact
    routes start.
    """
    if prior.n_states != e_p.n_states:
        raise DimensionMismatchError("prior does not match the experiment")
    if t.payments.shape[0] != e_p.n_realizations:
        raise DimensionMismatchError("contract rows do not match the experiment realizations")
    if target is not None:
        if target.n_states != e_p.n_states:
            raise DimensionMismatchError("target does not match the experiment's states")
        if target.size != t.payments.shape[1]:
            raise DimensionMismatchError("target needs one posterior per contract column")
        if not is_bayes_plausible(target, prior):
            raise InputError("target must average back to the prior (Bayes plausibility)")
    # The level-free frame (module docstring).
    bonus = t.payments.min(axis=1)
    utilities = e_p.kernel @ (t.payments - bonus[:, None])
    level = utilities.max(axis=1)
    utilities -= level[:, None]
    offset = float(prior.probs @ (e_p.kernel @ bonus + level))
    route, scale = _route(cost)
    if route == "entropy":
        result = _entropy_response(utilities, cost, prior.probs, scale,
                                   None if target is None else target.weights)
    else:
        result = _quadratic_response(utilities, cost, prior.probs, scale, target)
    if target is not None:
        posts = target.posterior_matrix().T
        value = float(target.weights @ (np.einsum("kn,nk->k", posts, utilities)
                                        - cost.value_many(posts)))
        result = replace(result, target_value=value + offset, gap=result.optimal_value - value)
    return replace(result, optimal_value=result.optimal_value + offset,
                   bracket=tuple(end + offset for end in result.bracket))


def verify_contract(e_p: Experiment, target: PosteriorDistribution,
                    cost: PosteriorCost, t: Contract) -> bool:
    """True iff the prescribed target comes within ``VERIFY_TOL`` times
    ``max(1, spread)`` of the agent's optimum under the contract (honest
    reports at its own posteriors), where ``spread`` is the largest range
    across reports of a row of ``kernel @ payments``.

    The optimum is the certified upper bound, so a pass is sound.  Any cost
    but an entropy or quadratic one is an ``InputError``."""
    result = agent_best_response(e_p, t, cost, prior=cost.prior, target=target)
    spread = float(np.ptp(e_p.kernel @ t.payments, axis=1).max())
    return bool(result.gap <= VERIFY_TOL * max(1.0, spread))
