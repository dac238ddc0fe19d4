"""Fractional matchings on the sparsifier: non-crucial and crucial stages.

Terminology used throughout: q_e is the probability that edge e is in
the canonical maximum matching of a random realization, q_v sums q_e
over edges at v, and phi sums w_e * q_e; a superscript set (here a
``within`` bitmask) restricts the sums to that edge set.  Every such
per-vertex total, and every load x_v, comes from
:meth:`StochasticGraph.vertex_sums`.  Edges are *crucial* when q_e is
at least the sparsifier threshold tau and *non-crucial* otherwise.

The non-crucial stage inflates the sparsifier's empirical frequencies
back to per-realization scale (dividing by p_v^2 p_e, capping at
2*tau/(p_v^2 p_e)) and then scales per vertex so no vertex carries more
than max{q_v restricted to non-crucial edges, eps} / p_v.

The crucial stage assigns values to one sampled crucial matching M_C:
the unweighted rule gives edge (u, v) the value
(1 - eps) * min{1 - q_u, 1 - q_v} (q restricted to non-crucial edges);
the weighted rule maximizes a piecewise-linear tradeoff h(alpha) between
the edge's own weight and the non-crucial mass its endpoints would keep,
evaluating h on its breakpoints only, where the maximum lies.  Both
rules then scale down incident non-crucial values at any vertex whose
total exceeds 1, so per-vertex budgets hold unconditionally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .estimator import _edge_means, _outcomes, _resolve_mode
from .graph import StochasticGraph, mask_from_indices
from .matching import Matching, _scoped_matcher, matching_from_indices
from .realization import ENUMERATION_BUDGET_BITS, RngSeed
from .sparsifier import Sparsifier

__all__ = [
    "DELTA",
    "EdgeStats",
    "FractionalMatching",
    "CrucialClassification",
    "BlossomViolation",
    "compute_edge_stats",
    "non_crucial_procedure",
    "sample_crucial_matching",
    "crucial_procedure_unweighted",
    "classify_crucial_weighted",
    "crucial_procedure_weighted",
    "check_blossom_constraints",
    "round_to_integral",
    "MAX_ODD_SET_SIZE",
]

# Margin constant for the weighted heavy/semi-heavy classification.
DELTA = 0.09

# Odd-set checks enumerate all vertex subsets up to min(n, floor(1/eps))
# and refuse when that exceeds this size.
MAX_ODD_SET_SIZE = 11


@dataclass(frozen=True, eq=False)
class EdgeStats:
    """Per-edge matching probabilities with restricted-sum helpers.

    Attributes:
        graph: the graph the statistics refer to.
        q: per-edge probability of membership in the canonical maximum
            matching of a realization (exact or estimated).
        mode: "exact" or "monte-carlo".
        samples: Monte Carlo sample count (0 for exact).
    """

    graph: StochasticGraph
    q: np.ndarray
    mode: str
    samples: int = 0

    def __post_init__(self) -> None:
        if self.q.shape != (self.graph.m,):
            raise ValueError(f"expected {self.graph.m} probabilities, got {self.q.shape}")

    def phi(self, within: int | None = None) -> float:
        """Sum of w_e * q_e over an edge set (all edges when None); bits
        of ``within`` past the last edge are ignored."""
        wq = self.graph.weight_array * self.q
        return math.fsum(wq if within is None else wq[self.graph.edge_flags(within)])

    def vertex_q_array(self, within: int | None = None) -> np.ndarray:
        return self.graph.vertex_sums(self.q, within)

    def vertex_phi_array(self, within: int | None = None) -> np.ndarray:
        return self.graph.vertex_sums(self.graph.weight_array * self.q, within)


def compute_edge_stats(
    g: StochasticGraph,
    mode: str = "auto",
    rng: RngSeed | None = None,
    samples: int = 100_000,
    budget_bits: int = ENUMERATION_BUDGET_BITS,
) -> EdgeStats:
    """Per-edge matching probabilities q_e, exact or by Monte Carlo.

    Args:
        mode: "exact" (enumeration), "mc" (sampling), or "auto" (exact
            when the graph fits the enumeration budget).
        rng: required for Monte Carlo.
    """
    mode = _resolve_mode(g, mode, budget_bits)
    matcher, outcomes, divisor = _outcomes(g, mode, rng, samples, budget_bits, 1)
    q = _edge_means(matcher, outcomes, divisor)
    if mode == "exact":
        return EdgeStats(g, q, "exact")
    return EdgeStats(g, q, "monte-carlo", samples)


@dataclass(eq=False)
class FractionalMatching:
    """Per-edge fractional values on a graph.

    Attributes:
        graph: the underlying graph.
        x: per-edge fractional values, one per edge in canonical order.
    """

    graph: StochasticGraph
    x: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.shape != (self.graph.m,):
            raise ValueError("x must have one entry per edge")

    def loads(self) -> np.ndarray:
        """Per-vertex totals x_v = sum of x over incident edges."""
        return self.graph.vertex_sums(self.x)

    def total_value(self) -> float:
        """Sum of w_e * x_e."""
        w = self.graph.weight_array
        return math.fsum(w[i] * self.x[i] for i in np.flatnonzero(self.x))

    def support_mask(self) -> int:
        return mask_from_indices(np.flatnonzero(self.x))

    def copy(self) -> "FractionalMatching":
        return FractionalMatching(self.graph, self.x.copy())


def non_crucial_procedure(
    s: Sparsifier,
    stats: EdgeStats,
    non_crucial_mask: int,
    realized_edges: int,
) -> FractionalMatching:
    """Fractional values on realized non-crucial sparsifier edges.

    Step 1 sets, on every realized edge of Q that is non-crucial,
    x~_e = min{f_e, 2*tau} / (p_v^2 p_e).  Step 2 computes one factor
    per vertex, max{q_v, eps} / (p_v * x~_v) with q_v restricted to
    non-crucial edges (a vertex with x~_v = 0 imposes no constraint),
    and every edge keeps the smallest factor of its endpoints, capped
    at 1.  Step 3 applies the factors.
    """
    g = s.graph
    eps = s.params.epsilon
    tau = s.params.tau
    pe2 = g.p_v * g.p_v * g.p_e
    active = g.edge_flags(realized_edges & s.edge_mask & non_crucial_mask)
    x_t = np.zeros(g.m)
    x_t[active] = np.minimum(s.f[active], 2.0 * tau) / pe2
    denom = g.p_v * g.vertex_sums(x_t)
    factors = np.full(g.n, np.inf)
    constrained = denom > 0.0
    qn = stats.vertex_q_array(within=non_crucial_mask)
    factors[constrained] = np.maximum(qn[constrained], eps) / denom[constrained]
    ends = g.endpoint_array
    scale = np.minimum(1.0, np.minimum(factors[ends[:, 0]], factors[ends[:, 1]]))
    return FractionalMatching(g, x_t * scale)


def sample_crucial_matching(s: Sparsifier, crucial_mask: int, realized_edges: int) -> Matching:
    """One crucial matching M_C: the canonical matching of the realized
    edge set ``realized_edges``, intersected with the crucial edges of Q.

    The pipeline passes the edge mask of its own realization, which
    keeps M_C on edges that actually survived this trial.  Each crucial
    Q edge lands in M_C with probability exactly q_e over the draw of
    that realization, and M_C is a matching because it is a subset of
    one.
    """
    g = s.graph
    base = _scoped_matcher(g).for_mask(realized_edges)
    keep = g.edge_flags(crucial_mask & s.edge_mask & realized_edges)
    return matching_from_indices(g, (i for i in base.indices if keep[i]))


def _enforce_vertex_budgets(fm: FractionalMatching, fixed_mask: int) -> None:
    """Scale down non-fixed values at vertices whose total exceeds 1.

    fixed_mask marks edges whose values must not change: the crucial
    matching, so a vertex's fixed total is the value of its one fixed
    edge, if any.  A vertex over budget scales its free total down to
    what the fixed value leaves, and each free edge takes the product of
    its endpoints' factors.  Factors are computed from the state before
    any scaling, so the result is independent of vertex order and a
    second application is a no-op.
    """
    g = fm.graph
    loads = fm.loads()
    fixed = g.vertex_sums(fm.x, fixed_mask)
    free = loads - fixed
    factors = np.ones(g.n)
    over = (loads > 1.0) & (free > 0.0)
    factors[over] = np.maximum(0.0, 1.0 - fixed[over]) / free[over]
    ends = g.endpoint_array
    edge_factors = factors[ends[:, 0]] * factors[ends[:, 1]]
    edge_factors[g.edge_flags(fixed_mask)] = 1.0
    fm.x *= edge_factors


def crucial_procedure_unweighted(
    x: FractionalMatching,
    m_c: Matching,
    stats: EdgeStats,
    non_crucial_mask: int,
    epsilon: float,
) -> FractionalMatching:
    """Assign crucial values for unweighted graphs.

    Every edge (u, v) of M_C receives (1 - eps) * min{1 - q_u, 1 - q_v}
    with q restricted to non-crucial edges; non-crucial values at any
    vertex pushed over budget 1 are then scaled down.
    """
    out = x.copy()
    qn = stats.vertex_q_array(within=non_crucial_mask)
    for i in m_c.indices:
        e = out.graph.edges[i]
        out.x[i] = (1.0 - epsilon) * min(1.0 - qn[e.u], 1.0 - qn[e.v])
    _enforce_vertex_budgets(out, mask_from_indices(m_c.indices))
    return out


@dataclass(eq=False)
class CrucialClassification:
    """Weighted classification of the crucial matching's edges.

    Attributes:
        category: per edge index, one of "heavy", "semi-heavy",
            "type-1", "type-2", "type-3".
        target: per edge index, the endpoint the edge is directed
            toward (None for heavy edges).
        delta: the margin constant used.
    """

    category: dict[int, str]
    target: dict[int, int | None]
    delta: float

    def edges_in(self, *categories: str) -> tuple[int, ...]:
        return tuple(sorted(i for i, c in self.category.items() if c in categories))


def classify_crucial_weighted(
    m_c: Matching,
    stats: EdgeStats,
    non_crucial_mask: int,
    delta: float = DELTA,
) -> CrucialClassification:
    """Classify crucial-matching edges for the weighted analysis.

    With phi and q restricted to non-crucial edges: an edge is *heavy*
    when w_e >= (1+delta)(phi_u + phi_v).  Otherwise, naming v the
    endpoint with the larger q (ties toward the lower vertex id), it is
    *semi-heavy* when w_e >= 2(1+delta) phi_v and q_u <= 1 - delta.
    The rest split by the stored orientation u < v: type-1 when
    phi_v >= phi_u (directed to v), type-2 when w_e <= 2(1+delta) phi_v
    (directed to v), type-3 otherwise (directed to u).
    """
    g = stats.graph
    qn = stats.vertex_q_array(within=non_crucial_mask)
    phin = stats.vertex_phi_array(within=non_crucial_mask)
    category: dict[int, str] = {}
    target: dict[int, int | None] = {}
    for i in m_c.indices:
        e = g.edges[i]
        u, v, w = e.u, e.v, e.weight
        if w >= (1.0 + delta) * (phin[u] + phin[v]):
            category[i] = "heavy"
            target[i] = None
            continue
        big, small = (v, u) if qn[v] > qn[u] else (u, v)
        if w >= 2.0 * (1.0 + delta) * phin[big] and qn[small] <= 1.0 - delta:
            category[i] = "semi-heavy"
            target[i] = big
            continue
        if phin[v] >= phin[u]:
            category[i] = "type-1"
            target[i] = v
        elif w <= 2.0 * (1.0 + delta) * phin[v]:
            category[i] = "type-2"
            target[i] = v
        else:
            category[i] = "type-3"
            target[i] = u
    return CrucialClassification(category, target, delta)


def _endpoint_keep(q: float, phi: float, alpha: float) -> float:
    """Non-crucial mass an endpoint keeps when its crucial edge takes alpha."""
    if q <= 0.0:
        return 0.0
    return min(q, 1.0 - alpha) / q * phi


def _best_alpha(q_u: float, q_v: float, phi_u: float, phi_v: float, w: float) -> float:
    """Maximizer of h(a) = keep_u(a) + keep_v(a) + a*w over [0, 1].

    h is piecewise linear with breakpoints {0, 1-q_u, 1-q_v, 1} (each
    clipped to [0, 1]), so a maximum sits on a breakpoint and only the
    breakpoints are evaluated.  Ties pick the smallest alpha.
    """
    cands = {0.0, 1.0}
    for q in (q_u, q_v):
        cands.add(min(1.0, max(0.0, 1.0 - q)))
    best_a = 0.0
    best_h = -math.inf
    for a in sorted(cands):
        h = _endpoint_keep(q_u, phi_u, a) + _endpoint_keep(q_v, phi_v, a) + a * w
        if h > best_h:
            best_h = h
            best_a = a
    return best_a


def crucial_procedure_weighted(
    x: FractionalMatching,
    m_c: Matching,
    stats: EdgeStats,
    non_crucial_mask: int,
    epsilon: float,
) -> FractionalMatching:
    """Assign crucial values for weighted graphs.

    Each edge (u, v) of M_C receives (1 - eps) * alpha*, where alpha*
    maximizes the tradeoff between the edge's own weight (the a*w term)
    and the non-crucial mass its endpoints can still keep; non-crucial
    values at any vertex pushed over budget 1 are then scaled down.
    alpha* does not follow the category of
    :func:`classify_crucial_weighted`: a heavy edge can get alpha* < 1,
    because past alpha = 1 - q_u the mass endpoint u keeps falls at the
    rate phi_u / q_u, which can exceed w_e even when
    w_e >= (1 + delta)(phi_u + phi_v).
    """
    g = x.graph
    out = x.copy()
    qn = stats.vertex_q_array(within=non_crucial_mask)
    phin = stats.vertex_phi_array(within=non_crucial_mask)
    for i in m_c.indices:
        e = g.edges[i]
        alpha = _best_alpha(qn[e.u], qn[e.v], phin[e.u], phin[e.v], e.weight)
        out.x[i] = (1.0 - epsilon) * alpha
    _enforce_vertex_budgets(out, mask_from_indices(m_c.indices))
    return out


@dataclass(frozen=True)
class BlossomViolation:
    """An odd-set constraint violation: sum of x inside U exceeds the bound."""

    vertices: tuple[int, ...]
    load: float
    bound: float


def check_blossom_constraints(
    fm: FractionalMatching,
    epsilon: float,
    tolerance: float = 1e-9,
    bound_scale: float = 1.0,
) -> list[BlossomViolation]:
    """Exhaustively check sum of x over E(U) <= bound_scale * floor(|U|/2).

    All vertex sets U with 2 <= |U| <= min(n, floor(1/epsilon)) are
    scanned (singletons have no internal edges).  ``bound_scale``
    tightens the bound, e.g. to eps * floor(|U|/2) for the non-crucial
    stage's guarantee.  Returns all violations beyond ``tolerance``.

    Raises:
        BudgetExceededError: when min(n, floor(1/epsilon)) exceeds
            ``MAX_ODD_SET_SIZE``; the scan is exponential in it.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    g = fm.graph
    cap = min(int(math.floor(1.0 / epsilon + 1e-12)), g.n)
    if cap > MAX_ODD_SET_SIZE:
        raise BudgetExceededError(
            f"odd-set checks up to size min(n, floor(1/epsilon)) = {cap} exceed the "
            f"subset-size budget of {MAX_ODD_SET_SIZE}"
        )
    support = [(i, g.edges[i].u, g.edges[i].v) for i in np.flatnonzero(fm.x)]
    violations = []
    for k in range(2, cap + 1):
        bound = bound_scale * (k // 2)
        for combo in itertools.combinations(range(g.n), k):
            inside = set(combo)
            load = math.fsum(fm.x[i] for i, u, v in support if u in inside and v in inside)
            if load > bound + tolerance:
                violations.append(BlossomViolation(combo, load, bound))
    return violations


def round_to_integral(
    fm: FractionalMatching,
    view_mask: int,
    epsilon: float,
) -> Matching:
    """Integral matching on the support, worth at least (1 - eps) of it.

    Args:
        fm: the fractional matching; its support must lie inside
            ``view_mask`` (the realized sparsifier edges).
        view_mask: edges the caller actually holds.

    Raises:
        ValueError: when x carries mass outside the view.
        RuntimeError: when the canonical maximum matching of the support
            falls short of (1 - eps) * sum of w_e x_e; with the odd-set
            constraints satisfied that cannot happen, so it signals a
            constraint-checker or matching bug rather than bad input.
    """
    support = fm.support_mask()
    if support & ~view_mask:
        outside = tuple(np.flatnonzero(fm.graph.edge_flags(support & ~view_mask)).tolist())
        raise ValueError(f"fractional mass on edges {outside} outside the realized view")
    result = _scoped_matcher(fm.graph).for_mask(support)
    target = (1.0 - epsilon) * fm.total_value()
    if result.total_weight < target - 1e-9:
        raise RuntimeError(
            f"integral matching value {result.total_weight} below "
            f"(1-eps) * fractional value {target}"
        )
    return result
