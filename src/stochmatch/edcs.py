"""Bounded-degree subgraphs that preserve matchings (EDCS-style).

A subgraph H of G with parameters (beta, beta_minus) is certified when
every H edge has degree sum (within H) at most beta and every non-H edge
has degree sum at least beta_minus.  Such subgraphs retain at least a
(2/3 - eps) fraction of the maximum matching once beta is large enough
relative to eps, which makes them a one-shot alternative to the sampling
sparsifier for the stochastic setting: query the H edges and match what
survived.

The parameter rule used here is
    beta = ceil(C * ln(1/(eps * p_v * p_e)) / (eps^2 * p_v * p_e)),
    beta_minus = beta - 1,
with C defaulting to 128; eps must stay below 1/2.

The builder runs local fix-ups from the empty subgraph: remove the first
H edge (canonical order) whose degree sum exceeds beta, else add the
first non-H edge whose degree sum is below beta_minus, until neither
rule applies.  With beta > beta_minus this terminates: each fix-up
raises the potential (beta - 1/2)|H| - (1/2) * sum of squared degrees
by at least 1/2, and the potential is bounded.

It finds those first violations from two lazy min-heaps of edge indices
instead of rescanning the edges (a worklist, as in Bernstein & Stein,
ICALP 2015, and Assadi & Bernstein, SOSA 2019): ``over`` for H edges
that may have degree sum above beta and ``under`` for the other edges
that may have degree sum below beta_minus.  Every violating edge is in
its heap, so the lowest index still violating is the first violation.
A fix-up at (u, v) moves the degree sum of each other edge at u or v
by one, so only those edges can start to violate, and each is pushed
when its sum crosses the bound: to beta_minus - 1 after a removal, to
beta + 1 after an addition.  Building costs O(m + fix-ups * Delta *
log m) for maximum degree Delta.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import StochasticGraph, indices_from_mask, mask_from_indices
from .matching import _scoped_matcher

__all__ = [
    "EdcsParams",
    "EdcsSubgraph",
    "compute_beta",
    "build_edcs",
    "verify_edcs",
    "edcs_matching_ratio",
]


@dataclass(frozen=True)
class EdcsParams:
    """Degree bounds for the subgraph.

    Attributes:
        beta: upper bound on degree sums of subgraph edges.
        beta_minus: lower bound on degree sums of non-subgraph edges;
            must be strictly below beta for the builder to terminate.
        epsilon: accuracy parameter the bounds were derived from.
        c_const: the constant C used by :func:`compute_beta`.
    """

    beta: int
    beta_minus: int
    epsilon: float
    c_const: float = 128.0

    def __post_init__(self) -> None:
        if self.beta_minus < 1 or self.beta <= self.beta_minus:
            raise ValueError(
                f"need beta > beta_minus >= 1, got beta={self.beta}, beta_minus={self.beta_minus}"
            )
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon!r}")


def compute_beta(
    epsilon: float, p_v: float, p_e: float, c_const: float = 128.0
) -> EdcsParams:
    """Degree bounds for the given accuracy and survival probabilities."""
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    for name, p in (("p_v", p_v), ("p_e", p_e)):
        if not (0.0 < p <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {p!r}")
    if c_const <= 0.0:
        raise ValueError(f"c_const must be positive, got {c_const!r}")
    pp = p_v * p_e
    beta = math.ceil(c_const * math.log(1.0 / (epsilon * pp)) / (epsilon**2 * pp))
    return EdcsParams(beta, beta - 1, epsilon, c_const)


@dataclass(frozen=True, eq=False)
class EdcsSubgraph:
    """A built subgraph together with its parameters and build effort.

    Attributes:
        graph: the parent graph.
        params: the degree bounds used.
        edge_mask: bitmask of subgraph edges.
        fixups: number of fix-up steps the builder performed.
    """

    graph: StochasticGraph
    params: EdcsParams
    edge_mask: int
    fixups: int = 0

    @cached_property
    def edge_indices(self) -> tuple[int, ...]:
        return indices_from_mask(self.edge_mask)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree within the subgraph."""
        return self.graph.vertex_sums(np.ones(self.graph.m), self.edge_mask).astype(np.int64)

    @property
    def size(self) -> int:
        return self.edge_mask.bit_count()

    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))


def build_edcs(
    g: StochasticGraph, params: EdcsParams, max_fixups: int = 1_000_000
) -> EdcsSubgraph:
    """Build a certified subgraph by local fix-ups from the empty set.

    Each fix-up removes the lowest-index H edge whose degree sum is
    above beta or, if there is none, adds the lowest-index non-H edge
    whose degree sum is below beta_minus, so the result is
    deterministic.  The candidates wait in two min-heaps: ``over`` (H
    edges, empty at the start) and ``under`` (non-H edges, all of them
    at the start).  Entries whose condition no longer holds are dropped
    when they reach the top.  After a fix-up at (u, v) only the edges at
    u or v are looked at, and one is pushed when its degree sum has just
    crossed its bound.  The changed edge itself cannot: after its
    removal its sum is at least beta - 1 >= beta_minus, after its
    addition at most beta.  Cost: O(m + fix-ups * Delta * log m).

    Raises:
        RuntimeError: if ``max_fixups`` steps did not reach a fixed
            point (termination is guaranteed, so this signals a bug or
            an absurdly small limit).
    """
    beta, beta_minus = params.beta, params.beta_minus
    eu = [e.u for e in g.edges]
    ev = [e.v for e in g.edges]
    incident = g.incident
    in_h = [False] * g.m
    deg = [0] * g.n
    over: list[int] = []
    under = list(range(g.m))
    fixups = 0
    while True:
        while over and not (in_h[over[0]] and deg[eu[over[0]]] + deg[ev[over[0]]] > beta):
            heapq.heappop(over)
        if over:
            i = heapq.heappop(over)
            in_h[i] = False
            step = -1
        else:
            while under and (in_h[under[0]] or deg[eu[under[0]]] + deg[ev[under[0]]] >= beta_minus):
                heapq.heappop(under)
            if not under:
                break
            i = heapq.heappop(under)
            in_h[i] = True
            step = 1
        u, v = eu[i], ev[i]
        deg[u] += step
        deg[v] += step
        fixups += 1
        if fixups > max_fixups:
            raise RuntimeError(f"no fixed point after {max_fixups} fix-up steps")
        for j in incident[u] + incident[v]:
            s = deg[eu[j]] + deg[ev[j]]
            if step < 0:
                if s == beta_minus - 1 and not in_h[j]:
                    heapq.heappush(under, j)
            elif s == beta + 1 and in_h[j]:
                heapq.heappush(over, j)
    return EdcsSubgraph(g, params, mask_from_indices(i for i in range(g.m) if in_h[i]), fixups)


def verify_edcs(g: StochasticGraph, h: EdcsSubgraph) -> list[tuple[str, int, int]]:
    """Check both degree-sum conditions; an empty list certifies H.

    Returns one ("upper"|"lower", edge_index, degree_sum) entry per
    violated edge: "upper" for subgraph edges with degree sum above
    beta, "lower" for non-subgraph edges with degree sum below
    beta_minus.
    """
    if h.graph is not g and h.graph != g:
        raise ValueError("subgraph belongs to a different graph")
    deg, ends = h.degrees, g.endpoint_array
    sums = deg[ends[:, 0]] + deg[ends[:, 1]]
    in_h = np.zeros(g.m, dtype=bool)
    in_h[list(h.edge_indices)] = True
    bad = np.flatnonzero(np.where(in_h, sums > h.params.beta, sums < h.params.beta_minus))
    return [
        ("upper" if in_h[i] else "lower", i, s)
        for i, s in zip(bad.tolist(), sums[bad].tolist())
    ]


def edcs_matching_ratio(g: StochasticGraph, h: EdcsSubgraph) -> float:
    """mu(H) / mu(G) on the deterministic graph (no realization).

    An empty graph (mu(G) = 0) reports 1.0.  The stochastic ratio
    E[mu(realization restricted to H)] / E[mu(realization)] is
    ``approximation_ratio(g, h.edge_mask, ...)``.
    """
    matcher = _scoped_matcher(g)
    full = matcher.for_mask(None).total_weight
    if full == 0.0:
        return 1.0
    return matcher.for_mask(h.edge_mask).total_weight / full
