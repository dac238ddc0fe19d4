"""Maximum-weight matchings with a deterministic canonical tie-break.

Among all maximum-weight matchings of a graph, the *canonical* one is the
matching whose sorted tuple of edge indices is lexicographically smallest,
comparing element by element with a shorter prefix ordered before its
extensions.  Returning the canonical optimum (rather than an arbitrary
one, as library solvers do) makes every per-edge quantity downstream, such
as the probability that a given edge is in the maximum matching of a
random realization, a well-defined number independent of solver
internals.  That determinism is relied on throughout the package, so the
solver here is written by hand instead of delegating to a generic
matching library.

The solver works on edge sets given as bitmasks over the edge order.
With i the lowest edge of a set S, the optimum of S is the better of
two children: skip i, solving S - {i}, or take it, adding w_i to the
optimum of S minus i and every edge that shares an endpoint with i.
At equal value i is taken unless the skip solution is empty, which is
the prefix-first rule above.  Values are summed right to left along the
chosen edges, as a recursive search over the edge list would sum them.
The children are smaller masks, so the recurrence runs bottom-up from
an explicit stack and needs no recursion, however many edges there are.
Each call keeps its subproblems for itself; :class:`CanonicalMatcher`
keeps only the answers to queried masks and reuses them as subproblems.
This is exponential in the worst case and intended for the desk-scale
instances this package targets (a few dozen edges per realized set,
far more when the edges are sparse, as on a long path); it is not a
polynomial blossom implementation.

Unweighted graphs carry weight 1.0 on every edge, so maximum weight
coincides with maximum cardinality and needs no separate code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graph import Edge, StochasticGraph

__all__ = [
    "Matching",
    "max_weight_matching",
    "max_matching_value",
    "matching_from_indices",
    "CanonicalMatcher",
]


@dataclass(frozen=True)
class Matching:
    """A vertex-disjoint edge set.

    Attributes:
        indices: sorted edge indices, relative to the edge order of the
            graph (or edge list) the matching was computed on.
        edges: the corresponding Edge tuples.
        total_weight: sum of member weights (order-independent, computed
            with math.fsum).
    """

    indices: tuple[int, ...]
    edges: tuple[Edge, ...]
    total_weight: float

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def vertices(self) -> frozenset[int]:
        """Vertices covered by the matching."""
        out: set[int] = set()
        for e in self.edges:
            out.add(e.u)
            out.add(e.v)
        return frozenset(out)

    def is_valid(self) -> bool:
        """True when no two member edges share a vertex."""
        return len(self.vertices) == 2 * len(self.edges)

    def contains(self, index: int) -> bool:
        return index in self.indices


def _conflict_masks(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per edge, the bitmask of the edge itself and every edge sharing an
    endpoint with it: the edges that taking it rules out."""
    at: dict[int, int] = {}
    for i, (u, v) in enumerate(pairs):
        bit = 1 << i
        at[u] = at.get(u, 0) | bit
        at[v] = at.get(v, 0) | bit
    return [at[u] | at[v] for u, v in pairs]


def _right_sum(weight: Sequence[float], indices: Sequence[int]) -> float:
    """The solver's value of a solution: its weights added right to left."""
    total = 0.0
    for j in reversed(indices):
        total = weight[j] + total
    return total


def _optimum(
    mask: int,
    conflict: Sequence[int],
    weight: Sequence[float],
    known: dict[int, Matching],
) -> tuple[int, ...]:
    """Sorted indices of the canonical optimum over the edges in ``mask``.

    Subproblems are edge sets.  With i the lowest edge of a set S,
    best(S) is the better of skipping i, best(S - {i}), and taking it,
    w_i + best(S - conflict[i]); at equal value i is taken unless the
    skip solution is empty, which is the prefix-first rule.  Both
    children are numerically smaller masks, so a stack of pending
    subproblems replaces recursion.

    Subproblems solved in this call live in ``records`` and are dropped
    on return.  One found in ``known`` (solved masks with their
    Matching) is not expanded: its value is its weights re-added right
    to left.  The final walk down the chosen branches stops at the first
    known mask and appends its indices.
    """
    # mask -> (value, took the lowest edge, solution non-empty)
    records: dict[int, tuple[float, bool, bool]] = {0: (0.0, False, False)}

    def cached(sub: int) -> tuple[float, bool, bool] | None:
        # The walk stops at a known mask, so "took" is never read here.
        hit = known.get(sub)
        if hit is None:
            return None
        return _right_sum(weight, hit.indices), False, bool(hit.indices)

    stack = [mask] if mask else []
    while stack:
        sub = stack[-1]
        low = sub & -sub
        i = low.bit_length() - 1
        skip_mask = sub ^ low
        skip = records.get(skip_mask) or cached(skip_mask)
        if skip is None:
            stack.append(skip_mask)
            continue
        take_mask = sub & ~conflict[i]
        take = records.get(take_mask) or cached(take_mask)
        if take is None:
            stack.append(take_mask)
            continue
        stack.pop()
        value = weight[i] + take[0]
        if value > skip[0] or (value == skip[0] and skip[2]):
            records[sub] = (value, True, True)
        else:
            records[sub] = (skip[0], False, skip[2])

    indices: list[int] = []
    sub = mask
    while sub:
        hit = known.get(sub)
        if hit is not None:
            indices.extend(hit.indices)
            break
        _, took, nonempty = records[sub]
        if not nonempty:
            break
        low = sub & -sub
        if took:
            i = low.bit_length() - 1
            indices.append(i)
            sub &= ~conflict[i]
        else:
            sub ^= low
    return tuple(indices)


def max_weight_matching(g: StochasticGraph | Iterable[tuple[int, int, float]]) -> Matching:
    """Canonical maximum-weight matching.

    Args:
        g: a StochasticGraph (canonical edge order), or an iterable of
            ``(u, v, weight)`` triples whose given order defines the edge
            indices used for the tie-break.

    Returns:
        The canonical optimum as a :class:`Matching`.
    """
    if isinstance(g, StochasticGraph):
        return CanonicalMatcher(g).for_mask(None)
    triples = [(int(u), int(v), float(w)) for u, v, w in g]
    edges = tuple(Edge(u, v, w) if u < v else Edge(v, u, w) for u, v, w in triples)
    conflict = _conflict_masks([(u, v) for u, v, _ in triples])
    positions = _optimum((1 << len(triples)) - 1, conflict, [w for _, _, w in triples], {})
    chosen = tuple(edges[i] for i in positions)
    return Matching(positions, chosen, math.fsum(e.weight for e in chosen))


def max_matching_value(g: StochasticGraph | Iterable[tuple[int, int, float]]) -> float:
    """Weight of a maximum-weight matching (cardinality if unweighted)."""
    return max_weight_matching(g).total_weight


def matching_from_indices(g: StochasticGraph, indices: Iterable[int]) -> Matching:
    """Build a Matching object from edge indices of ``g``, validating disjointness."""
    idx = tuple(sorted(set(int(i) for i in indices)))
    for i in idx:
        if not (0 <= i < g.m):
            raise ValueError(f"edge index {i} outside 0..{g.m - 1}")
    edges = tuple(g.edges[i] for i in idx)
    matching = Matching(idx, edges, math.fsum(e.weight for e in edges))
    if not matching.is_valid():
        raise ValueError(f"edge indices {idx} do not form a matching")
    return matching


class CanonicalMatcher:
    """Canonical matchings of edge-subset subgraphs of one graph, cached.

    The maximum matching of a realization depends only on which edges
    survived, so results are kept per queried edge bitmask: one Matching
    per distinct mask passed to :meth:`for_mask` and nothing else, so
    ``cache_size()`` counts distinct queries and memory grows with them,
    not with the subproblems solved.  A query keeps its subproblems for
    that call only and stops at any submask already in the cache, whose
    solver record (value, non-empty) is re-derived from the Matching.
    A caller that queries masks in ascending order therefore finds both
    children of every new mask cached.
    """

    def __init__(self, g: StochasticGraph):
        self.graph = g
        self._cache: dict[int, Matching] = {}
        self._conflict = _conflict_masks([(e.u, e.v) for e in g.edges])
        self._weight = [e.weight for e in g.edges]
        self._all_edges = g.all_edges_mask

    def for_mask(self, edge_mask: int | None = None) -> Matching:
        """Canonical maximum-weight matching of the subgraph with exactly
        the edges of ``edge_mask`` (all edges when None).  Indices in the
        result are the graph's canonical edge indices."""
        mask = self._all_edges if edge_mask is None else edge_mask & self._all_edges
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        indices = _optimum(mask, self._conflict, self._weight, self._cache)
        chosen = tuple(self.graph.edges[i] for i in indices)
        result = Matching(indices, chosen, math.fsum(e.weight for e in chosen))
        self._cache[mask] = result
        return result

    def value_for_mask(self, edge_mask: int | None = None) -> float:
        return self.for_mask(edge_mask).total_weight

    def cache_size(self) -> int:
        return len(self._cache)
