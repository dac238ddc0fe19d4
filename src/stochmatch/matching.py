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
chosen edges, as a recursive search over the edge list would sum them;
the reported ``total_weight`` is the fsum of the member weights.  The
children are smaller masks, so the recurrence runs bottom-up from an
explicit stack and needs no recursion, however many edges there are.
Each call keeps its subproblems for itself; :class:`CanonicalMatcher`
keeps only the answers to queried masks, with their solver sums, and
solves a mask whose two children it holds in one step.
This is exponential in the worst case and intended for the desk-scale
instances this package targets (a few dozen edges per realized set,
far more when the edges are sparse, as on a long path); it is not a
polynomial blossom implementation.

Unweighted graphs carry weight 1.0 on every edge, so maximum weight
coincides with maximum cardinality and needs no separate code path.

Who owns a graph's matcher is decided here, by one private per-call
scope.  ``_per_call_scope()`` opens it around one operation: a pipeline
run, one sweep point (builder plus ratio), or a CLI ``estimate`` or
``check``; an open inside an open scope reuses it.  Inside it
:func:`_scoped_matcher` hands every stage the same
:class:`CanonicalMatcher` for a graph object, so an edge set solved by
the sparsifier rounds is not solved again for q or the ratio, and
``_per_call`` keeps other per-graph values (the exact outcome list) the
same way.  Outside a scope every call builds its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .graph import StochasticGraph

__all__ = [
    "Matching",
    "max_weight_matching",
    "matching_from_indices",
    "CanonicalMatcher",
]


class Matching(NamedTuple):
    """A vertex-disjoint edge set: the answer of one canonical solve.

    Attributes:
        indices: sorted edge indices, relative to the edge order of the
            graph (or edge list) the matching was computed on.
        total_weight: sum of member weights (order-independent, computed
            with math.fsum).
    """

    indices: tuple[int, ...]
    total_weight: float


# The answer for the empty edge set, with its solver sum.
_EMPTY = (Matching((), 0.0), 0.0)


def _conflict_masks(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per edge, the bitmask of the edge itself and every edge sharing an
    endpoint with it: the edges that taking it rules out."""
    at: dict[int, int] = {}
    for i, (u, v) in enumerate(pairs):
        bit = 1 << i
        at[u] = at.get(u, 0) | bit
        at[v] = at.get(v, 0) | bit
    return [at[u] | at[v] for u, v in pairs]


def _optimum(
    mask: int,
    conflict: Sequence[int],
    weight: Sequence[float],
    known: dict[int, tuple[Matching, float]],
) -> tuple[tuple[int, ...], float]:
    """Sorted indices of the canonical optimum over the edges in ``mask``
    (not in ``known``), and the solver's sum of their weights.

    Subproblems are edge sets.  With i the lowest edge of a set S,
    best(S) is the better of skipping i, best(S - {i}), and taking it,
    w_i + best(S - conflict[i]); at equal value i is taken unless the
    skip solution is empty, which is the prefix-first rule.  Both
    children are numerically smaller masks, so a stack of pending
    subproblems replaces recursion.

    Subproblems solved in this call live in ``records`` and are dropped
    on return.  One found in ``known`` (solved masks with their Matching
    and solver sum) is not expanded.  The final walk down the chosen
    branches stops at the first known mask and appends its indices.
    """
    # mask -> (value, took the lowest edge, solution non-empty)
    records: dict[int, tuple[float, bool, bool]] = {0: (0.0, False, False)}

    def cached(sub: int) -> tuple[float, bool, bool] | None:
        # The walk stops at a known mask, so "took" is never read here.
        hit = known.get(sub)
        if hit is None:
            return None
        return hit[1], False, bool(hit[0].indices)

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
            indices.extend(hit[0].indices)
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
    return tuple(indices), records[mask][0]


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
    weight = [w for _, _, w in triples]
    conflict = _conflict_masks([(u, v) for u, v, _ in triples])
    positions, _ = _optimum((1 << len(triples)) - 1, conflict, weight, {})
    return Matching(positions, math.fsum(weight[i] for i in positions))


def matching_from_indices(g: StochasticGraph, indices: Iterable[int]) -> Matching:
    """Build a Matching object from edge indices of ``g``, validating disjointness."""
    idx = tuple(sorted(set(int(i) for i in indices)))
    for i in idx:
        if not (0 <= i < g.m):
            raise ValueError(f"edge index {i} outside 0..{g.m - 1}")
    covered = 0
    for i in idx:
        ends = g.edge_vertex_masks[i]
        if covered & ends:
            raise ValueError(f"edge indices {idx} do not form a matching")
        covered |= ends
    return Matching(idx, math.fsum(g.edges[i].weight for i in idx))


class CanonicalMatcher:
    """Canonical matchings of edge-subset subgraphs of one graph, cached.

    The maximum matching of a realization depends only on which edges
    survived, so results are kept per queried edge bitmask: for each
    distinct mask passed to :meth:`for_mask`, and nothing else, its
    Matching and the solver's right-to-left sum.  ``cache_size()``
    therefore counts distinct queries, memory grows with them and not
    with the subproblems solved, and a repeated query returns the cached
    Matching itself.  A new mask whose two children (the mask without
    its lowest edge i, and the mask without i and its neighbours) are
    both cached is solved in one step from their records; a mask that
    skips i shares its skip child's record.  Any other mask runs the
    stack solver, which stops at every cached submask.  A caller that
    queries masks in ascending order therefore solves each in one step.

    The package's stages take their matcher from :func:`_scoped_matcher`,
    which shares one per graph object for as long as a
    ``_per_call_scope()`` is open and drops it when that scope exits.
    The cache is not kept per process or per graph: it keeps every
    queried mask, so a process-wide one would grow without bound, and a
    graph object reused across operations would make later operations
    start warm.
    """

    def __init__(self, g: StochasticGraph):
        self.graph = g
        self._cache: dict[int, tuple[Matching, float]] = {}
        self._conflict = _conflict_masks([(e.u, e.v) for e in g.edges])
        self._weight = [e.weight for e in g.edges]
        self._all_edges = g.all_edges_mask

    def for_mask(self, edge_mask: int | None = None) -> Matching:
        """Canonical maximum-weight matching of the subgraph with exactly
        the edges of ``edge_mask`` (all edges when None).  Indices in the
        result are the graph's canonical edge indices."""
        mask = self._all_edges if edge_mask is None else edge_mask & self._all_edges
        cache = self._cache
        entry = cache.get(mask)
        if entry is not None:
            return entry[0]
        if not mask:
            entry = _EMPTY
        else:
            low = mask & -mask
            i = low.bit_length() - 1
            skip_mask = mask ^ low
            take_mask = mask & ~self._conflict[i]
            skip = cache.get(skip_mask) if skip_mask else _EMPTY
            take = cache.get(take_mask) if take_mask else _EMPTY
            if skip is not None and take is not None:
                value = self._weight[i] + take[1]
                if value > skip[1] or (value == skip[1] and skip[0].indices):
                    entry = self._record((i, *take[0].indices), value)
                else:
                    entry = skip
            else:
                entry = self._record(*_optimum(mask, self._conflict, self._weight, cache))
        cache[mask] = entry
        return entry[0]

    def _record(self, indices: tuple[int, ...], value: float) -> tuple[Matching, float]:
        weight = self._weight
        return Matching(indices, math.fsum([weight[j] for j in indices])), value

    def cache_size(self) -> int:
        return len(self._cache)


_T = TypeVar("_T")

# id(graph) -> (graph, {key: value}) while a scope is open; the graph is
# held so its id cannot be reused by another object inside the scope.
_SCOPE: ContextVar[dict | None] = ContextVar("stochmatch_per_call_scope", default=None)


@contextmanager
def _per_call_scope() -> Iterator[None]:
    """Share per-graph values until exit; a nested open reuses the outer scope."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _per_call(g: StochasticGraph, key: Hashable, build: Callable[[], _T]) -> _T:
    """``build()`` once per graph object and key in the open scope, or
    on every call when no scope is open."""
    scope = _SCOPE.get()
    if scope is None:
        return build()
    memo = scope.setdefault(id(g), (g, {}))[1]
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _scoped_matcher(g: StochasticGraph) -> CanonicalMatcher:
    """The matcher of ``g`` for the open scope (a fresh one outside any)."""
    return _per_call(g, CanonicalMatcher, lambda: CanonicalMatcher(g))
