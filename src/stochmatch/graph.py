"""Graph types for matching under random vertex and edge failures.

A :class:`StochasticGraph` is a simple undirected graph together with a
vertex survival probability ``p_v`` and an edge survival probability
``p_e``.  In a realization every vertex survives independently with
probability ``p_v``, and every edge whose endpoints both survived is kept
independently with probability ``p_e``; an edge therefore survives with
overall probability ``p_v**2 * p_e``.

Edges are normalized to ``u < v`` and stored sorted by endpoint pair, so
every graph has one canonical edge order.  The rest of the package refers
to edges by their index in that order, and passes edge subsets around as
integer bitmasks over those indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Edge",
    "StochasticGraph",
    "mask_from_indices",
    "indices_from_mask",
    "iter_bits",
]


class Edge(NamedTuple):
    """Undirected edge with endpoints ``u < v`` and a non-negative weight."""

    u: int
    v: int
    weight: float = 1.0


def mask_from_indices(indices: Iterable[int]) -> int:
    """Pack an iterable of non-negative indices into a bitmask."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order.

    Raises:
        ValueError: when ``mask`` is negative; it has infinitely many
            set bits.
    """
    if mask < 0:
        raise ValueError(f"a bitmask must be non-negative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of indices."""
    return tuple(iter_bits(mask))


def _validate_probability(name: str, value: float) -> None:
    # 0 is rejected: the procedures divide by p_v and p_e.
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


@dataclass(frozen=True)
class StochasticGraph:
    """Simple undirected graph with survival probabilities.

    Attributes:
        n: number of vertices; vertices are the integers ``0 .. n-1``.
        edges: canonical edge tuple, each normalized to ``u < v`` and the
            whole tuple sorted by ``(u, v)``.  Construction accepts edges
            in any order/orientation and normalizes them.
        p_v: vertex survival probability in ``(0, 1]``.
        p_e: edge survival probability in ``(0, 1]``.
        weighted: whether edge weights are meaningful.  Unweighted graphs
            must carry weight 1.0 on every edge.
    """

    n: int
    edges: tuple[Edge, ...]
    p_v: float = 1.0
    p_e: float = 1.0
    weighted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"vertex count must be a non-negative int, got {self.n!r}")
        _validate_probability("p_v", self.p_v)
        _validate_probability("p_e", self.p_e)

        normalized = []
        for e in self.edges:
            u, v, w = int(e[0]), int(e[1]), float(e[2]) if len(e) > 2 else 1.0
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < self.n) or not (0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"edge ({u}, {v}) has invalid weight {w!r}")
            if u > v:
                u, v = v, u
            normalized.append(Edge(u, v, w))
        normalized.sort(key=lambda e: (e.u, e.v))
        for a, b in zip(normalized, normalized[1:]):
            if (a.u, a.v) == (b.u, b.v):
                raise ValueError(f"duplicate edge ({a.u}, {a.v})")
        if not self.weighted and any(e.weight != 1.0 for e in normalized):
            raise ValueError("unweighted graph must have weight 1.0 on every edge")
        object.__setattr__(self, "edges", tuple(normalized))

    # -- basic size accessors -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def all_edges_mask(self) -> int:
        """Bitmask with every edge index set."""
        return (1 << self.m) - 1

    # -- cached derived structure ---------------------------------------------

    @cached_property
    def endpoint_array(self) -> np.ndarray:
        """``(m, 2)`` int array of edge endpoints in canonical order."""
        m = self.m
        ends = itertools.chain.from_iterable(e[:2] for e in self.edges)
        return np.fromiter(ends, np.int64, 2 * m).reshape(m, 2)

    @cached_property
    def weight_array(self) -> np.ndarray:
        """``(m,)`` float array of edge weights in canonical order."""
        return np.array([e.weight for e in self.edges], dtype=np.float64)

    @cached_property
    def edge_vertex_masks(self) -> tuple[int, ...]:
        """Per edge, the vertex bitmask ``(1 << u) | (1 << v)``."""
        return tuple((1 << e.u) | (1 << e.v) for e in self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the sorted tuple of incident edge indices."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            lists[e.u].append(i)
            lists[e.v].append(i)
        return tuple(tuple(l) for l in lists)

    @cached_property
    def _index_by_pair(self) -> dict[tuple[int, int], int]:
        return {(e.u, e.v): i for i, e in enumerate(self.edges)}

    # -- queries ---------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``."""
        self._check_vertex(v)
        return len(self.incident[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices adjacent to ``v``."""
        self._check_vertex(v)
        return tuple(e.u if e.v == v else e.v for e in (self.edges[i] for i in self.incident[v]))

    def induced_edges(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """Indices of edges with both endpoints inside ``vertices``."""
        vs = set(vertices)
        for v in vs:
            self._check_vertex(v)
        return tuple(i for i, e in enumerate(self.edges) if e.u in vs and e.v in vs)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u > v:
            u, v = v, u
        return (u, v) in self._index_by_pair

    def edge_index(self, u: int, v: int) -> int:
        """Canonical index of edge ``(u, v)``; raises if absent."""
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v}) in graph")
        if u > v:
            u, v = v, u
        return self._index_by_pair[(u, v)]

    def vertex_sums(self, per_edge: np.ndarray, within: int | None = None) -> np.ndarray:
        """Per vertex, the sum of ``per_edge`` over incident edges.

        ``within`` is an edge bitmask that restricts the sum (all edges
        when None).  Each vertex total is a plain float sum taken in
        canonical edge order, starting from 0.0; a fixed order makes the
        totals, and every budget and cap derived from them, bit-for-bit
        reproducible.
        """
        ends, vals = self.endpoint_array, np.asarray(per_edge, dtype=np.float64)
        if within is not None:
            m = self.m
            raw = (within & self.all_edges_mask).to_bytes((m + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=m, bitorder="little")
            keep = bits.astype(bool)
            ends, vals = ends[keep], vals[keep]
        sums = np.bincount(ends.ravel(), weights=np.repeat(vals, 2), minlength=self.n)
        return sums.astype(np.float64, copy=False)  # bincount of no edges gives ints

    def triples(self) -> list[tuple[int, int, float]]:
        """Plain ``(u, v, weight)`` list in canonical order."""
        return [(e.u, e.v, e.weight) for e in self.edges]

    def with_probabilities(self, p_v: float, p_e: float) -> "StochasticGraph":
        """Same vertices/edges with different survival probabilities."""
        return StochasticGraph(self.n, self.edges, p_v, p_e, self.weighted)
