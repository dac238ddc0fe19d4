"""Graph container: normalization, validation, adjacency queries."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stochmatch.graph import (
    Edge,
    StochasticGraph,
    indices_from_mask,
    iter_bits,
    mask_from_indices,
)


def test_edges_are_normalized_and_sorted():
    g = StochasticGraph(4, [(2, 1), (3, 0), (0, 1)])
    assert [(e.u, e.v) for e in g.edges] == [(0, 1), (0, 3), (1, 2)]
    assert all(e.weight == 1.0 for e in g.edges)
    assert not g.weighted


def test_weighted_flag_and_weights_survive():
    g = StochasticGraph(3, [(1, 0, 2.5), (1, 2, 0.25)], weighted=True)
    assert g.weighted
    assert [e.weight for e in g.edges] == [2.5, 0.25]
    assert list(g.weight_array) == [2.5, 0.25]


@pytest.mark.parametrize(
    "n,edges,weighted",
    [
        (3, [(0, 0)], False),              # self loop
        (3, [(0, 1), (1, 0)], False),      # duplicate after normalization
        (2, [(0, 2)], False),              # endpoint out of range
        (2, [(0, -1)], False),             # negative endpoint
        (-1, [], False),                   # negative n
        (2, [(0, 1, -0.5)], True),         # negative weight
        (2, [(0, 1, math.nan)], True),     # non-finite weight
        (2, [(0, 1, math.inf)], True),     # non-finite weight
        (2, [(0, 1, 2.0)], False),         # unweighted graph with weight != 1
    ],
)
def test_invalid_graphs_rejected(n, edges, weighted):
    with pytest.raises(ValueError):
        StochasticGraph(n, edges, weighted=weighted)


@pytest.mark.parametrize("p_v,p_e", [(0.0, 1.0), (1.0, 0.0), (-0.1, 1.0), (1.0, 1.1)])
def test_invalid_probabilities_rejected(p_v, p_e):
    with pytest.raises(ValueError):
        StochasticGraph(2, [(0, 1)], p_v=p_v, p_e=p_e)


def test_probability_one_is_allowed():
    g = StochasticGraph(2, [(0, 1)], p_v=1.0, p_e=1.0)
    assert g.p_v == g.p_e == 1.0


def test_adjacency_queries():
    g = StochasticGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert g.m == 4
    assert g.degree(0) == 2
    assert g.degree(3) == 1
    assert sorted(g.neighbors(2)) == [0, 1]
    assert g.neighbors(3) == (4,)
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 3)
    assert g.edge_index(2, 1) == 2
    with pytest.raises(ValueError):
        g.edge_index(0, 3)
    with pytest.raises(ValueError):
        g.degree(5)


def test_induced_edges_is_both_endpoints_inside():
    g = StochasticGraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert g.induced_edges([0, 1, 2]) == (0, 1, 2)
    assert g.induced_edges([0, 1, 3]) == (0,)
    assert g.induced_edges([3]) == ()


def test_masks_and_arrays():
    g = StochasticGraph(4, [(0, 1), (2, 3)])
    assert g.all_edges_mask == 0b11
    assert g.edge_vertex_masks == (0b0011, 0b1100)
    assert g.endpoint_array.tolist() == [[0, 1], [2, 3]]


def test_endpoint_array_matches_list_of_tuples_form():
    rng = random.Random(11)
    graphs = [StochasticGraph(0, []), StochasticGraph(5, [])]
    for _ in range(20):
        n = rng.randint(2, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graphs.append(StochasticGraph(n, pairs))
    for g in graphs:
        got = g.endpoint_array
        assert got.dtype == np.int64 and got.shape == (g.m, 2)
        if g.m:
            assert np.array_equal(got, np.array([(e.u, e.v) for e in g.edges], dtype=np.int64))


def test_with_probabilities_keeps_structure():
    g = StochasticGraph(3, [(0, 1, 2.0)], p_v=1.0, p_e=1.0, weighted=True)
    h = g.with_probabilities(0.5, 0.25)
    assert (h.p_v, h.p_e) == (0.5, 0.25)
    assert h.edges == g.edges and h.weighted


def test_triples_round_trip():
    triples = [(0, 1, 1.5), (1, 2, 0.5)]
    g = StochasticGraph(3, triples, weighted=True)
    assert g.triples() == triples


def test_mask_helpers_round_trip():
    assert mask_from_indices([0, 3, 5]) == 0b101001
    assert indices_from_mask(0b101001) == (0, 3, 5)
    assert list(iter_bits(0b1010)) == [1, 3]
    assert indices_from_mask(0) == ()


def test_iter_bits_refuses_a_negative_mask():
    # A negative int has infinitely many set bits.
    with pytest.raises(ValueError, match="non-negative"):
        next(iter_bits(-1))


def test_empty_graph():
    g = StochasticGraph(0, [])
    assert g.n == 0 and g.m == 0 and g.all_edges_mask == 0


def test_edge_accepts_plain_tuples_and_edge_instances():
    g = StochasticGraph(3, [Edge(0, 1, 1.0), (1, 2)])
    assert [(e.u, e.v) for e in g.edges] == [(0, 1), (1, 2)]
