"""The per-vertex sum routine against the loops it replaced."""

from __future__ import annotations

import random

import numpy as np
from oracles import (
    random_test_graph,
    reference_degrees,
    reference_enforce_vertex_budgets,
    reference_loads,
    reference_non_crucial_x,
    reference_vertex_sums,
)

from stochmatch.edcs import EdcsParams, EdcsSubgraph
from stochmatch.fractional import (
    EdgeStats,
    FractionalMatching,
    _enforce_vertex_budgets,
    non_crucial_procedure,
)
from stochmatch.graph import StochasticGraph, mask_from_indices
from stochmatch.realization import Realization
from stochmatch.sparsifier import Sparsifier, SparsifierParams

GRAPHS = 240


def hexes(a):
    return [float(v).hex() for v in a]


def random_matching_mask(rng, g):
    order = list(range(g.m))
    rng.shuffle(order)
    used, chosen = set(), []
    for i in order:
        e = g.edges[i]
        if e.u not in used and e.v not in used and rng.random() < 0.7:
            used |= {e.u, e.v}
            chosen.append(i)
    return mask_from_indices(chosen)


def seeded_graphs():
    """Seeded graphs: unit, dyadic and uniform weights, some isolated
    vertices, some without edges, and the empty graph."""
    rng = random.Random(1309)
    yield rng, StochasticGraph(0, [])
    yield rng, StochasticGraph(4, [])
    for k in range(GRAPHS):
        kind = k % 3
        n, edges = random_test_graph(
            rng, max_n=9, max_m=18, weighted=kind > 0, dyadic=kind == 1
        )
        yield rng, StochasticGraph(n + rng.randint(0, 2), edges, weighted=kind > 0)


def within_choices(rng, g):
    return [None, 0, g.all_edges_mask, rng.getrandbits(g.m + 3)]


def test_vertex_sums_match_the_edge_loop_bit_for_bit():
    seen = {"no edges": 0, "isolated vertex": 0}
    for rng, g in seeded_graphs():
        seen["no edges"] += g.m == 0
        seen["isolated vertex"] += any(not inc for inc in g.incident)
        q = np.array([rng.random() for _ in range(g.m)])
        stats = EdgeStats(g, q, "exact")
        for within in within_choices(rng, g):
            got = g.vertex_sums(q, within)
            assert got.dtype == np.float64 and got.shape == (g.n,)
            assert hexes(got) == hexes(reference_vertex_sums(g, q, within))
            assert hexes(stats.vertex_q_array(within)) == hexes(got)
            phi = g.weight_array * q
            assert hexes(stats.vertex_phi_array(within)) == hexes(
                reference_vertex_sums(g, phi, within)
            )
    assert seen["no edges"] >= 2 and seen["isolated vertex"] >= 20


def test_loads_and_budget_step_match_the_replaced_loops():
    clipped = 0
    for rng, g in seeded_graphs():
        x = np.array([rng.choice([0.0, rng.uniform(0.0, 0.9)]) for _ in range(g.m)])
        fixed = random_matching_mask(rng, g)
        for i in range(g.m):
            if fixed >> i & 1:
                x[i] = rng.uniform(0.0, 1.2)
        fm = FractionalMatching(g, x.copy())
        loads = fm.loads()
        assert hexes(loads) == hexes(reference_vertex_sums(g, x))
        assert np.allclose(loads, reference_loads(g, x), rtol=0.0, atol=1e-12)
        expected = reference_enforce_vertex_budgets(g, x, fixed, loads)
        _enforce_vertex_budgets(fm, fixed)
        assert hexes(fm.x) == hexes(expected)
        clipped += not np.array_equal(fm.x, x)
    assert clipped >= 50


def test_subgraph_degrees_match_the_edge_loop():
    for rng, g in seeded_graphs():
        for mask in within_choices(rng, g)[1:]:
            mask &= g.all_edges_mask
            deg = reference_degrees(g, mask)
            h = EdcsSubgraph(g, EdcsParams(4, 3, 0.25, 1.0), mask)
            assert h.degrees.dtype == np.int64 and h.degrees.tolist() == deg
            counts = np.array([2 * (mask >> i & 1) for i in range(g.m)], dtype=np.int64)
            s = Sparsifier(g, SparsifierParams(0.25, 2, 0.5, 2), counts)
            assert s.subgraph_max_degree() == max(deg, default=0)


def test_non_crucial_stage_matches_the_fsum_loop():
    # The reference sums x~_v with fsum and the package in edge order, so
    # x may differ in its last bits; its zero pattern may not.
    for rng, g in seeded_graphs():
        g = g.with_probabilities(rng.choice([0.5, 0.8, 1.0]), rng.choice([0.6, 1.0]))
        rounds = 20
        counts = np.array([rng.randint(0, rounds) for _ in range(g.m)], dtype=np.int64)
        s = Sparsifier(g, SparsifierParams(0.2, rounds, rng.choice([0.1, 0.3]), rounds), counts)
        stats = EdgeStats(g, np.array([rng.random() for _ in range(g.m)]), "exact")
        non_crucial = rng.getrandbits(g.m)
        realized = Realization((1 << g.n) - 1, rng.getrandbits(g.m))
        got = non_crucial_procedure(s, stats, non_crucial, realized).x
        expected = reference_non_crucial_x(s, stats, non_crucial, realized)
        assert np.array_equal(got == 0.0, expected == 0.0)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
