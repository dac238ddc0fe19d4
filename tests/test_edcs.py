"""Bounded-degree subgraph construction, certification, and ratios."""

from __future__ import annotations

import random

import numpy as np
import pytest
from oracles import reference_build_edcs, reference_edcs_violations

from stochmatch.edcs import (
    EdcsParams,
    EdcsSubgraph,
    build_edcs,
    compute_beta,
    edcs_matching_ratio,
    verify_edcs,
)
from stochmatch.estimator import approximation_ratio
from stochmatch.graph import StochasticGraph


def random_graph(rng: random.Random, max_n: int = 8, max_m: int = 14) -> StochasticGraph:
    n = rng.randint(4, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(3, min(max_m, len(pairs)))
    return StochasticGraph(n, sorted(pairs[:m]))


# ----------------------------------------------------------------- parameters


def test_beta_values_for_known_inputs():
    p = compute_beta(0.25, 1.0, 1.0)
    assert (p.beta, p.beta_minus) == (2840, 2839)
    p = compute_beta(0.25, 0.5, 0.5)
    assert (p.beta, p.beta_minus) == (22714, 22713)


def test_beta_grows_with_tighter_accuracy_and_smaller_p():
    base = compute_beta(0.25, 1.0, 1.0).beta
    assert compute_beta(0.1, 1.0, 1.0).beta > base
    assert compute_beta(0.25, 0.5, 1.0).beta > base
    assert compute_beta(0.25, 1.0, 0.5).beta > base
    assert compute_beta(0.25, 1.0, 1.0, c_const=256.0).beta > base


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, p_v=1.0, p_e=1.0),
        dict(epsilon=0.5, p_v=1.0, p_e=1.0),
        dict(epsilon=-0.1, p_v=1.0, p_e=1.0),
        dict(epsilon=0.25, p_v=0.0, p_e=1.0),
        dict(epsilon=0.25, p_v=1.0, p_e=1.5),
        dict(epsilon=0.25, p_v=1.0, p_e=1.0, c_const=0.0),
    ],
)
def test_beta_input_validation(kwargs):
    with pytest.raises(ValueError):
        compute_beta(**kwargs)


def test_params_validation():
    EdcsParams(2, 1, 0.25)  # smallest legal pair
    with pytest.raises(ValueError):
        EdcsParams(3, 3, 0.25)
    with pytest.raises(ValueError):
        EdcsParams(3, 0, 0.25)
    with pytest.raises(ValueError):
        EdcsParams(3, 2, 0.5)
    with pytest.raises(ValueError):
        EdcsParams(3, 2, 0.0)


# -------------------------------------------------------------------- builder


def test_triangle_build_by_hand():
    # beta=3, beta_minus=2 on a triangle: the builder adds (0,1), then
    # (0,2); edge (1,2) now has degree sum 2, not below beta_minus, and
    # no subgraph edge exceeds beta, so that is the fixed point.
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    h = build_edcs(g, EdcsParams(3, 2, 0.25))
    assert h.edge_mask == 0b011
    assert h.edge_indices == (0, 1)
    assert h.fixups == 2
    assert h.size == 2
    assert h.max_degree() == 2
    assert list(h.degrees) == [2, 1, 1]


def test_build_is_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng)
        params = EdcsParams(4, 3, 0.25)
        a = build_edcs(g, params)
        b = build_edcs(g, params)
        assert a.edge_mask == b.edge_mask
        assert a.fixups == b.fixups


def test_build_ignores_edge_input_order():
    edges = [(0, 1), (2, 3), (1, 2), (0, 3), (1, 3)]
    params = EdcsParams(3, 2, 0.25)
    a = build_edcs(StochasticGraph(4, edges), params)
    b = build_edcs(StochasticGraph(4, list(reversed(edges))), params)
    assert a.edge_mask == b.edge_mask


def test_random_builds_are_certified():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng)
        beta = rng.choice([3, 4, 5, 7])
        h = build_edcs(g, EdcsParams(beta, beta - 1, 0.25))
        assert verify_edcs(g, h) == []
        # every subgraph edge has degree sum <= beta, so no endpoint of
        # a subgraph edge can itself exceed beta - 1
        assert h.max_degree() <= beta - 1
        # the builder starts empty, so every kept edge cost one fix-up
        assert h.fixups >= h.size


def test_large_beta_keeps_every_edge():
    g = StochasticGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    h = build_edcs(g, EdcsParams(100, 99, 0.25))
    assert h.edge_mask == g.all_edges_mask
    assert h.fixups == g.m
    assert edcs_matching_ratio(g, h) == 1.0


def test_fixup_cap_raises():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(RuntimeError):
        build_edcs(g, EdcsParams(3, 2, 0.25), max_fixups=1)


def equivalence_cases(count: int = 300, seed: int = 2015):
    """Seeded (graph, params) pairs: n <= 25 at random densities, some
    vertices isolated, every tenth graph edgeless, edges handed to the
    constructor shuffled and in either orientation, and bound pairs
    with every gap from 1 to beta - 1."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(0, 25)
        isolated = set(rng.sample(range(n), rng.randint(0, n // 3)))
        density = rng.random()
        pairs = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n) for v in range(u + 1, n)
            if u not in isolated and v not in isolated and rng.random() < density
        ]
        if k % 10 == 0:
            pairs = []
        rng.shuffle(pairs)
        beta = rng.randint(2, 12)
        yield StochasticGraph(n, pairs), EdcsParams(beta, rng.randint(1, beta - 1), 0.25)


def test_builder_matches_full_rescan_reference():
    seen = {"edgeless": 0, "isolated": 0, "wide_gap": 0, "removals": 0}
    for g, params in equivalence_cases():
        h = build_edcs(g, params)
        want = reference_build_edcs(g.n, g.edges, params.beta, params.beta_minus)
        assert (h.edge_mask, h.fixups) == want, (g, params)
        seen["edgeless"] += g.m == 0
        seen["isolated"] += g.m > 0 and any(not inc for inc in g.incident)
        seen["wide_gap"] += g.m > 0 and params.beta - params.beta_minus > 1
        seen["removals"] += h.fixups > h.size
    assert min(seen.values()) >= 10, seen


def test_fixup_limit_boundary():
    checked = 0
    for g, params in equivalence_cases(count=40, seed=2019):
        f = build_edcs(g, params).fixups
        if f == 0:
            continue
        assert build_edcs(g, params, max_fixups=f).fixups == f
        with pytest.raises(RuntimeError):
            build_edcs(g, params, max_fixups=f - 1)
        with pytest.raises(RuntimeError):
            reference_build_edcs(g.n, g.edges, params.beta, params.beta_minus, max_fixups=f - 1)
        checked += 1
    assert checked >= 20


# -------------------------------------------------------------- certification


def test_verify_detects_planted_upper_violations():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    full = EdcsSubgraph(g, EdcsParams(3, 2, 0.25), g.all_edges_mask)
    assert verify_edcs(g, full) == [("upper", 0, 4), ("upper", 1, 4), ("upper", 2, 4)]


def test_verify_detects_planted_lower_violations():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    empty = EdcsSubgraph(g, EdcsParams(3, 2, 0.25), 0)
    assert verify_edcs(g, empty) == [("lower", 0, 0), ("lower", 1, 0), ("lower", 2, 0)]


def test_verify_and_degrees_match_loop_reference():
    # arbitrary edge subsets plant violations on both sides
    rng = random.Random(8)
    kinds = set()
    for _ in range(200):
        g = random_graph(rng, max_n=12, max_m=30)
        mask = rng.getrandbits(g.m)
        beta = rng.randint(2, 8)
        params = EdcsParams(beta, rng.randint(1, beta - 1), 0.25)
        h = EdcsSubgraph(g, params, mask)
        deg, want = reference_edcs_violations(g.n, g.edges, mask, params.beta, params.beta_minus)
        assert h.degrees.dtype == np.int64
        assert h.degrees.tolist() == deg
        got = verify_edcs(g, h)
        assert got == want
        assert all(type(i) is int and type(s) is int for _, i, s in got)
        kinds.update(side for side, _, _ in got)
    assert kinds == {"upper", "lower"}
    edgeless = StochasticGraph(3, [])
    h = EdcsSubgraph(edgeless, EdcsParams(3, 2, 0.25), 0)
    assert h.degrees.tolist() == [0, 0, 0]
    assert verify_edcs(edgeless, h) == []


def test_verify_rejects_foreign_graph():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    other = StochasticGraph(3, [(0, 1), (1, 2)])
    h = build_edcs(g, EdcsParams(3, 2, 0.25))
    with pytest.raises(ValueError):
        verify_edcs(other, h)


# --------------------------------------------------------------------- ratios


def test_matching_ratio_floor_on_sweep():
    # Small degree bounds already preserve two thirds of the matching on
    # every instance in this sweep; the floor is attained exactly.
    rng = random.Random(5)
    worst = 1.0
    for _ in range(200):
        g = random_graph(rng)
        beta = rng.choice([3, 4, 5, 7])
        r = edcs_matching_ratio(g, build_edcs(g, EdcsParams(beta, beta - 1, 0.25)))
        assert r <= 1.0 + 1e-12
        worst = min(worst, r)
    assert worst >= 2.0 / 3.0 - 1e-12


def test_matching_ratio_edgeless_graph_is_one():
    g = StochasticGraph(4, [])
    assert edcs_matching_ratio(g, build_edcs(g, EdcsParams(3, 2, 0.25))) == 1.0


def test_stochastic_ratio_full_subgraph_is_exactly_one():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.8, p_e=0.7)
    h = build_edcs(g, EdcsParams(100, 99, 0.25))
    est = approximation_ratio(g, h.edge_mask, mode="exact")
    assert est.value == 1.0
    assert est.ci == 0.0
    assert est.mode == "exact"
