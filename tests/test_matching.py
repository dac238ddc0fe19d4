"""Matching engine vs the brute-force oracle, plus tie-break stability."""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochmatch import matching
from stochmatch.graph import StochasticGraph
from stochmatch.matching import (
    CanonicalMatcher,
    Matching,
    matching_from_indices,
    max_weight_matching,
)

from oracles import (
    brute_force_max_weight,
    matched_vertices,
    random_test_graph,
    reference_canonical_matching,
)


def small_graph_strategy(weighted: bool):
    """Graphs with n <= 6 and <= 8 edges, dyadic weights for exact sums."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
        chosen.sort()  # canonical order so oracle indices line up with the graph's
        if weighted:
            edges = [
                (u, v, draw(st.integers(min_value=0, max_value=64)) / 64.0)
                for u, v in chosen
            ]
        else:
            edges = [(u, v, 1.0) for u, v in chosen]
        return n, edges
    return build()


@given(small_graph_strategy(weighted=True))
@settings(max_examples=300, deadline=None)
def test_engine_matches_oracle_weighted(data):
    n, edges = data
    indices, weight = brute_force_max_weight(n, edges)
    g = StochasticGraph(n, edges, weighted=True)
    got = max_weight_matching(g)
    assert got.total_weight == weight
    assert got.indices == indices


@given(small_graph_strategy(weighted=False))
@settings(max_examples=200, deadline=None)
def test_engine_matches_oracle_unweighted(data):
    n, edges = data
    _, weight = brute_force_max_weight(n, edges)
    g = StochasticGraph(n, edges)
    assert max_weight_matching(g).total_weight == weight


def test_triples_input_equivalent_to_graph_input():
    triples = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    g = StochasticGraph(4, triples, weighted=True)
    assert max_weight_matching(g).indices == max_weight_matching(triples).indices


def test_tie_break_prefers_lexicographically_smallest_indices():
    # Path v0-v1-v2 of unit edges: {0} and {1} both weigh 1; pick edge 0.
    assert max_weight_matching([(0, 1, 1.0), (1, 2, 1.0)]).indices == (0,)
    # Unit square: {0,3} vs {1,2} both weigh 2; (0,3) < (1,2).
    square = [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    assert max_weight_matching(square).indices == (0, 3)
    # Disjoint edges all enter regardless of weight.
    got = max_weight_matching([(0, 1, 2.0), (2, 3, 1.0), (4, 5, 1.0)])
    assert got.total_weight == 4.0 and got.indices == (0, 1, 2)


def test_zero_weight_edges_never_enter_the_matching():
    got = max_weight_matching([(0, 1, 0.0), (2, 3, 0.0)])
    assert got.indices == () and got.total_weight == 0.0


def test_matching_is_stable_across_runs_and_input_permutation():
    rng = random.Random(7)
    for _ in range(50):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, weighted=True)
        base = max_weight_matching(g)
        again = max_weight_matching(StochasticGraph(n, edges, weighted=True))
        assert again.indices == base.indices
        shuffled = edges[:]
        rng.shuffle(shuffled)
        # Same canonical graph regardless of input edge order.
        assert max_weight_matching(StochasticGraph(n, shuffled, weighted=True)).indices == base.indices


def test_matcher_mask_restriction_equals_subgraph_matching():
    rng = random.Random(13)
    for _ in range(30):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, weighted=True)
        matcher = CanonicalMatcher(g)
        mask = rng.getrandbits(len(edges)) if edges else 0
        kept = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        _, expect = brute_force_max_weight(n, kept)
        assert matcher.for_mask(mask).total_weight == expect


def test_matcher_caches_by_mask():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)])
    matcher = CanonicalMatcher(g)
    matcher.for_mask(0b101)
    matcher.for_mask(0b101)
    matcher.for_mask(None)
    assert matcher.cache_size() == 2


def test_matching_value_monotone_in_edge_set():
    rng = random.Random(3)
    for _ in range(30):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, weighted=True)
        matcher = CanonicalMatcher(g)
        full = rng.getrandbits(len(edges)) if edges else 0
        sub = full & (rng.getrandbits(len(edges)) if edges else 0)
        assert matcher.for_mask(sub).total_weight <= matcher.for_mask(full).total_weight


def test_matching_from_indices_validates_disjointness():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)])
    m = matching_from_indices(g, [0, 2])
    assert len(m.indices) == 2 and matched_vertices(g.edges, m.indices) == frozenset({0, 1, 2, 3})
    with pytest.raises(ValueError):
        matching_from_indices(g, [0, 1])


def test_total_weight_is_fsum_of_members():
    edges = [(0, 1, 0.1), (2, 3, 0.2), (4, 5, 0.3)]
    got = max_weight_matching(edges)
    assert got.total_weight == math.fsum([0.1, 0.2, 0.3])


# ------------------------------------------- mask solver vs memoized search


def mask_solver_cases(count: int = 300, seed: int = 2022):
    """Seeded weighted graphs: n <= 12, edges kept at random densities
    (at most 16), some vertices isolated, every tenth graph edgeless,
    and weights drawn per graph from {1}, {0, 1, 2} (ties and zeros),
    multiples of 1/4 with zeros, or uniform floats."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(0, 12)
        isolated = set(rng.sample(range(n), rng.randint(0, n // 3)))
        density = rng.random()
        pairs = [
            (u, v)
            for u in range(n) for v in range(u + 1, n)
            if u not in isolated and v not in isolated and rng.random() < density
        ]
        rng.shuffle(pairs)
        pairs = [] if k % 10 == 0 else pairs[:16]
        kind = k % 4
        if kind == 0:
            draw = lambda: 1.0
        elif kind == 1:
            draw = lambda: float(rng.randint(0, 2))
        elif kind == 2:
            draw = lambda: rng.randint(0, 8) / 4.0
        else:
            draw = lambda: rng.uniform(0.1, 10.0)
        yield StochasticGraph(n, [(u, v, draw()) for u, v in pairs], weighted=True)


def _query_masks(rng: random.Random, m: int) -> list[int]:
    """Every edge subset for small m; otherwise random masks, each with a
    chain of random submasks, so later queries contain earlier ones."""
    if m <= 7:
        return list(range(1 << m))
    masks = {0}
    while len(masks) < 60:
        mask = rng.getrandbits(m)
        while mask:
            masks.add(mask)
            mask &= rng.getrandbits(m)
    return sorted(masks)


def _reference_for_mask(g: StochasticGraph, mask: int) -> tuple[tuple[int, ...], str]:
    alive = [i for i in range(g.m) if mask >> i & 1]
    positions = reference_canonical_matching([tuple(g.edges[i]) for i in alive])
    chosen = [alive[p] for p in positions]
    return tuple(chosen), math.fsum(g.edges[i].weight for i in chosen).hex()


def test_mask_solver_matches_memoized_search_reference():
    rng = random.Random(5)
    seen = {"edgeless": 0, "isolated": 0, "ties": 0, "zero_weights": 0, "many_edges": 0}
    for g in mask_solver_cases():
        masks = _query_masks(rng, g.m)
        want = {mask: _reference_for_mask(g, mask) for mask in masks}
        shuffled = masks[:]
        rng.shuffle(shuffled)
        for order in (masks, masks[::-1], shuffled):
            matcher = CanonicalMatcher(g)
            for mask in order:
                got = matcher.for_mask(mask)
                assert (got.indices, got.total_weight.hex()) == want[mask], (g, mask)
            assert matcher.cache_size() == len(masks)

        triples = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
        rng.shuffle(triples)
        got = max_weight_matching(triples)
        positions = reference_canonical_matching(triples)
        assert got.indices == positions
        assert got.total_weight.hex() == math.fsum(triples[p][2] for p in positions).hex()

        weights = [e.weight for e in g.edges]
        seen["edgeless"] += g.m == 0
        seen["isolated"] += g.m > 0 and any(not inc for inc in g.incident)
        seen["ties"] += len(set(weights)) < len(weights)
        seen["zero_weights"] += 0.0 in weights
        seen["many_edges"] += g.m > 7
    assert min(seen.values()) >= 10, seen


@st.composite
def matcher_query_cases(draw):
    """A graph with m <= 12 whose weights repeat and include zeros and
    values whose sums round, a mask, and chains of random submasks."""
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))) if pairs else []
    weight = st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.2, 0.7, 1 / 3])
    g = StochasticGraph(n, [(u, v, draw(weight)) for u, v in chosen], weighted=True)
    mask = draw(st.integers(min_value=0, max_value=g.all_edges_mask))
    chains = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        sub, chain = mask, []
        while sub:
            sub &= draw(st.integers(min_value=0, max_value=mask))
            chain.append(sub)
        chains.append(chain)
    return g, mask, chains


@given(matcher_query_cases())
# Submask 0b1110 is solved in one step, and 0.1 + fsum([0.2, 0.7]) falls
# one ulp short of fsum([0.1, 0.2, 0.7]).
@example((StochasticGraph(8, [(0, 1, 1.0), (2, 3, 0.1), (4, 5, 0.2), (6, 7, 0.7)], weighted=True),
          0b1111, []))
@settings(max_examples=200, deadline=None)
def test_matcher_one_step_and_stack_solves_match_reference(case):
    g, mask, chains = case
    matcher = CanonicalMatcher(g)
    conflict = matching._conflict_masks([e[:2] for e in g.edges])
    answers: dict[int, Matching] = {}
    stack_solves = []

    def query(q: int) -> None:
        """for_mask(q), checked; records whether the stack solver ran."""
        low = q & -q
        i = low.bit_length() - 1
        one_step = all(c == 0 or c in answers for c in (q ^ low, q & ~conflict[i])) if q else True
        with mock.patch.object(matching, "_optimum", wraps=matching._optimum) as solver:
            got = matcher.for_mask(q)
        if q in answers:
            assert got is answers[q]
        else:
            assert solver.call_count == (0 if one_step else 1), q
            stack_solves.append(solver.call_count)
            assert (got.indices, got.total_weight.hex()) == _reference_for_mask(g, q), (g, q)
            answers[q] = got
        assert matcher.cache_size() == len(answers)

    # Sparse chains first: a query whose child was never asked takes the
    # stack solver, which stops at the cached submasks.
    query(mask)
    for chain in chains:
        for q in chain:
            query(q)
    # Then every submask in ascending order: both children of each are
    # asked before it, so no query after the first runs the stack solver.
    before = len(stack_solves)
    sub = 0
    while True:
        query(sub)
        query(sub)
        if sub == mask:
            break
        sub = (sub - mask) & mask
    assert sum(stack_solves[before:]) == 0


def test_long_path_solves_without_recursion_error():
    # A search that recurses once per edge overflows the interpreter stack
    # long before 2000 edges.
    g = StochasticGraph(2001, [(i, i + 1) for i in range(2000)])
    got = CanonicalMatcher(g).for_mask(None)
    assert len(got.indices) == 1000 and got.indices == tuple(range(0, 2000, 2))
    assert got.total_weight == 1000.0
    assert max_weight_matching([(i, i + 1, 1.0) for i in range(2000)]).indices == got.indices
