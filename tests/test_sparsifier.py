"""Sparsifier parameters, round sampling, and edge classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochmatch.graph import StochasticGraph, mask_from_indices
from stochmatch.matching import CanonicalMatcher, max_weight_matching
from stochmatch.realization import RngSeed
from stochmatch.sparsifier import (
    Sparsifier,
    SparsifierParams,
    build_sparsifier,
    classify_edges,
    compute_params,
)


# Frozen values recomputed independently from the formulas:
#   R = ceil(2000 ln(1/e) ln(1/(e pv^2 pe)) / (e^4 pv^2 pe))
#   tau = e^3 pv^2 pe / (20 ln(1/e))
R_01_08_05 = 495_346_407
TAU_01_08_05 = 6.948711710452031e-06
R_02_1_1 = 3_237_863
TAU_02_1_1 = 0.0002485339738238448


def test_compute_params_frozen_values():
    p = compute_params(0.1, 0.8, 0.5)
    assert p.rounds_formula == R_01_08_05
    assert p.rounds == R_01_08_05
    assert p.tau == TAU_01_08_05
    assert p.r_cap is None

    p2 = compute_params(0.2, 1.0, 1.0)
    assert p2.rounds_formula == R_02_1_1
    assert p2.tau == TAU_02_1_1


def test_compute_params_cap_clamps_rounds():
    p = compute_params(0.2, 1.0, 1.0, r_cap=500)
    assert p.rounds == 500
    assert p.rounds_formula == R_02_1_1
    assert p.r_cap == 500
    # cap larger than the formula changes nothing
    q = compute_params(0.2, 1.0, 1.0, r_cap=10**9)
    assert q.rounds == R_02_1_1


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_compute_params_epsilon_range(eps):
    with pytest.raises(ValueError):
        compute_params(eps, 1.0, 1.0)


def test_compute_params_rejects_threshold_of_one_or_more():
    # Near eps -> 1 the threshold formula leaves (0, 1); refuse loudly.
    with pytest.raises(ValueError):
        compute_params(0.999, 1.0, 1.0)


def test_params_validation():
    SparsifierParams(0.2, 100, 0.01, 100)
    SparsifierParams(0.2, 100, 0.01, 10**9, r_cap=100)
    with pytest.raises(ValueError):
        SparsifierParams(0.2, 100, 0.01, 99)  # rounds != formula with no cap
    with pytest.raises(ValueError):
        SparsifierParams(0.2, 0, 0.01, 0)
    with pytest.raises(ValueError):
        SparsifierParams(0.2, 100, 0.0, 100)


def test_deterministic_graph_yields_canonical_matching():
    # p = 1: every round realizes the whole graph, so Q is exactly the
    # canonical maximum matching and every Q edge appears in all rounds.
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    params = SparsifierParams(0.2, 10, TAU_02_1_1, R_02_1_1, r_cap=10)
    s = build_sparsifier(g, params, RngSeed(0))
    expect = max_weight_matching(g)
    assert s.edge_mask == mask_from_indices(expect.indices)
    assert all(s.counts[i] == 10 for i in expect.indices)
    assert s.subgraph_max_degree() <= 1


def test_empty_graph_yields_empty_sparsifier():
    g = StochasticGraph(3, [], p_v=0.5)
    params = SparsifierParams(0.2, 5, 0.01, 5, r_cap=5)
    s = build_sparsifier(g, params, RngSeed(1))
    assert s.edge_mask == 0 and s.size == 0


def test_build_is_deterministic_in_seed():
    g = StochasticGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)], p_v=0.6, p_e=0.6)
    params = SparsifierParams(0.2, 50, 0.01, 50, r_cap=50)
    a = build_sparsifier(g, params, RngSeed(5))
    b = build_sparsifier(g, params, RngSeed(5))
    c = build_sparsifier(g, params, RngSeed(5, stream=1))
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_frequencies_estimate_matching_probabilities():
    # P3 at p_v = 0.5, p_e = 1: q = (0.25, 0.125) by hand enumeration.
    g = StochasticGraph(3, [(0, 1), (1, 2)], p_v=0.5, p_e=1.0)
    rounds = 4000
    params = SparsifierParams(0.2, rounds, 0.01, rounds, r_cap=rounds)
    s = build_sparsifier(g, params, RngSeed(17))
    for q_e, f_e in zip((0.25, 0.125), s.f):
        sd = math.sqrt(q_e * (1 - q_e) / rounds)
        assert abs(f_e - q_e) < 4 * sd


def test_capture_probability_over_repeated_builds():
    # Single edge, q = 0.25, R = 10: P(e in Q) = 1 - 0.75^10.
    g = StochasticGraph(2, [(0, 1)], p_v=0.5, p_e=1.0)
    rounds = 10
    params = SparsifierParams(0.2, rounds, 0.01, rounds, r_cap=rounds)
    reps = 2000
    hits = sum(
        build_sparsifier(g, params, RngSeed(100, stream=k)).edge_mask & 1
        for k in range(reps)
    )
    capture = 1.0 - 0.75**rounds
    sd = math.sqrt(capture * (1 - capture) / reps)
    assert abs(hits / reps - capture) < 3 * sd


def test_counts_validation_and_f():
    g = StochasticGraph(2, [(0, 1)])
    params = SparsifierParams(0.2, 4, 0.01, 4, r_cap=4)
    s = Sparsifier(g, params, np.array([3], dtype=np.int64))
    assert s.f.tolist() == [0.75]
    assert s.edge_mask == 1
    with pytest.raises(ValueError):
        Sparsifier(g, params, np.array([5], dtype=np.int64))
    with pytest.raises(ValueError):
        Sparsifier(g, params, np.array([-1], dtype=np.int64))


def test_matcher_for_wrong_graph_is_rejected():
    g = StochasticGraph(2, [(0, 1)])
    other = StochasticGraph(3, [(0, 1), (1, 2)])
    params = SparsifierParams(0.2, 2, 0.01, 2, r_cap=2)
    with pytest.raises(ValueError):
        build_sparsifier(g, params, RngSeed(0), matcher=CanonicalMatcher(other))


def test_classify_edges_boundary_is_crucial():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.9)
    params = SparsifierParams(0.2, 3, 0.125, 3, r_cap=3)
    s = Sparsifier(g, params, np.array([3, 1, 0], dtype=np.int64))
    crucial, non_crucial = classify_edges(s, [0.5, 0.125, 0.1249999])
    assert crucial == 0b011        # boundary q == tau lands crucial
    assert non_crucial == 0b100
    assert crucial | non_crucial == g.all_edges_mask
    assert crucial & non_crucial == 0


def test_classification_partitions_all_edges_even_outside_q():
    # Edges never captured by Q still belong to exactly one class.
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    params = SparsifierParams(0.2, 2, 0.5, 2, r_cap=2)
    s = Sparsifier(g, params, np.array([2, 0], dtype=np.int64))
    crucial, non_crucial = classify_edges(s, [0.9, 0.1])
    assert crucial == 0b01 and non_crucial == 0b10
