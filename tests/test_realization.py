"""Realization sampling and enumeration against the outcome oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from stochmatch import realization
from stochmatch.errors import BudgetExceededError
from stochmatch.graph import StochasticGraph
from stochmatch.realization import (
    EXPERIMENT_DRAWS,
    SPARSIFIER_DRAWS,
    Realization,
    RngSeed,
    _sample_masks,
    edge_mask_distribution,
    sample_realization,
)

from oracles import enumerate_outcomes


def test_rngseed_validation():
    RngSeed(0)
    RngSeed(2**64 - 1, stream=2**64 - 1)
    for bad in (-1, 2**64, 1.5):
        with pytest.raises(ValueError):
            RngSeed(bad)
    with pytest.raises(ValueError):
        RngSeed(0, stream=-3)


def test_generators_are_reproducible_and_separated():
    seed = RngSeed(123, stream=4)
    a = seed.generator(EXPERIMENT_DRAWS, 0).random(8)
    b = seed.generator(EXPERIMENT_DRAWS, 0).random(8)
    assert (a == b).all()
    c = seed.generator(EXPERIMENT_DRAWS, 1).random(8)
    d = seed.generator(SPARSIFIER_DRAWS, 0).random(8)
    e = seed.with_stream(5).generator(EXPERIMENT_DRAWS, 0).random(8)
    assert not (a == c).all() and not (a == d).all() and not (a == e).all()


def test_sample_realization_is_deterministic_per_index():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.6, p_e=0.7)
    seed = RngSeed(9)
    r1 = sample_realization(g, seed, index=3)
    r2 = sample_realization(g, seed, index=3)
    assert r1 == r2
    # index separation: over many indices the draws cannot all coincide
    draws = {sample_realization(g, seed, index=i) for i in range(20)}
    assert len(draws) > 1


def test_sampled_realizations_are_consistent():
    g = StochasticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], p_v=0.5, p_e=0.5)
    seed = RngSeed(2)
    for i in range(200):
        r = sample_realization(g, seed, index=i)
        assert r.is_consistent(g)


def test_survival_rates_single_edge():
    # vertex rate = p_v, edge rate = p_v^2 p_e; 4 sigma bands, fixed seed.
    g = StochasticGraph(2, [(0, 1)], p_v=0.5, p_e=0.8)
    seed = RngSeed(31)
    trials = 20000
    v_hits = 0
    e_hits = 0
    for i in range(trials):
        r = sample_realization(g, seed, index=i)
        v_hits += r.has_vertex(0)
        e_hits += r.has_edge(0)
    p_edge = 0.5 * 0.5 * 0.8
    sd_v = math.sqrt(0.5 * 0.5 / trials)
    sd_e = math.sqrt(p_edge * (1 - p_edge) / trials)
    assert abs(v_hits / trials - 0.5) < 4 * sd_v
    assert abs(e_hits / trials - p_edge) < 4 * sd_e


def _per_sample_masks(g, gen, count):
    """The sampler's per-draw definition: n vertex uniforms, then m edge
    uniforms, each bit set one at a time."""
    out = []
    for _ in range(count):
        vbits = gen.random(g.n) < g.p_v
        ebits = gen.random(g.m) < g.p_e
        for i, e in enumerate(g.edges):
            ebits[i] &= vbits[e.u] and vbits[e.v]
        vmask = 0
        for i in np.flatnonzero(vbits):
            vmask |= 1 << int(i)
        emask = 0
        for i in np.flatnonzero(ebits):
            emask |= 1 << int(i)
        out.append((vmask, emask))
    return out


def _cycle(n):
    return StochasticGraph(n, [(i, (i + 1) % n) for i in range(n)], p_v=0.8, p_e=0.7)


@pytest.mark.parametrize(
    "g, count, chunk",
    [
        (StochasticGraph(5, [], p_v=0.5), 9, None),  # m = 0
        (StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.6, p_e=0.5), 40, None),  # n+m = 7
        (_cycle(70), 12, None),  # 70 edges: masks span several bytes
        (_cycle(13), 10, 3 * 26 + 5),  # 3 draws of 26 uniforms a chunk: 3 + 3 + 3 + 1
    ],
)
def test_batched_sampler_matches_per_sample_draws(g, count, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(realization, "_CHUNK_UNIFORMS", chunk)
    seed = RngSeed(5, stream=3)
    gen, ref_gen = seed.generator(SPARSIFIER_DRAWS, 2), seed.generator(SPARSIFIER_DRAWS, 2)
    vmasks, emasks = _sample_masks(g, gen, count)
    want = _per_sample_masks(g, ref_gen, count)
    assert list(zip(vmasks, emasks)) == want
    assert all(Realization(v, e).is_consistent(g) for v, e in want)
    # A caller-supplied generator is left where the single draws leave it.
    assert gen.random() == ref_gen.random()


def test_enumeration_matches_oracle_distribution():
    # Outcomes marginalized over vertex sets: the pendant edge (2, 3) makes
    # several vertex sets share one edge set.
    triples = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]  # canonical order
    g = StochasticGraph(4, triples, p_v=0.7, p_e=0.4)
    terms = {}
    for _, eset, prob in enumerate_outcomes(4, triples, 0.7, 0.4):
        terms.setdefault(sum(1 << i for i in eset), []).append(prob)
    want = {mask: math.fsum(t) for mask, t in terms.items()}
    dist = edge_mask_distribution(g)
    assert set(dist) == set(want)
    for mask, prob in dist.items():
        assert prob == pytest.approx(want[mask], abs=1e-15)
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_includes_probability_one_graph():
    g = StochasticGraph(2, [(0, 1)], p_v=1.0, p_e=1.0)
    live = {mask: p for mask, p in edge_mask_distribution(g).items() if p > 0}
    assert live == {1: 1.0}


def test_enumeration_budget_refusal():
    g = StochasticGraph(30, [(i, i + 1) for i in range(29)], p_v=0.5)
    with pytest.raises(BudgetExceededError):
        edge_mask_distribution(g, budget_bits=22)


def test_sampler_agrees_with_enumerator_chi_squared():
    # Frequencies over all outcomes of a P3 vs their exact probabilities.
    triples = [(0, 1, 1.0), (1, 2, 1.0)]
    g = StochasticGraph(3, triples, p_v=0.6, p_e=0.5)
    exact = {}
    for vset, eset, p in enumerate_outcomes(3, triples, 0.6, 0.5):
        exact[(sum(1 << v for v in vset), sum(1 << i for i in eset))] = p
    seed = RngSeed(77)
    trials = 30000
    counts = {k: 0 for k in exact}
    for i in range(trials):
        r = sample_realization(g, seed, index=i)
        counts[(r.vertex_mask, r.edge_mask)] += 1
    chi2 = sum(
        (counts[k] - trials * p) ** 2 / (trials * p) for k, p in exact.items()
    )
    dof = len(exact) - 1
    assert chi2 < stats.chi2.ppf(0.9999, dof)


def test_realization_helpers():
    r = Realization(vertex_mask=0b1011, edge_mask=0b101)
    assert r.vertex_count == 3
    assert r.edge_count == 2
    assert r.has_vertex(0) and not r.has_vertex(2)
    sub = r.restricted(0b001)
    assert sub.vertex_mask == r.vertex_mask and sub.edge_mask == 0b001
    assert r.restricted(0) == Realization(r.vertex_mask, 0)


def test_consistency_check_catches_dangling_edges():
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    ok = Realization(vertex_mask=0b011, edge_mask=0b01)
    bad = Realization(vertex_mask=0b001, edge_mask=0b01)  # edge 0 needs vertex 1
    assert ok.is_consistent(g)
    assert not bad.is_consistent(g)
