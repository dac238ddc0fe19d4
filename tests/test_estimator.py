"""Exact and Monte Carlo estimators against the enumeration oracle."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stochmatch.errors import BudgetExceededError
from stochmatch.estimator import (
    Estimate,
    ExhaustiveOracle,
    approximation_ratio,
    expected_matching,
)
from stochmatch.experiment import run_fractional_pipeline
from stochmatch.fractional import compute_edge_stats
from stochmatch.graph import StochasticGraph, mask_from_indices
from stochmatch.matching import max_weight_matching
from stochmatch.realization import RngSeed

from oracles import (
    oracle_edge_match_probabilities,
    oracle_expected_value,
    random_test_graph,
    reference_approximation_ratio,
    reference_mc_expected_value,
    reference_mc_edge_probabilities,
    reference_oracle_edge_probabilities,
    reference_oracle_expected_value,
)


def test_exact_value_matches_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        n, edges = random_test_graph(rng, max_n=5, max_m=7, weighted=True)
        p_v, p_e = rng.choice([0.3, 0.5, 0.8, 1.0]), rng.choice([0.4, 0.7, 1.0])
        g = StochasticGraph(n, edges, p_v=p_v, p_e=p_e, weighted=True)
        expect = oracle_expected_value(n, edges, p_v, p_e)
        assert expected_matching(g, mode="exact").value == pytest.approx(expect, abs=1e-12)


def test_edge_probabilities_match_oracle():
    rng = random.Random(12)
    for _ in range(15):
        n, edges = random_test_graph(rng, max_n=5, max_m=7, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.6, p_e=0.7, weighted=True)
        expect = oracle_edge_match_probabilities(n, edges, 0.6, 0.7)
        got = ExhaustiveOracle(g).edge_probabilities()
        for a, b in zip(got, expect):
            assert a == pytest.approx(b, abs=1e-12)


def test_value_identity_expected_equals_weighted_probability_sum():
    # E[matching value] == sum_e w_e * q_e, an exact identity.
    rng = random.Random(13)
    for _ in range(20):
        n, edges = random_test_graph(rng, max_n=6, max_m=9, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.5, p_e=0.9, weighted=True)
        oracle = ExhaustiveOracle(g)
        q = oracle.edge_probabilities()
        lhs = oracle.expected_value()
        rhs = math.fsum(w * qe for w, qe in zip(g.weight_array, q))
        assert abs(lhs - rhs) <= 1e-12


def test_restriction_equals_subgraph_expectation():
    rng = random.Random(14)
    for _ in range(15):
        n, edges = random_test_graph(rng, max_n=5, max_m=7, weighted=True)
        if not edges:
            continue
        g = StochasticGraph(n, edges, p_v=0.7, p_e=0.5, weighted=True)
        keep = sorted(rng.sample(range(len(edges)), rng.randint(0, len(edges))))
        got = expected_matching(g, mask_from_indices(keep), mode="exact").value
        expect = oracle_expected_value(n, edges, 0.7, 0.5, keep=set(keep))
        assert got == pytest.approx(expect, abs=1e-12)


def test_deterministic_graph_is_exact_in_both_modes():
    g = StochasticGraph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)], weighted=True)
    best = max_weight_matching(g).total_weight
    exact = expected_matching(g, mode="exact")
    assert exact.value == best and exact.ci == 0.0
    mc = expected_matching(g, mode="mc", rng=RngSeed(0), samples=200)
    assert mc.value == best
    assert mc.ci == 0.0  # observed range is zero at p = 1


def test_mc_is_deterministic_and_covers_truth():
    g = StochasticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], p_v=0.7, p_e=0.8)
    truth = expected_matching(g, mode="exact").value
    a = expected_matching(g, mode="mc", rng=RngSeed(42), samples=20000)
    b = expected_matching(g, mode="mc", rng=RngSeed(42), samples=20000)
    assert a == b
    # 99% interval on one fixed seed; chosen seed comfortably covers.
    assert abs(a.value - truth) <= a.ci
    assert a.mode == "monte-carlo" and a.samples == 20000


def test_mc_interval_coverage_budget():
    # 20 independent seeds at 99% nominal: allow up to 3 misses.
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], p_v=0.6, p_e=0.6)
    truth = expected_matching(g, mode="exact").value
    covered = 0
    for k in range(20):
        est = expected_matching(g, mode="mc", rng=RngSeed(900 + k), samples=4000)
        covered += abs(est.value - truth) <= est.ci
    assert covered >= 17


def test_oracle_budget_refusal():
    n = 24
    g = StochasticGraph(n, [(i, i + 1) for i in range(n - 1)], p_v=0.5)
    with pytest.raises(BudgetExceededError):
        ExhaustiveOracle(g)  # 24 + 23 bits > 22
    with pytest.raises(BudgetExceededError):
        expected_matching(g, mode="exact")


def test_ratio_exact_full_restriction_is_one():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.5, p_e=0.5)
    est = approximation_ratio(g, g.all_edges_mask, mode="exact")
    assert est.value == 1.0 and est.ci == 0.0


def test_ratio_zero_denominator_reports_one():
    g = StochasticGraph(3, [], p_v=0.5)
    est = approximation_ratio(g, 0, mode="exact")
    assert est.value == 1.0


def test_ratio_paired_mc_is_exactly_one_at_p_one():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)])
    est = approximation_ratio(g, g.all_edges_mask, mode="mc", rng=RngSeed(3), samples=500)
    assert est.value == 1.0 and est.ci == 0.0


def test_ratio_mc_tracks_exact():
    g = StochasticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], p_v=0.7, p_e=0.7)
    restrict = mask_from_indices([0, 2, 4])
    exact = approximation_ratio(g, restrict, mode="exact").value
    mc = approximation_ratio(g, restrict, mode="mc", rng=RngSeed(8), samples=30000)
    assert abs(mc.value - exact) <= mc.ci


def test_ratio_mode_validation():
    g = StochasticGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        approximation_ratio(g, 1, mode="bogus")
    with pytest.raises(ValueError):
        approximation_ratio(g, 1, mode="mc")  # rng required


def test_auto_mode_switches_on_budget():
    small = StochasticGraph(3, [(0, 1), (1, 2)], p_v=0.5)
    assert approximation_ratio(small, 0b11).mode == "exact"
    big = StochasticGraph(30, [(i, i + 1) for i in range(29)], p_v=0.5)
    est = approximation_ratio(big, big.all_edges_mask, rng=RngSeed(1), samples=50)
    assert est.mode == "monte-carlo"


def test_mc_input_validation():
    g = StochasticGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        expected_matching(g, mode="mc", rng=RngSeed(0), samples=0)
    with pytest.raises(ValueError):
        expected_matching(g, mode="mc", rng=RngSeed(0), samples=10, confidence=1.0)


# Each Monte Carlo entry point given one bad input: (call(g, rng), message).
_BAD_MC_INPUTS = {
    "edge_stats samples=0": (
        lambda g, rng: compute_edge_stats(g, mode="mc", rng=rng, samples=0), "samples"),
    "edge_stats samples=-2": (
        lambda g, rng: compute_edge_stats(g, mode="mc", rng=rng, samples=-2), "samples"),
    "edge_stats rng=None": (
        lambda g, rng: compute_edge_stats(g, mode="mc", rng=None, samples=10), "needs an rng"),
    "ratio samples=-3": (
        lambda g, rng: approximation_ratio(g, 1, mode="mc", rng=rng, samples=-3), "samples"),
    "ratio samples=0": (
        lambda g, rng: approximation_ratio(g, 1, mode="mc", rng=rng, samples=0), "samples"),
    "ratio confidence=1.0": (
        lambda g, rng: approximation_ratio(g, 1, mode="mc", rng=rng, samples=10, confidence=1.0),
        "confidence"),
    "ratio confidence=1.5": (
        lambda g, rng: approximation_ratio(g, 1, mode="mc", rng=rng, samples=10, confidence=1.5),
        "confidence"),
    "ratio confidence=0.0": (
        lambda g, rng: approximation_ratio(g, 1, mode="mc", rng=rng, samples=10, confidence=0.0),
        "confidence"),
    "value confidence=1.5": (
        lambda g, rng: expected_matching(g, mode="mc", rng=rng, samples=10, confidence=1.5),
        "confidence"),
    "value rng=None": (
        lambda g, rng: expected_matching(g, mode="mc", rng=None, samples=10), "needs an rng"),
}


@pytest.mark.parametrize("label", sorted(_BAD_MC_INPUTS))
def test_mc_inputs_are_refused_before_any_draw(label):
    call, message = _BAD_MC_INPUTS[label]
    g = StochasticGraph(3, [(0, 1), (1, 2)], p_v=0.5, p_e=0.5)
    gen = np.random.default_rng(5)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(g, gen)
    assert gen.bit_generator.state == before


def test_pipeline_refuses_zero_mc_samples():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.8, p_e=0.8)
    with pytest.raises(ValueError, match="samples"):
        run_fractional_pipeline(g, 0.3, RngSeed(1), r_cap=20, q_mode="mc", samples=0)


def _equivalence_graphs():
    """40 seeded graphs, eight of each kind, kinds in turn: weights with
    ties and zeros, dyadic weights, unweighted, p_v = p_e = 1 (weights
    with ties and zeros), and edgeless."""
    rng = random.Random(2024)
    graphs = []
    for k in range(40):
        kind = k % 5
        n, edges = random_test_graph(rng, max_n=5, max_m=7, weighted=kind == 1)
        if kind in (0, 3):
            edges = [(u, v, float(rng.choice([0, 1, 2]))) for u, v, _ in edges]
        if kind == 4:
            edges = []
        p_v, p_e = rng.choice([0.3, 0.6, 0.9]), rng.choice([0.4, 0.7, 1.0])
        if kind == 3:
            p_v = p_e = 1.0
        graphs.append(StochasticGraph(n, edges, p_v=p_v, p_e=p_e, weighted=kind != 2))
    return graphs


def _hexes(xs):
    return [float(x).hex() for x in xs]


def test_merged_reducers_match_the_earlier_loops_bit_for_bit():
    pick = random.Random(7)
    for k, g in enumerate(_equivalence_graphs()):
        every = g.all_edges_mask
        masks = [None, 0, every, pick.randrange(every + 1)]
        oracle, ref = ExhaustiveOracle(g), ExhaustiveOracle(g)
        exact_q = compute_edge_stats(g, mode="exact").q
        assert _hexes(exact_q) == _hexes(reference_oracle_edge_probabilities(ref))
        for r in masks:
            want = reference_oracle_expected_value(ref, r)
            assert oracle.expected_value(r).hex() == want.hex()
            est = expected_matching(g, r, mode="exact")
            assert _hexes([est.value, est.ci]) == _hexes([want, 0.0])
            got_q = oracle.edge_probabilities(r)
            assert _hexes(got_q) == _hexes(reference_oracle_edge_probabilities(ref, r))
        for r in masks[1:]:
            est = approximation_ratio(g, r, mode="exact")
            want = reference_approximation_ratio(g, r, "exact")
            assert _hexes([est.value, est.ci]) == _hexes(want)
        confidence = (0.99, 0.9)[k % 2]
        for seeded in (True, False):
            def rng():
                return RngSeed(k, stream=3) if seeded else np.random.default_rng(k)

            for r in masks:
                est = expected_matching(g, r, "mc", rng(), 150, confidence)
                want = reference_mc_expected_value(g, rng(), 150, r, confidence)
                assert _hexes([est.value, est.ci]) == _hexes(want), (k, seeded, r)
                assert (est.mode, est.samples, est.confidence) == ("monte-carlo", 150, confidence)
            for r in masks[1:]:
                est = approximation_ratio(g, r, "mc", rng(), 150, confidence)
                want = reference_approximation_ratio(g, r, "mc", rng(), 150, confidence)
                assert _hexes([est.value, est.ci]) == _hexes(want), (k, seeded, r)
            stats = compute_edge_stats(g, mode="mc", rng=rng(), samples=150)
            assert _hexes(stats.q) == _hexes(reference_mc_edge_probabilities(g, rng(), 150))
            assert (stats.mode, stats.samples) == ("monte-carlo", 150)


# Each estimation entry point as call(g, mode, rng, budget_bits).
_ESTIMATES = {
    "expected_matching": lambda g, mode, rng, bits: expected_matching(
        g, mode=mode, rng=rng, samples=40, budget_bits=bits),
    "approximation_ratio": lambda g, mode, rng, bits: approximation_ratio(
        g, 0b01, mode=mode, rng=rng, samples=40, budget_bits=bits),
    "compute_edge_stats": lambda g, mode, rng, bits: compute_edge_stats(
        g, mode=mode, rng=rng, samples=40, budget_bits=bits),
}


def _summary(result):
    """(mode, samples, hex of value and ci, or of every q)."""
    floats = [result.value, result.ci] if isinstance(result, Estimate) else result.q
    return result.mode, result.samples, _hexes(floats)


@pytest.mark.parametrize("name", sorted(_ESTIMATES))
def test_one_mode_rule_for_every_estimate(name):
    call = _ESTIMATES[name]
    g = StochasticGraph(3, [(0, 1), (1, 2)], p_v=0.5, p_e=0.5)
    fits = g.n + g.m
    auto = _summary(call(g, "auto", None, fits))
    assert auto == _summary(call(g, "exact", None, fits))
    assert auto[:2] == ("exact", 0)
    if name != "compute_edge_stats":
        assert auto[2][1] == (0.0).hex()
    auto = _summary(call(g, "auto", RngSeed(4), fits - 1))
    assert auto == _summary(call(g, "mc", RngSeed(4), fits - 1))
    assert auto[:2] == ("monte-carlo", 40)
    with pytest.raises(ValueError, match="needs an rng"):
        call(g, "auto", None, fits - 1)
    with pytest.raises(ValueError, match="unknown mode"):
        call(g, "bogus", RngSeed(4), fits)
