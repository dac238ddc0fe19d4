"""Fractional matching stages: statistics, both procedures, constraints."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stochmatch.errors import BudgetExceededError
from stochmatch.fractional import (
    DELTA,
    EdgeStats,
    FractionalMatching,
    _best_alpha,
    _endpoint_keep,
    check_blossom_constraints,
    classify_crucial_weighted,
    compute_edge_stats,
    crucial_procedure_unweighted,
    crucial_procedure_weighted,
    non_crucial_procedure,
    round_to_integral,
    sample_crucial_matching,
)
from stochmatch.graph import StochasticGraph, mask_from_indices
from stochmatch.matching import CanonicalMatcher, matching_from_indices
from stochmatch.realization import RngSeed, sample_realization
from stochmatch.sparsifier import (
    Sparsifier,
    SparsifierParams,
    build_sparsifier,
    classify_edges,
)

from oracles import oracle_edge_match_probabilities, random_test_graph


def manual_params(epsilon: float, rounds: int, tau: float) -> SparsifierParams:
    """Params with an inflated threshold so small graphs get non-crucial edges."""
    return SparsifierParams(epsilon, rounds, tau, rounds, r_cap=rounds)


# ---------------------------------------------------------------- statistics


def test_exact_stats_match_oracle():
    rng = random.Random(5)
    for _ in range(10):
        n, edges = random_test_graph(rng, max_n=5, max_m=7, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.7, p_e=0.6, weighted=True)
        stats = compute_edge_stats(g, mode="exact")
        expect = oracle_edge_match_probabilities(n, edges, 0.7, 0.6)
        for a, b in zip(stats.q, expect):
            assert a == pytest.approx(b, abs=1e-12)


def test_vertex_aggregates_and_restriction():
    g = StochasticGraph(3, [(0, 1, 2.0), (0, 2, 4.0)], weighted=True)
    stats = EdgeStats(g, np.array([0.25, 0.125]), "exact")
    assert stats.vertex_q_array()[0] == 0.375
    assert stats.vertex_q_array(within=0b10)[0] == 0.125
    assert stats.vertex_phi_array()[0] == 0.25 * 2.0 + 0.125 * 4.0
    assert stats.vertex_phi_array(within=0b01)[0] == 0.5
    assert stats.phi() == 1.0
    assert stats.phi(within=0b10) == 0.5
    assert stats.vertex_q_array().tolist() == [0.375, 0.25, 0.125]
    assert stats.vertex_phi_array(within=0b10).tolist() == [0.5, 0.0, 0.5]


def test_within_ignores_bits_past_the_last_edge():
    # One rule for every restricted sum, so a complement works as is.
    g = StochasticGraph(3, [(0, 1, 2.0), (0, 2, 4.0)], weighted=True)
    stats = EdgeStats(g, np.array([0.25, 0.125]), "exact")
    for within in (~0b01, 0b110):
        assert stats.phi(within=within) == stats.phi(within=0b10) == 0.5
        assert stats.vertex_q_array(within=within).tolist() == [0.125, 0.0, 0.125]
        assert stats.vertex_phi_array(within=within).tolist() == [0.5, 0.0, 0.5]


def test_mc_stats_track_exact():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], p_v=0.6, p_e=0.8)
    exact = compute_edge_stats(g, mode="exact")
    mc = compute_edge_stats(g, mode="mc", rng=RngSeed(21), samples=20000)
    for qe, qm in zip(exact.q, mc.q):
        sd = math.sqrt(max(qe * (1 - qe), 1e-12) / 20000)
        assert abs(qm - qe) < 4 * sd + 1e-9
    assert mc.mode == "monte-carlo" and mc.samples == 20000


# ------------------------------------------------------ non-crucial procedure


def test_non_crucial_hand_case_exact_values():
    # Single edge, f = 1, everything alive: x~ = 2*tau/(pv^2 pe), then the
    # endpoint factor max{q, eps}/(pv * x~) caps the load at its bound.
    g = StochasticGraph(2, [(0, 1)], p_v=0.5, p_e=1.0)
    params = manual_params(0.2, 4, 0.3)
    s = Sparsifier(g, params, np.array([4], dtype=np.int64))
    stats = EdgeStats(g, np.array([0.25]), "exact")
    fm = non_crucial_procedure(s, stats, 0b1, 0b1)
    x_tilde = min(1.0, 2 * 0.3) / 0.25  # 2.4
    factor = max(0.25, 0.2) / (0.5 * x_tilde)
    assert fm.x[0] == pytest.approx(x_tilde * factor)
    assert fm.x[0] == pytest.approx(0.5)  # == max{q, eps}/p_v exactly


def test_non_crucial_only_touches_realized_q_n_edges():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.9, p_e=0.9)
    params = manual_params(0.2, 10, 0.4)
    s = Sparsifier(g, params, np.array([10, 10, 0], dtype=np.int64))
    stats = EdgeStats(g, np.array([0.3, 0.5, 0.3]), "exact")
    # crucial = {1} (q >= 0.4): non-crucial = {0, 2}; edge 2 not in Q.
    crucial, non_crucial = classify_edges(s, stats.q)
    assert crucial == 0b010 and non_crucial == 0b101
    fm = non_crucial_procedure(s, stats, non_crucial, 0b111)
    assert fm.x[1] == 0.0  # crucial: untouched here
    assert fm.x[2] == 0.0  # outside Q
    assert fm.x[0] > 0.0
    # unrealized edges get nothing
    fm2 = non_crucial_procedure(s, stats, non_crucial, 0b110)
    assert fm2.x[0] == 0.0


def test_non_crucial_respects_vertex_caps_on_random_instances():
    rng = random.Random(99)
    seed = RngSeed(415)
    for trial in range(25):
        n, edges = random_test_graph(rng, max_n=6, max_m=9, weighted=False)
        p_v = rng.choice([0.4, 0.6, 0.9])
        p_e = rng.choice([0.5, 0.8, 1.0])
        g = StochasticGraph(n, edges, p_v=p_v, p_e=p_e)
        eps = rng.choice([0.15, 0.2, 0.3])
        params = manual_params(eps, 60, rng.choice([0.05, 0.1, 0.2]))
        s = build_sparsifier(g, params, seed.with_stream(trial))
        stats = compute_edge_stats(g, mode="exact")
        crucial, non_crucial = classify_edges(s, stats.q)
        realized = sample_realization(g, seed.with_stream(1000 + trial))
        fm = non_crucial_procedure(s, stats, non_crucial, realized.edge_mask)
        # support inside realized sparsifier non-crucial edges
        assert not (fm.support_mask() & ~(realized.edge_mask & s.edge_mask & non_crucial))
        # per-edge value never above the unscaled step-1 cap
        pe2 = p_v * p_v * p_e
        for i in range(g.m):
            assert fm.x[i] <= min(s.f[i], 2 * params.tau) / pe2 + 1e-12
        # per-vertex load bound from the scaling step
        qn = stats.vertex_q_array(within=non_crucial)
        loads = fm.loads()
        for v in range(n):
            assert loads[v] <= max(qn[v], eps) / p_v + 1e-9


def test_non_crucial_mass_keeps_most_of_phi():
    # the procedure's expected captured weight stays above
    # (1 - 10 eps) * phi(N); empirical margin here is wide, so a plain
    # mean over fixed seeds is a safe one-sided check
    g = StochasticGraph(
        5,
        [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0), (1, 3, 1.5), (2, 4, 2.5), (3, 4, 1.0)],
        p_v=0.8,
        p_e=0.9,
        weighted=True,
    )
    eps = 0.05
    for tau in (0.05, 0.1):
        params = manual_params(eps, 3000, tau)
        s = build_sparsifier(g, params, RngSeed(11))
        stats = compute_edge_stats(g, mode="exact")
        crucial, non_crucial = classify_edges(s, stats.q)
        phi_n = stats.phi(within=non_crucial)
        assert phi_n > 0.0
        runs = 400
        total = 0.0
        for t in range(runs):
            realized = sample_realization(g, RngSeed(900 + t))
            fm = non_crucial_procedure(s, stats, non_crucial, realized.edge_mask)
            total += math.fsum(g.edges[i].weight * fm.x[i] for i in range(g.m))
        assert total / runs >= (1.0 - 10.0 * eps) * phi_n


# --------------------------------------------------- crucial matching draws


def test_crucial_matching_is_coupled_intersection():
    rng = random.Random(7)
    seed = RngSeed(52)
    for trial in range(20):
        n, edges = random_test_graph(rng, max_n=6, max_m=9, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.7, p_e=0.7, weighted=True)
        params = manual_params(0.2, 40, 0.15)
        s = build_sparsifier(g, params, seed.with_stream(trial))
        stats = compute_edge_stats(g, mode="exact")
        crucial, _ = classify_edges(s, stats.q)
        realized = sample_realization(g, seed.with_stream(500 + trial))
        m_c = sample_crucial_matching(s, crucial, realized.edge_mask)
        base = set(CanonicalMatcher(g).for_mask(realized.edge_mask).indices)
        keep = crucial & s.edge_mask & realized.edge_mask
        assert set(m_c.indices) == {i for i in base if keep >> i & 1}
        assert m_c.is_valid()


def test_crucial_matching_marginal_is_q():
    # Single crucial edge with q = p_v^2 p_e = 0.125; a fresh realization
    # per trial.
    g = StochasticGraph(2, [(0, 1)], p_v=0.5, p_e=0.5)
    s = Sparsifier(g, manual_params(0.2, 4, 0.1), np.array([4], dtype=np.int64))
    gen = RngSeed(64).generator(purpose=3, index=0)
    trials = 50000
    hits = sum(
        bool(sample_crucial_matching(s, 0b1, sample_realization(g, gen).edge_mask).indices)
        for _ in range(trials)
    )
    q = 0.125
    sd = math.sqrt(q * (1 - q) / trials)
    assert abs(hits / trials - q) < 3 * sd


def test_crucial_matching_excludes_non_q_and_non_crucial_edges():
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)])
    s = Sparsifier(g, manual_params(0.2, 4, 0.1), np.array([4, 0, 4], dtype=np.int64))
    m_c = sample_crucial_matching(s, 0b101, 0b111)
    # canonical matching of the full path is {0, 2}; both crucial and in Q
    assert m_c.indices == (0, 2)
    m_c2 = sample_crucial_matching(s, 0b001, 0b111)
    assert m_c2.indices == (0,)


# ------------------------------------------------- unweighted crucial stage


def test_unweighted_formula_values():
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    stats = EdgeStats(g, np.array([0.3, 0.2]), "exact")
    x0 = FractionalMatching(g, np.zeros(2))
    m_c = matching_from_indices(g, [0])
    out = crucial_procedure_unweighted(x0, m_c, stats, 0b10, epsilon=0.2)
    # qn within N: vertex 0 -> 0, vertex 1 -> 0.2
    assert out.x[0] == pytest.approx(0.8 * min(1.0, 1.0 - 0.2))
    assert out.x[1] == 0.0


def test_unweighted_budget_enforcement_scales_non_crucial_mass():
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    stats = EdgeStats(g, np.array([0.0, 0.1]), "exact")
    x0 = FractionalMatching(g, np.array([0.0, 0.5]))
    m_c = matching_from_indices(g, [0])
    out = crucial_procedure_unweighted(x0, m_c, stats, 0b10, epsilon=0.1)
    assert out.x[0] == pytest.approx(0.9 * (1.0 - 0.1))  # 0.81, untouched by scaling
    # vertex 1 held 0.81 + 0.5; free mass rescaled to fit in 1
    assert out.x[1] == pytest.approx((1.0 - 0.81) / 0.5 * 0.5)
    assert out.loads().max() <= 1.0 + 1e-9


def test_budget_enforcement_is_order_free_and_idempotent():
    # Two overloaded endpoints sharing one free edge: factors multiply.
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    stats = EdgeStats(g, np.zeros(3), "exact")
    x0 = FractionalMatching(g, np.array([0.0, 0.3, 0.3]))
    m_c = matching_from_indices(g, [0])
    out = crucial_procedure_unweighted(x0, m_c, stats, 0b110, epsilon=0.1)
    assert out.x[0] == pytest.approx(0.9)
    f = (1.0 - 0.9) / 0.3
    assert out.x[1] == pytest.approx(0.3 * f * 1.0)  # vertex 2 not overloaded
    assert out.x[2] == pytest.approx(0.3 * f * 1.0)
    assert out.loads().max() <= 1.0 + 1e-9
    again = crucial_procedure_unweighted(out, m_c, stats, 0b110, epsilon=0.1)
    assert np.allclose(again.x, out.x, atol=1e-15)


def test_unweighted_stage_keeps_loads_bounded_on_random_instances():
    rng = random.Random(31)
    seed = RngSeed(88)
    for trial in range(25):
        n, edges = random_test_graph(rng, max_n=6, max_m=9, weighted=False)
        p_v = rng.choice([0.3, 0.5, 0.8])
        g = StochasticGraph(n, edges, p_v=p_v, p_e=0.9)
        eps = 0.2
        params = manual_params(eps, 50, rng.choice([0.08, 0.15]))
        s = build_sparsifier(g, params, seed.with_stream(trial))
        stats = compute_edge_stats(g, mode="exact")
        crucial, non_crucial = classify_edges(s, stats.q)
        realized = sample_realization(g, seed.with_stream(2000 + trial))
        fm = non_crucial_procedure(s, stats, non_crucial, realized.edge_mask)
        m_c = sample_crucial_matching(s, crucial, realized.edge_mask)
        out = crucial_procedure_unweighted(fm, m_c, stats, non_crucial, eps)
        assert out.loads().max() <= 1.0 + 1e-9
        for i in m_c.indices:  # crucial values never rescaled
            e = g.edges[i]
            qn = stats.vertex_q_array(within=non_crucial)
            assert out.x[i] == pytest.approx(
                (1 - eps) * min(1 - qn[e.u], 1 - qn[e.v])
            )


# --------------------------------------------------- weighted classification


def one_crucial_setup(w: float, q1: float, w1: float, q2: float, w2: float):
    """Crucial edge (0,1,w); side edges (0,2,w1) and (1,3,w2) non-crucial."""
    g = StochasticGraph(4, [(0, 1, w), (0, 2, w1), (1, 3, w2)], weighted=True)
    stats = EdgeStats(g, np.array([0.5, q1, q2]), "exact")
    m_c = matching_from_indices(g, [0])
    return g, stats, m_c


def classify_one(w, q1, w1, q2, w2):
    _, stats, m_c = one_crucial_setup(w, q1, w1, q2, w2)
    c = classify_crucial_weighted(m_c, stats, non_crucial_mask=0b110)
    return c.category[0], c.target[0]


def test_classification_heavy():
    # phi = 0.5 each side; w = 1.2 >= 1.09 * 1.0
    assert classify_one(1.2, 0.5, 1.0, 0.5, 1.0) == ("heavy", None)


def test_classification_semi_heavy_targets_larger_q_endpoint():
    # qn = (0.6, 0.3), phi = (0.12, 0.6): not heavy (w < 1.09*0.72),
    # semi-heavy vs big endpoint 0: w >= 2.18*0.12 and q_small <= 0.91.
    assert classify_one(0.5, 0.6, 0.2, 0.3, 2.0) == ("semi-heavy", 0)


def test_classification_semi_heavy_tie_goes_to_lower_id():
    # equal qn, so "larger q endpoint" falls back to the lower id; the
    # threshold against phi_0 = 0.2 passes while phi_1 = 0.8 would not
    assert classify_one(0.5, 0.4, 0.5, 0.4, 2.0) == ("semi-heavy", 0)


def test_classification_type1():
    # phi_v >= phi_u with neither heavy nor semi-heavy
    assert classify_one(0.5, 0.5, 0.8, 0.5, 0.8) == ("type-1", 1)


def test_classification_type2():
    # phi_v < phi_u, w <= 2.18 * phi_v
    assert classify_one(0.6, 0.5, 0.9, 0.5, 0.6) == ("type-2", 1)


def test_classification_type3():
    # phi_v < phi_u, w above the type-2 cutoff
    assert classify_one(0.7, 0.5, 0.9, 0.5, 0.6) == ("type-3", 0)


def test_classification_semi_heavy_needs_small_q_condition():
    # same shape as semi-heavy but q_small > 1 - delta blocks it
    got, _ = classify_one(0.5, 0.95, 0.2, 0.92, 2.0)
    assert got != "semi-heavy"


def test_classified_weight_bounds_hold_on_random_instances():
    # Directed edges always satisfy w <= 2(1+delta) phi_target, and
    # type-3 edges with q_v >= q_u satisfy q_v <= q_u + delta.  Pipelines
    # rarely emit directed edges (the crucial edge itself eats most of the
    # endpoint q budget), so the sweep builds stats directly: any q with
    # per-vertex sums <= 1 is a valid input for the classification bounds.
    rng = random.Random(99)
    checked = 0
    for trial in range(300):
        n = rng.randint(4, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = rng.randint(3, min(10, len(pairs)))
        chosen = sorted(pairs[:m])
        edges = [(u, v, rng.randint(2, 8) / 4.0) for u, v in chosen]
        g = StochasticGraph(n, edges, p_v=0.9, p_e=0.9, weighted=True)
        raw = [rng.uniform(0.0, 0.45) for _ in range(g.m)]
        loads = [0.0] * n
        for i, e in enumerate(g.edges):
            loads[e.u] += raw[i]
            loads[e.v] += raw[i]
        scale = 1.0 / max(1.0, max(loads))
        stats = EdgeStats(g, np.array([x * scale for x in raw]), "exact")
        crucial = mask_from_indices(i for i in range(g.m) if rng.random() < 0.4)
        non_crucial = g.all_edges_mask & ~crucial
        m_c = CanonicalMatcher(g).for_mask(crucial)
        if not m_c.indices:
            continue
        c = classify_crucial_weighted(m_c, stats, non_crucial)
        qn = stats.vertex_q_array(within=non_crucial)
        phin = stats.vertex_phi_array(within=non_crucial)
        for i in c.edges_in("type-1", "type-2", "type-3"):
            e = g.edges[i]
            t = c.target[i]
            assert e.weight <= 2 * (1 + DELTA) * phin[t] + 1e-12
            checked += 1
        for i in c.edges_in("type-3"):
            e = g.edges[i]
            if qn[e.v] >= qn[e.u]:
                assert qn[e.v] <= qn[e.u] + DELTA + 1e-12
        for i in c.edges_in("semi-heavy"):
            e = g.edges[i]
            t = c.target[i]
            other = e.u if t == e.v else e.v
            assert qn[t] >= qn[other] or (qn[t] == qn[other] and t == min(e.u, e.v))
    assert checked > 50  # the sweep actually exercised directed edges


# ------------------------------------------------------ weighted alpha stage


def grid_max_h(q_u, q_v, phi_u, phi_v, w, points=100001):
    best = -math.inf
    for j in range(points):
        a = j / (points - 1)
        h = _endpoint_keep(q_u, phi_u, a) + _endpoint_keep(q_v, phi_v, a) + a * w
        best = max(best, h)
    return best


def test_best_alpha_heavy_edge_takes_everything():
    assert _best_alpha(0.5, 0.5, 0.2, 0.2, 10.0) == 1.0


def test_best_alpha_worthless_edge_takes_nothing():
    assert _best_alpha(0.5, 0.5, 0.4, 0.4, 0.0) == 0.0


def test_best_alpha_tie_picks_smallest_on_plateau():
    # w = 0 makes h flat on [0, 1-q] and falling after; every plateau
    # point evaluates to exactly the same float, so the tie rule decides
    assert _best_alpha(0.5, 0.5, 0.25, 0.25, 0.0) == 0.0


def test_best_alpha_interior_breakpoint_maximum():
    # small positive w tilts the plateau up toward the breakpoint 1 - q,
    # and beyond it the keep terms fall faster than w climbs
    assert _best_alpha(0.5, 0.5, 0.4, 0.4, 0.1) == 0.5


def test_best_alpha_beats_fine_grid():
    rng = random.Random(23)
    for _ in range(200):
        q_u, q_v = rng.uniform(0, 1), rng.uniform(0, 1)
        phi_u, phi_v = rng.uniform(0, 1), rng.uniform(0, 1)
        w = rng.uniform(0, 3)
        a = _best_alpha(q_u, q_v, phi_u, phi_v, w)
        h = _endpoint_keep(q_u, phi_u, a) + _endpoint_keep(q_v, phi_v, a) + a * w
        assert h >= grid_max_h(q_u, q_v, phi_u, phi_v, w, 2001) - 1e-12


def test_best_alpha_lands_on_breakpoints():
    # maximum of a piecewise-linear function sits on a breakpoint
    rng = random.Random(41)
    for _ in range(100):
        q_u, q_v = rng.uniform(0.05, 1), rng.uniform(0.05, 1)
        phi_u, phi_v = rng.uniform(0, 1), rng.uniform(0, 1)
        w = rng.uniform(0, 2)
        a = _best_alpha(q_u, q_v, phi_u, phi_v, w)
        breaks = {0.0, 1.0, min(1.0, max(0.0, 1 - q_u)), min(1.0, max(0.0, 1 - q_v))}
        assert any(abs(a - b) < 1e-12 for b in breaks)


def test_weighted_procedure_heavy_gets_one_minus_eps():
    g, stats, m_c = one_crucial_setup(10.0, 0.5, 1.0, 0.5, 1.0)
    x0 = FractionalMatching(g, np.zeros(3))
    out = crucial_procedure_weighted(x0, m_c, stats, 0b110, epsilon=0.2)
    assert out.x[0] == pytest.approx(0.8)


def test_weighted_procedure_heavy_edge_can_take_less_than_one_minus_eps():
    # Heavy: w = 0.6 >= 1.09 * (phi_0 + phi_1) = 1.09 * 0.5.  Past
    # alpha = 1 - q_0 = 0.9, vertex 0 loses phi_0 / q_0 = 5 per unit of
    # alpha, more than w gains, so alpha* = 0.9 and not 1.
    g, stats, m_c = one_crucial_setup(0.6, 0.1, 5.0, 0.0, 1.0)
    assert classify_crucial_weighted(m_c, stats, 0b110).category[0] == "heavy"
    assert _best_alpha(0.1, 0.0, 0.5, 0.0, 0.6) == 0.9
    out = crucial_procedure_weighted(FractionalMatching(g, np.zeros(3)), m_c, stats, 0b110, 0.2)
    assert out.x[0] == pytest.approx(0.72)


def test_weighted_procedure_zeroes_neighbors_at_eps_zero():
    g = StochasticGraph(3, [(0, 1, 10.0), (0, 2, 1.0)], weighted=True)
    stats = EdgeStats(g, np.array([0.5, 0.3]), "exact")
    m_c = matching_from_indices(g, [0])
    x0 = FractionalMatching(g, np.array([0.0, 0.3]))
    out = crucial_procedure_weighted(x0, m_c, stats, 0b10, epsilon=0.0)
    assert out.x[0] == 1.0
    assert out.x[1] == 0.0  # whole budget consumed: neighbor mass vanishes


def test_weighted_stage_keeps_loads_bounded_on_random_instances():
    rng = random.Random(67)
    seed = RngSeed(90)
    for trial in range(20):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.6, p_e=0.8, weighted=True)
        eps = 0.2
        params = manual_params(eps, 40, 0.1)
        s = build_sparsifier(g, params, seed.with_stream(trial))
        stats = compute_edge_stats(g, mode="exact")
        crucial, non_crucial = classify_edges(s, stats.q)
        realized = sample_realization(g, seed.with_stream(4000 + trial))
        fm = non_crucial_procedure(s, stats, non_crucial, realized.edge_mask)
        m_c = sample_crucial_matching(s, crucial, realized.edge_mask)
        out = crucial_procedure_weighted(fm, m_c, stats, non_crucial, eps)
        assert out.loads().max() <= 1.0 + 1e-9
        for i in m_c.indices:
            assert 0.0 <= out.x[i] <= 1.0 - eps + 1e-12


# ------------------------------------------------------- odd-set constraints


def test_blossom_detects_triangle_violation():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    fm = FractionalMatching(g, np.array([0.5, 0.5, 0.5]))
    violations = check_blossom_constraints(fm, epsilon=1 / 3)
    assert len(violations) == 1
    v = violations[0]
    assert v.vertices == (0, 1, 2)
    assert v.load == pytest.approx(1.5) and v.bound == 1.0


def test_blossom_cap_excludes_larger_sets():
    # floor(1/0.34) = 2: the triangle set is never scanned
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    fm = FractionalMatching(g, np.array([0.5, 0.5, 0.5]))
    assert check_blossom_constraints(fm, epsilon=0.34) == []


def test_blossom_floor_boundary_is_exact():
    # 1/epsilon float artifacts must not shrink the cap: eps = 1/3 scans size 3
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    fm = FractionalMatching(g, np.array([0.4, 0.4, 0.4]))
    assert len(check_blossom_constraints(fm, epsilon=1 / 3)) == 1


def test_blossom_bound_scale_for_non_crucial_guarantee():
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    fm = FractionalMatching(g, np.array([0.05, 0.05, 0.05]))
    assert check_blossom_constraints(fm, epsilon=1 / 3, bound_scale=0.2) == []
    bad = check_blossom_constraints(fm, epsilon=1 / 3, bound_scale=0.1)
    assert len(bad) == 1 and bad[0].bound == pytest.approx(0.1)


def test_blossom_refuses_unbounded_subset_sizes():
    g = StochasticGraph(12, [(0, 1)])
    fm = FractionalMatching(g, np.array([0.5]))
    with pytest.raises(BudgetExceededError):
        check_blossom_constraints(fm, epsilon=0.05)  # min(12, floor(1/eps)) = 12 > 11


def test_blossom_size_cap_is_clamped_to_the_vertex_count():
    # floor(1/0.05) = 20 > 11, but a 4-vertex graph has no set larger than 4.
    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)])
    fm = FractionalMatching(g, np.array([0.5, 0.5, 0.5]))
    assert check_blossom_constraints(fm, epsilon=0.05) == []


def test_pipeline_runs_on_a_small_path_at_small_epsilon():
    from stochmatch.experiment import run_fractional_pipeline

    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.9, p_e=0.9)
    res = run_fractional_pipeline(g, 0.05, RngSeed(0), r_cap=100)
    assert res.checks["blossom"]


def test_pipeline_vertex_cap_check_uses_non_crucial_q(monkeypatch):
    # The non-crucial stage caps x_v at max{q_v, eps}/p_v with q_v summed
    # over the non-crucial edges only.  A load above that cap but below
    # the looser one with q_v over all edges must fail the check.
    from stochmatch import experiment

    g = StochasticGraph(4, [(0, 1), (1, 2), (2, 3)], p_v=0.9, p_e=0.9)
    eps = 0.2
    params = manual_params(eps, 100, tau=0.5)
    real = experiment.non_crucial_procedure
    injected = {}

    def inflated(s, stats, non_crucial_mask, realized_edges):
        fm = real(s, stats, non_crucial_mask, realized_edges)
        tight = np.maximum(stats.vertex_q_array(within=non_crucial_mask), eps) / g.p_v
        loose = np.maximum(stats.vertex_q_array(), eps) / g.p_v
        fm.x[1] += (tight[1] + loose[1]) / 2 - fm.loads()[1]  # edge 1 is (1, 2)
        loads = fm.loads()
        assert (loads <= loose).all() and loads[1] > tight[1]
        injected["margin"] = float(np.max(loads - tight))
        return fm

    monkeypatch.setattr(experiment, "non_crucial_procedure", inflated)
    res = experiment.run_fractional_pipeline(g, eps, RngSeed(0), params=params)
    assert res.non_crucial_mask == 0b010  # q = (0.729, 0.139, 0.617), tau = 0.5
    assert not res.checks["vertex_cap"]
    assert res.margins["vertex_cap"] == injected["margin"] > 0.3


def test_pipeline_vertex_cap_margin_is_at_most_zero_on_random_instances():
    from stochmatch.experiment import run_fractional_pipeline

    rng = random.Random(17)
    for trial in range(12):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=trial % 2 == 1)
        g = StochasticGraph(n, edges, p_v=rng.choice([0.5, 0.8, 1.0]),
                            p_e=rng.choice([0.6, 0.9]), weighted=trial % 2 == 1)
        params = manual_params(0.25, 80, rng.choice([0.05, 0.2, 0.5]))
        res = run_fractional_pipeline(g, 0.25, RngSeed(trial), params=params)
        assert res.checks["vertex_cap"] and res.margins["vertex_cap"] <= 1e-12


def test_blossom_matching_loads_never_violate():
    g = StochasticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    x = np.zeros(5)
    x[g.edge_index(0, 1)] = 1.0
    x[g.edge_index(2, 3)] = 1.0
    fm = FractionalMatching(g, x)
    assert check_blossom_constraints(fm, epsilon=0.2) == []


# ----------------------------------------------------------------- rounding


def test_round_to_integral_returns_canonical_support_matching():
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    fm = FractionalMatching(g, np.array([0.64, 0.0]))
    got = round_to_integral(fm, view_mask=0b11, epsilon=0.2)
    assert got.indices == (0,)


def test_round_to_integral_rejects_support_outside_view():
    g = StochasticGraph(3, [(0, 1), (1, 2)])
    fm = FractionalMatching(g, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        round_to_integral(fm, view_mask=0b10, epsilon=0.2)


def test_round_to_integral_flags_unroundable_fractions():
    # triangle at x = 1/2 violates the odd-set bound; its fractional value
    # exceeds what any integral matching can reach, which must raise
    g = StochasticGraph(3, [(0, 1), (0, 2), (1, 2)])
    fm = FractionalMatching(g, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(RuntimeError):
        round_to_integral(fm, view_mask=0b111, epsilon=0.2)


def test_round_to_integral_meets_value_bound_on_random_instances():
    rng = random.Random(3)
    seed = RngSeed(14)
    for trial in range(15):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, p_v=0.6, p_e=0.8, weighted=True)
        eps = 0.2
        params = manual_params(eps, 40, 0.1)
        s = build_sparsifier(g, params, seed.with_stream(trial))
        stats = compute_edge_stats(g, mode="exact")
        crucial, non_crucial = classify_edges(s, stats.q)
        realized = sample_realization(g, seed.with_stream(5000 + trial))
        fm = non_crucial_procedure(s, stats, non_crucial, realized.edge_mask)
        m_c = sample_crucial_matching(s, crucial, realized.edge_mask)
        out = crucial_procedure_weighted(fm, m_c, stats, non_crucial, eps)
        view = realized.edge_mask & s.edge_mask
        got = round_to_integral(out, view, eps)
        assert got.total_weight >= (1 - eps) * out.total_value() - 1e-9


# -------------------------------------------------------------- containers


def test_fractional_matching_container_basics():
    g = StochasticGraph(3, [(0, 1, 2.0), (1, 2, 3.0)], weighted=True)
    fm = FractionalMatching(g, np.array([0.25, 0.5]))
    assert fm.loads().tolist() == [0.25, 0.75, 0.5]
    assert fm.loads()[1] == 0.75
    assert fm.total_value() == 0.25 * 2.0 + 0.5 * 3.0
    assert fm.support_mask() == 0b11
    c = fm.copy()
    c.x[0] = 0.0
    assert fm.x[0] == 0.25
    with pytest.raises(ValueError):
        FractionalMatching(g, np.array([0.5]))


# ----------------------------------------------------- pipeline-level ratios


def test_unweighted_fractional_value_ratio_floor():
    # mean total fractional value against the exact expected matching:
    # the guarantee is (1 - 2 eps)(4 sqrt(2) - 5), observed ~0.86+
    from stochmatch.estimator import expected_matching
    from stochmatch.experiment import run_fractional_pipeline

    graphs = [
        StochasticGraph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)], p_v=0.8, p_e=0.9),
        StochasticGraph(6, [(0, 1), (0, 3), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)], p_v=0.7),
    ]
    eps = 0.1
    floor = (1.0 - 2.0 * eps) * (4.0 * math.sqrt(2.0) - 5.0)
    runs = 40
    for g in graphs:
        denom = expected_matching(g, mode="exact").value
        total = 0.0
        for t in range(runs):
            res = run_fractional_pipeline(g, eps, RngSeed(50 + t), r_cap=800, q_mode="exact")
            total += res.x.total_value()
        assert total / runs >= floor * denom
