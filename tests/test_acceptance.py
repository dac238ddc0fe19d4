"""Acceptance gate: one check per release criterion, one verdict line each.

Each test prints "criterion NN (<label>): PASS/FAIL" before asserting, so
a full run (pytest -rP) reads as a checklist.  Tolerances and trial counts
are part of the contract and are not lowered to make runs faster.
"""

from __future__ import annotations

import math
import random

import numpy as np

from oracles import (
    brute_force_max_weight,
    oracle_edge_match_probabilities,
    random_test_graph,
)
from stochmatch.edcs import (
    EdcsParams,
    build_edcs,
    compute_beta,
    edcs_matching_ratio,
    verify_edcs,
)
from stochmatch.estimator import approximation_ratio, expected_matching
from stochmatch.experiment import ExperimentConfig, run_experiment, run_fractional_pipeline
from stochmatch.fractional import check_blossom_constraints
from stochmatch.graph import StochasticGraph
from stochmatch.matching import max_weight_matching
from stochmatch.realization import RngSeed
from stochmatch.sparsifier import build_sparsifier, compute_params


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")


def instance_pool(
    seed: int, count: int, weighted: bool, max_n: int = 6, max_m: int = 9
) -> list[StochasticGraph]:
    """Random oracle-enumerable graphs with probabilities in [0.3, 1]."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        n, edges = random_test_graph(rng, max_n=max_n, max_m=max_m, weighted=weighted)
        if not edges:
            continue
        if weighted:
            edges = [(u, v, rng.uniform(0.1, 10.0)) for u, v, _ in edges]
        g = StochasticGraph(
            n, edges, p_v=rng.uniform(0.3, 1.0), p_e=rng.uniform(0.3, 1.0), weighted=weighted
        )
        pool.append(g)
    return pool


def test_criterion_01_oracle_identity():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(100):
        n, edges = random_test_graph(rng, max_n=6, max_m=10, weighted=True)
        p_v, p_e = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        g = StochasticGraph(n, edges, p_v=p_v, p_e=p_e, weighted=True)
        q = oracle_edge_match_probabilities(
            n, [(e.u, e.v, e.weight) for e in g.edges], p_v, p_e
        )
        lhs = expected_matching(g, mode="exact").value
        rhs = math.fsum(e.weight * qi for e, qi in zip(g.edges, q))
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    report(1, "oracle identity", ok)
    assert ok, f"worst deviation {worst!r}"


def test_criterion_02_matching_engine_equivalence():
    rng = random.Random(2)
    ok = True
    for _ in range(1000):
        n, edges = random_test_graph(rng, max_n=6, max_m=8, weighted=True)
        g = StochasticGraph(n, edges, weighted=True)
        mm = max_weight_matching(g)
        again = max_weight_matching(g)
        bi, bw = brute_force_max_weight(n, [(e.u, e.v, e.weight) for e in g.edges])
        ok = ok and mm.indices == bi and mm.total_weight == bw and again.indices == mm.indices
    report(2, "matching engine equivalence", ok)
    assert ok


def test_criterion_03_degenerate_probabilities_lossless():
    ok = True
    pool = instance_pool(3, 6, weighted=False) + instance_pool(30, 6, weighted=True)
    for i, g in enumerate(pool):
        g = g.with_probabilities(1.0, 1.0)
        s = build_sparsifier(g, compute_params(0.2, 1.0, 1.0, r_cap=50), RngSeed(i))
        ok = ok and approximation_ratio(g, s.edge_mask, mode="exact").value == 1.0
        h = build_edcs(g, compute_beta(0.3, 1.0, 1.0))
        ok = ok and edcs_matching_ratio(g, h) == 1.0
        ok = ok and approximation_ratio(g, h.edge_mask, mode="exact").value == 1.0
    report(3, "lossless at p = 1", ok)
    assert ok


def test_criterion_04_unweighted_ratio_floor():
    worst = 1.0
    for i, g in enumerate(instance_pool(4, 50, weighted=False)):
        params = compute_params(0.1, g.p_v, g.p_e, r_cap=2000)
        s = build_sparsifier(g, params, RngSeed(i))
        worst = min(worst, approximation_ratio(g, s.edge_mask, mode="exact").value)
    ok = worst >= 0.65
    report(4, "unweighted ratio floor", ok)
    assert ok, f"worst exact ratio {worst!r}"


def test_criterion_05_weighted_ratio_floor():
    worst = 1.0
    for i, g in enumerate(instance_pool(5, 50, weighted=True)):
        params = compute_params(0.1, g.p_v, g.p_e, r_cap=2000)
        s = build_sparsifier(g, params, RngSeed(i))
        worst = min(worst, approximation_ratio(g, s.edge_mask, mode="exact").value)
    ok = worst >= 0.5
    report(5, "weighted ratio floor", ok)
    assert ok, f"worst exact ratio {worst!r}"


def test_criterion_06_non_crucial_invariants():
    eps = 0.2
    ok = True
    for i, g in enumerate(instance_pool(6, 30, weighted=True)):
        res = run_fractional_pipeline(g, eps, RngSeed(i), r_cap=1000, q_mode="exact")
        qn = res.stats.vertex_q_array(within=res.non_crucial_mask)
        loads = res.x_non_crucial.loads()
        for v in range(g.n):
            ok = ok and loads[v] <= max(qn[v], eps) / g.p_v + 1e-9
        # subset sums over E(U) stay below eps * floor(|U|/2) for every
        # U up to size floor(1/eps), checked exhaustively
        ok = ok and not check_blossom_constraints(res.x_non_crucial, eps, bound_scale=eps)
    report(6, "non-crucial procedure invariants", ok)
    assert ok


def test_criterion_07_no_blossom_violations():
    eps = 0.2
    ok = True
    for i, g in enumerate(instance_pool(70, 25, weighted=False)):
        res = run_fractional_pipeline(g, eps, RngSeed(i), r_cap=1000, q_mode="exact")
        ok = ok and not check_blossom_constraints(res.x, eps)
    for i, g in enumerate(instance_pool(71, 25, weighted=True)):
        res = run_fractional_pipeline(g, eps, RngSeed(1000 + i), r_cap=1000, q_mode="exact")
        ok = ok and not check_blossom_constraints(res.x, eps)
    report(7, "no odd-set violations after either procedure", ok)
    assert ok


def test_criterion_08_edcs_certification_and_two_thirds():
    rng = random.Random(8)
    ok = True
    for _ in range(200):
        n = rng.randint(4, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = rng.randint(3, min(14, len(pairs)))
        g = StochasticGraph(n, sorted(pairs[:m]))
        beta = rng.choice([3, 4, 5, 7])
        h = build_edcs(g, EdcsParams(beta, beta - 1, 0.25))
        ok = ok and verify_edcs(g, h) == []
    eps = 0.3
    lam = eps / 32.0
    beta = math.ceil(8.0 * lam**-2 * math.log(1.0 / lam))
    params = EdcsParams(beta, math.ceil((1.0 - lam) * beta), eps)
    for g in instance_pool(80, 12, weighted=False):
        ok = ok and edcs_matching_ratio(g, build_edcs(g, params)) >= 2.0 / 3.0 - eps
    report(8, "bounded-degree subgraph certification and 2/3 floor", ok)
    assert ok


def test_criterion_09_stochastic_subgraph_ratio():
    graphs = [
        StochasticGraph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]),
        StochasticGraph(6, [(0, 1), (0, 3), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)]),
    ]
    ok = True
    for g0 in graphs:
        for p_v in (0.5, 0.8, 1.0):
            for p_e in (0.5, 0.8, 1.0):
                g = g0.with_probabilities(p_v, p_e)
                h = build_edcs(g, compute_beta(0.3, p_v, p_e))
                est = approximation_ratio(g, h.edge_mask, mode="exact")
                ok = ok and est.value >= 0.6
                # desk-scale degree bounds, reported but not gated
                small_h = build_edcs(g, EdcsParams(4, 3, 0.25))
                small = approximation_ratio(g, small_h.edge_mask, mode="exact")
                print(
                    f"  n={g.n} m={g.m} p_v={p_v} p_e={p_e}: "
                    f"ratio {est.value!r}, beta=4 ratio {small.value!r}"
                )
    report(9, "stochastic subgraph ratio floor", ok)
    assert ok


def test_criterion_10_algebraic_pair_bound():
    # sum(a_i b_i) / sum(a_i + b_i / 2) over pairs with a, b >= 0 and
    # a + b <= 1 never beats 6 - 4 sqrt(2), attained at (sqrt2-1, 2-sqrt2)
    lim = 6.0 - 4.0 * math.sqrt(2.0)
    gen = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        a = gen.uniform(0.0, 1.0, size=(50_000, 20))
        b = gen.uniform(0.0, 1.0, size=(50_000, 20)) * (1.0 - a)
        keep = gen.random(size=(50_000, 20)) < gen.uniform(0.05, 1.0, size=(50_000, 1))
        a, b = a * keep, b * keep
        num = (a * b).sum(axis=1)
        den = (a + 0.5 * b).sum(axis=1)
        live = den > 0
        worst = max(worst, float((num[live] / den[live]).max()))
    a_star, b_star = math.sqrt(2.0) - 1.0, 2.0 - math.sqrt(2.0)
    attained = (a_star * b_star) / (a_star + b_star / 2.0)
    ok = worst <= lim + 1e-9 and attained >= lim - 1e-9
    report(10, "algebraic pair bound", ok)
    assert ok, f"max ratio {worst!r}, attained {attained!r}"


def test_criterion_11_reproducible_sweeps(tmp_path):
    outputs = []
    for name, workers in (("a.csv", 1), ("b.csv", 3), ("c.csv", 1)):
        cfg = ExperimentConfig(
            epsilon=[0.2, 0.3],
            p_v=[1.0, 0.7],
            generator="erdos-renyi(n=6, p=0.5)",
            gen_seed=3,
            seed=17,
            r_cap=300,
            q_mode="exact",
            workers=workers,
            output=str(tmp_path / name),
        )
        run_experiment(cfg)
        outputs.append((tmp_path / name).read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    report(11, "byte-identical sweeps at any worker count", ok)
    assert ok
