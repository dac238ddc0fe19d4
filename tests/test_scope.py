"""The per-call scope: one matcher and one exact outcome list per graph
for the length of one operation, and nothing kept after it."""

from __future__ import annotations

import gc
import json
import weakref

import stochmatch.estimator as estimator
import stochmatch.experiment as experiment
import stochmatch.matching as matching
from stochmatch.cli import main
from stochmatch.estimator import ExhaustiveOracle, approximation_ratio
from stochmatch.experiment import ExperimentConfig, _evaluate_point, run_fractional_pipeline
from stochmatch.generators import generate_graph, parse_generator, parse_weights
from stochmatch.matching import _per_call_scope, _scoped_matcher
from stochmatch.realization import RngSeed


def small_weighted_graph():
    spec = parse_generator("erdos-renyi(n=6,p=0.5)")
    spec.weights, spec.weight_args = parse_weights("uniform(0.1,10.0)")
    spec.seed = 3
    return generate_graph(spec, 0.8, 0.7)


def counting(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_scope_is_per_call(monkeypatch):
    # A cache that outlived the first call would leave the second warm.
    g = small_weighted_graph()
    solves = counting(monkeypatch, matching, "_optimum")
    per_call = []
    for _ in range(2):
        before = solves[0]
        run_fractional_pipeline(g, 0.3, RngSeed(5), r_cap=30, q_mode="exact")
        per_call.append(solves[0] - before)
    assert per_call[0] > 0
    assert per_call[0] == per_call[1]


def test_exact_sweep_point_enumerates_once_and_matches_separate_calls(monkeypatch):
    cfg = ExperimentConfig(
        epsilon=[0.3], p_v=[0.8], p_e=[0.7], generator="erdos-renyi(n=6,p=0.5)",
        weights="uniform(0.1,10.0)", gen_seed=3, r_cap=30, q_mode="exact", seed=11,
    )
    enumerations = counting(monkeypatch, estimator, "edge_mask_distribution")
    row = _evaluate_point(cfg.to_dict(), 0)
    assert enumerations[0] == 1

    g = cfg.base_graph().with_probabilities(0.8, 0.7)
    rng = RngSeed(cfg.seed, stream=0)
    result = run_fractional_pipeline(g, 0.3, rng, r_cap=30, q_mode="exact")
    ratio = approximation_ratio(g, result.sparsifier.edge_mask, mode="exact", rng=rng)
    assert enumerations[0] == 3  # the pipeline's and the ratio's, once each
    assert float.hex(row["ratio"]) == float.hex(ratio.value)
    assert row["R_or_beta"] == result.params.rounds
    assert row["max_deg_Q"] == result.sparsifier.subgraph_max_degree()
    assert row["checks_passed"] == result.checks_passed


def test_one_matcher_per_graph_inside_a_scope_and_none_after():
    g = small_weighted_graph()
    other = small_weighted_graph()
    assert _scoped_matcher(g) is not _scoped_matcher(g)
    with _per_call_scope():
        shared = _scoped_matcher(g)
        assert ExhaustiveOracle(g).matcher is shared
        assert _scoped_matcher(other) is not shared
        with _per_call_scope():
            assert _scoped_matcher(g) is shared
        assert _scoped_matcher(g) is shared
        shared.for_mask(None)
        ref = weakref.ref(shared)
        del shared
    gc.collect()
    assert ref() is None
    assert _scoped_matcher(g).cache_size() == 0


def test_cli_exact_estimate_with_restriction_enumerates_once(tmp_path, monkeypatch):
    sp = str(tmp_path / "sp.json")
    est = str(tmp_path / "est.json")
    graph = ["--generator", "erdos-renyi(n=6, p=0.6)", "--gen-seed", "2", "--p-v", "0.7"]
    assert main(["sparsify", *graph, "--epsilon", "0.3", "--r-cap", "50", "--output", sp]) == 0
    enumerations = counting(monkeypatch, estimator, "edge_mask_distribution")
    argv = ["estimate", *graph, "--mode", "exact", "--restrict", sp, "--output", est]
    assert main(argv) == 0
    assert enumerations[0] == 1
    assert main(["check", est]) == 0
    assert enumerations[0] == 2


def test_cli_sweep_points_do_not_share_a_scope(tmp_path, monkeypatch):
    # Each point's scope closes before the next point starts.
    held = []
    ratio = experiment.approximation_ratio

    def spy(g, *args, **kwargs):
        held.append(len(matching._SCOPE.get()))
        return ratio(g, *args, **kwargs)

    monkeypatch.setattr(experiment, "approximation_ratio", spy)
    cfg = dict(
        epsilon=[0.3], p_v=[0.9, 0.8, 0.7], generator="path(n=5)", r_cap=20,
        q_mode="exact", output=str(tmp_path / "rows.csv"),
    )
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", str(tmp_path / "cfg.json")]) == 0
    assert held == [1, 1, 1]
