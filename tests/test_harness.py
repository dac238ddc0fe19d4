"""Generators, file formats, sweep configs, and the command line."""

from __future__ import annotations

import io
import json
import math

import pytest

from stochmatch.cli import main
from stochmatch.errors import GraphFormatError
from stochmatch.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    run_experiment,
    sidecar_path,
)
from stochmatch.generators import (
    GeneratorSpec,
    generate_graph,
    parse_generator,
    parse_weights,
)
from stochmatch.graph import StochasticGraph
from stochmatch.io import (
    graph_from_json,
    graph_to_json,
    graph_to_text,
    load_json,
    parse_graph_file,
    parse_graph_text,
    write_graph_file,
)


# ----------------------------------------------------------------- generators


def pairs_of(g: StochasticGraph) -> list[tuple[int, int]]:
    return [(e.u, e.v) for e in g.edges]


def test_families_produce_expected_structures():
    assert pairs_of(generate_graph(parse_generator("path(n=4)"))) == [(0, 1), (1, 2), (2, 3)]
    assert pairs_of(generate_graph(parse_generator("cycle(n=4)"))) == [
        (0, 1), (0, 3), (1, 2), (2, 3),
    ]
    assert pairs_of(generate_graph(parse_generator("star(n=4)"))) == [(0, 1), (0, 2), (0, 3)]
    assert generate_graph(parse_generator("complete(n=5)")).m == 10
    assert generate_graph(parse_generator("erdos-renyi(n=8, p=0)")).m == 0
    assert generate_graph(parse_generator("erdos-renyi(n=8, p=1)")).m == 28
    b = generate_graph(parse_generator("bipartite(a=2, b=3)"))
    assert b.n == 5 and b.m == 6
    assert all(u < 2 <= v for u, v in pairs_of(b))


def test_generation_is_deterministic_in_seed():
    spec = parse_generator("erdos-renyi(n=8, p=0.4)")
    spec.weights, spec.weight_args = parse_weights("uniform(0.1, 10)")
    spec.seed = 7
    a, b = generate_graph(spec), generate_graph(spec)
    assert pairs_of(a) == pairs_of(b)
    assert [e.weight for e in a.edges] == [e.weight for e in b.edges]
    spec.seed = 8
    assert pairs_of(generate_graph(spec)) != pairs_of(a)


def test_weight_models_share_the_edge_structure():
    # weights come from a separate substream, so changing the model must
    # not disturb which edges exist
    made = {}
    for model in ("unit", "uniform(0.5, 2)", "exponential(2)"):
        spec = parse_generator("erdos-renyi(n=9, p=0.5)")
        spec.weights, spec.weight_args = parse_weights(model)
        spec.seed = 3
        made[model] = generate_graph(spec)
    base = pairs_of(made["unit"])
    assert all(pairs_of(g) == base for g in made.values())
    assert not made["unit"].weighted
    assert all(e.weight == 1.0 for e in made["unit"].edges)
    assert made["uniform(0.5, 2)"].weighted
    assert all(0.5 <= e.weight < 2.0 for e in made["uniform(0.5, 2)"].edges)
    assert made["exponential(2)"].weighted
    assert all(e.weight > 0.0 for e in made["exponential(2)"].edges)


def test_spec_labels():
    spec = parse_generator("erdos-renyi(n=8, p=0.4)")
    spec.weights, spec.weight_args = parse_weights("uniform(0.1, 10)")
    spec.seed = 7
    assert spec.label() == "erdos-renyi(n=8,p=0.4):uniform(0.1,10):s7"
    assert GeneratorSpec("path", {"n": 5}).label() == "path(n=5):s0"


@pytest.mark.parametrize(
    "text",
    ["path", "path(n=5", "ring(n=5)", "path(5)", "PATH(n=5)"],
)
def test_parse_generator_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_generator(text)


def test_parse_weights_accepts_and_rejects():
    assert parse_weights("unit") == ("unit", ())
    assert parse_weights(" uniform(0.1, 10) ") == ("uniform", (0.1, 10.0))
    assert parse_weights("exponential(2)") == ("exponential", (2.0,))
    for bad in ("triangular(1,2,3)", "uniform(5, 2)", "uniform(-1, 2)",
                "uniform(1)", "exponential()", "exponential(-1)"):
        with pytest.raises(ValueError):
            parse_weights(bad)


@pytest.mark.parametrize(
    "spec_text",
    [
        "path()",  # missing n
        "path(n=2.5)",  # non-integer n
        "cycle(n=2)",  # below the family minimum
        "erdos-renyi(n=5)",  # missing p
        "erdos-renyi(n=5, p=1.5)",  # p out of range
        "bipartite(a=2, b=3, p=2)",
    ],
)
def test_generate_graph_validates_options(spec_text):
    with pytest.raises(ValueError):
        generate_graph(parse_generator(spec_text))


# ------------------------------------------------------------------- file IO


def test_text_round_trip_is_byte_identical(tmp_path):
    g = StochasticGraph(
        4,
        [(0, 1, 0.1), (0, 2, 2.5), (1, 3, 1.0 / 3.0)],
        p_v=0.3,
        p_e=0.7,
        weighted=True,
    )
    path = tmp_path / "g.txt"
    write_graph_file(g, path)
    g2 = parse_graph_file(path)
    assert g2 == g
    assert graph_to_text(g2) == path.read_text(encoding="utf-8")


def test_unweighted_round_trip(tmp_path):
    g = StochasticGraph(3, [(0, 1), (1, 2)], p_v=0.5, p_e=1.0)
    path = tmp_path / "g.txt"
    write_graph_file(g, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[1] == "0 1"  # no weight column
    assert parse_graph_file(path) == g


def test_comments_and_blank_lines_are_ignored():
    text = "# a comment\n\n3 2 unweighted 0.5 1.0\n0 1  # inline\n\n1 2\n"
    g = parse_graph_text(text)
    assert (g.n, g.m, g.p_v, g.p_e) == (3, 2, 0.5, 1.0)


def test_parse_accepts_open_handles():
    handle = io.StringIO("2 1 unweighted 1.0 1.0\n0 1\n")
    assert parse_graph_file(handle).m == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty graph file"),
        ("3 2 unweighted 0.5\n0 1\n1 2\n", "line 1"),
        ("x 2 unweighted 0.5 1.0\n0 1\n1 2\n", "must be integers"),
        ("3 2 directed 0.5 1.0\n0 1\n1 2\n", "kind"),
        ("3 2 unweighted a 1.0\n0 1\n1 2\n", "must be floats"),
        ("3 2 unweighted 0.5 1.0\n0 1\n", "promises 2 edges"),
        ("3 2 unweighted 0.5 1.0\n0 1\n1 2 9.0\n", "line 3"),
        ("3 1 weighted 0.5 1.0\n0 1 oops\n", "line 2"),
        ("2 2 unweighted 1.0 1.0\n0 1\n0 1\n", "duplicate"),
    ],
)
def test_format_errors_name_the_offending_line(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph_text(text)


def test_graph_json_round_trip():
    g = StochasticGraph(4, [(0, 1, 0.25), (2, 3, 4.0)], p_v=0.9, p_e=0.4, weighted=True)
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(ValueError, match="malformed graph JSON"):
        graph_from_json({"n": 3})


# -------------------------------------------------------------- sweep configs


def test_config_rejects_bad_shapes():
    ok = dict(epsilon=[0.3], generator="path(n=4)")
    ExperimentConfig.from_dict(ok)
    for bad in (
        dict(ok, unknown_key=1),
        dict(ok, algorithm="greedy"),
        dict(ok, q_mode="guess"),
        dict(ok, epsilon=[]),
        dict(ok, workers=0),
        dict(ok, graph_file="also.txt"),  # both sources
        dict(epsilon=[0.3]),  # no source
    ):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(bad)


def test_config_round_trip_and_sweep_order():
    cfg = ExperimentConfig(
        epsilon=[0.1, 0.3], p_v=[1.0, 0.5], p_e=[0.9], generator="path(n=4)"
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # p_v outermost, epsilon innermost
    assert cfg.sweep() == [
        (1.0, 0.9, 0.1), (1.0, 0.9, 0.3), (0.5, 0.9, 0.1), (0.5, 0.9, 0.3),
    ]


def test_graph_id_uses_file_stem_or_label(tmp_path):
    path = tmp_path / "ring.txt"
    write_graph_file(StochasticGraph(3, [(0, 1), (1, 2)]), path)
    assert ExperimentConfig(epsilon=[0.3], graph_file=str(path)).graph_id() == "ring"
    cfg = ExperimentConfig(epsilon=[0.3], generator="cycle(n=5)", gen_seed=2)
    assert cfg.graph_id() == "cycle(n=5):s2"


# ------------------------------------------------------------------- sweeps


def sweep_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        epsilon=[0.3],
        p_v=[1.0, 0.8],
        generator="erdos-renyi(n=6, p=0.5)",
        gen_seed=3,
        r_cap=200,
        samples=2000,
        q_mode="exact",
        output=str(tmp_path / "rows.csv"),
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_run_experiment_writes_rows_and_sidecar(tmp_path):
    cfg = sweep_config(tmp_path)
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert all(r["checks_passed"] for r in rows)
    lines = (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    sidecar = load_json(sidecar_path(cfg.output))
    assert sidecar == cfg.to_dict()


def test_worker_count_does_not_change_output(tmp_path):
    a = sweep_config(tmp_path, output=str(tmp_path / "a.csv"), workers=1)
    b = sweep_config(tmp_path, output=str(tmp_path / "b.csv"), workers=2)
    run_experiment(a)
    run_experiment(b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_edcs_sweep_rows(tmp_path):
    cfg = sweep_config(tmp_path, algorithm="edcs", p_v=[1.0])
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    # beta = ceil(128 * ln(1/0.3) / 0.09); the subgraph then keeps the
    # whole graph, so the ratio is exactly one
    assert row["R_or_beta"] == math.ceil(128 * math.log(1 / 0.3) / 0.09) == 1713
    assert row["ratio"] == 1.0
    assert row["checks_passed"] is True


# -------------------------------------------------------------- command line


def test_cli_oracle_check_round_trip(tmp_path, capsys):
    art = str(tmp_path / "oracle.json")
    assert main(["oracle", "--generator", "path(n=3)", "--p-v", "0.5", "--output", art]) == 0
    assert main(["check", art]) == 0
    assert "OK" in capsys.readouterr().out
    data = load_json(art)
    data["q"][0] += 0.25
    (tmp_path / "oracle.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", art]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_sparsify_check_round_trip(tmp_path, capsys):
    art = str(tmp_path / "sp.json")
    argv = [
        "sparsify", "--generator", "cycle(n=5)", "--p-v", "0.8",
        "--epsilon", "0.3", "--r-cap", "50", "--seed", "4", "--output", art,
    ]
    assert main(argv) == 0
    assert main(["check", art]) == 0
    capsys.readouterr()
    data = load_json(art)
    data["counts"][0] += 1
    (tmp_path / "sp.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", art]) == 1


def test_cli_edcs_artifact_check(tmp_path):
    art = str(tmp_path / "h.json")
    argv = ["edcs", "--generator", "complete(n=6)", "--epsilon", "0.3", "--output", art]
    assert main(argv) == 0
    assert main(["check", art]) == 0
    assert load_json(art)["kind"] == "edcs"


def test_cli_edcs_check_rejects_edited_bounds(tmp_path, capsys):
    # With beta raised and beta_minus lowered every degree sum passes
    # the recorded bounds, so only re-deriving them catches the edit.
    art = tmp_path / "h.json"
    argv = ["edcs", "--generator", "complete(n=8)", "--epsilon", "0.3", "--output", str(art)]
    assert main(argv) == 0
    data = load_json(str(art))
    data["params"].update(beta=10**6, beta_minus=1)
    art.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(art)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: bounds (1000000, 1) differ from (1713, 1712)" in out


def test_cli_estimate_with_restriction(tmp_path):
    sp = str(tmp_path / "sp.json")
    est = str(tmp_path / "est.json")
    graph = ["--generator", "erdos-renyi(n=6, p=0.6)", "--gen-seed", "2", "--p-v", "0.7"]
    assert main(["sparsify", *graph, "--epsilon", "0.3", "--r-cap", "100", "--output", sp]) == 0
    argv = ["estimate", *graph, "--mode", "exact", "--restrict", sp, "--output", est]
    assert main(argv) == 0
    data = load_json(est)
    assert data["mode"] == "exact" and data["ci"] == 0.0
    assert 0.0 <= data["ratio"] <= 1.0
    assert main(["check", est]) == 0


def test_cli_experiment_runs_config(tmp_path):
    out = str(tmp_path / "rows.csv")
    cfg = dict(
        epsilon=[0.3], generator="path(n=5)", r_cap=100,
        q_mode="exact", output=out,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["experiment", str(cfg_path)]) == 0
    assert (tmp_path / "rows.csv").exists()
    # the --output flag overrides the config's path
    other = str(tmp_path / "other.csv")
    assert main(["experiment", str(cfg_path), "--output", other, "--workers", "1"]) == 0
    assert (tmp_path / "other.csv").exists()


def test_cli_reports_errors_as_exit_one(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kind": "mystery"}), encoding="utf-8")
    cases = [
        ["oracle"],  # no graph source
        ["oracle", "--graph", "a.txt", "--generator", "path(n=3)"],  # both
        ["oracle", "--generator", "ring(n=5)"],  # unknown family
        ["oracle", "--graph", str(tmp_path / "missing.txt")],
        ["sparsify", "--generator", "path(n=4)", "--epsilon", "2.0"],
        ["check", str(bogus)],
        ["experiment", str(tmp_path / "missing.json")],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
