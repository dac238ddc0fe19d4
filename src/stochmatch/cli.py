"""Command line front end.

Subcommands:
    sparsify    build the multi-round subsampled subgraph, report/record it
    edcs        build the bounded-degree subgraph, report/record it
    estimate    expected matching value, optionally against a recorded subgraph
    oracle      exact per-edge matching probabilities (small graphs only)
    experiment  run a sweep described by a JSON config
    check       re-derive and validate a recorded artifact

Artifacts are JSON objects tagged with a "kind" field so check can
dispatch without guessing.  All floats are printed with repr for exact
round trips.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .edcs import EdcsParams, EdcsSubgraph, build_edcs, compute_beta, verify_edcs
from .errors import BudgetExceededError, GraphFormatError
from .estimator import ExhaustiveOracle, approximation_ratio, expected_matching
from .experiment import DEFAULT_R_CAP, ExperimentConfig, run_experiment
from .generators import generate_graph, parse_generator, parse_weights
from .graph import StochasticGraph
from .io import dump_json, graph_from_json, graph_to_json, load_json, parse_graph_file
from .matching import _per_call_scope
from .realization import ENUMERATION_BUDGET_BITS, RngSeed
from .sparsifier import Sparsifier, SparsifierParams, build_sparsifier, compute_params

__all__ = ["main"]


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="FILE", help="graph in the text format")
    p.add_argument(
        "--generator", metavar="SPEC", help='e.g. "erdos-renyi(n=8,p=0.4)" or "cycle(n=9)"'
    )
    p.add_argument("--weights", default="unit", help="unit, uniform(lo,hi) or exponential(mean)")
    p.add_argument("--gen-seed", type=int, default=0, help="seed for generated structure/weights")
    p.add_argument("--p-v", type=float, default=None, help="override vertex probability")
    p.add_argument("--p-e", type=float, default=None, help="override edge probability")


def _load_graph(args: argparse.Namespace) -> StochasticGraph:
    if (args.graph is None) == (args.generator is None):
        raise ValueError("exactly one of --graph and --generator is required")
    if args.graph is not None:
        g = parse_graph_file(args.graph)
    else:
        spec = parse_generator(args.generator)
        spec.weights, spec.weight_args = parse_weights(args.weights)
        spec.seed = args.gen_seed
        g = generate_graph(spec)
    if args.p_v is not None or args.p_e is not None:
        g = g.with_probabilities(
            g.p_v if args.p_v is None else args.p_v,
            g.p_e if args.p_e is None else args.p_e,
        )
    return g


def _edge_pairs(g: StochasticGraph, edge_mask: int) -> list[list[int]]:
    return [[g.edges[i].u, g.edges[i].v] for i in range(g.m) if edge_mask >> i & 1]


def _mask_from_pairs(g: StochasticGraph, pairs) -> int:
    mask = 0
    for u, v in pairs:
        mask |= 1 << g.edge_index(u, v)
    return mask


def _cmd_sparsify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    params = compute_params(args.epsilon, g.p_v, g.p_e, args.r_cap)
    sp = build_sparsifier(g, params, RngSeed(args.seed, args.stream))
    print(f"rounds: {params.rounds} (formula {params.rounds_formula}, cap {params.r_cap})")
    print(f"tau: {repr(params.tau)}")
    print(f"edges kept: {sp.size} of {g.m}")
    print(f"max degree: {sp.subgraph_max_degree()}")
    if args.output:
        artifact = {
            "kind": "sparsifier",
            "graph": graph_to_json(g),
            "seed": args.seed,
            "stream": args.stream,
            "params": {
                "epsilon": params.epsilon,
                "rounds": params.rounds,
                "tau": params.tau,
                "rounds_formula": params.rounds_formula,
                "r_cap": params.r_cap,
            },
            "counts": [int(c) for c in sp.counts],
            "edges": _edge_pairs(g, sp.edge_mask),
        }
        dump_json(artifact, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_edcs(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    params = compute_beta(args.epsilon, g.p_v, g.p_e, args.c_const)
    h = build_edcs(g, params)
    bad = verify_edcs(g, h)
    print(f"beta: {params.beta} (lower {params.beta_minus})")
    print(f"edges kept: {h.size} of {g.m}")
    print(f"max degree: {h.max_degree()}")
    print(f"violations: {len(bad)}")
    if args.output:
        artifact = {
            "kind": "edcs",
            "graph": graph_to_json(g),
            "params": {
                "beta": params.beta,
                "beta_minus": params.beta_minus,
                "epsilon": params.epsilon,
                "c_const": params.c_const,
            },
            "edges": _edge_pairs(g, h.edge_mask),
            "fixups": h.fixups,
        }
        dump_json(artifact, args.output)
        print(f"wrote {args.output}")
    return 1 if bad else 0


# estimate and check run the expectation and the ratio on one graph, so
# each opens one scope for both.  Other commands run one stage per graph,
# and each point of an experiment sweep opens its own scope; a scope
# around the whole sweep would hold every point's cache until the end.
@_per_call_scope()
def _cmd_estimate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    restrict = None
    if args.restrict:
        artifact = load_json(args.restrict)
        if "edges" not in artifact:
            raise ValueError(f"{args.restrict} has no edge list to restrict to")
        restrict = _mask_from_pairs(g, artifact["edges"])
    how = dict(
        mode=args.mode, rng=RngSeed(args.seed), samples=args.samples,
        confidence=args.confidence, budget_bits=args.budget_bits,
    )
    est = expected_matching(g, restrict, **how)
    print(f"mode: {est.mode}")
    print(f"expected value: {repr(est.value)} +- {repr(est.ci)}")
    result = {
        "kind": "estimate",
        "graph": graph_to_json(g),
        "mode": est.mode,
        "value": est.value,
        "ci": est.ci,
        "samples": est.samples,
        "confidence": est.confidence,
        "seed": args.seed,
        "budget_bits": args.budget_bits,
    }
    if restrict is not None:
        ratio = approximation_ratio(g, restrict, **how)
        print(f"ratio vs full graph: {repr(ratio.value)} +- {repr(ratio.ci)}")
        result["restrict"] = args.restrict
        result["restrict_edges"] = _edge_pairs(g, restrict)
        result["ratio"] = ratio.value
        result["ratio_ci"] = ratio.ci
    if args.output:
        dump_json(result, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    oracle = ExhaustiveOracle(g, args.budget_bits)
    q = oracle.edge_probabilities()
    value = oracle.expected_value()
    for i, e in enumerate(g.edges):
        print(f"{e.u} {e.v} {repr(float(q[i]))}")
    print(f"expected value: {repr(value)}")
    if args.output:
        artifact = {
            "kind": "oracle",
            "graph": graph_to_json(g),
            "q": [float(x) for x in q],
            "expected_value": value,
            "budget_bits": args.budget_bits,
        }
        dump_json(artifact, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_dict(load_json(args.config))
    if args.output:
        cfg.output = args.output
    if args.workers is not None:
        cfg.workers = args.workers
    rows = run_experiment(cfg)
    failed = sum(1 for r in rows if not r["checks_passed"])
    print(f"wrote {len(rows)} rows to {cfg.output}")
    if failed:
        print(f"{failed} rows failed their checks")
        return 1
    return 0


def _check_sparsifier(artifact: dict) -> list[str]:
    problems: list[str] = []
    g = graph_from_json(artifact["graph"])
    params = SparsifierParams(**artifact["params"])
    counts = np.asarray(artifact["counts"], dtype=np.int64)
    if counts.shape != (g.m,):
        return [f"counts has shape {counts.shape}, expected ({g.m},)"]
    recorded = Sparsifier(g, params, counts)
    if _mask_from_pairs(g, artifact["edges"]) != recorded.edge_mask:
        problems.append("edge list disagrees with the positive counts")
    rebuilt = build_sparsifier(g, params, RngSeed(artifact["seed"], artifact["stream"]))
    if not np.array_equal(rebuilt.counts, recorded.counts):
        problems.append("rebuild with the recorded seed gives different counts")
    return problems


def _check_edcs(artifact: dict) -> list[str]:
    g = graph_from_json(artifact["graph"])
    params = EdcsParams(**artifact["params"])
    problems = []
    want = compute_beta(params.epsilon, g.p_v, g.p_e, params.c_const)
    if (params.beta, params.beta_minus) != (want.beta, want.beta_minus):
        problems.append(
            f"bounds ({params.beta}, {params.beta_minus}) differ from ({want.beta}, "
            f"{want.beta_minus}) given by epsilon {params.epsilon!r} and c_const {params.c_const!r}"
        )
    mask = _mask_from_pairs(g, artifact["edges"])
    h = EdcsSubgraph(g, params, mask, artifact.get("fixups", 0))
    problems += [f"{side} violation at edge {i} (degree sum {s})" for side, i, s in verify_edcs(g, h)]
    return problems


def _check_oracle(artifact: dict) -> list[str]:
    g = graph_from_json(artifact["graph"])
    oracle = ExhaustiveOracle(g, artifact.get("budget_bits", ENUMERATION_BUDGET_BITS))
    q = oracle.edge_probabilities()
    problems = [
        f"q[{i}] recorded {artifact['q'][i]!r}, recomputed {float(q[i])!r}"
        for i in range(g.m)
        if abs(artifact["q"][i] - float(q[i])) > 1e-12
    ]
    value = oracle.expected_value()
    if abs(artifact["expected_value"] - value) > 1e-12:
        problems.append(f"expected value recorded {artifact['expected_value']!r}, recomputed {value!r}")
    return problems


def _check_estimate(artifact: dict) -> list[str]:
    """Re-derive value and ci (ratio and ratio_ci when a restriction is
    recorded) with the recorded mode, seed, samples, confidence and
    budget; a missing seed or budget takes the command's default."""
    g = graph_from_json(artifact["graph"])
    restrict = None
    if "restrict_edges" in artifact:
        restrict = _mask_from_pairs(g, artifact["restrict_edges"])
    seed = artifact.get("seed", 0)
    how = dict(
        mode={"monte-carlo": "mc"}.get(artifact["mode"], artifact["mode"]),
        rng=RngSeed(seed),
        samples=artifact["samples"],
        confidence=artifact["confidence"],
        budget_bits=artifact.get("budget_bits", ENUMERATION_BUDGET_BITS),
    )
    est = expected_matching(g, restrict, **how)
    recomputed = {"value": est.value, "ci": est.ci}
    if restrict is not None:
        ratio = approximation_ratio(g, restrict, **how)
        recomputed.update(ratio=ratio.value, ratio_ci=ratio.ci)
    with_seed = f" with seed {seed}" if est.mode == "monte-carlo" else ""
    return [
        f"{key} recorded {artifact[key]!r}, recomputed {value!r}{with_seed}"
        for key, value in recomputed.items()
        if abs(artifact[key] - value) > 1e-12
    ]


@_per_call_scope()
def _cmd_check(args: argparse.Namespace) -> int:
    artifact = load_json(args.artifact)
    kind = artifact.get("kind")
    checkers = {
        "sparsifier": _check_sparsifier,
        "edcs": _check_edcs,
        "oracle": _check_oracle,
        "estimate": _check_estimate,
    }
    if kind not in checkers:
        raise ValueError(f"cannot check artifact of kind {kind!r}")
    problems = checkers[kind](artifact)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"OK: {args.artifact} ({kind})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="Matching subgraphs for graphs with random vertex and edge failures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="build the subsampled matching cover")
    _add_graph_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--r-cap", type=int, default=DEFAULT_R_CAP,
                   help=f"cap on sampling rounds (default {DEFAULT_R_CAP})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("edcs", help="build the bounded-degree subgraph")
    _add_graph_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c-const", type=float, default=128.0)
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=_cmd_edcs)

    p = sub.add_parser("estimate", help="expected maximum matching value")
    _add_graph_args(p)
    p.add_argument("--mode", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-bits", type=int, default=ENUMERATION_BUDGET_BITS)
    p.add_argument("--restrict", metavar="JSON",
                   help="artifact whose edge set the matching is restricted to")
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact per-edge matching probabilities")
    _add_graph_args(p)
    p.add_argument("--budget-bits", type=int, default=ENUMERATION_BUDGET_BITS)
    p.add_argument("--output", metavar="JSON")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("config", metavar="CONFIG_JSON")
    p.add_argument("--output", metavar="CSV", help="override the config's output path")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check", help="validate a recorded artifact")
    p.add_argument("artifact", metavar="JSON")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        GraphFormatError,
        BudgetExceededError,
        RuntimeError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
