"""Command line front end.

Subcommands:
    sparsify    build the multi-round subsampled subgraph, report/record it
    edcs        build the bounded-degree subgraph, report/record it
    estimate    expected matching value, optionally against a recorded subgraph
    oracle      exact per-edge matching probabilities (small graphs only)
    experiment  run a sweep described by a JSON config
    check       recompute a recorded artifact and compare every key

Artifacts are JSON objects tagged with a "kind" field so check can
dispatch without guessing.  All floats are printed with repr for exact
round trips.

sparsify, oracle and estimate each build their artifact in one function
from the graph and the command's inputs; the command prints from that
dict and writes it.  check calls the same function on the inputs the
artifact records and reports every key path whose value differs, so a
key added to an artifact is checked with no further code.  A
sparsifier's recorded params are compared with compute_params before
any round runs.  An edcs artifact is verified, not rebuilt: any subgraph
within its degree bounds is valid, and a rebuild costs several times the
verification, so check compares the recorded params with compute_beta
and runs verify_edcs on the recorded edges.
"""

from __future__ import annotations

import argparse
import reprlib
import sys
from collections import Counter
from dataclasses import asdict

from .edcs import EdcsSubgraph, build_edcs, compute_beta, verify_edcs
from .estimator import ExhaustiveOracle, approximation_ratio, expected_matching
from .experiment import DEFAULT_R_CAP, ExperimentConfig, _is_number, run_experiment
from .generators import generate_graph, parse_generator, parse_weights
from .graph import StochasticGraph
from .io import dump_json, graph_from_json, graph_to_json, load_json, parse_graph_file
from .matching import _per_call_scope
from .realization import ENUMERATION_BUDGET_BITS, RngSeed
from .sparsifier import build_sparsifier, compute_params

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
    """Edge mask of a JSON list of [u, v] vertex pairs."""
    if not isinstance(pairs, list):
        raise ValueError(f"edges must be a list of [u, v] pairs, got {reprlib.repr(pairs)}")
    mask = 0
    for pair in pairs:
        u, v = pair if type(pair) is list and len(pair) == 2 else (None, None)
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge {reprlib.repr(pair)} is not a [u, v] pair of vertex ids")
        mask |= 1 << g.edge_index(u, v)
    return mask


def _write(artifact: dict, output: str | None) -> None:
    if output:
        dump_json(artifact, output)
        print(f"wrote {output}")


def _sparsifier_artifact(
    g: StochasticGraph, epsilon: float, r_cap: int | None, seed: int, stream: int
) -> dict:
    params = compute_params(epsilon, g.p_v, g.p_e, r_cap)
    sp = build_sparsifier(g, params, RngSeed(seed, stream))
    return {
        "kind": "sparsifier",
        "graph": graph_to_json(g),
        "seed": seed,
        "stream": stream,
        "params": asdict(params),
        "counts": [int(c) for c in sp.counts],
        "edges": _edge_pairs(g, sp.edge_mask),
    }


def _cmd_sparsify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    artifact = _sparsifier_artifact(g, args.epsilon, args.r_cap, args.seed, args.stream)
    params, edges = artifact["params"], artifact["edges"]
    print(f"rounds: {params['rounds']} (formula {params['rounds_formula']}, cap {params['r_cap']})")
    print(f"tau: {params['tau']!r}")
    print(f"edges kept: {len(edges)} of {g.m}")
    print(f"max degree: {max(Counter(v for pair in edges for v in pair).values(), default=0)}")
    _write(artifact, args.output)
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
    _write({"kind": "edcs", "graph": graph_to_json(g), "params": asdict(params),
            "edges": _edge_pairs(g, h.edge_mask), "fixups": h.fixups}, args.output)
    return 1 if bad else 0


def _estimate_artifact(
    g: StochasticGraph, restrict: tuple[str, int] | None, mode: str, seed: int,
    samples: int, confidence: float, budget_bits: int,
) -> dict:
    """restrict is (the file it came from, the edge mask) or None."""
    how = dict(mode=mode, rng=RngSeed(seed), samples=samples, confidence=confidence,
               budget_bits=budget_bits)
    est = expected_matching(g, None if restrict is None else restrict[1], **how)
    artifact = {
        "kind": "estimate",
        "graph": graph_to_json(g),
        "mode": est.mode,
        "value": est.value,
        "ci": est.ci,
        "samples": est.samples,
        "confidence": est.confidence,
        "seed": seed,
        "budget_bits": budget_bits,
    }
    if restrict is not None:
        name, mask = restrict
        ratio = approximation_ratio(g, mask, **how)
        artifact.update(
            restrict=name, restrict_edges=_edge_pairs(g, mask), ratio=ratio.value, ratio_ci=ratio.ci
        )
    return artifact


# estimate and check run the expectation and the ratio on one graph, so
# each opens one scope for both.  Other commands run one stage per graph,
# and each point of an experiment sweep opens its own scope; a scope
# around the whole sweep would hold every point's cache until the end.
@_per_call_scope()
def _cmd_estimate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    restrict = None
    if args.restrict:
        subgraph = load_json(args.restrict)
        if not isinstance(subgraph, dict):
            raise ValueError(f"{args.restrict} holds a {type(subgraph).__name__}, not an object")
        if "edges" not in subgraph:
            raise ValueError(f"{args.restrict} has no edge list to restrict to")
        try:
            restrict = (args.restrict, _mask_from_pairs(g, subgraph["edges"]))
        except ValueError as exc:
            raise ValueError(f"{args.restrict}: {exc}") from exc
    artifact = _estimate_artifact(
        g, restrict, args.mode, args.seed, args.samples, args.confidence, args.budget_bits
    )
    print(f"mode: {artifact['mode']}")
    print(f"expected value: {artifact['value']!r} +- {artifact['ci']!r}")
    if restrict is not None:
        print(f"ratio vs full graph: {artifact['ratio']!r} +- {artifact['ratio_ci']!r}")
    _write(artifact, args.output)
    return 0


def _oracle_artifact(g: StochasticGraph, budget_bits: int) -> dict:
    oracle = ExhaustiveOracle(g, budget_bits)
    return {
        "kind": "oracle",
        "graph": graph_to_json(g),
        "q": [float(x) for x in oracle.edge_probabilities()],
        "expected_value": oracle.expected_value(),
        "budget_bits": budget_bits,
    }


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    artifact = _oracle_artifact(g, args.budget_bits)
    for e, q in zip(g.edges, artifact["q"]):
        print(f"{e.u} {e.v} {q!r}")
    print(f"expected value: {artifact['expected_value']!r}")
    _write(artifact, args.output)
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


# Stands for a key that one side of a comparison lacks.
_MISSING = type("_Missing", (), {"__repr__": lambda self: "nothing"})()


def _differences(recorded, recomputed, path: str = "") -> list[str]:
    """One "<key path> recorded X, recomputed Y" line per difference.

    Objects are compared key by key and lists item by item.  Numbers
    must agree within 1e-12 and anything else must be equal, so a
    missing key, a wrong type or a wrong list length is a difference.
    """
    if isinstance(recorded, dict) and isinstance(recomputed, dict):
        return [line for key in sorted(recorded.keys() | recomputed.keys())
                for line in _differences(recorded.get(key, _MISSING), recomputed.get(key, _MISSING),
                                         f"{path}.{key}" if path else key)]
    if isinstance(recorded, list) and isinstance(recomputed, list) and len(recorded) == len(recomputed):
        return [line for i, (a, b) in enumerate(zip(recorded, recomputed))
                for line in _differences(a, b, f"{path}[{i}]")]
    numbers = _is_number(recorded) and _is_number(recomputed)
    if numbers and abs(recorded - recomputed) <= 1e-12:
        return []
    if not numbers and type(recorded) is type(recomputed) and recorded == recomputed:
        return []
    return [f"{path} recorded {reprlib.repr(recorded)}, recomputed {reprlib.repr(recomputed)}"]


def _recompute(recorded: dict) -> list[str]:
    """FAIL lines for an artifact, recomputed from the inputs it records.

    A missing seed or budget_bits takes the command's default.
    """
    kind = recorded["kind"]
    g = graph_from_json(recorded["graph"])
    if kind == "oracle":
        recorded = {"budget_bits": ENUMERATION_BUDGET_BITS, **recorded}
        return _differences(recorded, _oracle_artifact(g, recorded["budget_bits"]))
    if kind == "estimate":
        recorded = {"seed": 0, "budget_bits": ENUMERATION_BUDGET_BITS, **recorded}
        restrict = None
        if "restrict_edges" in recorded:
            restrict = (recorded.get("restrict"), _mask_from_pairs(g, recorded["restrict_edges"]))
        mode = {"monte-carlo": "mc"}.get(recorded["mode"], recorded["mode"])
        recomputed = _estimate_artifact(g, restrict, mode, recorded["seed"], recorded["samples"],
                                        recorded["confidence"], recorded["budget_bits"])
        with_seed = f" with seed {recorded['seed']}" if recomputed["mode"] == "monte-carlo" else ""
        return [line + with_seed for line in _differences(recorded, recomputed)]
    # The bounds come first: a sparsifier's params fix how many rounds a
    # rebuild runs, and an edcs subgraph is checked against its bounds.
    params = recorded["params"]
    if kind == "sparsifier":
        want = compute_params(params["epsilon"], g.p_v, g.p_e, params["r_cap"])
    else:
        want = compute_beta(params["epsilon"], g.p_v, g.p_e, params["c_const"])
    problems = _differences({"params": params}, {"params": asdict(want)})
    if problems:
        return problems
    if kind == "sparsifier":
        rebuilt = _sparsifier_artifact(g, want.epsilon, want.r_cap, recorded["seed"], recorded["stream"])
        return _differences(recorded, rebuilt)
    h = EdcsSubgraph(g, want, _mask_from_pairs(g, recorded["edges"]), recorded.get("fixups", 0))
    return [f"{side} violation at edge {i} (degree sum {s})" for side, i, s in verify_edcs(g, h)]


@_per_call_scope()
def _cmd_check(args: argparse.Namespace) -> int:
    recorded = load_json(args.artifact)
    if not isinstance(recorded, dict):
        raise ValueError(f"{args.artifact} holds a {type(recorded).__name__}, not an artifact object")
    kind = recorded.get("kind")
    if kind not in ("sparsifier", "edcs", "oracle", "estimate"):
        raise ValueError(f"cannot check artifact of kind {kind!r}")
    try:
        problems = _recompute(recorded)
    except (TypeError, OverflowError) as exc:  # a recorded value of the wrong type or size
        raise ValueError(f"{args.artifact} is malformed: {exc}") from exc
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
    # ValueError covers the package's own errors and malformed JSON.
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
