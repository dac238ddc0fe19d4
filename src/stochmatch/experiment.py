"""Experiment driver: parameter sweeps over graphs, with invariant checks.

A sweep point is one (p_v, p_e, epsilon) combination; each point is
evaluated with its own RngSeed stream derived from the master seed and
the point's position, so results are identical for any worker count and
any evaluation order.  Rows report the sparsifier (or bounded-degree
subgraph) approximation ratio together with a checks_passed flag that
bundles the structural invariants of the fractional pipeline.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .edcs import build_edcs, compute_beta, verify_edcs
from .estimator import _resolve_mode, approximation_ratio
from .fractional import (
    EdgeStats,
    FractionalMatching,
    check_blossom_constraints,
    compute_edge_stats,
    crucial_procedure_unweighted,
    crucial_procedure_weighted,
    non_crucial_procedure,
    round_to_integral,
    sample_crucial_matching,
)
from .generators import GeneratorSpec, generate_graph, parse_generator, parse_weights
from .graph import StochasticGraph
from .io import dump_json, parse_graph_file
from .matching import Matching, _per_call_scope
from .realization import ENUMERATION_BUDGET_BITS, Realization, RngSeed, sample_realization
from .sparsifier import Sparsifier, SparsifierParams, build_sparsifier, classify_edges, compute_params

__all__ = [
    "PipelineResult",
    "run_fractional_pipeline",
    "ExperimentConfig",
    "run_experiment",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "graph_id",
    "n",
    "m",
    "p_v",
    "p_e",
    "epsilon",
    "algorithm",
    "R_or_beta",
    "q_mode",
    "ratio",
    "ratio_ci",
    "max_deg_Q",
    "checks_passed",
]

# Default cap on sampling rounds when driven from configs/CLI; the bare
# compute_params applies no cap unless asked.
DEFAULT_R_CAP = 10_000


@dataclass(eq=False)
class PipelineResult:
    """Everything one end-to-end fractional run produced.

    realized is the run's one realization; both fractional stages read
    only its edge mask.  :func:`classify_crucial_weighted` gives the
    weighted categories of m_c on demand.

    checks maps invariant names to pass/fail:
        support: x lives on realized sparsifier edges only.
        vertex_cap: after the non-crucial stage, x_v <= max{q_v, eps}/p_v
            with q_v summed over the non-crucial edges, the bound that
            stage guarantees.
        vertex_budget: after the crucial stage, x_v <= 1.
        blossom: no odd-set violation up to size floor(1/eps).
        integral: rounding reached (1 - eps) of the fractional value.

    margins maps invariant names to how close they came to failing:
        vertex_cap: the largest x_v minus its cap over all vertices
            (at most 0 when the bound holds; -inf without vertices).
    """

    graph: StochasticGraph
    params: SparsifierParams
    sparsifier: Sparsifier
    stats: EdgeStats
    crucial_mask: int
    non_crucial_mask: int
    realized: Realization
    x_non_crucial: FractionalMatching
    m_c: Matching
    x: FractionalMatching
    integral: Matching | None
    checks: dict[str, bool]
    margins: dict[str, float]

    @property
    def checks_passed(self) -> bool:
        return all(self.checks.values())


@_per_call_scope()
def run_fractional_pipeline(
    g: StochasticGraph,
    epsilon: float,
    rng: RngSeed,
    r_cap: int | None = DEFAULT_R_CAP,
    q_mode: str = "auto",
    samples: int = 100_000,
    budget_bits: int = ENUMERATION_BUDGET_BITS,
    params: SparsifierParams | None = None,
) -> PipelineResult:
    """Sparsifier rounds, edge classification, both fractional stages, checks.

    Args:
        params: pre-computed parameters (overrides epsilon/r_cap), which
            lets callers run with a custom threshold tau.
    """
    if params is None:
        params = compute_params(epsilon, g.p_v, g.p_e, r_cap)
    eps = params.epsilon
    sp = build_sparsifier(g, params, rng)
    stats = compute_edge_stats(g, mode=q_mode, rng=rng, samples=samples, budget_bits=budget_bits)
    crucial_mask, non_crucial_mask = classify_edges(sp, stats.q)
    realized = sample_realization(g, rng)
    x_nc = non_crucial_procedure(sp, stats, non_crucial_mask, realized.edge_mask)
    m_c = sample_crucial_matching(sp, crucial_mask, realized.edge_mask)
    crucial_stage = crucial_procedure_weighted if g.weighted else crucial_procedure_unweighted
    x = crucial_stage(x_nc, m_c, stats, non_crucial_mask, eps)

    checks: dict[str, bool] = {}
    view = realized.edge_mask & sp.edge_mask
    checks["support"] = not (x.support_mask() & ~view)
    caps = np.maximum(stats.vertex_q_array(within=non_crucial_mask), eps) / g.p_v
    margins = {"vertex_cap": float(np.max(x_nc.loads() - caps, initial=-np.inf))}
    checks["vertex_cap"] = margins["vertex_cap"] <= 1e-9
    checks["vertex_budget"] = bool((x.loads() <= 1.0 + 1e-9).all())
    checks["blossom"] = not check_blossom_constraints(x, eps)
    integral = None
    try:
        integral = round_to_integral(x, view, eps)
        checks["integral"] = True
    except (RuntimeError, ValueError):
        checks["integral"] = False
    return PipelineResult(
        g, params, sp, stats, crucial_mask, non_crucial_mask, realized,
        x_nc, m_c, x, integral, checks, margins,
    )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep.

    Exactly one of graph_file/generator must be set.  The sweep runs the
    cartesian product of the p_v, p_e and epsilon lists, in that nesting
    order, one CSV row per point.
    """

    epsilon: list[float]
    p_v: list[float] = field(default_factory=lambda: [1.0])
    p_e: list[float] = field(default_factory=lambda: [1.0])
    algorithm: str = "sparsifier"
    graph_file: str | None = None
    generator: str | None = None
    weights: str = "unit"
    gen_seed: int = 0
    seed: int = 0
    r_cap: int | None = DEFAULT_R_CAP
    samples: int = 100_000
    q_mode: str = "auto"
    c_const: float = 128.0
    budget_bits: int = ENUMERATION_BUDGET_BITS
    workers: int = 1
    output: str = "results.csv"

    def __post_init__(self) -> None:
        if self.algorithm not in ("sparsifier", "edcs"):
            raise ValueError(f"algorithm must be 'sparsifier' or 'edcs', got {self.algorithm!r}")
        if self.q_mode not in ("auto", "exact", "mc"):
            raise ValueError(f"q_mode must be auto/exact/mc, got {self.q_mode!r}")
        if (self.graph_file is None) == (self.generator is None):
            raise ValueError("exactly one of graph_file and generator is required")
        for name in ("epsilon", "p_v", "p_e"):
            values = getattr(self, name)
            if not isinstance(values, list) or not values or not all(map(_is_number, values)):
                raise ValueError(f"{name} must be a non-empty list of numbers, got {values!r}")
        for name in ("seed", "gen_seed", "samples", "budget_bits", "workers"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.r_cap is not None and type(self.r_cap) is not int:
            raise ValueError(f"r_cap must be an int or null, got {self.r_cap!r}")
        if not _is_number(self.c_const):
            raise ValueError(f"c_const must be a number, got {self.c_const!r}")
        for name in ("weights", "output", "generator", "graph_file"):
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name in ("weights", "output")):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def _spec(self) -> GeneratorSpec:
        spec = parse_generator(self.generator)
        spec.weights, spec.weight_args = parse_weights(self.weights)
        spec.seed = self.gen_seed
        return spec

    def base_graph(self) -> StochasticGraph:
        """The swept graph at its declared probabilities (overridden per point)."""
        if self.graph_file is not None:
            return parse_graph_file(self.graph_file)
        return generate_graph(self._spec())

    def graph_id(self) -> str:
        if self.graph_file is not None:
            return Path(self.graph_file).stem
        return self._spec().label()

    def sweep(self) -> list[tuple[float, float, float]]:
        return [
            (pv, pe, eps)
            for pv, pe, eps in itertools.product(self.p_v, self.p_e, self.epsilon)
        ]


@_per_call_scope()
def _evaluate_point(cfg_data: dict, index: int) -> dict:
    """One sweep point -> one row dict.  Depends only on (config, index)."""
    cfg = ExperimentConfig.from_dict(cfg_data)
    p_v, p_e, eps = cfg.sweep()[index]
    g = cfg.base_graph().with_probabilities(p_v, p_e)
    rng = RngSeed(cfg.seed, stream=index)
    mode = _resolve_mode(g, cfg.q_mode, cfg.budget_bits)

    if cfg.algorithm == "sparsifier":
        result = run_fractional_pipeline(
            g, eps, rng, r_cap=cfg.r_cap, q_mode=mode,
            samples=cfg.samples, budget_bits=cfg.budget_bits,
        )
        kept = result.sparsifier.edge_mask
        r_or_beta = result.params.rounds
        max_deg = result.sparsifier.subgraph_max_degree()
        passed = result.checks_passed
    else:
        params = compute_beta(eps, p_v, p_e, cfg.c_const)
        h = build_edcs(g, params)
        kept = h.edge_mask
        r_or_beta = params.beta
        max_deg = h.max_degree()
        passed = not verify_edcs(g, h)
    ratio = approximation_ratio(
        g, kept, mode=mode, rng=rng, samples=cfg.samples, budget_bits=cfg.budget_bits
    )

    return {
        "graph_id": cfg.graph_id(),
        "n": g.n,
        "m": g.m,
        "p_v": p_v,
        "p_e": p_e,
        "epsilon": eps,
        "algorithm": cfg.algorithm,
        "R_or_beta": r_or_beta,
        "q_mode": mode,
        "ratio": ratio.value,
        "ratio_ci": ratio.ci,
        "max_deg_Q": max_deg,
        "checks_passed": passed,
    }


def _evaluate_point_star(args: tuple[dict, int]) -> dict:
    return _evaluate_point(*args)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows: list[dict], path: str | os.PathLike) -> None:
    """Write rows in CSV_COLUMNS order; formatting is deterministic."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def sidecar_path(output: str | os.PathLike) -> str:
    root, _ = os.path.splitext(os.fspath(output))
    return root + ".config.json"


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Evaluate every sweep point and write the CSV plus a config sidecar.

    Points are independent given their derived streams, so any worker
    count produces byte-identical outputs.
    """
    cfg.base_graph()  # fail fast on a bad graph source
    data = cfg.to_dict()
    points = cfg.sweep()
    tasks = [(data, i) for i in range(len(points))]
    if cfg.workers > 1:
        # Imported here: the pool pulls in multiprocessing, which a
        # one-worker run and a bare ``import stochmatch`` do without.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_evaluate_point_star, tasks))
    else:
        rows = [_evaluate_point(data, i) for i in range(len(points))]
    write_rows_csv(rows, cfg.output)
    dump_json(data, sidecar_path(cfg.output))
    return rows
