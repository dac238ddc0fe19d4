"""Matching subgraphs for graphs whose vertices and edges fail at random.

A StochasticGraph keeps each vertex independently with probability p_v
and each edge, given both endpoints, with probability p_e.  The package
builds small subgraphs (a multi-round sampled cover and a bounded-degree
subgraph) that approximately preserve the expected maximum matching
value, plus the estimators and fractional-matching machinery needed to
certify them.
"""

from .edcs import (
    EdcsParams,
    EdcsSubgraph,
    build_edcs,
    compute_beta,
    edcs_matching_ratio,
    verify_edcs,
)
from .errors import BudgetExceededError, GraphFormatError
from .estimator import (
    Estimate,
    ExhaustiveOracle,
    approximation_ratio,
    expected_matching,
)
from .experiment import (
    ExperimentConfig,
    PipelineResult,
    run_experiment,
    run_fractional_pipeline,
)
from .fractional import (
    CrucialClassification,
    EdgeStats,
    FractionalMatching,
    check_blossom_constraints,
    classify_crucial_weighted,
    compute_edge_stats,
    crucial_procedure_unweighted,
    crucial_procedure_weighted,
    non_crucial_procedure,
    round_to_integral,
    sample_crucial_matching,
)
from .generators import GeneratorSpec, generate_graph, parse_generator, parse_weights
from .graph import Edge, StochasticGraph
from .io import (
    dump_json,
    graph_from_json,
    graph_to_json,
    load_json,
    parse_graph_file,
    parse_graph_text,
    write_graph_file,
)
from .matching import (
    CanonicalMatcher,
    Matching,
    matching_from_indices,
    max_weight_matching,
)
from .realization import (
    Realization,
    RngSeed,
    edge_mask_distribution,
    sample_realization,
)
from .sparsifier import (
    Sparsifier,
    SparsifierParams,
    build_sparsifier,
    classify_edges,
    compute_params,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BudgetExceededError",
    "GraphFormatError",
    "Edge",
    "StochasticGraph",
    "Matching",
    "CanonicalMatcher",
    "max_weight_matching",
    "matching_from_indices",
    "Realization",
    "RngSeed",
    "sample_realization",
    "edge_mask_distribution",
    "SparsifierParams",
    "Sparsifier",
    "compute_params",
    "build_sparsifier",
    "classify_edges",
    "Estimate",
    "ExhaustiveOracle",
    "expected_matching",
    "approximation_ratio",
    "EdgeStats",
    "FractionalMatching",
    "CrucialClassification",
    "compute_edge_stats",
    "non_crucial_procedure",
    "sample_crucial_matching",
    "crucial_procedure_unweighted",
    "crucial_procedure_weighted",
    "classify_crucial_weighted",
    "check_blossom_constraints",
    "round_to_integral",
    "EdcsParams",
    "EdcsSubgraph",
    "compute_beta",
    "build_edcs",
    "verify_edcs",
    "edcs_matching_ratio",
    "GeneratorSpec",
    "generate_graph",
    "parse_generator",
    "parse_weights",
    "parse_graph_text",
    "parse_graph_file",
    "write_graph_file",
    "graph_to_json",
    "graph_from_json",
    "load_json",
    "dump_json",
    "ExperimentConfig",
    "PipelineResult",
    "run_fractional_pipeline",
    "run_experiment",
]
