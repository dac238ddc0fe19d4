"""Spans around stochmatch's layer functions, for the traced run.

Each layer's public functions are wrapped at the names other modules
call them by (``stochmatch.experiment.build_sparsifier``, the class
attribute ``CanonicalMatcher.for_mask``, ...), so the package itself is
not edited.  A span is (name, start, end, parent) kept in flat lists and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover; counts are taken in the same wrappers.
A name a later version of the package no longer has is skipped, and the
metrics it fed read 0.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

# (span name, [(module, attribute), ...]); "Class.method" patches the class.
TARGETS = [
    ("realization.generator", [("realization", "RngSeed.generator")]),
    ("realization.sample_masks", [
        ("realization", "_sample_masks"), ("sparsifier", "_sample_masks"),
        ("estimator", "_sample_masks"), ("fractional", "_sample_masks"),
    ]),
    ("realization.sample_realization", [("experiment", "sample_realization")]),
    ("graph.construct", [("graph", "StochasticGraph.__post_init__")]),
    ("generators.generate", [
        ("", "generate_graph"), ("cli", "generate_graph"), ("experiment", "generate_graph"),
    ]),
    ("matching.for_mask", [("matching", "CanonicalMatcher.for_mask")]),
    ("sparsifier.build", [("experiment", "build_sparsifier"), ("cli", "build_sparsifier")]),
    ("estimator.oracle_build", [("estimator", "ExhaustiveOracle.__init__")]),
    ("estimator.expected_value", [("estimator", "ExhaustiveOracle.expected_value")]),
    ("estimator.edge_probabilities", [("estimator", "ExhaustiveOracle.edge_probabilities")]),
    ("estimator.ratio", [
        ("", "approximation_ratio"), ("experiment", "approximation_ratio"),
        ("edcs", "approximation_ratio"), ("cli", "approximation_ratio"),
    ]),
    ("fractional.edge_stats", [("experiment", "compute_edge_stats")]),
    ("fractional.non_crucial", [("experiment", "non_crucial_procedure")]),
    ("fractional.crucial", [
        ("experiment", "sample_crucial_matching"), ("experiment", "crucial_procedure_weighted"),
        ("experiment", "crucial_procedure_unweighted"), ("experiment", "classify_crucial_weighted"),
    ]),
    ("fractional.blossom", [("experiment", "check_blossom_constraints")]),
    ("fractional.round", [("experiment", "round_to_integral")]),
    ("experiment.pipeline", [("", "run_fractional_pipeline")]),
    ("edcs.build", [("cli", "build_edcs"), ("experiment", "build_edcs"), ("edcs", "build_edcs")]),
    ("edcs.verify", [("cli", "verify_edcs"), ("experiment", "verify_edcs")]),
    ("io.dump_json", [("cli", "dump_json"), ("experiment", "dump_json")]),
    ("io.load_json", [("cli", "load_json")]),
    ("io.graph_json", [("cli", "graph_to_json"), ("cli", "graph_from_json")]),
    ("cli.main", [("cli", "main")]),
]

# Per-layer metrics and their units, in report order.
METRICS = {
    "realization.generator_calls": "count",
    "realization.generator_s": "s",
    "realization.draws": "count",
    "realization.draw_s": "s",
    "sparsifier.build_s": "s",
    "sparsifier.build_self_s": "s",
    "sparsifier.rounds": "count",
    "sparsifier.kept_edges": "count",
    "sparsifier.max_degree": "count",
    "matching.for_mask_calls": "count",
    "matching.solves": "count",
    "matching.hit_rate": "1",
    "matching.distinct_masks": "count",
    "matching.cache_entries_max": "count",
    "matching.for_mask_s": "s",
    "matching.solve_mean_ms": "ms",
    "estimator.oracle_builds": "count",
    "estimator.oracle_build_s": "s",
    "estimator.oracle_masks": "count",
    "estimator.expected_value_s": "s",
    "estimator.edge_probabilities_s": "s",
    "estimator.ratio_s": "s",
    "estimator.ratio_self_s": "s",
    "estimator.mc_samples": "count",
    "fractional.edge_stats_s": "s",
    "fractional.edge_stats_self_s": "s",
    "fractional.non_crucial_s": "s",
    "fractional.crucial_s": "s",
    "fractional.blossom_s": "s",
    "fractional.blossom_subsets": "count",
    "fractional.round_s": "s",
    "experiment.pipeline_s": "s",
    "experiment.pipeline_self_s": "s",
    "generators.generate_s": "s",
    "graph.constructions": "count",
    "graph.construct_s": "s",
    "edcs.build_s": "s",
    "edcs.fixups": "count",
    "edcs.fixups_per_s": "1/s",
    "edcs.verify_s": "s",
    "edcs.kept_edges": "count",
    "io.dump_json_s": "s",
    "io.load_json_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.attributed_frac": "1",
}

# metric -> span name whose total duration (or self time) it reports.
_DURATIONS = {
    "realization.generator_s": "realization.generator",
    "realization.draw_s": "realization.sample_masks",
    "sparsifier.build_s": "sparsifier.build",
    "matching.for_mask_s": "matching.for_mask",
    "estimator.oracle_build_s": "estimator.oracle_build",
    "estimator.expected_value_s": "estimator.expected_value",
    "estimator.edge_probabilities_s": "estimator.edge_probabilities",
    "estimator.ratio_s": "estimator.ratio",
    "fractional.edge_stats_s": "fractional.edge_stats",
    "fractional.non_crucial_s": "fractional.non_crucial",
    "fractional.crucial_s": "fractional.crucial",
    "fractional.blossom_s": "fractional.blossom",
    "fractional.round_s": "fractional.round",
    "experiment.pipeline_s": "experiment.pipeline",
    "generators.generate_s": "generators.generate",
    "graph.construct_s": "graph.construct",
    "edcs.build_s": "edcs.build",
    "edcs.verify_s": "edcs.verify",
    "io.dump_json_s": "io.dump_json",
    "io.load_json_s": "io.load_json",
}
_SELF = {
    "sparsifier.build_self_s": "sparsifier.build",
    "estimator.ratio_self_s": "estimator.ratio",
    "fractional.edge_stats_self_s": "fractional.edge_stats",
    "experiment.pipeline_self_s": "experiment.pipeline",
    "cli.self_s": "cli.main",
}
_CALLS = {
    "realization.generator_calls": "realization.generator",
    "realization.draws": "realization.sample_masks",
    "matching.for_mask_calls": "matching.for_mask",
    "estimator.oracle_builds": "estimator.oracle_build",
    "graph.constructions": "graph.construct",
}


def odd_set_subsets(n: int, epsilon: float) -> int:
    """Vertex sets the odd-set scan visits: sizes 2..min(n, floor(1/eps))."""
    cap = min(n, int(math.floor(1.0 / epsilon + 1e-12)))
    return sum(math.comb(n, k) for k in range(2, cap + 1))


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.masks: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_for_mask(self, fn):
        tracer = self
        counters = self.counters

        def traced(matcher, edge_mask=None, *args, **kwargs):
            size = getattr(matcher, "cache_size", None)
            before = size() if size else -1
            idx = tracer.open("matching.for_mask")
            try:
                result = fn(matcher, edge_mask, *args, **kwargs)
            finally:
                tracer.close(idx)
            grown = size() if size else -1
            if grown != before or before < 0:
                counters["matching.solves"] += 1
                counters["matching.solve_s"] += tracer.end[idx] - tracer.start[idx]
            counters["matching.cache_entries_max"] = max(counters["matching.cache_entries_max"], grown)
            tracer.masks.add(-1 if edge_mask is None else edge_mask)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts taken where the work happens --------------------------------

    def _after(self, name: str):
        c = self.counters
        if name == "sparsifier.build":
            def after(args, kwargs, result):
                c["sparsifier.rounds"] += result.params.rounds
                c["sparsifier.kept_edges"] += result.size
                c["sparsifier.max_degree"] = max(c["sparsifier.max_degree"], result.subgraph_max_degree())
        elif name == "estimator.oracle_build":
            def after(args, kwargs, result):
                c["estimator.oracle_masks"] += len(getattr(args[0], "distribution", ()))
        elif name == "estimator.ratio":
            def after(args, kwargs, result):
                if result.mode == "monte-carlo":
                    c["estimator.mc_samples"] += result.samples
        elif name == "fractional.blossom":
            def after(args, kwargs, result):
                fm = args[0]
                eps = args[1] if len(args) > 1 else kwargs["epsilon"]
                c["fractional.blossom_subsets"] += odd_set_subsets(fm.graph.n, eps)
        elif name == "edcs.build":
            def after(args, kwargs, result):
                c["edcs.fixups"] += result.fixups
                c["edcs.kept_edges"] += result.size
        else:
            return None
        return after

    # -- patching -----------------------------------------------------------

    def install(self, package) -> None:
        for name, sites in TARGETS:
            for module_name, attr in sites:
                module = package
                if module_name:
                    try:
                        module = importlib.import_module(f"{package.__name__}.{module_name}")
                    except ImportError:
                        continue
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if fn is None:
                    continue
                if name == "matching.for_mask":
                    wrapped = self._wrap_for_mask(fn)
                else:
                    wrapped = self._wrap(fn, name, self._after(name))
                self._undo.append((owner, fn_name, fn))
                setattr(owner, fn_name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- per-operation metrics ----------------------------------------------

    def begin_op(self) -> int:
        self.counters.clear()
        self.masks.clear()
        return len(self.name)

    def op_metrics(self, first: int) -> dict[str, float]:
        """Layer metrics of the spans recorded since ``first``.

        The operation's own spans (names starting with "op.") enclose the
        rest; their self time is the benchmark's glue between calls, so
        the layers' self times plus the glue are the operation's wall time.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        last = len(self.name)
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            total[self.name[i]] += dur
            self_time[self.name[i]] += dur
            calls[self.name[i]] += 1
            p = self.parent[i]
            if p >= first:
                self_time[self.name[p]] -= dur
        c = self.counters
        out = {k: total[v] for k, v in _DURATIONS.items()}
        out.update({k: self_time[v] for k, v in _SELF.items()})
        out.update({k: float(calls[v]) for k, v in _CALLS.items()})
        for k in ("sparsifier.rounds", "sparsifier.kept_edges", "sparsifier.max_degree",
                  "matching.solves", "matching.cache_entries_max", "estimator.oracle_masks",
                  "estimator.mc_samples", "fractional.blossom_subsets", "edcs.fixups",
                  "edcs.kept_edges"):
            out[k] = float(c[k])
        n_calls = out["matching.for_mask_calls"]
        out["matching.hit_rate"] = 1.0 - c["matching.solves"] / n_calls if n_calls else 0.0
        out["matching.distinct_masks"] = float(len(self.masks))
        out["matching.solve_mean_ms"] = (
            1000.0 * c["matching.solve_s"] / c["matching.solves"] if c["matching.solves"] else 0.0
        )
        out["edcs.fixups_per_s"] = c["edcs.fixups"] / out["edcs.build_s"] if out["edcs.build_s"] else 0.0
        wall = sum(v for k, v in total.items() if k.startswith("op."))
        glue = sum(v for k, v in self_time.items() if k.startswith("op."))
        out["trace.spans"] = float(last - first)
        out["trace.attributed_frac"] = 1.0 - glue / wall if wall else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([self.name[i], self.start[i], self.end[i], self.parent[i]]))
                fh.write("\n")
