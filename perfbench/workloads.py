"""The four workloads: fixed instances, one operation each, and its checks.

An operation is one build step followed by one certify step.  On the
three sparsifier workloads the build is ``run_fractional_pipeline`` and
the certify step is ``approximation_ratio`` on the built Q; operation k
of a run with seed s uses ``RngSeed(s, stream=k)``, so the same seed
gives the same operations.  On ``edcs-dense`` the build is the ``edcs``
command with ``--output`` and the certify step is the ``check`` command,
both through ``stochmatch.cli.main``; the graph's generator seed is the
run's seed.

Program calls go through the package's attributes at call time, so the
traced run sees them.  Records are plain data taken after the timed
window; digests and checks read only records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference as ref

# Operations per run that get the Monte Carlo and round sums redrawn and
# solved by networkx (one solve per sample); the rest get property checks.
FULL_CHECKS = 1


@dataclass(frozen=True)
class PipelineSpec:
    n: int
    p: float
    gen_seed: int
    weights: tuple[float, float] | None
    p_v: float
    p_e: float
    epsilon: float
    r_cap: int
    samples: int
    ratio_samples: int
    q_mode: str

    def generator(self) -> tuple[str, str]:
        weights = "unit" if self.weights is None else "uniform(%r,%r)" % self.weights
        return f"erdos-renyi(n={self.n},p={self.p})", weights


@dataclass(frozen=True)
class EdcsSpec:
    n: int
    p: float
    epsilon: float
    c_const: float

    def generator(self) -> tuple[str, str]:
        return f"erdos-renyi(n={self.n},p={self.p})", "unit"


# Why each workload exists is in README.md.  Sizes are chosen so that no
# operation fails and a 20 s run holds at least eight operations;
# pipeline-mid's survival probabilities keep its heavy-tailed solve times
# from dominating the spread between seeds.
WORKLOADS = {
    "mc-sweep-small": PipelineSpec(
        n=10, p=0.35, gen_seed=0, weights=None, p_v=0.8, p_e=0.7,
        epsilon=0.2, r_cap=15, samples=3000, ratio_samples=3000, q_mode="mc",
    ),
    "pipeline-mid": PipelineSpec(
        n=20, p=0.3, gen_seed=1, weights=(0.1, 10.0), p_v=0.6, p_e=0.7,
        epsilon=0.1, r_cap=40, samples=300, ratio_samples=600, q_mode="mc",
    ),
    "exact-sweep-tiny": PipelineSpec(
        n=8, p=0.5, gen_seed=0, weights=(0.1, 10.0), p_v=0.8, p_e=0.7,
        epsilon=0.2, r_cap=20, samples=0, ratio_samples=0, q_mode="exact",
    ),
    "edcs-dense": EdcsSpec(
        n=100, p=0.6, epsilon=0.3, c_const=4.0,
    ),
}


def make_graph(sm, spec, seed: int):
    """The workload's graph, built by the program's own generator."""
    family, weights = spec.generator()
    gen = sm.parse_generator(family)
    gen.weights, gen.weight_args = sm.parse_weights(weights)
    if isinstance(spec, EdcsSpec):
        gen.seed = seed
        return sm.generate_graph(gen)
    gen.seed = spec.gen_seed
    return sm.generate_graph(gen, spec.p_v, spec.p_e)


def reference_instance(spec, seed: int) -> ref.Instance:
    """The same graph, generated apart from the program."""
    if isinstance(spec, EdcsSpec):
        return ref.erdos_renyi(spec.n, spec.p, seed)
    return ref.erdos_renyi(spec.n, spec.p, spec.gen_seed, spec.weights, spec.p_v, spec.p_e)


def same_graph(g, inst: ref.Instance) -> bool:
    return (g.n, g.p_v, g.p_e) == (inst.n, inst.p_v, inst.p_e) and [
        (e.u, e.v, e.weight) for e in g.edges
    ] == list(inst.edges)


# -- operations ---------------------------------------------------------------------


def pipeline_op(sm, g, spec: PipelineSpec, seed: int, k: int, tracer=None, pause=None):
    """Returns (build seconds, certify seconds, record).  ``pause``, if
    given, is called between the two steps, outside both timed windows."""
    rng = sm.RngSeed(seed, k)
    span = tracer.open("op.build") if tracer else None
    t0 = perf_counter()
    res = sm.run_fractional_pipeline(
        g, spec.epsilon, rng, r_cap=spec.r_cap, q_mode=spec.q_mode, samples=spec.samples
    )
    t1 = perf_counter()
    if tracer:
        tracer.close(span)
    if pause:
        pause()
    if tracer:
        span = tracer.open("op.certify")
    t1b = perf_counter()
    est = sm.approximation_ratio(
        g, res.sparsifier.edge_mask, mode=spec.q_mode, rng=rng, samples=spec.ratio_samples
    )
    t2 = perf_counter()
    if tracer:
        tracer.close(span)
    integral = res.integral
    rec = {
        "seed": seed,
        "stream": k,
        "rounds": int(res.params.rounds),
        "counts": [int(c) for c in res.sparsifier.counts],
        "q_mask": int(res.sparsifier.edge_mask),
        "q": [float(v) for v in res.stats.q],
        "crucial_mask": int(res.crucial_mask),
        "realized": [int(res.realized.vertex_mask), int(res.realized.edge_mask)],
        "x": [float(v) for v in res.x.x],
        "m_c": [int(i) for i in res.m_c.indices],
        "integral": None if integral is None else [int(i) for i in integral.indices],
        "integral_weight": None if integral is None else float(integral.total_weight),
        "checks_passed": bool(res.checks_passed),
        "ratio": float(est.value),
    }
    return t1 - t0, t2 - t1b, rec


def edcs_op(sm, spec: EdcsSpec, seed: int, k: int, outdir: Path, tracer=None, pause=None):
    """Returns (build seconds, certify seconds, record), like pipeline_op."""
    path = outdir / "edcs-dense.json"
    family, _ = spec.generator()
    build = [
        "edcs", "--generator", family, "--gen-seed", str(seed), "--epsilon",
        repr(spec.epsilon), "--c-const", repr(spec.c_const), "--output", str(path),
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        span = tracer.open("op.build") if tracer else None
        t0 = perf_counter()
        build_code = sm.cli.main(build)
        t1 = perf_counter()
        if tracer:
            tracer.close(span)
        if pause:
            pause()
        if tracer:
            span = tracer.open("op.certify")
        t1b = perf_counter()
        check_code = sm.cli.main(["check", str(path)])
        t2 = perf_counter()
        if tracer:
            tracer.close(span)
    rec = {
        "seed": seed,
        "stream": k,
        "build_code": build_code,
        "check_code": check_code,
        "artifact": path.read_text(encoding="utf-8"),
    }
    return t1 - t0, t2 - t1b, rec


# -- records: quality, digest, checks -------------------------------------------------


def kept_fraction(spec, rec, inst: ref.Instance) -> float:
    if isinstance(spec, EdcsSpec):
        return len(json.loads(rec["artifact"])["edges"]) / inst.m
    return bin(rec["q_mask"]).count("1") / inst.m


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def digest(rec: dict) -> str:
    """Hash of the operation's outputs: counts, Q mask, q, x, the ratio
    (or, for EDCS, the artifact), floats written exactly."""
    text = json.dumps(_canonical(rec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Reference state for one run: built once, outside the timed window."""

    def __init__(self, spec, inst: ref.Instance):
        self.spec = spec
        self.inst = inst
        self.mw = ref.MatchingWeights(inst)
        self.exact = ref.ExactReference(inst) if getattr(spec, "q_mode", "") == "exact" else None

    def check(self, rec: dict) -> list[str]:
        """Every check on the first FULL_CHECKS operations of a run, the
        property checks on the rest."""
        if isinstance(self.spec, EdcsSpec):
            return ref.check_edcs(self.inst, rec, self.spec)
        full = rec["stream"] < FULL_CHECKS
        return ref.check_pipeline_op(self.inst, rec, self.mw, self.exact, self.spec, full)

    def ratio(self, rec: dict) -> float:
        """The program's ratio; for EDCS, mu(H) / mu(G) by networkx."""
        if not isinstance(self.spec, EdcsSpec):
            return rec["ratio"]
        index = {(u, v): i for i, (u, v, _) in enumerate(self.inst.edges)}
        h = sum(1 << index[(u, v)] for u, v in json.loads(rec["artifact"])["edges"])
        full = self.mw((1 << self.inst.m) - 1)
        return self.mw(h) / full if full else 1.0

    def finish(self) -> list[str]:
        """Run-level checks of the reference itself."""
        if self.exact is None:
            return []
        return ref.check_subset_weights(self.exact, self.mw)
