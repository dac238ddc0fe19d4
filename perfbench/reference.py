"""Reference computations made apart from the stochmatch package.

Nothing here imports stochmatch.  Graphs are plain ``(n, [(u, v, w)])``
data, realizations are redrawn from numpy's Philox generator through the
package's documented ``(seed, stream, purpose, index)`` addressing, and
matching weights come from ``networkx.max_weight_matching`` or, for the
exhaustive sums over every edge subset of a tiny graph, from a subset
recurrence that is itself compared with networkx on every mask that
networkx evaluated in the same run.

Each ``check_*`` function takes a plain record of what the program
produced and returns a list of problems; an empty list means the record
passed.  Property checks (bounds, support, validity, exact identities)
are cheap and run on every operation; the ``full`` sums over redrawn
Monte Carlo samples and sparsifier rounds cost one networkx solve per
sample and run on the first operation of each run.  Monte Carlo
confidence intervals are never used as tolerances.  The only tolerance
is ``REL_TOL``, which absorbs summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

# Purposes of the documented substream addressing (realization module).
SPARSIFIER_DRAWS = 1
EXPERIMENT_DRAWS = 2
ESTIMATOR_DRAWS = 4
GENERATOR_DRAWS = 5

# Sums of the same terms in another order differ by a few ulps; a wrong
# matching or a wrong draw moves a sum by at least one edge weight.
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def philox(seed: int, stream: int, purpose: int, index: int) -> np.random.Generator:
    """The generator of substream ``(purpose, index)`` of ``(seed, stream)``."""
    bits = np.random.Philox(key=[seed, stream], counter=[0, 0, purpose, index])
    return np.random.Generator(bits)


@dataclass(frozen=True)
class Instance:
    """A graph as plain data: vertices ``0..n-1`` and ``(u, v, w)`` edges, u < v."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    p_v: float
    p_e: float

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def ends(self) -> np.ndarray:
        return np.array([(u, v) for u, v, _ in self.edges], dtype=np.int64).reshape(-1, 2)


def erdos_renyi(n: int, p: float, gen_seed: int, weights=None, p_v=1.0, p_e=1.0) -> Instance:
    """G(n, p) as the generator module documents it: one uniform per
    vertex pair in (u, v) order from substream (GENERATOR_DRAWS, 0), and
    ``uniform(lo, hi)`` weights per kept pair from (GENERATOR_DRAWS, 1)."""
    draws = philox(gen_seed, 0, GENERATOR_DRAWS, 0).random(n * (n - 1) // 2)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = [pq for pq, d in zip(pairs, draws) if d < p]
    if weights is None:
        ws = [1.0] * len(kept)
    else:
        lo, hi = weights
        ws = [float(w) for w in philox(gen_seed, 0, GENERATOR_DRAWS, 1).uniform(lo, hi, len(kept))]
    return Instance(n, tuple((u, v, w) for (u, v), w in zip(kept, ws)), p_v, p_e)


# -- realizations ---------------------------------------------------------------


def draw(inst: Instance, gen: np.random.Generator, count: int) -> tuple[list[int], list[int]]:
    """``count`` consecutive realizations as (vertex masks, edge masks).

    Each realization reads n uniforms for the vertices, then m for the
    edges; one block of ``count * (n + m)`` uniforms is the same stream.
    """
    n, m = inst.n, inst.m
    u = gen.random(count * (n + m)).reshape(count, n + m)
    vbits = u[:, :n] < inst.p_v
    ebits = u[:, n:] < inst.p_e
    if m:
        ends = inst.ends
        ebits &= vbits[:, ends[:, 0]] & vbits[:, ends[:, 1]]
    return _pack(vbits), _pack(ebits)


def _pack(bits: np.ndarray) -> list[int]:
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def popcount(mask: int) -> int:
    return bin(mask).count("1")


# -- matching weights -------------------------------------------------------------


class MatchingWeights:
    """networkx maximum matching weight per edge bitmask, memoized."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.weight = {(u, v): w for u, v, w in inst.edges}
        self.memo: dict[int, float] = {}

    def pairs(self, mask: int) -> set[tuple[int, int]]:
        g = nx.Graph()
        for i, (u, v, w) in enumerate(self.inst.edges):
            if mask >> i & 1:
                g.add_edge(u, v, weight=w)
        return {(min(a, b), max(a, b)) for a, b in nx.max_weight_matching(g)}

    def __call__(self, mask: int) -> float:
        hit = self.memo.get(mask)
        if hit is None:
            hit = math.fsum(self.weight[p] for p in self.pairs(mask))
            self.memo[mask] = hit
        return hit

    def total(self, masks) -> float:
        return math.fsum(self(k) for k in masks)


def subset_weights(inst: Instance) -> np.ndarray:
    """Maximum matching weight of every edge subset, by the recurrence
    mu(S) = max(mu(S - t), w_t + mu(S minus edges touching t)) on the
    highest edge t of S.  Used only where m is small (2**m entries)."""
    m = inst.m
    mu = np.zeros(1 << m)
    for t, (u, v, w) in enumerate(inst.edges):
        touch = 0
        for j, (a, b, _) in enumerate(inst.edges[: t + 1]):
            if {a, b} & {u, v}:
                touch |= 1 << j
        rest = np.arange(1 << t)
        mu[(1 << t) + rest] = np.maximum(mu[rest], w + mu[rest & ~touch])
    return mu


def edge_set_distribution(inst: Instance) -> np.ndarray:
    """Probability of each surviving edge set, summed over vertex outcomes."""
    n, m = inst.n, inst.m
    masks = np.arange(1 << m)
    sizes = np.array([popcount(int(s)) for s in range(1 << m)])
    evm = [(1 << u) | (1 << v) for u, v, _ in inst.edges]
    dist = np.zeros(1 << m)
    for vmask in range(1 << n):
        k_v = popcount(vmask)
        base = inst.p_v**k_v * (1.0 - inst.p_v) ** (n - k_v)
        if base == 0.0:
            continue
        alive = sum(1 << i for i in range(m) if vmask & evm[i] == evm[i])
        k = popcount(alive)
        sub = (masks & ~alive) == 0
        dist[sub] += base * inst.p_e ** sizes[sub] * (1.0 - inst.p_e) ** (k - sizes[sub])
    return dist


class ExactReference:
    """Expectations over every outcome of a tiny instance, grouped by
    surviving edge set."""

    def __init__(self, inst: Instance):
        self.dist = edge_set_distribution(inst)
        self.mu = subset_weights(inst)
        self.expected = math.fsum((self.dist * self.mu).tolist())
        self.masks = np.arange(1 << inst.m)

    def expected_within(self, keep: int) -> float:
        return math.fsum((self.dist * self.mu[self.masks & keep]).tolist())


# -- checks on the records of one sparsifier operation -------------------------


def rounds_formula(eps: float, p_v: float, p_e: float) -> int:
    pe2 = p_v * p_v * p_e
    return math.ceil(
        2000.0 * math.log(1.0 / eps) * math.log(1.0 / (eps * pe2)) / (eps**4 * pe2)
    )


def check_sparsifier(inst, rec, mw: MatchingWeights, spec, full: bool) -> list[str]:
    """Counts lie in [0, R] and mark Q; in full, sum of w_e * counts_e
    equals the summed optima of the addressed round realizations."""
    problems = []
    rounds = min(rounds_formula(spec.epsilon, inst.p_v, inst.p_e), spec.r_cap)
    if rec["rounds"] != rounds:
        problems.append(f"ran {rec['rounds']} rounds, parameters give {rounds}")
    counts = rec["counts"]
    if len(counts) != inst.m or any(not 0 <= c <= rounds for c in counts):
        return problems + ["counts are not m integers in [0, rounds]"]
    if rec["q_mask"] != sum(1 << i for i, c in enumerate(counts) if c):
        problems.append("Q is not the set of edges with a positive count")
    if not full:
        return problems
    lhs = float(sum(Fraction(w) * c for (_, _, w), c in zip(inst.edges, counts)))
    rhs = mw.total(
        draw(inst, philox(rec["seed"], rec["stream"], SPARSIFIER_DRAWS, r), 1)[1][0]
        for r in range(rounds)
    )
    if not close(lhs, rhs):
        problems.append(f"sum w*counts = {lhs!r}, summed round optima = {rhs!r}")
    return problems


def check_edge_stats(inst, rec, mw: MatchingWeights, exact, spec, full: bool) -> list[str]:
    """q are probabilities with q_v <= 1; sum of w_e * q_e equals E[mu]
    (exact) or, in full, the mean optimum of the addressed samples (MC)."""
    q = rec["q"]
    if len(q) != inst.m or any(not 0.0 <= x <= 1.0 for x in q):
        return ["q is not m probabilities"]
    q_v = [0.0] * inst.n
    for (u, v, _), x in zip(inst.edges, q):
        q_v[u] += x
        q_v[v] += x
    if max(q_v, default=0.0) > 1.0 + 1e-9:
        return [f"q sums to {max(q_v)!r} at a vertex; a matching covers it at most once"]
    phi = math.fsum(w * x for (_, _, w), x in zip(inst.edges, q))
    if exact is not None:
        if not close(phi, exact.expected):
            return [f"sum w*q = {phi!r}, enumerated E[mu] = {exact.expected!r}"]
        return []
    s = spec.samples
    counts = [round(x * s) for x in q]
    if any(abs(x * s - c) > 1e-6 for x, c in zip(q, counts)):
        return ["Monte Carlo q is not a count over the samples"]
    if not full:
        return []
    _, emasks = draw(inst, philox(rec["seed"], rec["stream"], ESTIMATOR_DRAWS, 1), s)
    lhs = float(sum(Fraction(w) * c for (_, _, w), c in zip(inst.edges, counts)))
    rhs = mw.total(emasks)
    if not close(lhs, rhs):
        return [f"sum w*q*samples = {lhs!r}, summed sample optima = {rhs!r}"]
    return []


def check_ratio(inst, rec, mw: MatchingWeights, exact, spec, full: bool) -> list[str]:
    """The ratio lies in [0, 1] and equals E[mu within Q] / E[mu] from the
    enumeration (exact) or, in full, from the addressed samples (MC)."""
    ratio, q_mask = rec["ratio"], rec["q_mask"]
    if not 0.0 <= ratio <= 1.0 + 1e-12:
        return [f"ratio {ratio!r} outside [0, 1]"]
    if exact is not None:
        num, den = exact.expected_within(q_mask), exact.expected
    elif full:
        s = spec.ratio_samples
        _, emasks = draw(inst, philox(rec["seed"], rec["stream"], ESTIMATOR_DRAWS, 0), s)
        den = mw.total(emasks) / s
        num = mw.total(k & q_mask for k in emasks) / s
    else:
        return []
    want = 1.0 if den == 0.0 else num / den
    if not close(ratio, want):
        return [f"ratio {ratio!r}, reference {want!r} (num {num!r}, den {den!r})"]
    return []


def _is_matching(inst: Instance, indices) -> bool:
    seen: set[int] = set()
    for i in indices:
        u, v, _ = inst.edges[i]
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def check_fractional(inst, rec, mw: MatchingWeights, spec) -> list[str]:
    """Loads at most 1, support inside realized and Q, and an integral
    matching worth the networkx optimum of the support and at least
    (1 - eps) * sum of w_e * x_e."""
    problems = []
    vmask, emask = draw(inst, philox(rec["seed"], rec["stream"], EXPERIMENT_DRAWS, 0), 1)
    if (rec["realized"][0], rec["realized"][1]) != (vmask[0], emask[0]):
        problems.append("realization differs from the addressed draw")
    x = rec["x"]
    if len(x) != inst.m or any(not v >= 0.0 for v in x):
        return problems + ["x is not m non-negative values"]
    loads = [0.0] * inst.n
    for (u, v, _), xv in zip(inst.edges, x):
        loads[u] += xv
        loads[v] += xv
    if max(loads, default=0.0) > 1.0 + 1e-9:
        problems.append(f"vertex load {max(loads)!r} above 1")
    support = sum(1 << i for i, v in enumerate(x) if v)
    if support & ~(emask[0] & rec["q_mask"]):
        problems.append("x has mass outside the realized edges of Q")
    crucial_seen = rec["crucial_mask"] & emask[0] & rec["q_mask"]
    if not _is_matching(inst, rec["m_c"]) or any(not crucial_seen >> i & 1 for i in rec["m_c"]):
        problems.append("crucial matching is not a matching of realized crucial Q edges")
    integral = rec["integral"]
    if integral is None:
        return problems + ["no integral matching"]
    if not _is_matching(inst, integral) or any(not support >> i & 1 for i in integral):
        problems.append("integral matching is not a matching on the support of x")
    weight = math.fsum(inst.edges[i][2] for i in integral)
    if not close(weight, rec["integral_weight"]):
        problems.append(f"integral weight reported {rec['integral_weight']!r}, edges sum to {weight!r}")
    if not close(weight, mw(support)):
        problems.append(f"integral weight {weight!r}, networkx optimum {mw(support)!r}")
    value = math.fsum(w * xv for (_, _, w), xv in zip(inst.edges, x))
    if weight < (1.0 - spec.epsilon) * value - 1e-9:
        problems.append(f"integral weight {weight!r} below (1-eps) * {value!r}")
    if not rec["checks_passed"]:
        problems.append("the pipeline's own checks failed")
    return problems


def check_pipeline_op(inst, rec, mw, exact, spec, full: bool) -> list[str]:
    """All checks of one operation; ``full`` adds the Monte Carlo and
    round sums, which redraw every sample and solve it with networkx."""
    return (
        check_sparsifier(inst, rec, mw, spec, full)
        + check_edge_stats(inst, rec, mw, exact, spec, full)
        + check_fractional(inst, rec, mw, spec)
        + check_ratio(inst, rec, mw, exact, spec, full)
    )


def check_subset_weights(exact: ExactReference, mw: MatchingWeights) -> list[str]:
    """The subset recurrence agrees with networkx wherever both ran."""
    return [
        f"subset weight {exact.mu[k]!r} != networkx {w!r} on mask {k}"
        for k, w in mw.memo.items()
        if not close(float(exact.mu[k]), w)
    ]


# -- checks on the records of one EDCS operation ---------------------------------


def edcs_beta(eps: float, p_v: float, p_e: float, c_const: float) -> int:
    pp = p_v * p_e
    return math.ceil(c_const * math.log(1.0 / (eps * pp)) / (eps**2 * pp))


def check_edcs(inst, rec, spec) -> list[str]:
    """Exit codes 0, the artifact holds this graph, and degree sums
    recomputed from its edge list meet both bounds."""
    problems = []
    if rec["build_code"] != 0 or rec["check_code"] != 0:
        problems.append(f"exit codes edcs={rec['build_code']} check={rec['check_code']}")
    try:
        art = json.loads(rec["artifact"])
        graph_edges = [(int(u), int(v), float(w)) for u, v, w in art["graph"]["edges"]]
        kept = {(int(u), int(v)) for u, v in art["edges"]}
        beta, beta_minus = int(art["params"]["beta"]), int(art["params"]["beta_minus"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable artifact: {exc}"]
    if graph_edges != list(inst.edges):
        problems.append("artifact graph differs from the generated instance")
    want = edcs_beta(spec.epsilon, inst.p_v, inst.p_e, spec.c_const)
    if (beta, beta_minus) != (want, want - 1):
        problems.append(f"bounds ({beta}, {beta_minus}), parameters give ({want}, {want - 1})")
    if not kept <= {(u, v) for u, v, _ in inst.edges}:
        return problems + ["artifact keeps edges the graph does not have"]
    deg = [0] * inst.n
    for u, v in kept:
        deg[u] += 1
        deg[v] += 1
    for u, v, _ in inst.edges:
        s = deg[u] + deg[v]
        if (u, v) in kept and s > beta:
            problems.append(f"kept edge ({u}, {v}) has degree sum {s} > beta {beta}")
        elif (u, v) not in kept and s < beta_minus:
            problems.append(f"dropped edge ({u}, {v}) has degree sum {s} < beta_minus {beta_minus}")
    return problems[:5]
