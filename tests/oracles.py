"""Independent brute-force oracles used to pin down expected test values.

Everything here works on plain (n, [(u, v, w), ...]) data and pure
stdlib, deliberately sharing no code with the package: subset
enumeration over edges for matchings, full outcome enumeration for
expectations, full edge rescans for degree-constrained subgraphs, and a
memoized search over (edge position, used vertices) for canonical
matchings.  Tests freeze values produced by these oracles (and by hand)
and check the package against them.  The last two sections are the
exception: copies of earlier package loops, kept to pin down a later
rewrite.
"""

from __future__ import annotations

import itertools
import math
import random


def brute_force_max_weight(n, edges):
    """Canonical maximum-weight matching by subset enumeration.

    Returns (indices, weight): among maximum-weight vertex-disjoint edge
    subsets, the one whose sorted index tuple is lexicographically
    smallest (prefix-first).  Exponential; keep len(edges) small.
    """
    m = len(edges)
    best_idx: tuple[int, ...] = ()
    best_w = 0.0
    for mask in range(1 << m):
        seen = 0
        ok = True
        idx = []
        t = mask
        while t:
            low = t & -t
            i = low.bit_length() - 1
            t ^= low
            u, v, _ = edges[i]
            bits = (1 << u) | (1 << v)
            if seen & bits:
                ok = False
                break
            seen |= bits
            idx.append(i)
        if not ok:
            continue
        w = math.fsum(edges[i][2] for i in idx)
        key = tuple(idx)
        if w > best_w or (w == best_w and key < best_idx):
            best_w = w
            best_idx = key
    return best_idx, best_w


def matched_vertices(edges, indices):
    """Vertices covered by the edges at ``indices`` of (u, v, ...) tuples."""
    return frozenset(x for i in indices for x in edges[i][:2])


def is_matching(edges, indices):
    """True when no two of the edges at ``indices`` share a vertex."""
    return len(matched_vertices(edges, indices)) == 2 * len(set(indices))


def enumerate_outcomes(n, edges, p_v, p_e):
    """Yield (vertex_set, edge_index_set, probability) over all outcomes."""
    m = len(edges)
    for vset in map(frozenset, _powerset(range(n))):
        p_vertices = p_v ** len(vset) * (1.0 - p_v) ** (n - len(vset))
        alive = [i for i in range(m) if edges[i][0] in vset and edges[i][1] in vset]
        for eset in map(frozenset, _powerset(alive)):
            prob = p_vertices * p_e ** len(eset) * (1.0 - p_e) ** (len(alive) - len(eset))
            yield vset, eset, prob


def consistent_outcome(n, edges, vertex_mask, edge_mask):
    """True when the masks name vertices and edges of the graph, and
    every surviving edge has both endpoints surviving."""
    if vertex_mask >> n or edge_mask >> len(edges):
        return False
    return all(
        vertex_mask >> u & 1 and vertex_mask >> v & 1
        for i, (u, v, *_) in enumerate(edges)
        if edge_mask >> i & 1
    )


def _powerset(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def oracle_edge_match_probabilities(n, edges, p_v, p_e):
    """Exact per-edge probability of being in the canonical maximum matching."""
    q = [0.0] * len(edges)
    terms = [[] for _ in edges]
    for _, eset, prob in enumerate_outcomes(n, edges, p_v, p_e):
        sub = sorted(eset)
        idx, _ = brute_force_max_weight(n, [edges[i] for i in sub])
        for pos in idx:
            terms[sub[pos]].append(prob)
    for i, t in enumerate(terms):
        q[i] = math.fsum(t)
    return q


def oracle_expected_value(n, edges, p_v, p_e, keep=None):
    """Exact expected maximum-matching weight of a realization.

    keep: optional set of edge indices; surviving edges outside it are
    discarded before matching.
    """
    terms = []
    for _, eset, prob in enumerate_outcomes(n, edges, p_v, p_e):
        sub = sorted(eset if keep is None else (eset & set(keep)))
        _, w = brute_force_max_weight(n, [edges[i] for i in sub])
        terms.append(prob * w)
    return math.fsum(terms)


def random_test_graph(rng: random.Random, max_n=6, max_m=8, weighted=False, dyadic=True):
    """Small random simple graph as (n, [(u, v, w), ...]) in canonical order.

    Dyadic weights (multiples of 1/64) make fsum-based comparisons exact.
    """
    n = rng.randint(2, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_m, len(pairs)))
    chosen = sorted(pairs[:m])
    edges = []
    for u, v in chosen:
        if weighted:
            w = rng.randint(1, 640) / 64.0 if dyadic else rng.uniform(0.1, 10.0)
        else:
            w = 1.0
        edges.append((u, v, w))
    return n, edges


def reference_build_edcs(n, edges, beta, beta_minus, max_fixups=1_000_000):
    """Degree-constrained subgraph by full rescans, as (edge mask, fix-ups).

    edges: (u, v, ...) tuples in canonical order.  Before every fix-up
    it scans all edges: it removes the first subgraph edge whose degree
    sum exceeds beta, else it adds the first other edge whose degree sum
    is below beta_minus, and it stops when neither exists.  Raises
    RuntimeError once the fix-ups exceed max_fixups.
    """
    m = len(edges)
    in_h = [False] * m
    deg = [0] * n
    fixups = 0
    while True:
        action = -1
        for i in range(m):
            if in_h[i]:
                u, v = edges[i][0], edges[i][1]
                if deg[u] + deg[v] > beta:
                    in_h[i] = False
                    deg[u] -= 1
                    deg[v] -= 1
                    action = i
                    break
        if action < 0:
            for i in range(m):
                if not in_h[i]:
                    u, v = edges[i][0], edges[i][1]
                    if deg[u] + deg[v] < beta_minus:
                        in_h[i] = True
                        deg[u] += 1
                        deg[v] += 1
                        action = i
                        break
        if action < 0:
            break
        fixups += 1
        if fixups > max_fixups:
            raise RuntimeError(f"no fixed point after {max_fixups} fix-up steps")
    mask = 0
    for i in range(m):
        if in_h[i]:
            mask |= 1 << i
    return mask, fixups


def reference_edcs_violations(n, edges, mask, beta, beta_minus):
    """Per-vertex degrees within the subgraph ``mask`` and its violations.

    Returns (degrees, violations): violations lists ("upper", i, s) for a
    subgraph edge i with degree sum s > beta and ("lower", i, s) for any
    other edge with s < beta_minus, in edge order.
    """
    deg = [0] * n
    for i, (u, v, *_) in enumerate(edges):
        if mask >> i & 1:
            deg[u] += 1
            deg[v] += 1
    out = []
    for i, (u, v, *_) in enumerate(edges):
        s = deg[u] + deg[v]
        if mask >> i & 1:
            if s > beta:
                out.append(("upper", i, s))
        elif s < beta_minus:
            out.append(("lower", i, s))
    return deg, out


def reference_canonical_matching(triples):
    """Positions (into ``triples``) of the canonical optimum, by the
    memoized search over (edge position, used vertices).

    triples: (u, v, w) in the order that defines the tie-break.  Edge i
    is skipped or, when both endpoints are free, taken; at equal weight
    Python tuple ordering prefers the candidate that takes i unless the
    skipping one is empty.  Recursive: the depth grows with the edge
    count, so keep inputs to a few hundred edges.
    """
    m = len(triples)
    # Vertices still referenced at position >= i; masking the used set with
    # this makes states collide across irrelevant prefixes.
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        u, v, _ = triples[i]
        suffix[i] = suffix[i + 1] | (1 << u) | (1 << v)

    memo = {}

    def best(i, used):
        if i == m:
            return 0.0, ()
        key = (i, used & suffix[i])
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = best(i + 1, used)
        u, v, w = triples[i]
        bit_u = 1 << u
        bit_v = 1 << v
        if not used & (bit_u | bit_v):
            w_take, seq_take = best(i + 1, used | bit_u | bit_v)
            cand = (w + w_take, (i,) + seq_take)
            if cand[0] > res[0] or (cand[0] == res[0] and cand[1] < res[1]):
                res = cand
        memo[key] = res
        return res

    return best(0, 0)[1]


# -- The estimator's reductions before they were merged ---------------------------
# Verbatim copies of the earlier package loops (``self`` -> ``oracle``; the
# exact branch of the ratio calls the copied oracle reducer).  Unlike the rest
# of this module they use the package's sampler, matcher and oracle
# distribution, which have references of their own; what they pin down is the
# reduction: weights, divisors, substream indices and where a restriction
# applies.


def reference_oracle_expected_value(oracle, restrict_to=None):
    """``ExhaustiveOracle.expected_value`` as a loop over the distribution."""
    matcher = oracle.matcher
    if restrict_to is None:
        terms = [p * matcher.for_mask(mask).total_weight for mask, p in oracle.distribution.items()]
    else:
        terms = [
            p * matcher.for_mask(mask & restrict_to).total_weight
            for mask, p in oracle.distribution.items()
        ]
    return math.fsum(terms)


def reference_oracle_edge_probabilities(oracle, restrict_to=None):
    """``ExhaustiveOracle.edge_probabilities`` as a loop over the distribution."""
    import numpy as np

    per_edge = [[] for _ in range(oracle.graph.m)]
    for mask, p in oracle.distribution.items():
        if restrict_to is not None:
            mask &= restrict_to
        for i in oracle.matcher.for_mask(mask).indices:
            per_edge[i].append(p)
    return np.array([math.fsum(t) for t in per_edge], dtype=np.float64)


def reference_mc_expected_value(g, rng, samples, restrict_to=None, confidence=0.99):
    """(value, ci) of the Monte Carlo value loop."""
    from stochmatch.matching import CanonicalMatcher
    from stochmatch.realization import ESTIMATOR_DRAWS, RngSeed, _sample_masks

    gen = rng.generator(ESTIMATOR_DRAWS, 0) if isinstance(rng, RngSeed) else rng
    matcher = CanonicalMatcher(g)
    _, emasks = _sample_masks(g, gen, samples)
    if restrict_to is not None:
        emasks = [emask & restrict_to for emask in emasks]
    values = [matcher.for_mask(emask).total_weight for emask in emasks]
    mean = math.fsum(values) / samples
    spread = max(values) - min(values)
    half = spread * math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return mean, half


def reference_approximation_ratio(g, restrict_to, mode, rng=None, samples=0, confidence=0.99):
    """(ratio, ci) of the exact and the paired Monte Carlo ratio loops."""
    from stochmatch.estimator import ExhaustiveOracle
    from stochmatch.matching import CanonicalMatcher
    from stochmatch.realization import ESTIMATOR_DRAWS, RngSeed, _sample_masks

    if mode == "exact":
        oracle = ExhaustiveOracle(g)
        den = reference_oracle_expected_value(oracle)
        if den == 0.0:
            return 1.0, 0.0
        num = reference_oracle_expected_value(oracle, restrict_to)
        return num / den, 0.0
    gen = rng.generator(ESTIMATOR_DRAWS, 0) if isinstance(rng, RngSeed) else rng
    matcher = CanonicalMatcher(g)
    _, emasks = _sample_masks(g, gen, samples)
    num_values = []
    den_values = []
    for emask in emasks:
        den_values.append(matcher.for_mask(emask).total_weight)
        num_values.append(matcher.for_mask(emask & restrict_to).total_weight)
    den = math.fsum(den_values) / samples
    num = math.fsum(num_values) / samples
    if den == 0.0:
        return 1.0, 0.0
    scale = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    half_num = (max(num_values) - min(num_values)) * scale
    half_den = (max(den_values) - min(den_values)) * scale
    ratio = num / den
    half = (half_num + abs(ratio) * half_den) / den
    return ratio, half


def reference_mc_edge_probabilities(g, rng, samples):
    """q of the Monte Carlo per-edge counting loop."""
    import numpy as np

    from stochmatch.matching import CanonicalMatcher
    from stochmatch.realization import ESTIMATOR_DRAWS, RngSeed, _sample_masks

    gen = rng.generator(ESTIMATOR_DRAWS, 1) if isinstance(rng, RngSeed) else rng
    matcher = CanonicalMatcher(g)
    counts = np.zeros(g.m, dtype=np.int64)
    _, emasks = _sample_masks(g, gen, samples)
    for emask in emasks:
        for i in matcher.for_mask(emask).indices:
            counts[i] += 1
    return counts / float(samples)


# -- Per-vertex sums before they were merged --------------------------------------
# Copies of the earlier package loops that each summed over incident edges in
# their own way (``self`` -> ``g``; the budget step returns a new x instead of
# editing one).  They pin down ``StochasticGraph.vertex_sums`` and its callers.


def reference_vertex_sums(g, per_edge, within=None):
    """``EdgeStats._vertex_sums``: one pass in canonical edge order."""
    import numpy as np

    out = np.zeros(g.n)
    for i, e in enumerate(g.edges):
        if within is None or within >> i & 1:
            out[e.u] += per_edge[i]
            out[e.v] += per_edge[i]
    return out


def reference_loads(g, x):
    """``FractionalMatching.loads``: every first endpoint, then every second."""
    import numpy as np

    out = np.zeros(g.n)
    ends = g.endpoint_array
    if g.m:
        np.add.at(out, ends[:, 0], x)
        np.add.at(out, ends[:, 1], x)
    return out


def reference_enforce_vertex_budgets(g, x, fixed_mask, loads):
    """``_enforce_vertex_budgets`` with a per-vertex fsum and a per-edge loop.

    The loop read its totals from ``FractionalMatching.loads``; they are
    passed in here, so the budget arithmetic can be compared bit for bit
    apart from the summation order that ``reference_loads`` covers.
    """
    import numpy as np

    x = np.array(x, dtype=np.float64)
    factors = np.ones(g.n)
    for v in range(g.n):
        if loads[v] <= 1.0:
            continue
        fixed_v = math.fsum(x[i] for i in g.incident[v] if fixed_mask >> i & 1)
        free_v = loads[v] - fixed_v
        if free_v <= 0.0:
            continue
        factors[v] = max(0.0, 1.0 - fixed_v) / free_v
    for i, e in enumerate(g.edges):
        if fixed_mask >> i & 1:
            continue
        f = factors[e.u] * factors[e.v]
        if f != 1.0:
            x[i] *= f
    return x


def reference_non_crucial_x(s, stats, non_crucial_mask, realized_edges):
    """``non_crucial_procedure``'s x: a per-vertex fsum of x~ and a
    per-edge minimum over the endpoint factors."""
    import numpy as np

    g = s.graph
    eps = s.params.epsilon
    tau = s.params.tau
    pe2 = g.p_v * g.p_v * g.p_e
    active = realized_edges & s.edge_mask & non_crucial_mask
    x_t = np.zeros(g.m)
    for i in range(g.m):
        if active >> i & 1:
            x_t[i] = min(s.f[i], 2.0 * tau) / pe2
    scale = np.ones(g.m)
    qn = reference_vertex_sums(g, stats.q, non_crucial_mask)
    for v in range(g.n):
        idx = g.incident[v]
        denom = g.p_v * math.fsum(x_t[i] for i in idx)
        if denom <= 0.0:
            continue
        factor = max(qn[v], eps) / denom
        for i in idx:
            if factor < scale[i]:
                scale[i] = factor
    return x_t * scale


def reference_degrees(g, mask):
    """``Sparsifier.subgraph_max_degree``'s count: per vertex, edges in ``mask``."""
    deg = [0] * g.n
    for i, e in enumerate(g.edges):
        if mask >> i & 1:
            deg[e.u] += 1
            deg[e.v] += 1
    return deg


# -- Edge-set conversions, one bit at a time ------------------------------------------


def reference_edge_flags(m, mask):
    """Per edge index i < m, whether bit i of ``mask`` is set; a negative
    mask reads as its two's complement, as Python's ``>>`` gives it."""
    return [mask >> i & 1 == 1 for i in range(m)]


def reference_mask_from_indices(indices):
    """The mask with bit i set for each i in ``indices``, one shift each."""
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative index {i}")
        mask |= 1 << int(i)
    return mask
