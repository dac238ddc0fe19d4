"""Matching sparsifier built from repeated realization rounds.

The sparsifier Q is the union of the canonical maximum matchings of R
independent realizations.  Per-edge appearance counts over the rounds
give empirical frequencies f_e that estimate the probability q_e of the
edge being in the maximum matching of a random realization; edges are
then split by a threshold tau into crucial (q_e >= tau) and non-crucial
ones, which the fractional procedures treat differently.

The round count follows
    R = ceil(2000 * ln(1/eps) * ln(1/(eps * p_v^2 * p_e))
             / (eps^4 * p_v^2 * p_e))
and the threshold is
    tau = eps^3 * p_v^2 * p_e / (20 * ln(1/eps)).
The formula value of R is astronomically large outside toy parameters,
so an optional cap bounds the rounds actually run; parameters record
both the formula value and the cap so reports can state what was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import StochasticGraph, mask_from_indices
from .matching import CanonicalMatcher
from .realization import SPARSIFIER_DRAWS, RngSeed, _sample_masks

__all__ = [
    "SparsifierParams",
    "Sparsifier",
    "compute_params",
    "build_sparsifier",
    "classify_edges",
]


@dataclass(frozen=True)
class SparsifierParams:
    """Round count and crucial threshold for one (epsilon, p_v, p_e) point.

    Attributes:
        epsilon: accuracy parameter in (0, 1).
        rounds: number of sampling rounds actually run (R).
        tau: crucial threshold in (0, 1); q_e >= tau is crucial.
        rounds_formula: uncapped formula value of R.
        r_cap: the cap applied, or None; rounds = min(rounds_formula, r_cap).
    """

    epsilon: float
    rounds: int
    tau: float
    rounds_formula: int
    r_cap: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds!r}")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        expected = self.rounds_formula if self.r_cap is None else min(self.rounds_formula, self.r_cap)
        if self.rounds != expected:
            raise ValueError(
                f"rounds={self.rounds} inconsistent with formula={self.rounds_formula}, cap={self.r_cap}"
            )


def compute_params(
    epsilon: float, p_v: float, p_e: float, r_cap: int | None = None
) -> SparsifierParams:
    """Round count and crucial threshold for the given parameters.

    Args:
        epsilon: accuracy parameter, must lie in (0, 1).
        p_v, p_e: survival probabilities in (0, 1].
        r_cap: optional upper bound on rounds actually run.  The formula
            value is kept alongside for reporting.

    Raises:
        ValueError: on out-of-range inputs, or when epsilon is so close
            to 1 that the threshold formula leaves (0, 1).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    for name, p in (("p_v", p_v), ("p_e", p_e)):
        if not (0.0 < p <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {p!r}")
    if r_cap is not None and r_cap < 1:
        raise ValueError(f"r_cap must be >= 1, got {r_cap!r}")
    pe2 = p_v * p_v * p_e
    log_eps = math.log(1.0 / epsilon)
    formula = math.ceil(2000.0 * log_eps * math.log(1.0 / (epsilon * pe2)) / (epsilon**4 * pe2))
    tau = epsilon**3 * pe2 / (20.0 * log_eps)
    rounds = formula if r_cap is None else min(formula, r_cap)
    return SparsifierParams(epsilon, rounds, tau, formula, r_cap)


@dataclass(frozen=True, eq=False)
class Sparsifier:
    """Result of the sampling rounds.

    Attributes:
        graph: the graph the rounds were run on.
        params: parameters used.
        counts: per-edge appearance counts over the rounds (int array).
    """

    graph: StochasticGraph
    params: SparsifierParams
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.counts) != self.graph.m:
            raise ValueError("counts length must equal edge count")
        if np.any(self.counts < 0) or np.any(self.counts > self.params.rounds):
            raise ValueError("counts must lie in [0, rounds]")

    @cached_property
    def edge_mask(self) -> int:
        """Bitmask of Q: edges that appeared in at least one round."""
        return mask_from_indices(int(i) for i in np.flatnonzero(self.counts))

    @cached_property
    def edge_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.counts))

    @cached_property
    def f(self) -> np.ndarray:
        """Empirical per-edge appearance frequencies f_e = count / rounds."""
        return self.counts / float(self.params.rounds)

    @property
    def size(self) -> int:
        return len(self.edge_indices)

    def contains(self, i: int) -> bool:
        return bool(self.counts[i])

    def subgraph_max_degree(self) -> int:
        """Maximum degree of the Q subgraph.

        Each round contributes a matching, so no vertex can exceed
        degree rounds (and trivially its degree in the graph).
        """
        deg = [0] * self.graph.n
        for i in self.edge_indices:
            e = self.graph.edges[i]
            deg[e.u] += 1
            deg[e.v] += 1
        return max(deg, default=0)


def build_sparsifier(
    g: StochasticGraph,
    params: SparsifierParams,
    rng: RngSeed,
    matcher: CanonicalMatcher | None = None,
) -> Sparsifier:
    """Run the sampling rounds and collect Q.

    Each round r draws a realization from substream (SPARSIFIER_DRAWS, r)
    and adds the edges of its canonical maximum matching to Q.  Rounds
    are addressed, not sequential, so the result is independent of any
    evaluation order.

    Args:
        matcher: optional shared matcher; rounds of one graph hit the
            same realized edge sets repeatedly, so sharing the cache
            across calls is a large win.
    """
    if matcher is None:
        matcher = CanonicalMatcher(g)
    elif matcher.graph is not g:
        raise ValueError("matcher is bound to a different graph")
    counts = np.zeros(g.m, dtype=np.int64)
    for r in range(params.rounds):
        _, (emask,) = _sample_masks(g, rng.generator(SPARSIFIER_DRAWS, r))
        for i in matcher.for_mask(emask).indices:
            counts[i] += 1
    return Sparsifier(g, params, counts)


def classify_edges(s: Sparsifier, q_estimates) -> tuple[int, int]:
    """Split all graph edges into crucial and non-crucial bitmasks.

    Args:
        s: the sparsifier (supplies the threshold via s.params.tau).
        q_estimates: per-edge estimates of the matching probability q_e,
            length m.  Supplied externally so exact oracle values,
            Monte Carlo estimates or the sparsifier's own f can be used
            interchangeably.

    Returns:
        (crucial_mask, non_crucial_mask): a partition of all m edges,
        crucial meaning q_e >= tau (boundary inclusive).
    """
    q = np.asarray(q_estimates, dtype=np.float64)
    if q.shape != (s.graph.m,):
        raise ValueError(f"expected {s.graph.m} estimates, got shape {q.shape}")
    crucial = mask_from_indices(int(i) for i in np.flatnonzero(q >= s.params.tau))
    return crucial, s.graph.all_edges_mask & ~crucial
