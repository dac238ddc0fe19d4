"""Exact and Monte Carlo estimates of expected maximum-matching value.

The exact path takes the probability of each surviving edge set from
:func:`~stochmatch.realization.edge_mask_distribution` (the matching
value depends on nothing else) and reduces with one matching solve per
distinct edge set.  Sums use math.fsum so results are correctly rounded
independently of enumeration order.  The Monte Carlo path draws its
realizations in one batch from ``realization._sample_masks`` and reports
a Hoeffding confidence halfwidth over the observed value range; with
p_v = p_e = 1 every sample is identical, so the halfwidth is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import StochasticGraph
from .matching import CanonicalMatcher
from .realization import (
    ENUMERATION_BUDGET_BITS,
    ESTIMATOR_DRAWS,
    RngSeed,
    _sample_masks,
    edge_mask_distribution,
)

__all__ = [
    "Estimate",
    "ExhaustiveOracle",
    "expected_matching_exact",
    "expected_matching_mc",
    "approximation_ratio",
]


@dataclass(frozen=True)
class Estimate:
    """A value with an uncertainty halfwidth.

    Attributes:
        value: the estimate.
        ci: confidence halfwidth; 0.0 for exact computations.
        mode: "exact" or "monte-carlo".
        samples: Monte Carlo sample count (0 for exact).
        confidence: nominal coverage of the interval (1.0 for exact).
    """

    value: float
    ci: float
    mode: str
    samples: int = 0
    confidence: float = 1.0


class ExhaustiveOracle:
    """Exact expectations for one graph via outcome enumeration.

    Construction pays the enumeration cost once; queries for different
    edge-set restrictions then share the aggregated distribution and the
    matching cache.  The distribution is kept in ascending mask order.
    Both subproblems of a mask's matching solve are smaller submasks,
    and the distribution holds every edge subset (the outcome with all
    vertices alive reaches each one), so in this order each new solve
    finds both in the matcher's cache; a restricted query's submasks are
    earlier outcomes too.  The sums are taken with math.fsum, so the
    order does not change them.
    """

    def __init__(self, g: StochasticGraph, budget_bits: int = ENUMERATION_BUDGET_BITS):
        self.distribution = dict(sorted(edge_mask_distribution(g, budget_bits).items()))
        self.graph = g
        self.matcher = CanonicalMatcher(g)

    def expected_value(self, restrict_to: int | None = None) -> float:
        """E of the maximum-matching value, optionally discarding
        surviving edges outside ``restrict_to`` before matching."""
        matcher = self.matcher
        if restrict_to is None:
            terms = [p * matcher.value_for_mask(mask) for mask, p in self.distribution.items()]
        else:
            terms = [
                p * matcher.value_for_mask(mask & restrict_to)
                for mask, p in self.distribution.items()
            ]
        return math.fsum(terms)

    def edge_probabilities(self, restrict_to: int | None = None) -> np.ndarray:
        """Per-edge probability of being in the canonical maximum matching."""
        per_edge: list[list[float]] = [[] for _ in range(self.graph.m)]
        for mask, p in self.distribution.items():
            if restrict_to is not None:
                mask &= restrict_to
            for i in self.matcher.for_mask(mask).indices:
                per_edge[i].append(p)
        return np.array([math.fsum(t) for t in per_edge], dtype=np.float64)


def expected_matching_exact(
    g: StochasticGraph,
    restrict_to: int | None = None,
    budget_bits: int = ENUMERATION_BUDGET_BITS,
) -> Estimate:
    """Exact E[max-matching value of a realization].

    Args:
        restrict_to: optional edge bitmask; surviving edges outside it
            are discarded before matching.

    Raises:
        BudgetExceededError: when n + m exceeds budget_bits.
    """
    oracle = ExhaustiveOracle(g, budget_bits)
    return Estimate(oracle.expected_value(restrict_to), 0.0, "exact")


def expected_matching_mc(
    g: StochasticGraph,
    rng: RngSeed | np.random.Generator,
    samples: int,
    restrict_to: int | None = None,
    confidence: float = 0.99,
) -> Estimate:
    """Monte Carlo E[max-matching value of a realization].

    The halfwidth is Hoeffding over the observed value range:
    (max - min) * sqrt(ln(2/(1-confidence)) / (2*samples)).  Samples are
    drawn from one substream in a fixed order, so a given RngSeed always
    reproduces the estimate bit for bit.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    gen = rng.generator(ESTIMATOR_DRAWS, 0) if isinstance(rng, RngSeed) else rng
    matcher = CanonicalMatcher(g)
    _, emasks = _sample_masks(g, gen, samples)
    if restrict_to is not None:
        emasks = [emask & restrict_to for emask in emasks]
    values = [matcher.value_for_mask(emask) for emask in emasks]
    mean = math.fsum(values) / samples
    spread = max(values) - min(values)
    half = spread * math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return Estimate(mean, half, "monte-carlo", samples, confidence)


def approximation_ratio(
    g: StochasticGraph,
    restrict_to: int,
    mode: str = "auto",
    rng: RngSeed | None = None,
    samples: int = 100_000,
    confidence: float = 0.99,
    budget_bits: int = ENUMERATION_BUDGET_BITS,
) -> Estimate:
    """E[value restricted to ``restrict_to``] / E[value unrestricted].

    A zero denominator (graph with no matchable mass) reports ratio 1.0:
    the restriction trivially preserves everything.

    Args:
        mode: "exact", "mc", or "auto" (exact when the graph fits the
            enumeration budget, Monte Carlo otherwise).
        rng: required for Monte Carlo.  Numerator and denominator are
            evaluated on the same sampled realizations, so at
            p_v = p_e = 1 the ratio is exactly 1.0 with zero width.
    """
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if g.n + g.m <= budget_bits else "mc"
    if mode == "exact":
        oracle = ExhaustiveOracle(g, budget_bits)
        den = oracle.expected_value()
        if den == 0.0:
            return Estimate(1.0, 0.0, "exact")
        num = oracle.expected_value(restrict_to)
        return Estimate(num / den, 0.0, "exact")
    if rng is None:
        raise ValueError("Monte Carlo mode needs an rng")
    gen = rng.generator(ESTIMATOR_DRAWS, 0) if isinstance(rng, RngSeed) else rng
    matcher = CanonicalMatcher(g)
    _, emasks = _sample_masks(g, gen, samples)
    num_values = []
    den_values = []
    for emask in emasks:
        den_values.append(matcher.value_for_mask(emask))
        num_values.append(matcher.value_for_mask(emask & restrict_to))
    den = math.fsum(den_values) / samples
    num = math.fsum(num_values) / samples
    if den == 0.0:
        return Estimate(1.0, 0.0, "monte-carlo", samples, confidence)
    scale = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    half_num = (max(num_values) - min(num_values)) * scale
    half_den = (max(den_values) - min(den_values)) * scale
    ratio = num / den
    # First-order propagation; conservative for the desk-scale ranges here.
    half = (half_num + abs(ratio) * half_den) / den
    return Estimate(ratio, half, "monte-carlo", samples, confidence)
