"""Exact and Monte Carlo estimates over one list of realization outcomes.

Both modes yield (surviving edge mask, weight) outcomes and a divisor.
Exact takes each edge set's probability from
:func:`~stochmatch.realization.edge_mask_distribution` (the matching
depends on nothing else) in ascending mask order, divisor 1.0; Monte
Carlo takes one ``realization._sample_masks`` batch, weight 1.0 each,
divisor the sample count.  One reducer sums weight * matching value, the
other sums per edge the weights of the outcomes whose matching holds it;
both divide a math.fsum, so the outcome order changes nothing.  Monte
Carlo intervals are Hoeffding over the observed value range, exactly 0
when p_v = p_e = 1.  ``_resolve_mode`` maps "auto" to a mode, and
``_outcomes`` checks Monte Carlo inputs before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

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

# (surviving edge mask, weight) pairs; iterated more than once.
_Outcomes = Collection[tuple[int, float]]


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


def _mean_value(
    matcher: CanonicalMatcher, outcomes: _Outcomes, divisor: float, restrict_to: int | None = None
) -> tuple[float, list[float]]:
    """(sum of weight * matching value / divisor, the values), matching
    each outcome's edges within ``restrict_to`` (all when None)."""
    keep = -1 if restrict_to is None else restrict_to
    values = [matcher.value_for_mask(mask & keep) for mask, _ in outcomes]
    return math.fsum(w * v for (_, w), v in zip(outcomes, values)) / divisor, values


def _edge_means(
    matcher: CanonicalMatcher, outcomes: _Outcomes, divisor: float, restrict_to: int | None = None
) -> np.ndarray:
    """Per edge, the weights of the outcomes whose matching holds it,
    summed and divided by ``divisor``."""
    keep = -1 if restrict_to is None else restrict_to
    per_edge: list[list[float]] = [[] for _ in range(matcher.graph.m)]
    for mask, w in outcomes:
        for i in matcher.for_mask(mask & keep).indices:
            per_edge[i].append(w)
    return np.array([math.fsum(t) / divisor for t in per_edge], dtype=np.float64)


class ExhaustiveOracle:
    """Exact expectations for one graph via outcome enumeration.

    Construction pays the enumeration cost once; queries for different
    edge-set restrictions then share the aggregated distribution and the
    matching cache.  The distribution is kept in ascending mask order.
    Both subproblems of a mask's matching solve are smaller submasks,
    and the distribution holds every edge subset (the outcome with all
    vertices alive reaches each one), so in this order each new solve
    finds both in the matcher's cache; a restricted query's submasks are
    earlier outcomes too.
    """

    def __init__(self, g: StochasticGraph, budget_bits: int = ENUMERATION_BUDGET_BITS):
        self.distribution = dict(sorted(edge_mask_distribution(g, budget_bits).items()))
        self.graph = g
        self.matcher = CanonicalMatcher(g)

    def expected_value(self, restrict_to: int | None = None) -> float:
        """E of the maximum-matching value, optionally discarding
        surviving edges outside ``restrict_to`` before matching."""
        return _mean_value(self.matcher, self.distribution.items(), 1.0, restrict_to)[0]

    def edge_probabilities(self, restrict_to: int | None = None) -> np.ndarray:
        """Per-edge probability of being in the canonical maximum matching."""
        return _edge_means(self.matcher, self.distribution.items(), 1.0, restrict_to)


def _resolve_mode(g: StochasticGraph, mode: str, budget_bits: int) -> str:
    """"exact" or "mc"; "auto" is exact when the graph fits the budget."""
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        return "exact" if g.n + g.m <= budget_bits else "mc"
    return mode


def _outcomes(
    g: StochasticGraph,
    mode: str,
    rng: RngSeed | np.random.Generator | None,
    samples: int,
    budget_bits: int,
    index: int,
    confidence: float = 0.99,
) -> tuple[CanonicalMatcher, _Outcomes, float]:
    """(matcher, outcomes, divisor) for a resolved mode; Monte Carlo draws
    substream ``(ESTIMATOR_DRAWS, index)`` of an RngSeed, or a Generator."""
    if mode == "exact":
        oracle = ExhaustiveOracle(g, budget_bits)
        return oracle.matcher, oracle.distribution.items(), 1.0
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if rng is None:
        raise ValueError("Monte Carlo mode needs an rng")
    gen = rng.generator(ESTIMATOR_DRAWS, index) if isinstance(rng, RngSeed) else rng
    _, emasks = _sample_masks(g, gen, samples)
    return CanonicalMatcher(g), [(emask, 1.0) for emask in emasks], float(samples)


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
    return Estimate(ExhaustiveOracle(g, budget_bits).expected_value(restrict_to), 0.0, "exact")


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
    matcher, outcomes, divisor = _outcomes(
        g, "mc", rng, samples, ENUMERATION_BUDGET_BITS, 0, confidence
    )
    mean, values = _mean_value(matcher, outcomes, divisor, restrict_to)
    scale = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return Estimate(mean, (max(values) - min(values)) * scale, "monte-carlo", samples, confidence)


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
    mode = _resolve_mode(g, mode, budget_bits)
    matcher, outcomes, divisor = _outcomes(g, mode, rng, samples, budget_bits, 0, confidence)
    den, den_values = _mean_value(matcher, outcomes, divisor)
    num, num_values = _mean_value(matcher, outcomes, divisor, restrict_to)
    if mode == "exact":
        return Estimate(num / den if den != 0.0 else 1.0, 0.0, "exact")
    if den == 0.0:
        return Estimate(1.0, 0.0, "monte-carlo", samples, confidence)
    scale = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    half_num = (max(num_values) - min(num_values)) * scale
    half_den = (max(den_values) - min(den_values)) * scale
    ratio = num / den
    # First-order propagation; conservative for the desk-scale ranges here.
    half = (half_num + abs(ratio) * half_den) / den
    return Estimate(ratio, half, "monte-carlo", samples, confidence)
