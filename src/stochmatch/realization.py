"""Sampling and exhaustive enumeration of graph realizations.

A realization keeps each vertex independently with probability ``p_v``
and each edge whose endpoints both survived independently with
probability ``p_e``.  Realizations are represented as two bitmasks; an
edge bit may be set only when both endpoint vertex bits are set, which
the sampler guarantees.  So the edge mask alone is the realized edge
set, and it is all that the fractional stages and the estimators read.

Every quantity the package computes comes from this one distribution,
through one of two primitives: ``_sample_masks`` draws a batch of
realizations (all sampling in the package goes through it), and
:func:`edge_mask_distribution` enumerates the exact probability of each
surviving edge set (all exact expectations go through it).

Randomness is counter-based: :class:`RngSeed` wraps numpy's Philox
generator, keyed by ``(seed, stream)`` with a ``(purpose, index)``
counter.  A seed names an experiment, a stream separates top-level units
of work (for example sweep rows), and purpose/index address independent
substreams within a unit.  Because substreams are addressed rather than
split sequentially, results never depend on evaluation order or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import BudgetExceededError
from .graph import StochasticGraph, _pack_rows

__all__ = [
    "RngSeed",
    "Realization",
    "sample_realization",
    "edge_mask_distribution",
    "ENUMERATION_BUDGET_BITS",
    "SPARSIFIER_DRAWS",
    "EXPERIMENT_DRAWS",
    "ESTIMATOR_DRAWS",
    "GENERATOR_DRAWS",
]

# Exhaustive enumeration refuses graphs with more than this many total bits
# (vertices + edges), i.e. more than 2**22 outcomes.
ENUMERATION_BUDGET_BITS = 22

# Purpose constants for RngSeed.generator(); any fixed distinct values work,
# these names document who draws from which substream.
SPARSIFIER_DRAWS = 1
EXPERIMENT_DRAWS = 2
ESTIMATOR_DRAWS = 4
GENERATOR_DRAWS = 5

# Uniforms one sampler chunk draws at most (8 MiB of float64), so a large
# sample count never holds all of its uniforms at once.
_CHUNK_UNIFORMS = 1 << 20

_UINT64 = 2**64


@dataclass(frozen=True)
class RngSeed:
    """Addressable source of independent random substreams.

    Attributes:
        seed: experiment-level seed, 0 <= seed < 2**64.
        stream: unit-of-work index, 0 <= stream < 2**64.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not isinstance(value, int) or not (0 <= value < _UINT64):
                raise ValueError(f"{name} must be an int in [0, 2**64), got {value!r}")

    def generator(self, purpose: int = 0, index: int = 0) -> np.random.Generator:
        """Fresh generator for substream ``(purpose, index)``.

        The same (seed, stream, purpose, index) always yields the same
        sequence; distinct tuples yield independent sequences.
        """
        if not (0 <= purpose < _UINT64) or not (0 <= index < _UINT64):
            raise ValueError("purpose and index must be ints in [0, 2**64)")
        bits = np.random.Philox(key=[self.seed, self.stream], counter=[0, 0, purpose, index])
        return np.random.Generator(bits)

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


@dataclass(frozen=True)
class Realization:
    """One sampled outcome: surviving vertices and edges as bitmasks."""

    vertex_mask: int
    edge_mask: int


def _sample_masks(
    g: StochasticGraph, gen: np.random.Generator, count: int = 1
) -> tuple[list[int], list[int]]:
    """``count`` realization draws as (vertex_masks, edge_masks).

    Each draw consumes n + m uniforms, vertices first, so the stream
    layout does not depend on the outcome and one call with ``count``
    draws reads the generator exactly as ``count`` calls of one draw.
    """
    n, m = g.n, g.m
    ends = g.endpoint_array
    rows = max(1, _CHUNK_UNIFORMS // max(1, n + m))
    vertex_masks: list[int] = []
    edge_masks: list[int] = []
    for start in range(0, count, rows):
        u = gen.random((min(rows, count - start), n + m))
        vbits = u[:, :n] < g.p_v
        ebits = (u[:, n:] < g.p_e) & vbits[:, ends[:, 0]] & vbits[:, ends[:, 1]]
        vertex_masks += _pack_rows(vbits)
        edge_masks += _pack_rows(ebits)
    return vertex_masks, edge_masks


def sample_realization(
    g: StochasticGraph,
    rng: RngSeed | np.random.Generator,
    *,
    purpose: int = EXPERIMENT_DRAWS,
    index: int = 0,
) -> Realization:
    """Draw one realization of ``g``.

    Args:
        g: the graph.
        rng: an RngSeed (a fresh substream ``(purpose, index)`` is used)
            or an already-positioned numpy Generator (consumed in place).
    """
    gen = rng.generator(purpose, index) if isinstance(rng, RngSeed) else rng
    (vmask,), (emask,) = _sample_masks(g, gen)
    return Realization(vmask, emask)


def edge_mask_distribution(
    g: StochasticGraph, budget_bits: int = ENUMERATION_BUDGET_BITS
) -> dict[int, float]:
    """Probability of each surviving-edge set, marginalized over vertices.

    Every consistent outcome is visited once; vertex sets of probability
    zero (for example a dead vertex when p_v = 1) are skipped, but edge
    sets reachable from a live vertex set stay in the result even when
    their own probability is zero.  Probabilities sum to 1.  Up to 2**n
    vertex terms contribute to one edge mask, so plain float
    accumulation per mask loses at most ~2**n ulps, far inside the 1e-12
    tolerances used downstream.

    Raises:
        BudgetExceededError: when n + m exceeds ``budget_bits`` (the scan
            has up to 2**(n+m) outcomes).
    """
    n, m = g.n, g.m
    if n + m > budget_bits:
        raise BudgetExceededError(
            f"enumeration over {n} vertices + {m} edges needs up to 2**{n + m} "
            f"outcomes, over the budget of 2**{budget_bits}"
        )
    pv_pow = [g.p_v**k for k in range(n + 1)]
    qv_pow = [(1.0 - g.p_v) ** k for k in range(n + 1)]
    pe_pow = [g.p_e**k for k in range(m + 1)]
    qe_pow = [(1.0 - g.p_e) ** k for k in range(m + 1)]
    evm = g.edge_vertex_masks
    dist: dict[int, float] = {}
    for vmask in range(1 << n):
        base = pv_pow[vmask.bit_count()] * qv_pow[n - vmask.bit_count()]
        if base == 0.0:
            continue
        alive = [i for i in range(m) if (vmask & evm[i]) == evm[i]]
        k = len(alive)
        # emasks[s] for subset s of alive, built incrementally from s
        # with its lowest bit dropped.
        emasks = [0] * (1 << k)
        for s in range(1, 1 << k):
            low = s & -s
            emasks[s] = emasks[s ^ low] | (1 << alive[low.bit_length() - 1])
        for s in range(1 << k):
            c = s.bit_count()
            prob = base * pe_pow[c] * qe_pow[k - c]
            em = emasks[s]
            dist[em] = dist.get(em, 0.0) + prob
    return dist
