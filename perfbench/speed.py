"""The machine's current speed, read from a fixed pure-Python kernel.

The benchmark's machine is shared: its speed moves by up to 2x in
phases of seconds to minutes, as other work on the host comes and goes.
A wall-clock median over one run then depends on how much of the run
fell in slow phases.  The kernel below is timed right before and right
after each operation.  It is the same kind of work as the package's hot
loops (memoized recursion over bitmask states, dict lookups, tuples and
float arithmetic), so it slows in the same phases.  It imports nothing
from stochmatch, so no change to the package moves it.

``scale(before, after)`` turns an operation's wall time into seconds at
the reference speed: the speed at which the kernel takes
``REFERENCE_S``.  That is about the kernel's time in the machine's
quiet phases, so corrected figures read close to quiet-phase wall times.
A change that makes the package twice as fast halves them.
"""

from __future__ import annotations

import random
from time import perf_counter

# The kernel's time in the quiet phases of the 2-CPU machine the figures
# in README.md were measured on.
REFERENCE_S = 0.030

_rnd = random.Random(7)
_EDGES = [
    (u, v, _rnd.uniform(0.1, 10.0))
    for u in range(9)
    for v in range(u + 1, 9)
    if _rnd.random() < 0.5
]
_STRIDE = 16411  # visits 256 of the 2**22 edge subsets


def _max_matching_weight(edges) -> float:
    memo: dict[tuple[int, int], float] = {}

    def best(i: int, used: int) -> float:
        if i == len(edges):
            return 0.0
        key = (i, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        value = best(i + 1, used)
        u, v, w = edges[i]
        if not (used >> u & 1 or used >> v & 1):
            value = max(value, w + best(i + 1, used | 1 << u | 1 << v))
        memo[key] = value
        return value

    return best(0, 0)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (max-weight matchings of a
    fixed set of edge subsets by a memoized search)."""
    t0 = perf_counter()
    total = 0.0
    for mask in range(0, 1 << len(_EDGES), _STRIDE):
        total += _max_matching_weight([e for i, e in enumerate(_EDGES) if mask >> i & 1])
    elapsed = perf_counter() - t0
    if not total > 0.0:
        raise RuntimeError("speed kernel computed no matching weight")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed, for
    work timed between two kernel runs."""
    return REFERENCE_S / ((before + after) / 2.0)
