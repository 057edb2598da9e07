"""A fixed reference workload that gauges how fast the host runs right now.

The machines this benchmark runs on share their cores with other tenants,
and their speed swings by up to 2x in phases of seconds to minutes: on a
2-vCPU virtual machine (Xeon, 2.1 GHz) one fixed join repeated in one
process ranged over 0.8-1.6 s, and medians of 20-second windows moved by a
third.  Every workload therefore times this
reference block right before and right after each timed operation (or
serve slice) and divides the operation's wall time by the mean of the two.
A host slow-down stretches both alike and cancels; a change to the program
moves only the operation, since the block uses no code of ``repro``.

The block is the kind of work the joins do -- frozenset subset tests,
set intersections and dict updates over small integer sets -- with inputs
fixed at import, so its cost depends on the host alone.
"""

from __future__ import annotations

import random
from time import perf_counter

_RNG = random.Random(20150413)
_SETS = [frozenset(_RNG.sample(range(512), _RNG.randint(2, 64))) for _ in range(48)]
#: Inner loops per block; one block takes about 16 ms on a 2.1 GHz Xeon.
_REPS = 8


def _loop() -> int:
    hits = 0
    buckets: dict[int, int] = {}
    for a in _SETS:
        for b in _SETS:
            if a <= b:
                hits += 1
            k = len(a & b)
            buckets[k] = buckets.get(k, 0) + 1
    return hits + len(buckets)


def reference_seconds() -> float:
    """Wall time of one reference block."""
    start = perf_counter()
    for _ in range(_REPS):
        _loop()
    return perf_counter() - start


def relative(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference blocks timed just before and after it."""
    return seconds / ((before + after) / 2)
