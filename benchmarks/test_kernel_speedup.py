"""Bench gate: a whole numpy PTSJ join must beat the python one (>= 1.3x).

The gate times what users get: a whole PTSJ join (plan, build, probe)
at Fig. 6c's top point, where the batched Patricia subset walk does
most of the probe work.  An isolated kernel can win while the join
around it does not (per-call overhead, packing cost, a path the kernel
never reaches); this gate fails when that happens.

Parity rides along: both backends must return identical pairs and node
visits before any timing counts.

Skipped (not failed) on hosts without numpy — the gate is about the
numpy backend, and the forced-python CI leg proves the fallback path
separately.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import pytest

import repro
from repro.bench.experiments import fig6c_configs
from repro.bench.harness import dataset_pair
from repro.kernels import available_backends, use_backend

#: Fig. 6c's top point: |R| = |S| = 2^11, c = 2^8, d = 2^9 (PTSJ's regime).
JOIN_CONFIG = next(c for c in fig6c_configs() if c.name == "c=2^8")
#: Alternating python/numpy join pairs timed in one process.
JOIN_PAIRS = 5
#: Required end-to-end advantage.  Hashing, the trie build and
#: verification cost the same under both backends; only the subset walk
#: (and packing) differs, so the whole-join ratio sits well below the
#: walk's own.
MIN_JOIN_SPEEDUP = 1.3


@pytest.mark.skipif("numpy" not in available_backends(),
                    reason="numpy backend not available on this host")
def test_numpy_ptsj_join_at_least_1_3x_python():
    r, s = dataset_pair(JOIN_CONFIG)

    def join(backend_name: str) -> tuple[float, repro.JoinResult]:
        with use_backend(backend_name):
            gc.collect()
            start = perf_counter()
            plan = repro.plan(r, s, algorithm="ptsj")
            result = repro.execute_plan(plan, r, s)
            seconds = perf_counter() - start
        assert result.stats.extras["kernel_backend"] == backend_name
        return seconds, result

    _, reference = join("python")
    _, candidate = join("numpy")
    assert candidate.pairs == reference.pairs, (
        "backends disagree on the join's pairs; timing a broken kernel is "
        "meaningless (see docs/KERNELS.md parity contract)"
    )
    assert candidate.stats.node_visits == reference.stats.node_visits
    assert reference.pairs, "degenerate workload: the join has no pairs"

    seconds: dict[str, list[float]] = {"python": [], "numpy": []}
    for _ in range(JOIN_PAIRS):
        for name in seconds:
            seconds[name].append(join(name)[0])
    python_seconds = statistics.median(seconds["python"])
    numpy_seconds = statistics.median(seconds["numpy"])
    speedup = python_seconds / numpy_seconds
    print(f"\nPTSJ join gate: python={python_seconds * 1e3:.0f}ms "
          f"numpy={numpy_seconds * 1e3:.0f}ms speedup={speedup:.2f}x "
          f"(gate >= {MIN_JOIN_SPEEDUP}x; {JOIN_CONFIG.name}, "
          f"|R|=|S|={len(s)}, median of {JOIN_PAIRS} alternating pairs)")
    assert speedup >= MIN_JOIN_SPEEDUP, (
        f"numpy PTSJ join only {speedup:.2f}x faster than python "
        f"(python {python_seconds:.3f}s, numpy {numpy_seconds:.3f}s) at "
        f"{JOIN_CONFIG.name}; the batched subset walk is not paying for itself"
    )
