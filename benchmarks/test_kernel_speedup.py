"""Bench gates: the numpy kernel must beat the python kernel.

Two gates: the isolated batch filter (>= 2x) and a whole PTSJ join
(>= 1.3x, end to end).

The batch signature filter (``filter_subset_batch`` over a relation-wide
:class:`~repro.kernels.base.SignaturePack`) is the numpy backend's whole
reason to exist: one vectorized ``(n, words)`` uint64 bit-op per probe
instead of ``n`` arbitrary-precision Python int ops.  This gate times
both backends on the paper's Fig. 6 workload shape — a few thousand
moderately-dense sets over a 2^9 domain, the default-size regime of the
scalability experiments — and fails if the vectorized path stops paying
for itself (a packing regression, an accidental per-row Python loop, a
dtype change that silently falls back to object arrays).

Parity rides along: both backends must admit identical rows for every
probe before any timing counts.

The second gate times what users get: a whole PTSJ join (plan, build,
probe) at Fig. 6c's top point, where the batched Patricia subset walk
does most of the probe work.  An isolated kernel can win while the join
around it does not (per-call overhead, packing cost, a path the kernel
never reaches); this gate fails when that happens.

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
from repro.datagen.synthetic import SyntheticConfig
from repro.kernels import available_backends, get_backend, use_backend
from repro.signatures import ModuloScheme

#: Fig. 6 default shape: |S| in the thousands, ~16 elements per set,
#: domain 2^9.  512 signature bits = 8 packed uint64 words per row.
S_CONFIG = SyntheticConfig(size=4000, avg_cardinality=16, domain=2 ** 9,
                           seed=607, name="kernel-speedup S")
BITS = 512
PROBES = 200
REPEATS = 3

#: Required python/numpy advantage.  The structural ratio (per-row
#: Python big-int ops vs one vectorized matrix op) is an order of
#: magnitude; 2x keeps headroom for slow or loaded CI machines.
MIN_SPEEDUP = 2.0


@pytest.mark.skipif("numpy" not in available_backends(),
                    reason="numpy backend not available on this host")
def test_numpy_batch_filter_at_least_2x_python():
    _, s = dataset_pair(S_CONFIG)
    scheme = ModuloScheme(BITS)
    signatures = [scheme.signature(rec.elements) for rec in s]
    probe_sigs = [scheme.signature(rec.elements)
                  for rec in list(s)[:PROBES]]

    def run(backend_name: str) -> tuple[float, list[list[int]]]:
        backend = get_backend(backend_name)
        pack = backend.pack_signatures(signatures, BITS)
        best = float("inf")
        rows: list[list[int]] = []
        for _ in range(REPEATS):
            start = perf_counter()
            rows = [backend.filter_subset_batch(pack, sig)
                    for sig in probe_sigs]
            best = min(best, perf_counter() - start)
        return best, rows

    python_seconds, python_rows = run("python")
    numpy_seconds, numpy_rows = run("numpy")

    assert numpy_rows == python_rows, (
        "backends disagree on admitted rows; timing a broken kernel is "
        "meaningless (see docs/KERNELS.md parity contract)"
    )
    assert any(python_rows), "degenerate workload: no probe admitted any row"

    speedup = python_seconds / numpy_seconds
    print(f"\nkernel gate: python={python_seconds * 1e3:.1f}ms "
          f"numpy={numpy_seconds * 1e3:.1f}ms speedup={speedup:.1f}x "
          f"(gate >= {MIN_SPEEDUP}x; {len(signatures)} rows x {PROBES} probes "
          f"at {BITS} bits)")
    assert speedup >= MIN_SPEEDUP, (
        f"numpy batch filter only {speedup:.1f}x faster than python "
        f"(python {python_seconds:.4f}s, numpy {numpy_seconds:.4f}s) on "
        f"{len(signatures)} x {BITS}-bit rows; the vectorized path is not "
        "paying for itself"
    )


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
