"""Multi-core partition-parallel join (paper Sec. VI future work).

"Extending the algorithms to nontrivial multi-core ... settings will be
essential when relation size goes beyond millions of tuples."

This module provides the straightforward first step on top of the
prepared-index split: the index over ``S`` is built **exactly once** in
the parent, the probe relation ``R`` is split into chunks, and each
worker process probes the shared index with its chunks.  Output equals
the sequential join's because ``R ⋈⊇ S = ⋃_i (R_i ⋈⊇ S)``.

Index sharing is zero-copy on POSIX: :class:`~concurrent.futures.
ProcessPoolExecutor` forks, so workers inherit the parent's prepared
index through copy-on-write pages via the pool *initializer*.  Under a
``spawn`` start method (e.g. macOS/Windows defaults) the same initializer
path still works, but the index is pickled to each worker once — still
one *build*, never one build per worker or per chunk.

:class:`ParallelJoin` is the fail-fast executor: any worker failure
aborts the join.  :class:`repro.exec.resilient.ResilientParallelJoin`
layers per-chunk retry, timeouts and an in-process fallback on top of
the same chunking, and :class:`repro.exec.sharded.ShardedJoin`
partitions the *index side* instead of sharing it — see
``docs/EXECUTORS.md`` for the full matrix.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, ClassVar

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import validate_chunks, validate_start_method, validate_workers
from repro.exec.merge import merge_stats
from repro.exec.protocol import BaseExecutor
from repro.external.partition import partition_relation
from repro.governance.policy import GovernancePolicy, current_policy, governor, set_policy
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation

__all__ = ["ParallelJoin", "parallel_join", "record_chunk_span"]

#: The prepared index shared with worker processes.  Set once per worker by
#: :func:`_init_worker` (inherited for free when the pool forks; transferred
#: by pickle exactly once per worker under ``spawn``).
_WORKER_INDEX: PreparedIndex | None = None


def current_worker_policy() -> GovernancePolicy | None:
    """The active governance policy as shipped to pool workers, if any."""
    policy = current_policy()
    return policy.worker_policy() if policy is not None else None


def _init_worker(index: PreparedIndex, policy: GovernancePolicy | None = None) -> None:
    """Pool initializer: bind the parent's prepared index in this worker.

    The parent's governance policy (deadline/cancel token) travels the
    same way, so worker probe loops poll the *parent's* bounds — the
    deadline is an absolute monotonic instant (system-wide on POSIX) and
    the token can be flag-file backed, so both read identically here.
    """
    global _WORKER_INDEX
    _WORKER_INDEX = index
    set_policy(policy)


def _probe(index: PreparedIndex, r_chunk: Relation) -> tuple[list[tuple[int, int]], JoinStats]:
    """Probe one chunk in this process."""
    result = index.probe_many(r_chunk)
    return result.pairs, result.stats


def _probe_chunk(r_chunk: Relation) -> tuple[list[tuple[int, int]], JoinStats]:
    """Worker entry point (module-level so it pickles): probe, never build."""
    assert _WORKER_INDEX is not None, "worker pool initializer did not run"
    return _probe(_WORKER_INDEX, r_chunk)


def record_worker_span(
    tracer, span: str, unit: str, metric: str, seconds: float, stats: JoinStats
) -> None:
    """Fold one worker-measured run into the parent's span tree.

    Workers run with their own (null) tracer; their wall time comes home
    inside the task's :class:`JoinStats`.  Recording it — rather than
    re-timing with a context manager — merges every task into one
    ``span`` whose ``seconds`` equals the *summed* per-task time (what the
    merged stats report), not the smaller parallel wall time, so the span
    tree and the stats stay consistent.
    """
    if not tracer.enabled:
        return
    tracer.record(
        span,
        seconds,
        {
            unit: 1,
            "pairs": stats.pairs,
            "candidates": stats.candidates,
            "verifications": stats.verifications,
            "node_visits": stats.node_visits,
            "intersections": stats.intersections,
        },
    )
    tracer.observe(metric, seconds)


def record_chunk_span(tracer, chunk_stats: JoinStats) -> None:
    """Record one chunk's worker probe as part of the ``probe`` span."""
    record_worker_span(
        tracer, "probe", "chunks", "chunk_probe_seconds", chunk_stats.probe_seconds, chunk_stats
    )


class ParallelJoin(BaseExecutor):
    """Partition-parallel set-containment join over worker processes.

    Args:
        algorithm: Registry name of the in-memory algorithm whose prepared
            index is shared by all workers.
        workers: Worker process count (>= 1).  ``workers=1`` probes the
            chunks in-process (no pool), which keeps tests and small
            inputs cheap — the index is still prepared exactly once.
        chunks: Number of R-chunks; defaults to ``workers``.
        start_method: Multiprocessing start method for the pool
            (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
            platform default.
        **algorithm_kwargs: Forwarded to the algorithm factory.

    Raises:
        AlgorithmError: On a non-positive worker or chunk count, or an
            unknown start method.
    """

    name: ClassVar[str] = "parallel"

    def __init__(
        self,
        algorithm: str = "ptsj",
        workers: int = 2,
        chunks: int | None = None,
        start_method: str | None = None,
        **algorithm_kwargs,
    ) -> None:
        validate_workers(workers)
        validate_chunks(chunks)
        validate_start_method(start_method)
        super().__init__(algorithm=algorithm, **algorithm_kwargs)
        self.workers = workers
        self.chunks = chunks or workers
        self.start_method = start_method

    def _describe_options(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "chunks": self.chunks,
            "start_method": self.start_method,
        }

    def _make_pool(self, index: PreparedIndex) -> ProcessPoolExecutor:
        """Create the worker pool, every worker bound to ``index``."""
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_init_worker,
            initargs=(index, current_worker_policy()),
        )

    def _partition(self, r: Relation, stats: JoinStats) -> list[Relation]:
        """Split ``r`` into the configured number of chunks."""
        chunk_size = max(1, -(-len(r) // self.chunks)) if len(r) else 1
        r_chunks = partition_relation(r, chunk_size)
        stats.extras["workers"] = self.workers
        stats.extras["chunks"] = len(r_chunks)
        return r_chunks

    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S``: one index build, parallel chunk probes."""
        stats = JoinStats(algorithm=f"parallel-{self.algorithm}")
        r_chunks = self._partition(r, stats)

        index = self.prepare(s, probe_hint=r)
        stats.build_seconds = index.build_seconds
        stats.signature_bits = index.signature_bits
        stats.index_nodes = index.index_nodes
        stats.extras["index_builds"] = 1

        pairs: list[tuple[int, int]] = []
        tracer = current_tracer()
        if self.workers == 1:
            # In-process probes run under the active tracer directly, so
            # probe_many opens the spans itself — no explicit recording.
            outcomes = [_probe(index, chunk) for chunk in r_chunks]
        else:
            gov = governor("probe", stats)
            with self._make_pool(index) as pool:
                outcomes = []
                for outcome in pool.map(_probe_chunk, r_chunks):
                    outcomes.append(outcome)
                    # Fail-fast executor: the parent re-checks the bounds
                    # between chunk completions, so a breach that never
                    # reaches a worker (e.g. cancel without a flag file)
                    # still stops the join within one chunk.
                    if gov is not None:
                        gov.poll()
            for _, chunk_stats in outcomes:
                record_chunk_span(tracer, chunk_stats)
        for chunk_pairs, chunk_stats in outcomes:
            pairs.extend(chunk_pairs)
            merge_stats(stats, chunk_stats)
        return JoinResult(pairs, stats)


def parallel_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    **algorithm_kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ParallelJoin`."""
    return ParallelJoin(algorithm=algorithm, workers=workers, **algorithm_kwargs).join(r, s)
