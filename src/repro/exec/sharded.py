"""Shard-partitioned scale-out join: partition the *index*, not the probes.

Every other parallel path in this package shares one prepared index and
splits the probe side.  That caps the joinable ``S`` at what one process
can hold — exactly the wall the paper's Sec. VI names when "relation size
goes beyond millions of tuples".  :class:`ShardedJoin` crosses it by
partitioning ``S`` into disjoint shards, building one *small* index per
shard inside its worker, and routing each probe record only to the shards
that could possibly contain its subsets.  Partitioning the indexed side
follows the distribution strategies surveyed in "Set Containment Join
Revisited" (Bouros et al.).

Two partition strategies:

* ``"element"`` — shard ``s`` by ``min(s.elements) % shards``.  Routing
  exploits containment: ``s ⊆ r`` implies ``min(s) ∈ r``, so probing the
  shards ``{e % shards for e in r.elements}`` reaches every subset of
  ``r``.  Probes fan out only as far as their distinct element residues —
  the *small side* (the probe record) is replicated, never the index.
  Empty sets are a special case: ``∅ ⊆ r`` for every ``r``, so empty
  ``s`` live in shard 0 and every probe also routes there while ``S``
  contains an empty set.
* ``"signature"`` — shard ``s`` by a stable hash of its elements
  (uniform placement, immune to element skew) at the price of
  *broadcasting* every probe to all shards.

Each shard is one worker task carrying everything it needs (algorithm
name, its S-partition, its routed probes), so shards survive pool
restarts without initializer state.  The shards run under the shared
:class:`~repro.exec.supervisor.Supervisor` ladder, which extends to
**shard loss**: a crashed or dying shard worker is retried with
deterministic backoff, a hung shard is timed out and abandoned, and a
shard whose retries are exhausted is rebuilt and probed in the parent
process (the fallback of last resort — the parent rebuilds the shard
index *without* any fault transform).  Degradation is observable via
``stats.extras``: ``retries``, ``timeouts``, ``fallback_shards``,
``pool_restarts`` and ``corrupt_shards`` are always present and zero on
a clean run.

Determinism: shard membership and probe routing are pure functions of
record elements, results are merged in shard-id order with
:func:`repro.exec.merge.merge_stats`, and pair lists concatenate in
shard-id order — so pairs-sorted output and merged counters are
bit-for-bit reproducible across runs, worker counts and start methods.
With ``shards=1`` the single shard holds all of ``S`` and receives every
probe in order, so merged counters equal the inline oracle's exactly.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, ClassVar, NamedTuple

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import (
    validate_shard_strategy,
    validate_shards,
    validate_start_method,
    validate_timeout_seconds,
    validate_workers,
)
from repro.exec.merge import merge_stats
from repro.exec.parallel import current_worker_policy, record_worker_span
from repro.exec.protocol import BaseExecutor
from repro.exec.supervisor import RetryPolicy, Supervisor, Task, TaskFactory, reject_alien_pairs
from repro.governance.policy import GovernancePolicy, governor, set_policy
from repro.relations.relation import Relation, SetRecord

__all__ = ["ShardedJoin", "sharded_join", "SHARD_EXTRAS"]

#: Stats extras every sharded join reports (the last five zero on a clean run).
SHARD_EXTRAS = ("retries", "timeouts", "fallback_shards", "pool_restarts", "corrupt_shards")

#: Multiplier for the stable signature hash (same prime CPython's tuple
#: hash historically used; any odd multiplier works).
_HASH_MULTIPLIER = 1000003
_HASH_MASK = (1 << 61) - 1


def stable_signature_hash(elements: frozenset[int]) -> int:
    """Order-independent, process-independent hash of an element set.

    Python's ``hash(frozenset)`` is stable for ints today, but that is an
    implementation detail; shard placement must never depend on one.
    Folding the *sorted* elements keeps the value identical in every
    interpreter and start method.
    """
    h = len(elements) & _HASH_MASK
    for e in sorted(elements):
        h = (h * _HASH_MULTIPLIER + e + 1) & _HASH_MASK
    return h


def shard_of(record: SetRecord, shards: int, strategy: str) -> int:
    """The single shard a ``S``-record lives in (pure, deterministic)."""
    if shards == 1:
        return 0
    if strategy == "signature":
        return stable_signature_hash(record.elements) % shards
    if not record.elements:
        return 0
    return min(record.elements) % shards


def route_probe(
    record: SetRecord, shards: int, strategy: str, s_has_empty: bool
) -> list[int]:
    """Every shard a probe record must visit, ascending (pure, deterministic).

    Element routing is complete because ``s ⊆ r ∧ s ≠ ∅`` implies
    ``min(s) ∈ r``, hence ``min(s) % shards`` is among ``r``'s element
    residues; empty ``s`` (⊆ everything) live in shard 0, which is added
    whenever ``S`` contains one.  Signature placement has no such
    locality, so signature probes broadcast.
    """
    if shards == 1:
        return [0]
    if strategy == "signature":
        return list(range(shards))
    targets = {e % shards for e in record.elements}
    if s_has_empty or not record.elements:
        targets.add(0)
    return sorted(targets)


def _join_shard(
    payload: tuple[
        int,
        str,
        dict[str, Any],
        Relation,
        Relation,
        Callable[[PreparedIndex], PreparedIndex] | None,
        GovernancePolicy | None,
    ],
) -> tuple[list[tuple[int, int]], JoinStats]:
    """Worker entry point (module-level so it pickles): build *and* probe.

    Unlike the chunk executors, each shard task is self-contained — it
    carries its S-partition and routed probes, builds the shard index
    locally, applies the (picklable) fault transform if any, and probes.
    The returned stats include the shard's build time, nodes and
    signature bits, so the parent's merge accounts for every build.

    The payload's last slot is the parent's governance policy (or None):
    the deadline is an absolute monotonic instant and the cancel token
    can be flag-file backed, so the worker's build/probe loops poll the
    *parent's* bounds.  An in-process call passes None and inherits the
    caller's ambient policy instead of clobbering it.
    """
    shard_id, algorithm, algorithm_kwargs, s_part, probes, transform, policy = payload
    from repro.core.registry import make_algorithm

    previous = set_policy(policy) if policy is not None else None
    try:
        index = make_algorithm(algorithm, **algorithm_kwargs).prepare(
            s_part, probe_hint=probes
        )
        if transform is not None:
            index = transform(index)
        result = index.probe_many(probes)
    finally:
        if policy is not None:
            set_policy(previous)
    stats = result.stats
    stats.build_seconds += index.build_seconds
    stats.index_nodes = max(stats.index_nodes, index.index_nodes)
    stats.signature_bits = max(stats.signature_bits, index.signature_bits)
    return result.pairs, stats


def record_shard_span(tracer, shard_stats: JoinStats) -> None:
    """Record one shard's worker build+probe as part of the ``shard`` span."""
    seconds = shard_stats.build_seconds + shard_stats.probe_seconds
    record_worker_span(tracer, "shard", "shards", "shard_seconds", seconds, shard_stats)


class _Shard(NamedTuple):
    """One shard task's unit: its S-partition and the probes routed to it."""

    s_part: Relation
    probes: Relation


class ShardedJoin(BaseExecutor):
    """Scale-out set-containment join over S-index shards.

    Args:
        algorithm: Registry name of the in-memory algorithm built per
            shard.
        workers: Worker process count (>= 1).  ``workers=1`` runs the
            shard tasks in-process (retry and fallback still apply;
            ``timeout_seconds`` does not — in-process probes cannot be
            pre-empted).
        shards: Number of S-partitions; defaults to ``workers``.
        strategy: ``"element"`` (routed probes, default) or
            ``"signature"`` (uniform placement, broadcast probes).
        start_method: Multiprocessing start method for the pool.
        retry_policy: Retry schedule per shard (default: 3 attempts, no
            backoff) — the same ladder the resilient executor uses for
            chunks.
        timeout_seconds: Per-shard wall-clock budget; an over-budget shard
            is abandoned and rebuilt in the parent.  ``None`` disables.
        fallback: When True (default), a shard whose retries are
            exhausted is rebuilt and probed in the parent instead of
            raising :class:`~repro.errors.RetryExhaustedError`.
        validate_results: When True (default), shard results are checked
            for alien tuple ids; corrupt shards are retried.
        index_transform: Optional *picklable* hook applied to each shard
            index inside its worker — the seam
            :class:`repro.testing.faults.IndexFault` uses to inject shard
            loss.  (Unlike the resilient executor's transform, this one
            crosses a process boundary, so lambdas won't do.)
        **algorithm_kwargs: Forwarded to the per-shard algorithm factory.

    Raises:
        AlgorithmError: On invalid configuration.
        RetryExhaustedError: When a shard fails every attempt and
            ``fallback`` is disabled.
        JoinTimeoutError: When a shard exceeds ``timeout_seconds`` and
            ``fallback`` is disabled.
    """

    name: ClassVar[str] = "sharded"

    def __init__(
        self,
        algorithm: str = "ptsj",
        workers: int = 2,
        shards: int | None = None,
        strategy: str = "element",
        start_method: str | None = None,
        retry_policy: RetryPolicy | None = None,
        timeout_seconds: float | None = None,
        fallback: bool = True,
        validate_results: bool = True,
        index_transform: Callable[[PreparedIndex], PreparedIndex] | None = None,
        **algorithm_kwargs,
    ) -> None:
        validate_workers(workers)
        validate_shards(shards)
        validate_shard_strategy(strategy)
        validate_start_method(start_method)
        validate_timeout_seconds(timeout_seconds)
        super().__init__(algorithm=algorithm, **algorithm_kwargs)
        self.workers = workers
        self.shards = shards or workers
        self.strategy = strategy
        self.start_method = start_method
        self.retry_policy = retry_policy or RetryPolicy()
        self.timeout_seconds = timeout_seconds
        self.fallback = fallback
        self.validate_results = validate_results
        self.index_transform = index_transform

    def _describe_options(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "shards": self.shards,
            "strategy": self.strategy,
            "start_method": self.start_method,
            "max_attempts": self.retry_policy.max_attempts,
            "timeout_seconds": self.timeout_seconds,
            "fallback": self.fallback,
            "validate_results": self.validate_results,
        }

    # ------------------------------------------------------------------
    # Partitioning and routing
    # ------------------------------------------------------------------
    def _partition_s(self, s: Relation) -> list[list[SetRecord]]:
        """Distribute ``S`` into shards, preserving record order within each."""
        parts: list[list[SetRecord]] = [[] for _ in range(self.shards)]
        gov = governor("build")
        for rec in s:
            if gov is not None:
                gov.tick()
            parts[shard_of(rec, self.shards, self.strategy)].append(rec)
        return parts

    def _route_r(self, r: Relation, s_has_empty: bool) -> list[list[SetRecord]]:
        """Replicate each probe record to its target shards, in R order."""
        routed: list[list[SetRecord]] = [[] for _ in range(self.shards)]
        gov = governor("probe")
        for rec in r:
            if gov is not None:
                gov.tick()
            for shard_id in route_probe(rec, self.shards, self.strategy, s_has_empty):
                routed[shard_id].append(rec)
        return routed

    def _make_tasks(self, r: Relation, s: Relation, stats: JoinStats) -> list[Task]:
        """Build one task per populated shard; record the routing extras."""
        s_parts = self._partition_s(s)
        s_has_empty = any(not rec.elements for rec in s)
        routed = self._route_r(r, s_has_empty)
        populated = [shard_id for shard_id in range(self.shards) if s_parts[shard_id]]
        tasks = [
            Task(
                idx,
                shard_id,
                _Shard(
                    Relation(tuple(s_parts[shard_id]), name=f"S#{shard_id}"),
                    Relation(tuple(routed[shard_id]), name=f"R#{shard_id}"),
                ),
            )
            for idx, shard_id in enumerate(populated)
        ]
        stats.extras["workers"] = self.workers
        stats.extras["shards"] = self.shards
        stats.extras["index_builds"] = len(tasks)
        stats.extras["routed_probes"] = sum(len(task.unit.probes) for task in tasks)
        for key in SHARD_EXTRAS:
            stats.extras[key] = 0
        return tasks

    def _payload(
        self,
        task: Task,
        transform: Callable[[PreparedIndex], PreparedIndex] | None,
        policy: GovernancePolicy | None = None,
    ):
        return (
            task.key,
            self.algorithm,
            self.algorithm_kwargs,
            task.unit.s_part,
            task.unit.probes,
            transform,
            policy,
        )

    # ------------------------------------------------------------------
    # Join driver
    # ------------------------------------------------------------------
    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S`` across shards with retry/timeout/fallback."""
        stats = JoinStats(algorithm=f"sharded-{self.algorithm}")
        tasks = self._make_tasks(r, s, stats)
        factory = TaskFactory(
            noun="shard",
            make_pool=self._make_pool,
            remote=lambda task: (
                _join_shard,
                self._payload(task, self.index_transform, current_worker_policy()),
            ),
            local=lambda task: _join_shard(self._payload(task, self.index_transform)),
            # The fallback deliberately drops index_transform: whatever
            # fault wrapper the workers ran with, the parent rebuilds the
            # shard from its own pristine S-partition, and the rebuild's
            # cost lands in the shard's returned stats.
            rescue=lambda task: _join_shard(self._payload(task, None)),
            check=self._check_result,
            record_span=record_shard_span,
        )
        outcomes = Supervisor(factory, self).run(tasks, stats)

        # Merge in shard-id order — task lists are already ascending and
        # the pooled driver writes results back by position, so the fold
        # (and the concatenated pair list) is deterministic regardless of
        # completion order.
        pairs: list[tuple[int, int]] = []
        for shard_pairs, shard_stats in outcomes:
            pairs.extend(shard_pairs)
            merge_stats(stats, shard_stats)
        return JoinResult(pairs, stats)

    def _make_pool(self) -> ProcessPoolExecutor:
        """Create the worker pool; shard payloads carry their own state."""
        return ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, self.shards)),
            mp_context=multiprocessing.get_context(self.start_method),
        )

    def _check_result(
        self, task: Task, pairs: list[tuple[int, int]], stats: JoinStats
    ) -> None:
        """Reject shard output referencing tuples the shard never held."""
        reject_alien_pairs(
            task,
            pairs,
            frozenset(rec.rid for rec in task.unit.probes),
            frozenset(rec.rid for rec in task.unit.s_part),
            stats,
            "shard",
        )


def sharded_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    shards: int | None = None,
    **kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ShardedJoin`."""
    return ShardedJoin(algorithm=algorithm, workers=workers, shards=shards, **kwargs).join(r, s)
