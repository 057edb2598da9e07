"""One supervision loop for the fault-tolerant executors.

:class:`~repro.exec.resilient.ResilientParallelJoin` (R-chunks probing
one shared index) and :class:`~repro.exec.sharded.ShardedJoin` (S-shards
built and probed per task) recover from worker faults the same way, so
the recovery ladder lives here once:

* **Retry** — a failed attempt is resubmitted up to
  :attr:`RetryPolicy.max_attempts` times with deterministic (jitter-free)
  exponential backoff, so tests can assert exact schedules.
* **Timeout** — an attempt past ``timeout_seconds`` is abandoned (its
  worker may be hung) and the task completed by the parent fallback; the
  hung worker is terminated at shutdown rather than awaited.
* **Worker death** — a worker that dies hard (segfault, ``os._exit``)
  breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`; the
  pool is re-created and every in-flight task retried.  A break that
  ``submit`` itself reports counts the same, and each round settles the
  restart before it resubmits anything, so a retry never meets a dead
  pool.
* **Corrupt results** — each result passes the executor's check; a
  rejected result is retried like a crash.
* **Fallback** — a task whose retries are exhausted runs in the parent on
  a known-good copy; with ``fallback=False`` the join raises
  :class:`~repro.errors.RetryExhaustedError` or
  :class:`~repro.errors.JoinTimeoutError` instead.
* **Governance** — every wait is capped by the deadline and cancel token
  and the parent polls once per round; an abort counts the stranded
  tasks in ``stats.extras["cancelled_chunks"]`` and force-terminates the
  pool.

What differs between the executors is a :class:`TaskFactory`: how the
pool is made, what one attempt ships, what the parent fallback runs, the
result check, the span recorder, and the unit noun (``"chunk"`` or
``"shard"``) used in stats extras keys and error messages.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.base import JoinStats
from repro.errors import (
    AlgorithmError,
    GovernanceError,
    JoinTimeoutError,
    RetryExhaustedError,
    WorkerError,
)
from repro.governance.policy import current_policy, governor
from repro.obs.clock import monotonic
from repro.obs.tracer import current_tracer

__all__ = ["RetryPolicy", "Task", "TaskFactory", "Supervisor", "reject_alien_pairs"]

#: One task's result: its pairs and the stats its attempt measured.
Outcome = tuple[list[tuple[int, int]], JoinStats]

#: How often a parent blocked on workers wakes to poll an armed cancel
#: token (a token has no absolute instant to sleep until).
CANCEL_POLL_SECONDS = 0.05


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often and how patiently a failed task is retried.

    The schedule is fully deterministic — exponential backoff with *no*
    jitter — so recovery tests can run without flaky timing assertions.
    Production deployments that need jitter can subclass and override
    :meth:`delay`.

    Attributes:
        max_attempts: Total attempts per task (first try included), >= 1.
        backoff_seconds: Delay before the first retry; 0 disables sleeping.
        backoff_multiplier: Factor applied per further retry.
        backoff_cap_seconds: Upper bound on any single delay.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AlgorithmError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise AlgorithmError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise AlgorithmError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def delay(self, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        if retry < 1 or self.backoff_seconds == 0.0:
            return 0.0
        raw = self.backoff_seconds * self.backoff_multiplier ** (retry - 1)
        return min(raw, self.backoff_cap_seconds)

    def schedule(self) -> list[float]:
        """Every retry delay this policy can produce, in order."""
        return [self.delay(i) for i in range(1, self.max_attempts)]


@dataclass(eq=False, slots=True)
class Task:
    """Book-keeping for one task's journey through the supervisor.

    ``idx`` is the task's slot in the outcome list, ``key`` names it in
    errors (``chunk 3``, ``shard 5``) and ``unit`` is whatever the
    executor's hooks need (an R-chunk, or a shard's partitions).
    """

    idx: int
    key: int
    unit: Any
    attempts: int = 0
    deadline: float | None = None


@dataclass(frozen=True, slots=True)
class TaskFactory:
    """What one executor supplies to the supervision ladder.

    Attributes:
        noun: Unit name for stats extras keys (``fallback_<noun>s``,
            ``corrupt_<noun>s``) and error messages.
        make_pool: Create a fresh worker pool.
        remote: A task's pooled attempt as ``(function, argument)``; the
            function must be module-level so it pickles under spawn.
        local: Run one attempt in-process (the ``workers == 1`` path).
        rescue: The parent fallback of last resort, run on a known-good
            copy that no fault transform has touched.
        check: Reject an attempt's pairs by raising
            :class:`~repro.errors.WorkerError`.
        record_span: Fold a worker-measured result's stats into the
            parent's tracer.
    """

    noun: str
    make_pool: Callable[[], ProcessPoolExecutor]
    remote: Callable[[Task], tuple[Callable[[Any], Outcome], Any]]
    local: Callable[[Task], Outcome]
    rescue: Callable[[Task], Outcome]
    check: Callable[[Task, list[tuple[int, int]], JoinStats], None]
    record_span: Callable[[Any, JoinStats], None]


def reject_alien_pairs(
    task: Task,
    pairs: list[tuple[int, int]],
    r_ids: frozenset[int],
    s_ids: frozenset[int],
    stats: JoinStats,
    noun: str,
) -> None:
    """Raise on the first pair referencing a tuple the task never held."""
    for r_id, s_id in pairs:
        if r_id not in r_ids or s_id not in s_ids:
            stats.extras[f"corrupt_{noun}s"] += 1
            raise WorkerError(
                f"{noun} {task.key} returned corrupt pair ({r_id}, {s_id}): "
                f"ids do not belong to the {noun}'s probes / indexed relation"
            )


class Supervisor:
    """Run tasks to completion under retry, timeout and fallback.

    Args:
        factory: The executor's hooks.
        executor: The configured executor; its ``workers``,
            ``retry_policy``, ``timeout_seconds``, ``fallback`` and
            ``validate_results`` options drive the ladder.  With
            ``workers == 1`` every attempt runs in-process, where retry
            and fallback still apply but the timeout does not (an
            in-process attempt cannot be pre-empted).
    """

    def __init__(self, factory: TaskFactory, executor: Any) -> None:
        self.factory = factory
        self.workers: int = executor.workers
        self.retry_policy: RetryPolicy = executor.retry_policy
        self.timeout_seconds: float | None = executor.timeout_seconds
        self.fallback: bool = executor.fallback
        self.validate: bool = executor.validate_results

    def run(self, tasks: list[Task], stats: JoinStats) -> list[Outcome]:
        """Complete every task; outcomes come back in task order."""
        if self.workers == 1:
            return [self._run_inline(task, stats) for task in tasks]
        return self._run_pooled(tasks, stats)

    def _check(self, task: Task, pairs: list[tuple[int, int]], stats: JoinStats) -> None:
        if self.validate:
            self.factory.check(task, pairs, stats)

    # ------------------------------------------------------------------
    # In-process execution (workers == 1)
    # ------------------------------------------------------------------
    def _run_inline(self, task: Task, stats: JoinStats) -> Outcome:
        """Run one task in-process, retrying per the policy."""
        while True:
            task.attempts += 1
            try:
                pairs, task_stats = self.factory.local(task)
                self._check(task, pairs, stats)
                return pairs, task_stats
            except GovernanceError:
                # Deadline/cancel/budget bounds are terminal by design:
                # retrying cannot buy back elapsed wall time.
                raise
            except Exception as exc:  # noqa: BLE001 - any worker fault is retryable
                if not self._backoff(task, stats):
                    return self._exhausted(task, stats, exc)

    # ------------------------------------------------------------------
    # Pooled execution (workers > 1)
    # ------------------------------------------------------------------
    def _run_pooled(self, tasks: list[Task], stats: JoinStats) -> list[Outcome]:
        """Drive every task through a worker pool, recovering failures.

        Each round submits the ready tasks, waits for the first result
        or bound, harvests, restarts a broken pool (which turns its
        in-flight tasks into retries) and expires overdue attempts.
        Retries only ever join ``ready``, so they are submitted at the
        top of the next round — after any restart.
        """
        results: list[Outcome | None] = [None] * len(tasks)
        pool = self.factory.make_pool()
        ready = list(tasks)
        pending: dict[Future, Task] = {}
        abandoned = False
        completed = False
        gov = governor("probe", stats)
        try:
            while ready or pending:
                broken = self._submit(pool, ready, pending)
                # The parent re-checks the bounds once per round: even if
                # every worker is wedged (so no task ever reports a
                # governance error itself), the capped wait plus this
                # poll stops the join within one poll interval.
                if gov is not None:
                    gov.poll()
                stranded: list[Task] = []
                for future in self._wait_round(pending):
                    task = pending.pop(future)
                    try:
                        pairs, task_stats = future.result()
                        self._check(task, pairs, stats)
                    except BrokenProcessPool:
                        broken = True
                        stranded.append(task)
                        continue
                    except GovernanceError:
                        # A worker hit the deadline/cancel bound: terminal,
                        # never retried, never completed via fallback.
                        raise
                    except Exception as exc:  # noqa: BLE001 - retryable worker fault
                        if self._backoff(task, stats):
                            ready.append(task)
                        else:
                            results[task.idx] = self._exhausted(task, stats, exc)
                        continue
                    self.factory.record_span(current_tracer(), task_stats)
                    results[task.idx] = (pairs, task_stats)
                if broken:
                    pool = self._restart_pool(pool, pending, stranded, ready, results, stats)
                abandoned |= self._expire_overdue(pending, results, stats)
            completed = True
        except GovernanceError:
            # Record how many tasks the abort stranded before the finally
            # block force-terminates their workers.  tracer.record survives
            # the raise, so the span tree stays balanced and still shows
            # the abort.
            cancelled = sum(1 for outcome in results if outcome is None)
            stats.extras["cancelled_chunks"] = (
                stats.extras.get("cancelled_chunks", 0) + cancelled
            )
            current_tracer().record("governance", 0.0, {"cancelled_chunks": cancelled})
            raise
        finally:
            # An abnormal exit may leave hung workers behind; terminate
            # them rather than letting shutdown await a process that will
            # never finish.
            _shutdown_pool(pool, force=abandoned or not completed)
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def _submit(
        self, pool: ProcessPoolExecutor, ready: list[Task], pending: dict[Future, Task]
    ) -> bool:
        """Submit every ready task; True when the pool turns out broken.

        A worker can die between rounds, so ``submit`` itself may raise
        :class:`BrokenProcessPool`.  The task then stays ready — its
        attempt never started — and the caller restarts the pool.
        """
        while ready:
            function, argument = self.factory.remote(ready[0])
            try:
                future = pool.submit(function, argument)
            except BrokenProcessPool:
                return True
            task = ready.pop(0)
            task.attempts += 1
            if self.timeout_seconds is not None:
                task.deadline = monotonic() + self.timeout_seconds
            pending[future] = task
        return False

    def _wait_round(self, pending: dict[Future, Task]) -> set[Future]:
        """Block until a future completes or the nearest bound passes.

        The wait is additionally capped by the governance policy so the
        blocked parent wakes to poll: at the join deadline's remaining
        time, and every :data:`CANCEL_POLL_SECONDS` while a cancel token
        is armed.
        """
        if not pending:
            return set()
        wait_timeout: float | None = None
        if self.timeout_seconds is not None:
            nearest = min(task.deadline for task in pending.values() if task.deadline)
            wait_timeout = max(0.0, nearest - monotonic())
        policy = current_policy()
        if policy is not None:
            if policy.cancel is not None:
                wait_timeout = (
                    CANCEL_POLL_SECONDS
                    if wait_timeout is None
                    else min(wait_timeout, CANCEL_POLL_SECONDS)
                )
            if policy.deadline is not None:
                remaining = max(0.0, policy.deadline.remaining())
                wait_timeout = (
                    remaining if wait_timeout is None else min(wait_timeout, remaining)
                )
        done, _ = wait(set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED)
        return done

    def _restart_pool(
        self,
        pool: ProcessPoolExecutor,
        pending: dict[Future, Task],
        stranded: list[Task],
        ready: list[Task],
        results: list[Outcome | None],
        stats: JoinStats,
    ) -> ProcessPoolExecutor:
        """Replace a broken pool; retry or exhaust every task it held.

        Tasks already in ``ready`` never reached the broken pool, so they
        carry over to the new one without spending an attempt.
        """
        stats.extras["pool_restarts"] += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("pool_restarts")
        stranded.extend(pending.values())
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        noun = self.factory.noun
        for task in stranded:
            if self._backoff(task, stats):
                ready.append(task)
            else:
                results[task.idx] = self._exhausted(
                    task, stats, WorkerError(f"worker died while running {noun} {task.key}")
                )
        return self.factory.make_pool()

    def _expire_overdue(
        self, pending: dict[Future, Task], results: list[Outcome | None], stats: JoinStats
    ) -> bool:
        """Abandon attempts past their deadline; complete them in the parent.

        :class:`~concurrent.futures.ProcessPoolExecutor` cannot cancel a
        *running* task, so the future is dropped (its eventual result, if
        any, is discarded).  Returns True when a running attempt was
        abandoned, so shutdown knows to terminate stragglers instead of
        awaiting them.
        """
        if self.timeout_seconds is None:
            return False
        now = monotonic()
        overdue = [
            future
            for future, task in pending.items()
            if not future.done() and task.deadline is not None and task.deadline <= now
        ]
        abandoned = False
        for future in overdue:
            task = pending.pop(future)
            # A never-started attempt cancels cleanly (the pool is
            # saturated, not hung); either way the budget is spent.
            abandoned |= not future.cancel()
            stats.extras["timeouts"] += 1
            current_tracer().record("timeout", 0.0, {"timeouts": 1})
            if not self.fallback:
                raise JoinTimeoutError(
                    f"{self.factory.noun} {task.key} exceeded its {self.timeout_seconds}s "
                    f"budget on attempt {task.attempts} and fallback is disabled"
                )
            results[task.idx] = self._rescue(task, stats)
        return abandoned

    # ------------------------------------------------------------------
    # Retries and last resorts
    # ------------------------------------------------------------------
    def _backoff(self, task: Task, stats: JoinStats) -> bool:
        """Count and wait out one more attempt; False once retries are spent."""
        if task.attempts >= self.retry_policy.max_attempts:
            return False
        stats.extras["retries"] += 1
        delay = self.retry_policy.delay(task.attempts)
        current_tracer().record("retry", delay, {"retries": 1})
        time.sleep(delay)
        return True

    def _exhausted(self, task: Task, stats: JoinStats, last_error: Exception) -> Outcome:
        """Retries used up: fall back in the parent or raise."""
        if not self.fallback:
            raise RetryExhaustedError(
                f"{self.factory.noun} {task.key} failed all {task.attempts} attempts: "
                f"{last_error}",
                attempts=task.attempts,
            ) from last_error
        return self._rescue(task, stats)

    def _rescue(self, task: Task, stats: JoinStats) -> Outcome:
        """Complete a task in the parent, on the factory's known-good copy.

        The rescue runs under the active tracer (so it opens its own
        spans); a zero-duration ``fallback`` marker span carries the
        count without double-charging its time.
        """
        key = f"fallback_{self.factory.noun}s"
        stats.extras[key] += 1
        current_tracer().record("fallback", 0.0, {key: 1})
        return self.factory.rescue(task)


def _shutdown_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Shut the pool down; terminate workers when any were abandoned."""
    if force:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
    else:
        pool.shutdown(wait=True, cancel_futures=True)
