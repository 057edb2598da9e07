"""The benchmark's workloads: three joins and a served build/probe mix.

Each workload runs through the public API with the planner's defaults
(``algorithm="auto"``, the auto-selected kernel backend), because that is
what users get.  The three join workloads are split by set-cardinality
regime, the paper's axis for which index does the work:

* ``join-highcard`` — synthetic uniform data at c=2^8, d=2^9 (the top point
  of the paper's Fig. 6c).  The planner picks PTSJ, run inline, so the
  Patricia subset walk does most of the work and the inverted index is idle.
* ``join-lowcard`` — the flickr surrogate (median c=4).  The planner picks
  PRETTI+, run inline: inverted-list refinement and a large output; the
  signature trie is idle.
* ``join-parallel`` — the twitter surrogate planned for two workers with
  fault tolerance, so the resilient executor runs PTSJ over a pool: the
  only workload that goes through ``repro.exec``.
* ``serve-mixed`` — a ``repro-scj serve`` process whose index cache holds
  fewer indexes than the client uses.  One blocking client runs a closed
  loop: mostly handle probes of hot indexes, one request in eight ships S
  (a content-key hit for a hot S, a build plus an eviction for a cold one).

Every timed operation is checked against a reference built once at set-up
by a different registry algorithm and validated with
``verify_join_result``; the check runs outside the timed region.

A traced run (``trace_dir`` given) alternates untraced and traced
operations, installs the timing wrappers of :mod:`scjbench.spans` for the
traced ones, and reports per-layer metrics instead of end-to-end ones.  Its
serve server runs in this process so the wrappers reach it.
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy

import repro
from repro.bench.memory import deep_sizeof, memory_per_tuple
from repro.datagen.distributions import ZipfDist
from repro.datagen.realworld import SURROGATE_SPECS
from repro.errors import ProtocolError
from repro.kernels import active_backend_name, backend_source
from repro.obs import MetricsRegistry, Tracer, use
from repro.relations.relation import Relation, SetRecord
from repro.serve import JoinClient, JoinServer

from scjbench.hostspeed import reference_seconds, relative
from scjbench.spans import Recorder, Wrappers, span_totals

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Every this many serve requests of a client, one ships S instead of
#: naming a resident index.
SHIP_EVERY = 8
#: Length of one serve slice between two timings of the reference block.
SLICE_SECONDS = 1.0
#: Client connections of the serve workload.  One: with two, both vCPUs of
#: a 2-vCPU machine are busy at once, and the reference block (timed on one
#: while the other idles) cancelled too little of the host's slow phases --
#: handle-probe medians in reference blocks rose by 20% with them and spread
#: by 0.18 over ten seeds.
CLIENTS = 1
#: Resident-index slots: one more than the hot set, fewer than all four S.
CACHE_CAPACITY = 3
#: Serve families: how one S and one R batch of each are generated.
#: One per regime: uniform synthetic sets (PTSJ) and the flickr surrogate
#: (PRETTI+).  The twitter surrogate is left out: its pair count varies by
#: 2x between seeds (45k-88k over the served batches), more than a bound.
FAMILIES = ("syn", "flickr")
HOT = tuple(f"hot-{fam}" for fam in FAMILIES)
COLD = tuple(f"cold-{fam}" for fam in FAMILIES)


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is measured, ``TOY`` keeps the tests fast."""

    highcard: tuple[int, int, int]  # |R| = |S|, c, d
    lowcard: int  # |R| = |S| of the flickr surrogate
    parallel: tuple[int, int]  # |R| = |S| of the twitter surrogate, instances
    serve_syn: tuple[int, int, int]  # |S|, c, d
    serve_flickr: int
    batch: int  # records per served R batch
    batches: int  # R batches per serve family


FULL = Sizes((1024, 256, 512), 8000, (1500, 4), (1024, 128, 512), 4000, 64, 24)
TOY = Sizes((96, 64, 128), 300, (150, 2), (64, 48, 128), 200, 16, 2)
SIZES = {"full": FULL, "toy": TOY}


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    recorder: Recorder | None = None  # the traced run's spans

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"scjbench: operation failed: {what}", file=sys.stderr)


# ----------------------------------------------------------------------
# Correctness references
# ----------------------------------------------------------------------
def digest(pairs: Any) -> int:
    """Order-independent digest of a pair list (tuples or 2-lists)."""
    return hash(frozenset(map(tuple, pairs)))


class Reference:
    """Pair count and digest of a validated reference output."""

    def __init__(self, r: Relation, s: Relation, pairs: list[tuple[int, int]], seed: int) -> None:
        report = repro.verify_join_result(r, s, pairs, seed=seed)
        if not report.ok:
            raise BenchError(
                f"reference output failed validation: {len(report.false_positives)} false "
                f"positives, {len(report.missing_pairs)} missing pairs"
            )
        self.count = len(pairs)
        self.digest = digest(pairs)

    def matches(self, pairs: Any) -> bool:
        return len(pairs) == self.count and digest(pairs) == self.digest


def reference_algorithm(planned: str) -> str:
    """A registry algorithm other than the planned one, the cheapest at our
    sizes: PTSJ checks PRETTI+, the nested loop checks PTSJ."""
    return "ptsj" if planned == "pretti+" else "nested-loop"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def mean_of_medians(groups: list[list[float]]) -> float:
    """The mean over instances of each instance's median (the plain median
    for one instance), so every instance weighs the same."""
    return statistics.fmean(map(statistics.median, groups))


def mean_of_means(groups: list[list[float]]) -> float:
    """The mean over instances of each instance's mean."""
    return statistics.fmean(map(statistics.fmean, groups))


def metadata(seed: int, workload: str) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": active_backend_name(),
        "kernel_source": backend_source(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# Join workloads
# ----------------------------------------------------------------------
def uniform_relation(size: int, c: int, d: int, seed: int) -> Relation:
    """The paper's base synthetic setting: cardinalities uniform on
    ``[1, 2c-1]`` (mean c), elements uniform over ``0..d-1``.

    The same distributions as ``SyntheticConfig`` with uniform axes, drawn
    here because ``repro.datagen.synthetic.generate_relation`` raises
    ``ValueError`` for some seeds when sets fill most of the domain.  The
    cardinalities are stratified: an even spread over the range in random
    order, so each seed has the same share of the small sets that yield
    most pairs (drawn independently, the pair count of a 2048-set join
    varied by 12% between seeds; stratified, by 0.5%).
    """
    rng = numpy.random.default_rng(seed)
    high = min(d, 2 * c - 1)
    cards = rng.permutation(1 + numpy.arange(size) * high // size)
    return Relation(
        [SetRecord(i, frozenset(rng.choice(d, size=int(k), replace=False).tolist())) for i, k in enumerate(cards)],
        name=f"uniform |R|={size} c={c} d={d}",
    )


def surrogate_relation(name: str, size: int, seed: int) -> Relation:
    """``repro.datagen.realworld.make_surrogate(name, size, seed)``, drawn
    here with one fix: that function raises ``ValueError`` ("negative
    dimensions") for some seeds, when a set that needed more than 64 Zipf
    batches overshoots its cardinality in the last one and the fallback then
    asks for a negative number of elements (e.g. the twitter surrogate of
    1500 sets, seed 42032).  The draws are the same, so for every seed that
    function completes on, the relation is the same too.
    """
    spec = SURROGATE_SPECS[name]
    rng = numpy.random.default_rng(seed)
    domain = max(int(round(spec.domain_per_tuple * size)), 4 * spec.min_cardinality, 64)
    mu, sigma = spec.lognormal_params()
    cards = spec.min_cardinality + numpy.floor(rng.lognormal(mu, sigma, size=size)).astype(numpy.int64)
    cards = numpy.clip(cards, spec.min_cardinality, max(spec.min_cardinality, domain))
    element_dist = ZipfDist(domain, s=spec.element_skew)
    records = []
    for i, k in enumerate(cards.tolist()):
        if k >= domain:
            records.append(SetRecord(i, frozenset(range(domain))))
            continue
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < k:
            chosen.update(int(x) for x in element_dist.sample(rng, max(2 * (k - len(chosen)), 8)))
            attempts += 1
            if attempts > 64:
                if len(chosen) <= k:  # the fix: make_surrogate also tops up when the batch overshot
                    remaining = numpy.setdiff1d(numpy.arange(domain), numpy.fromiter(chosen, dtype=numpy.int64))
                    chosen.update(int(x) for x in rng.choice(remaining, size=k - len(chosen), replace=False))
                break
        if len(chosen) > k:
            kept = rng.choice(numpy.fromiter(sorted(chosen), dtype=numpy.int64), size=k, replace=False)
            chosen = {int(x) for x in kept}
        records.append(SetRecord(i, frozenset(chosen)))
    return Relation(records, name=f"{spec.name}-surrogate")


def _highcard(seed: int, sizes: Sizes) -> list[tuple[Relation, Relation]]:
    n, c, d = sizes.highcard
    return [(uniform_relation(n, c, d, seed * 1000 + 1), uniform_relation(n, c, d, seed * 1000 + 2))]


def _lowcard(seed: int, sizes: Sizes) -> list[tuple[Relation, Relation]]:
    return [(
        surrogate_relation("flickr", sizes.lowcard, seed * 1000 + 1),
        surrogate_relation("flickr", sizes.lowcard, seed * 1000 + 2),
    )]


def _parallel(seed: int, sizes: Sizes) -> list[tuple[Relation, Relation]]:
    """Several R, S pairs, joined in turn: the twitter surrogate's pair count
    varies by 16-18% between seeds, and averaging over pairs narrows that."""
    n, instances = sizes.parallel
    return [
        (
            surrogate_relation("twitter", n, seed * 1000 + 10 * k + 1),
            surrogate_relation("twitter", n, seed * 1000 + 10 * k + 2),
        )
        for k in range(instances)
    ]


@dataclass(frozen=True)
class JoinSpec:
    make: Callable[[int, Sizes], list[tuple[Relation, Relation]]]  # the R, S pairs joined in turn
    workload: repro.Workload | None = None


JOINS = {
    "join-highcard": JoinSpec(_highcard),
    "join-lowcard": JoinSpec(_lowcard),
    "join-parallel": JoinSpec(_parallel, repro.Workload(workers=2, fault_tolerance=True)),
}

#: ``JoinStats`` counters reported per join.
CORE_COUNTS = ("pairs", "candidates", "verifications", "node_visits", "intersections", "index_nodes")
#: Executor degradation counters (``JoinStats.extras``).
EXEC_COUNTS = ("chunks", "retries", "timeouts", "fallback_chunks", "pool_restarts")


def run_join(name: str, seed: int, seconds: float, sizes: Sizes, trace_dir: Path | None) -> Outcome:
    spec = JOINS[name]
    out = Outcome(meta=metadata(seed, name))
    setup_times = []
    for _ in range(1 if trace_dir else SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        instances = spec.make(seed, sizes)
        plans = [repro.plan(r, s, workload=spec.workload) for r, s in instances]
        warm = [repro.execute_plan(query_plan, r, s) for query_plan, (r, s) in zip(plans, instances)]
        setup_times.append(perf_counter() - start)
    query_plan = plans[0]
    r, s = instances[0]
    out.meta.update(algorithm=query_plan.algorithm, executor=query_plan.executor,
                    R=len(r), S=len(s), instances=len(instances))
    if any((p.algorithm, p.executor) != (query_plan.algorithm, query_plan.executor) for p in plans):
        out.meta.update(algorithm=[p.algorithm for p in plans], executor=[p.executor for p in plans])

    ref_algorithm = reference_algorithm(query_plan.algorithm)
    refs = [
        Reference(r, s, repro.set_containment_join(r, s, algorithm=ref_algorithm).pairs, seed)
        for r, s in instances
    ]
    out.meta["reference"] = ref_algorithm
    if not all(ref.matches(result.pairs) for ref, result in zip(refs, warm)):
        out.meta["warmup_mismatch"] = True

    rec = Recorder(trace_dir / f"workers-{os.getpid()}" if trace_dir else None)
    if rec.worker_dir is not None:
        rec.worker_dir.mkdir(exist_ok=True)
    wrappers = Wrappers(rec)
    # Per instance: each join's wall time, and the same in reference blocks
    # (see hostspeed).
    times: list[list[float]] = [[] for _ in instances]
    rel_times: list[list[float]] = [[] for _ in instances]
    traced_times: list[float] = []
    traced_ops: set[str] = set()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or out.attempted < (2 if trace_dir else len(instances)):
        gc.collect()
        traced_op = trace_dir is not None and out.attempted % 2 == 1
        k = out.attempted // (2 if trace_dir else 1) % len(instances)
        r, s, ref = *instances[k], refs[k]
        op = f"j{out.attempted}"
        out.attempted += 1
        tracer = Tracer(registry=MetricsRegistry()) if traced_op else None
        if traced_op:
            wrappers.install()
            rec.begin_op(op)
        before = 0.0 if trace_dir else reference_seconds()
        start = perf_counter()
        try:
            with use(tracer) if tracer else nullcontext():
                op_plan = repro.plan(r, s, workload=spec.workload)
                with rec.span("exec.join"):  # records only inside a traced op
                    result = repro.execute_plan(op_plan, r, s)
        except Exception:  # a failed join is counted, and the run goes on
            out.fail(traceback.format_exc())
            continue
        finally:
            elapsed = perf_counter() - start
            if traced_op:
                elapsed = rec.end_op()
                wrappers.uninstall()
                rec.collect_workers()
        (traced_times if traced_op else times[k]).append(elapsed)
        if not trace_dir:
            rel_times[k].append(relative(elapsed, before, reference_seconds()))
        if not ref.matches(result.pairs):
            out.fail(f"{op}: {len(result.pairs)} pairs, reference has {ref.count}")
        if traced_op:
            traced_ops.add(op)
            _join_layer_counts(rec, op, result, tracer)
    times, rel_times = [g for g in times if g], [g for g in rel_times if g]
    if not times or (trace_dir and not traced_times):
        raise BenchError(f"{name}: no join succeeded")

    if trace_dir:
        _finish_trace(out, rec, traced_ops, trace_dir, name, seed)
        out.metrics.update(layer_metrics(rec, traced_ops))
        out.metrics.update({name: (0.0, unit) for name, unit in SERVE_LAYER.items()})
        out.metrics["obs.trace_overhead_frac"] = (
            statistics.median(traced_times) / statistics.median([t for group in times for t in group]) - 1,
            "frac",
        )
        return out

    bytes_per_tuple = statistics.fmean(
        memory_per_tuple(p.algorithm, r, s, **p.kwargs()) for p, (r, s) in zip(plans, instances)
    )
    ok = out.attempted - out.failed
    out.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ref.p50": (mean_of_medians(rel_times), "ref"),
        "ops_per_kref": (1000 / mean_of_means(rel_times), "1/kref"),
        "index_bytes_per_tuple": (bytes_per_tuple, "B"),
        "ok_frac": (ok / out.attempted, "frac"),
    }
    out.report = [
        ("join_s.p50", mean_of_medians(times), "s"),
        ("joins_per_s", 1 / mean_of_means(times), "1/s"),
        ("index_bytes_per_tuple", bytes_per_tuple, "B"),
        ("fail_frac", out.failed / out.attempted, "frac"),
        ("joins_timed", sum(map(len, times)), "count"),
    ]
    return out


def _join_layer_counts(rec: Recorder, op: str, result: repro.JoinResult, tracer: Tracer) -> None:
    """Per-join counters: JoinStats (merged over chunks) and executor spans."""
    stats = result.stats
    counts = rec.counts[op]
    for name in (*CORE_COUNTS, "build_seconds", "probe_seconds"):
        counts[name] = getattr(stats, name)
    counts["verified_pairs"] = stats.pairs if stats.verifications else 0
    for name in EXEC_COUNTS:
        counts[f"exec.{name}"] = stats.extras.get(name, 0)
    chunk = tracer.registry.snapshot()
    if chunk.get("chunk_probe_seconds.count", 0):
        # Pooled probe: worker busy time, and the parent's share of the
        # join wall time that neither built the index nor waited on the
        # slowest chunk.
        counts["exec.worker_probe_s"] = chunk["chunk_probe_seconds.sum"]
        counts["exec.supervise_s"] = (
            rec.durations(op, "exec.join") - rec.durations(op, "core.build") - chunk["chunk_probe_seconds.max"]
        )


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def _serve_relation(family: str, size_seed: int, sizes: Sizes, batch: bool) -> Relation:
    if family == "syn":
        n, c, d = sizes.serve_syn
        if batch:
            n, c = sizes.batch, min(2 * c, d)
        return uniform_relation(n, c, d, size_seed)
    n = sizes.batch if batch else sizes.serve_flickr
    return surrogate_relation(family, n, size_seed)


@dataclass
class ServeData:
    relations: dict[str, Relation]  # S name -> S
    batches: dict[str, list[Relation]]  # family -> R batches

    @staticmethod
    def make(seed: int, sizes: Sizes) -> "ServeData":
        base = seed * 1000
        relations = {}
        for i, fam in enumerate(FAMILIES):
            relations[f"hot-{fam}"] = _serve_relation(fam, base + 10 + i, sizes, batch=False)
            relations[f"cold-{fam}"] = _serve_relation(fam, base + 20 + i, sizes, batch=False)
        batches = {
            fam: [_serve_relation(fam, base + 100 + 10 * i + j, sizes, batch=True) for j in range(sizes.batches)]
            for i, fam in enumerate(FAMILIES)
        }
        return ServeData(relations, batches)


def _family(s_name: str) -> str:
    return s_name.split("-", 1)[1]


class ServerProcess:
    """A ``repro-scj serve`` child process."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-capacity", str(CACHE_CAPACITY), "--max-connections", str(CLIENTS + 1)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise BenchError(f"server did not start: {line!r}")
        host, port = line.split()[2].split(":")
        self.address = (host, int(port))

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with JoinClient(address=self.address, timeout_seconds=10) as client:
                    client.shutdown()
                self.proc.wait(timeout=10)
            except (OSError, ProtocolError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class ClientLog:
    """One client connection's requests."""

    ref: list[float] = field(default_factory=list)
    ref_family: list[str] = field(default_factory=list)  # the S family of each ``ref``
    ship: list[float] = field(default_factory=list)
    busy: float = 0.0
    requests: int = 0
    handle_misses: int = 0
    server_s: list[float] = field(default_factory=list)
    outside_s: list[float] = field(default_factory=list)
    unattributed_s: list[float] = field(default_factory=list)


def _schedule(rng: random.Random, batches: int, start: int) -> Iterator[tuple[str, int, bool]]:
    """One client's requests as ``(S name, R batch, ship)``: every
    ``SHIP_EVERY``-th ships S, going through all four S in shuffled rounds;
    the others probe the hot S in turn.  Fixed cadences, rather than coin
    flips, keep the number of index builds -- the costliest requests -- the
    same from seed to seed; ``start`` staggers the clients' ships."""
    ships: list[str] = []
    for n in itertools.count(start):
        if n % SHIP_EVERY == SHIP_EVERY - 1:
            ships = ships or rng.sample(HOT + COLD, len(HOT + COLD))
            yield ships.pop(), rng.randrange(batches), True
        else:
            yield HOT[n % len(HOT)], rng.randrange(batches), False


class ServeLoop:
    """Closed-loop clients over one server, checked against references."""

    def __init__(self, data: ServeData, refs: dict[tuple[str, int], Reference], keys: dict[str, str],
                 address: tuple[str, int], seed: int, out: Outcome, rec: Recorder | None) -> None:
        self.data = data
        self.refs = refs
        self.out = out
        self.rec = rec
        self.lock = threading.Lock()
        self.clients = [JoinClient(address=address, timeout_seconds=120) for _ in range(CLIENTS)]
        self.keys = [dict(keys) for _ in range(CLIENTS)]
        self.schedules = [
            _schedule(random.Random(seed * 7919 + i), len(data.batches[FAMILIES[0]]), i * SHIP_EVERY // CLIENTS)
            for i in range(CLIENTS)
        ]
        self.ops = 0

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def run_slice(self, seconds: float, traced: bool, log: list[ClientLog]) -> None:
        """Both clients send requests until ``seconds`` have passed."""
        deadline = perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(i, deadline, traced, log[i]), name=f"client-{i}")
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 150)
            if thread.is_alive():
                raise BenchError(f"{thread.name} did not finish")

    def _client(self, i: int, deadline: float, traced: bool, log: ClientLog) -> None:
        try:
            while perf_counter() < deadline or log.requests == 0:
                s_name, batch, ship = next(self.schedules[i])
                if not ship and self._request(i, s_name, batch, False, traced, log):
                    continue
                self._request(i, s_name, batch, True, traced, log)
        except Exception:  # the client stops; the run reports the failure
            self._fail(f"client {i}: {traceback.format_exc()}")

    def _request(self, i: int, s_name: str, batch: int, ship: bool, traced: bool, log: ClientLog) -> bool:
        """One request; False when a handle probe was rejected (re-ship it)."""
        client = self.clients[i]
        r = self.data.batches[_family(s_name)][batch]
        with self.lock:
            op = f"c{i}-{self.ops}"
            self.ops += 1
            self.out.attempted += 1
        if traced:
            self.rec.begin_op(op)
        start = perf_counter()
        reply = None
        try:
            if ship:
                reply = client.probe(r, self.data.relations[s_name])
            else:
                reply = client.probe(r, s_ref=self.keys[i][s_name])
        except ProtocolError as exc:
            if ship or "unknown index handle" not in str(exc):
                self._fail(f"{op}: {exc}")
        except Exception:  # a failed request is counted, and the loop goes on
            self._fail(f"{op}: {traceback.format_exc()}")
        finally:
            elapsed = self.rec.end_op() if traced else perf_counter() - start
            log.busy += elapsed
            log.requests += 1
        if reply is None:
            if not ship:
                log.handle_misses += 1
            return ship
        self.keys[i][s_name] = reply["s_key"]
        if not self.refs[(s_name, batch)].matches(reply["pairs"]):
            self._fail(f"{op}: {reply['pair_count']} pairs for {s_name}/{batch}")
        if ship:
            log.ship.append(elapsed)
        else:
            log.ref.append(elapsed)
            log.ref_family.append(_family(s_name))
            log.server_s.append(reply["seconds"])
            log.outside_s.append(elapsed - reply["seconds"])
            log.unattributed_s.append(reply["seconds"] - sum(reply["phases"].values()))
        return True

    def _fail(self, what: str) -> None:
        with self.lock:
            self.out.fail(what)


def _prime(address: tuple[str, int], data: ServeData) -> dict[str, dict[str, Any]]:
    """Ship every hot S once so its index is resident; returns the replies."""
    with JoinClient(address=address, timeout_seconds=120) as client:
        return {name: client.probe(data.batches[_family(name)][0], data.relations[name]) for name in HOT}


def run_serve(seed: int, seconds: float, sizes: Sizes, trace_dir: Path | None, root: Path) -> Outcome:
    out = Outcome(meta=metadata(seed, "serve-mixed"))
    setup_times = []
    server: ServerProcess | JoinServer | None = None
    try:
        for _ in range(1 if trace_dir else SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            gc.collect()
            start = perf_counter()
            data = ServeData.make(seed, sizes)
            server = (
                JoinServer(max_connections=CLIENTS + 1, cache_capacity=CACHE_CAPACITY).start()
                if trace_dir  # in this process, so the traced run's wrappers reach it
                else ServerProcess(root)
            )
            primed = _prime(server.address, data)
            setup_times.append(perf_counter() - start)
        keys = {name: reply["s_key"] for name, reply in primed.items()}
        out.meta.update(
            algorithm={name: reply["algorithm"] for name, reply in primed.items()},
            executor="serve",
            server_kernel=next(iter(keys.values())).rsplit("kernel=", 1)[1],
            S={name: len(rel) for name, rel in data.relations.items()},
            batch=sizes.batch,
            cache_capacity=CACHE_CAPACITY,
            clients=CLIENTS,
        )

        refs = {}
        resident_bytes = resident_tuples = 0
        for name, s in data.relations.items():
            planned = repro.choose_algorithm_name(s)
            ref_index = repro.prepare_index(s, algorithm=reference_algorithm(planned))
            for b, r in enumerate(data.batches[_family(name)]):
                refs[(name, b)] = Reference(r, s, ref_index.probe_many(r).pairs, seed)
            if name in HOT:
                seen: set[int] = set()
                index = repro.prepare_index(s, algorithm=planned)
                resident_bytes += sum(deep_sizeof(obj, seen) for obj in index.memory_objects())
                resident_tuples += len(s)
        for name, reply in primed.items():
            if not refs[(name, 0)].matches(reply["pairs"]):
                out.meta["warmup_mismatch"] = True

        rec = Recorder() if trace_dir else None
        loop = ServeLoop(data, refs, keys, server.address, seed, out, rec)
        try:
            if trace_dir:
                _traced_serve(loop, rec, seconds, out, trace_dir, seed)
                return out
            slices = _untraced_serve(loop, seconds)
        finally:
            loop.close()
    finally:
        if server is not None:
            server.stop()

    logs = [log for slice_logs, _ in slices for log in slice_logs]
    ref = sorted(t for log in logs for t in log.ref)
    ship = sorted(t for log in logs for t in log.ship)
    # Each connection's requests over its busy time, in seconds and in
    # reference blocks, summed over the connections.
    requests = [sum(slice_logs[i].requests for slice_logs, _ in slices) for i in range(CLIENTS)]
    rps = sum(n / sum(slice_logs[i].busy for slice_logs, _ in slices) for i, n in enumerate(requests))
    requests_per_kref = sum(
        1000 * n / sum(slice_logs[i].busy / scale for slice_logs, scale in slices) for i, n in enumerate(requests)
    )
    # Handle probes in reference blocks, by the family of S they probe.
    ref_rel: dict[str, list[float]] = {fam: [] for fam in FAMILIES}
    for slice_logs, scale in slices:
        for log in slice_logs:
            for fam, t in zip(log.ref_family, log.ref):
                ref_rel[fam].append(t / scale)
    out.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ref.p50": (mean_of_medians([g for g in ref_rel.values() if g]), "ref"),
        "ops_per_kref": (requests_per_kref, "1/kref"),
        "index_bytes_per_tuple": (resident_bytes / resident_tuples, "B"),
        "ok_frac": ((out.attempted - out.failed) / out.attempted, "frac"),
    }
    out.report = [
        ("ref_probe_s.p50", statistics.median(ref), "s"),
        ("ref_probe_s.p99", percentile(ref, 99), "s"),
        ("ship_probe_s.p50", statistics.median(ship) if ship else float("nan"), "s"),
        ("serve_rps", rps, "1/s"),
        ("fail_frac", out.failed / out.attempted, "frac"),
        ("ref_probes_timed", len(ref), "count"),
        ("ship_probes_timed", len(ship), "count"),
        ("handle_misses", sum(log.handle_misses for log in logs), "count"),
    ]
    return out


def _untraced_serve(loop: ServeLoop, seconds: float) -> list[tuple[list[ClientLog], float]]:
    """Closed-loop slices of ``SLICE_SECONDS`` with the reference block timed
    between them (the clients idle); returns each slice's client logs and
    the mean of the reference times before and after it."""
    slices = []
    deadline = perf_counter() + seconds
    before = reference_seconds()
    while perf_counter() < deadline or not slices:
        logs = [ClientLog() for _ in range(CLIENTS)]
        loop.run_slice(min(SLICE_SECONDS, max(deadline - perf_counter(), 0.0)), False, logs)
        after = reference_seconds()
        slices.append((logs, (before + after) / 2))
        before = after
    return slices


#: Server counters reported by the traced serve run.
SERVE_COUNTERS = ("cache.hits", "cache.misses", "cache.evictions", "index_builds", "server.rejected")
#: Per-layer metrics only the serve workload produces (zero elsewhere).
SERVE_LAYER = {
    "serve.server_s.p50": "s",
    "serve.outside_s.p50": "s",
    "serve.unattributed_s.p50": "s",
    "serve.cache_hit_ratio": "frac",
    "serve.cache_evictions": "count/op",
    "serve.index_builds": "count/op",
    "serve.handle_misses": "count/op",
    "serve.rejected": "count/op",
}


def _traced_serve(loop: ServeLoop, rec: Recorder, seconds: float, out: Outcome, trace_dir: Path, seed: int) -> None:
    """Alternate untraced and traced slices; per-layer metrics from the traced ones."""
    wrappers = Wrappers(rec)
    untraced = [ClientLog() for _ in range(CLIENTS)]
    traced = [ClientLog() for _ in range(CLIENTS)]
    counters = dict.fromkeys(SERVE_COUNTERS, 0.0)
    for k in range(4):
        on = k % 2 == 1
        before = loop.clients[0].stats()["metrics"]
        if on:
            wrappers.install()
        try:
            loop.run_slice(seconds / 4, on, traced if on else untraced)
        finally:
            wrappers.uninstall()
        after = loop.clients[0].stats()["metrics"]
        if on:
            for name in SERVE_COUNTERS:
                counters[name] += after.get(name, 0) - before.get(name, 0)

    ops = set(rec.op_seconds)
    _finish_trace(out, rec, ops, trace_dir, "serve-mixed", seed)
    out.metrics.update(layer_metrics(rec, ops))
    n = max(len(ops), 1)
    lookups = counters["cache.hits"] + counters["cache.misses"]

    def median_of(attr: str) -> float:
        values = [v for log in traced for v in getattr(log, attr)]
        return statistics.median(values) if values else 0.0

    out.metrics.update(
        {
            "serve.server_s.p50": (median_of("server_s"), "s"),
            "serve.outside_s.p50": (median_of("outside_s"), "s"),
            "serve.unattributed_s.p50": (median_of("unattributed_s"), "s"),
            "serve.cache_hit_ratio": (counters["cache.hits"] / lookups if lookups else 0.0, "frac"),
            "serve.cache_evictions": (counters["cache.evictions"] / n, "count/op"),
            "serve.index_builds": (counters["index_builds"] / n, "count/op"),
            "serve.handle_misses": (sum(log.handle_misses for log in traced) / n, "count/op"),
            "serve.rejected": (counters["server.rejected"] / n, "count/op"),
            "obs.trace_overhead_frac": (
                median_of("ref") / statistics.median([t for log in untraced for t in log.ref]) - 1,
                "frac",
            ),
        }
    )


# ----------------------------------------------------------------------
# Per-layer metrics from the traced operations
# ----------------------------------------------------------------------
#: Spans reported as ``<span>_s``, their self time per operation.
TIMED_SPANS = (
    "planner.plan",
    "core.build",
    "core.probe",
    "tries.subset_leaves",
    "tries.insert",
    "index.invert",
    "index.refine",
    "kernels.intersect_sorted",
    "kernels.filter_subset_batch",
    "kernels.pack_signatures",
    "relations.fingerprint",
    "serve.encode",
    "serve.decode",
)
#: Spans also reported as ``<span>_calls``, calls per operation.
COUNTED_SPANS = (
    "tries.subset_leaves",
    "tries.insert",
    "index.refine",
    "kernels.intersect_sorted",
    "kernels.filter_subset_batch",
)
#: Counters recorded per operation: metric name -> (counter, unit).
LAYER_COUNTS = {
    **{f"core.{name}": (name, "count/op") for name in CORE_COUNTS},
    "kernels.filter_subset_batch_items": ("filter_subset_batch_items", "count/op"),
    "exec.worker_probe_s": ("exec.worker_probe_s", "s"),
    "exec.supervise_s": ("exec.supervise_s", "s"),
    **{f"exec.{name}": (f"exec.{name}", "count/op") for name in EXEC_COUNTS},
}


def layer_metrics(rec: Recorder, ops: set[str]) -> dict[str, tuple[float, str]]:
    """Per-operation means of every layer metric over the traced ``ops``.

    Times are self times.  ``core.build_share`` is ``build_seconds`` over
    build plus probe seconds as ``JoinStats`` reports them (pool workers'
    probes included); ``core.precision`` is pairs per verification over
    the probes that verify candidates (1 when none did).
    """
    n = max(len(ops), 1)
    metrics: dict[str, tuple[float, str]] = {}
    for span in TIMED_SPANS:
        seconds, calls = span_totals(rec, ops, span)
        metrics[f"{span}_s"] = (seconds / n, "s")
        if span in COUNTED_SPANS:
            metrics[f"{span}_calls"] = (calls / n, "count/op")
    keys = {key for key, _ in LAYER_COUNTS.values()} | {"build_seconds", "probe_seconds", "verified_pairs"}
    totals = {key: sum(rec.counts[op].get(key, 0) for op in ops) for key in keys}
    for metric, (key, unit) in LAYER_COUNTS.items():
        metrics[metric] = (totals[key] / n, unit)
    build, probe = totals["build_seconds"], totals["probe_seconds"]
    metrics["core.build_share"] = (build / (build + probe) if build + probe else 0.0, "frac")
    verifications = totals["verifications"]
    metrics["core.precision"] = (totals["verified_pairs"] / verifications if verifications else 1.0, "frac")
    op_seconds = sum(rec.op_seconds[op] for op in ops)
    unattributed = sum(rec.self_time.get((op, "op"), 0.0) for op in ops)
    metrics["obs.unattributed_frac"] = (unattributed / op_seconds if op_seconds else 0.0, "frac")
    return metrics


def _finish_trace(out: Outcome, rec: Recorder, ops: set[str], trace_dir: Path, name: str, seed: int) -> None:
    path = trace_dir / f"spans-{name}-seed{seed}.jsonl"
    rec.write(path)
    if rec.worker_dir is not None:
        shutil.rmtree(rec.worker_dir, ignore_errors=True)
    out.recorder = rec
    out.meta["spans_file"] = str(path.name)
    out.meta["traced_ops"] = len(ops)


def run_workload(name: str, seed: int, seconds: float, sizes: Sizes, trace_dir: Path | None, root: Path) -> Outcome:
    if name == "serve-mixed":
        return run_serve(seed, seconds, sizes, trace_dir, root)
    return run_join(name, seed, seconds, sizes, trace_dir)


WORKLOADS = (*JOINS, "serve-mixed")
