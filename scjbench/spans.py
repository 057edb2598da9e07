"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run measures each layer from outside: :meth:`Wrappers.install`
replaces a handful of public functions and methods of ``repro`` with timing
wrappers, and :meth:`Wrappers.uninstall` puts the originals back.  Nothing
under ``src/`` changes.

A span is one call into a layer: its name, the operation it belongs to,
its parent span, and its start and end.  Every thread keeps its own stack
of open spans, so a span's parent is the innermost span open in the same
thread when it started.  The one cross-thread link is the join server: the
client wrapper stamps each request frame with the operation id, and the
server-side wrappers open a ``serve.server`` span whose parent is that
operation's root, so server time lands inside the client's operation.

A span's *self time* is its duration minus the time its children cover.
Children of one span never overlap (a thread runs one call at a time, and
the server span runs while the client thread waits for the reply), so the
self times of an operation's spans plus the operation root's own self time
(the unattributed remainder) add up to the operation's duration.

Coarse spans (one per operation or per request phase) are kept as full
records and written out when the run ends.  Calls made from inner loops
(trie walks, inverted-list refinements, kernel calls; thousands per
operation) are folded into per-operation totals as they close, which keeps
memory and the written trace small.

Pool workers forked during a traced join inherit the wrappers.  A worker
folds its spans the same way and writes them to ``worker_dir`` each time a
chunk probe returns; :meth:`Recorder.collect_workers` reads them back.
Worker time runs beside the parent's wait, so it is kept apart from the
parent-side totals that add up to the operation time.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Spans called from inner loops: folded into totals, never stored singly.
FOLDED = frozenset(
    {
        "tries.subset_leaves",
        "tries.insert",
        "index.refine",
        "kernels.intersect_sorted",
        "kernels.filter_subset_batch",
        "kernels.pack_signatures",
    }
)

ROOT = "op"


class Frame:
    """One open span."""

    __slots__ = ("name", "op", "parent", "start", "child", "sid")

    def __init__(self, name: str, op: str, parent: "Frame | None", start: float, sid: int) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.child = 0.0
        self.sid = sid


class Recorder:
    """Collects spans in memory for one traced run.

    Attributes:
        self_time: ``(op, span name) -> seconds`` of self time, this process.
        calls: ``(op, span name) -> calls``, this process.
        worker_self_time / worker_calls: the same, from pool workers.
        counts: ``op -> {counter: value}`` recorded by wrappers.
        op_seconds: ``op -> duration`` of each finished operation.
        spans: full records of the coarse spans.
    """

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.current_op: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sids = iter(range(1, 1 << 62))
        self._roots: dict[str, Frame] = {}
        self._chunks = 0
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.worker_self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.worker_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_seconds: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self._coarse: dict[tuple[str, str], float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: str) -> None:
        """Open the root span of operation ``op`` in this thread."""
        frame = Frame(ROOT, op, None, perf_counter(), next(self._sids))
        self._roots[op] = frame
        self.current_op = op
        self._stack().append(frame)

    def end_op(self) -> float:
        """Close this thread's operation root; returns its duration."""
        frame = self._stack().pop()
        assert frame.name == ROOT, f"unbalanced spans: {frame.name} still open"
        seconds = self._close(frame, perf_counter())
        self.op_seconds[frame.op] = seconds
        del self._roots[frame.op]
        return seconds

    def count(self, op: str, name: str, n: float = 1) -> None:
        self.counts[op][name] += n

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def enter(self, name: str) -> Frame | None:
        """Open span ``name`` under this thread's innermost open span.

        Returns ``None`` (nothing recorded) outside any operation.
        """
        if os.getpid() != self.pid:
            self._become_worker()
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = parent.op
        elif self.worker_dir is not None and self.current_op is not None and self._is_worker:
            parent, op = None, self.current_op
        else:
            return None
        frame = Frame(name, op, parent, perf_counter(), next(self._sids))
        stack.append(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        end = perf_counter()
        popped = self._stack().pop()
        assert popped is frame, "unbalanced spans"
        self._close(frame, end)
        if frame.parent is None and self._is_worker:
            self._flush_worker()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself around a call it makes."""
        frame = self.enter(name)
        try:
            yield
        finally:
            if frame is not None:
                self.exit(frame)

    def attach(self, op: str, name: str, start: float) -> Frame | None:
        """Open ``name`` in this thread as a child of ``op``'s root span,
        which lives in another thread (the join server's request span)."""
        root = self._roots.get(op)
        if root is None:
            return None
        frame = Frame(name, op, root, start, next(self._sids))
        self._stack().append(frame)
        return frame

    def closed_span(self, name: str, parent: Frame, start: float, end: float) -> None:
        """Record a span that was timed before its parent could be opened."""
        self._close(Frame(name, parent.op, parent, start, next(self._sids)), end)

    def top(self) -> Frame | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _close(self, frame: Frame, end: float) -> float:
        seconds = end - frame.start
        key = (frame.op, frame.name)
        with self._lock:
            self.self_time[key] += seconds - frame.child
            self.calls[key] += 1
            if frame.parent is not None:
                frame.parent.child += seconds
            if frame.name not in FOLDED:
                self._coarse[key] += seconds
                self.spans.append(
                    {
                        "name": frame.name,
                        "op": frame.op,
                        "id": frame.sid,
                        "parent": frame.parent.sid if frame.parent is not None else None,
                        "start": frame.start,
                        "end": end,
                        "thread": threading.get_ident(),
                    }
                )
        return seconds

    def durations(self, op: str, name: str) -> float:
        """Summed duration of the coarse spans ``name`` of ``op``."""
        return self._coarse.get((op, name), 0.0)

    # ------------------------------------------------------------------
    # Pool workers
    # ------------------------------------------------------------------
    _is_worker = False

    def _become_worker(self) -> None:
        """First wrapped call in a forked child: start from empty state."""
        self.pid = os.getpid()
        self._is_worker = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots = {}
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self._coarse = defaultdict(float)
        self.spans = []

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        self._chunks += 1
        path = self.worker_dir / f"w{self.pid}-{self._chunks}.json"
        rows = [[op, name, seconds, self.calls[(op, name)]] for (op, name), seconds in self.self_time.items()]
        path.write_text(json.dumps(rows))
        self.self_time.clear()
        self.calls.clear()

    def collect_workers(self) -> None:
        """Fold the span totals written by pool workers, then delete them."""
        if self.worker_dir is None or not self.worker_dir.is_dir():
            return
        for path in sorted(self.worker_dir.glob("w*.json")):
            for op, name, seconds, calls in json.loads(path.read_text()):
                self.worker_self_time[(op, name)] += seconds
                self.worker_calls[(op, name)] += calls
            path.unlink()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the coarse spans and the folded totals as JSON lines."""
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
            for (op, name), seconds in sorted(self.self_time.items()):
                if name in FOLDED:
                    row = {"name": name, "op": op, "folded": True, "self": seconds, "calls": self.calls[(op, name)]}
                    out.write(json.dumps(row) + "\n")
            for (op, name), seconds in sorted(self.worker_self_time.items()):
                row = {"name": name, "op": op, "worker": True, "self": seconds, "calls": self.worker_calls[(op, name)]}
                out.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(rec: Recorder, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    """``fn`` run inside span ``name``; ``after(op, args, result)`` may count."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = rec.enter(name)
        if frame is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(frame.op, args, result)
        return result

    return wrapper


def _probe_counts(rec: Recorder) -> Callable:
    """After a probe batch: its ``JoinStats`` counters."""

    def after(op: str, args: tuple, result: Any) -> None:
        stats = result.stats
        for field in ("pairs", "candidates", "verifications", "node_visits", "intersections", "index_nodes",
                      "probe_seconds"):
            rec.count(op, field, getattr(stats, field))
        if stats.verifications:
            rec.count(op, "verified_pairs", stats.pairs)

    return after


def _build_counts(rec: Recorder) -> Callable:
    """After an index build: its ``build_seconds``."""

    def after(op: str, args: tuple, index: Any) -> None:
        rec.count(op, "build_seconds", index.build_seconds)

    return after


def _client_encode(rec: Recorder, fn: Callable) -> Callable:
    """Client side: stamp the frame with the operation id, time the encode."""

    def wrapper(frame: dict) -> bytes:
        top = rec.top()
        if top is None:
            return fn(frame)
        frame = dict(frame, id=top.op)
        span = rec.enter("serve.encode")
        try:
            return fn(frame)
        finally:
            rec.exit(span)

    return wrapper


def _server_decode(rec: Recorder, fn: Callable) -> Callable:
    """Server side: open the request span once the frame names its op."""

    def wrapper(line: Any) -> dict:
        start = perf_counter()
        frame = fn(line)
        end = perf_counter()
        op = frame.get("id")
        if isinstance(op, str):
            server = rec.attach(op, "serve.server", start)
            if server is not None:
                rec.closed_span("serve.decode", server, start, end)
        return frame

    return wrapper


def _server_encode(rec: Recorder, fn: Callable) -> Callable:
    """Server side: time the reply encode, then close the request span."""

    def wrapper(reply: dict) -> bytes:
        server = rec.top()
        if server is None or server.name != "serve.server" or reply.get("id") != server.op:
            return fn(reply)
        span = rec.enter("serve.encode")
        try:
            return fn(reply)
        finally:
            rec.exit(span)
            rec.exit(server)

    return wrapper


class Wrappers:
    """The set of installed wrappers; :meth:`uninstall` restores originals."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        # ``None`` marks an attribute inherited from the class (a backend
        # method): uninstall deletes the instance attribute again.
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> "Wrappers":
        import repro.serve.client as client_mod
        import repro.serve.server as server_mod
        from repro.core.base import PreparedIndex, SetContainmentJoin
        from repro.index.inverted import InvertedIndex
        from repro.kernels import get_backend
        from repro.planner.planner import Planner
        from repro.relations.relation import Relation
        from repro.tries.patricia import PatriciaTrie
        from repro.tries.set_patricia import SetPatriciaTrie

        rec = self.rec
        backend = get_backend()

        def timed(name: str, after: Callable | None = None) -> Callable[[Callable], Callable]:
            return lambda fn: _timed(rec, name, fn, after)

        def count_items(op: str, args: tuple, result: Any) -> None:
            rec.count(op, "filter_subset_batch_items", len(args[0]))

        self._patch(Planner, "plan", timed("planner.plan"))
        self._patch(SetContainmentJoin, "prepare", timed("core.build", _build_counts(rec)))
        self._patch(PreparedIndex, "probe_many", timed("core.probe", _probe_counts(rec)))
        self._patch(PatriciaTrie, "subset_leaves", timed("tries.subset_leaves"))
        self._patch(PatriciaTrie, "insert", timed("tries.insert"))
        self._patch(SetPatriciaTrie, "insert", timed("tries.insert"))
        self._patch(InvertedIndex, "__init__", timed("index.invert"))
        self._patch(InvertedIndex, "refine", timed("index.refine"))
        self._patch(backend, "intersect_sorted", timed("kernels.intersect_sorted"))
        self._patch(backend, "filter_subset_batch", timed("kernels.filter_subset_batch", count_items))
        self._patch(backend, "pack_signatures", timed("kernels.pack_signatures"))
        self._patch(Relation, "fingerprint", timed("relations.fingerprint"))
        self._patch(client_mod, "encode_frame", lambda fn: _client_encode(rec, fn))
        self._patch(client_mod, "decode_frame", timed("serve.decode"))
        self._patch(server_mod, "decode_frame", lambda fn: _server_decode(rec, fn))
        self._patch(server_mod, "encode_frame", lambda fn: _server_encode(rec, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is not None:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def span_totals(rec: Recorder, ops: set[str], name: str) -> tuple[float, int]:
    """Self time and calls of span ``name`` over ``ops``, here and in workers."""
    seconds, calls = 0.0, 0
    for times, counts in ((rec.self_time, rec.calls), (rec.worker_self_time, rec.worker_calls)):
        for (op, span), value in times.items():
            if span == name and op in ops:
                seconds += value
                calls += counts[(op, span)]
    return seconds, calls
