"""The generic signature-join framework (paper Algorithm 1).

The paper factors SHJ into a reusable skeleton — hash every S-tuple into an
index, then for each R-tuple enumerate index entries whose signature is
contained in the probe signature and verify the surviving candidates with
an exact set comparison — and instantiates it with three different
enumeration structures (hash map for SHJ, plain trie for TSJ/Algorithm 4,
Patricia trie for PTSJ/Algorithm 5).

:class:`SignatureJoinBase` is that skeleton.  Subclasses provide the index
(:meth:`_build_index`) and the subset enumeration
(:meth:`_enumerate_groups`, or a kernel trie pack via :meth:`_pack_trie`);
the shared :class:`SignaturePreparedIndex` implements lines 4–8 of
Algorithm 1 as a streaming per-record probe and as a blockwise batch
probe, including the merge-identical-sets output expansion (Sec. III-E1).
"""

from __future__ import annotations

import copy
from abc import abstractmethod
from typing import Any, Iterable, Iterator

from repro.core.base import (
    CandidateGroup,
    JoinStats,
    PreparedIndex,
    SetContainmentJoin,
)
from repro.governance.policy import DEFAULT_POLL_INTERVAL, governor
from repro.kernels import KernelBackend, get_backend
from repro.obs.tracer import current_tracer
from repro.obs.clock import perf_counter
from repro.relations.relation import Relation, SetRecord
from repro.relations.stats import compute_stats
from repro.signatures.hashing import ModuloScheme, SignatureScheme
from repro.signatures.length import SignatureLengthStrategy

__all__ = ["SignatureJoinBase", "SignaturePreparedIndex", "insert_into_groups"]


def insert_into_groups(groups: list[CandidateGroup], record: SetRecord) -> None:
    """Add ``record`` to a leaf's group list, merging identical sets.

    Signature-sharing tuples are rare per leaf, and identical *sets* even
    rarer, so the linear scan is cheap; it implements the Sec. III-E1
    merge-identical-sets extension ("maintaining a mapping list of tuples
    that have the same set elements").
    """
    for group in groups:
        if group.elements == record.elements:
            group.ids.append(record.rid)
            return
    groups.append(CandidateGroup(record.elements, record.rid))


class SignaturePreparedIndex(PreparedIndex):
    """A prepared signature index: Algorithm 1's probe loop, streamed.

    Holds a snapshot of the algorithm instance taken right after the build,
    so the index stays valid even if the originating algorithm object later
    prepares another index (each build rebinds fresh structures).
    """

    def __init__(self, algorithm: "SignatureJoinBase", relation: Relation) -> None:
        super().__init__(algorithm.name, relation)
        self._algorithm = algorithm
        # Filled in by ``_prepare`` right after the build: the kernel
        # backend, the batch subset walk's trie pack (PTSJ only), shared
        # by every probe batch, and the trie version at which every
        # indexed set was proven to hash exactly (``None``: not exact).
        self._kernel: KernelBackend | None = None
        self._trie_pack: Any = None
        self._exact_version: int | None = None

    @property
    def scheme(self) -> SignatureScheme:
        """The signature hash scheme the index was built with."""
        assert self._algorithm.scheme is not None
        return self._algorithm.scheme

    @property
    def trie(self):
        """The trie structure behind the index (``None`` for SHJ)."""
        return getattr(self._algorithm, "trie", None)

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Algorithm 1 lines 4–8 for one probe tuple, yielding matches lazily.

        Candidates are verified one group at a time, so consuming only the
        first ``k`` matches runs only the verifications needed to reach
        them.
        """
        stats = self._target(stats)
        r_set = record.elements
        r_sig = self.scheme.signature(r_set)
        for groups in self._algorithm._enumerate_groups(r_sig, stats):
            for group in groups:
                stats.candidates += 1
                stats.verifications += 1
                if group.elements <= r_set:
                    yield from group.ids

    def _probe_all(self, r: Relation, stats: JoinStats) -> list[tuple[int, int]]:
        """Algorithm 1 lines 4–8 for a whole relation, one block at a time.

        Each block of at most :data:`DEFAULT_POLL_INTERVAL` records is
        hashed, then filtered — PTSJ with one kernel
        ``subset_leaves_batch`` call over the block, the other signature
        joins with their per-record enumeration — and then verified in
        record order, so pairs, pair order and every counter equal the
        streaming :meth:`probe`'s.  Each record ticks the governor once;
        under a poll interval shorter than a block, blocks shrink to it,
        so polls fall between blocks and no more than one interval of
        records is ever walked unpolled.

        The paper's Sec. III-C cost model separates the subset-enumeration
        cost (``V·|R|`` node visits) from the verification cost
        (``N·|R|`` exact set comparisons); under an active tracer the two
        aggregates are reported as ``signature_filter`` / ``verify`` child
        spans of ``probe``.

        In the exact regime the ``⊆`` check is skipped: the block is
        answered by the kernel trie walk (PTSJ), the trie is unchanged
        since ``_prepare`` proved every indexed set hashes exactly, and
        every element of ``r`` is below the scheme's exact bound too
        (``scheme.exact_below``).  Both signatures are then exact bitmaps,
        so the walk's ``sig ⊑ probe`` test *is* the containment test;
        each candidate still counts as one verification, and pairs, pair
        order and counters equal :meth:`probe`'s, which always verifies.
        """
        perf = perf_counter
        scheme = self.scheme
        signature = scheme.signature
        enumerate_groups = self._algorithm._enumerate_groups
        trie_pack = self._trie_pack
        # _exact_version is set only for an index with a trie pack.
        exact = (
            self._exact_version is not None
            and self._exact_version == self.trie.version
            and scheme.exact_below(r.max_element())
        )
        walk = self.kernel.subset_leaves_batch
        gov = governor("probe", stats)
        block = DEFAULT_POLL_INTERVAL
        if gov is not None:
            block = min(block, gov.policy.poll_interval)
        records = tuple(r)
        visits_before = stats.node_visits
        filter_seconds = 0.0
        verify_seconds = 0.0
        leaf_hits = 0
        candidates = 0
        pairs: list[tuple[int, int]] = []
        append = pairs.append
        for start in range(0, len(records), block):
            chunk = records[start:start + block]
            t0 = perf()
            sigs: list[int] = []
            for rec in chunk:
                if gov is not None:
                    gov.tick()
                sigs.append(signature(rec.elements))
            if trie_pack is not None:
                counts, leaves, visits = walk(trie_pack, sigs)
                stats.node_visits += visits
            else:
                counts = []
                leaves = []
                for sig in sigs:
                    found = list(enumerate_groups(sig, stats))
                    counts.append(len(found))
                    leaves.extend(found)
            t1 = perf()
            leaf_hits += len(leaves)
            pos = 0
            for rec, count in zip(chunk, counts):
                if not count:
                    continue
                r_set = rec.elements
                r_id = rec.rid
                for groups in leaves[pos:pos + count]:
                    for group in groups:
                        candidates += 1
                        if exact or group.elements <= r_set:
                            for s_id in group.ids:
                                append((r_id, s_id))
                pos += count
            filter_seconds += t1 - t0
            verify_seconds += perf() - t1
        stats.candidates += candidates
        stats.verifications += candidates
        tracer = current_tracer()
        if tracer.enabled:
            # mirror=False: the enclosing probe span already counts these
            # quantities into the registry; these records only attribute
            # the per-phase breakdown inside the span tree.
            tracer.record(
                "signature_filter",
                filter_seconds,
                {
                    "node_visits": stats.node_visits - visits_before,
                    "leaf_hits": leaf_hits,
                },
                calls=len(records),
                mirror=False,
            )
            tracer.record(
                "verify",
                verify_seconds,
                {"candidates": candidates, "pairs": len(pairs)},
                calls=len(records),
                mirror=False,
            )
            if tracer.registry is not None:
                # leaf_hits has no other registry source.
                tracer.registry.counter("leaf_hits").inc(leaf_hits)
        return pairs

    @property
    def kernel(self) -> KernelBackend:
        """The kernel backend this index was packed with."""
        assert self._kernel is not None
        return self._kernel

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        """The index structure plus every kernel pack built over it.

        Packs that share objects with the structure (the python trie pack
        *is* the trie; trie packs share leaf payload lists; SHJ's bucket
        packs share the signature ints) count once under a shared
        ``deep_sizeof`` walk.
        """
        objs: list[Any] = []
        for attr in ("trie", "buckets", "bucket_packs"):
            value = getattr(self._algorithm, attr, None)
            if value is not None:
                objs.append(value)
        if not objs:
            objs.append(self._algorithm)
        if self._trie_pack is not None:
            objs.append(self._trie_pack)
        return objs


class SignatureJoinBase(SetContainmentJoin):
    """Algorithm 1 with pluggable index and subset enumeration.

    Args:
        bits: Signature length; ``None`` selects it per dataset via
            ``length_strategy`` (Sec. III-D).  The one-shot :meth:`join`
            path applies the strategy to the *combined* statistics of R and
            S; ``prepare`` without a probe hint uses S's statistics alone.
        scheme_factory: Signature hash scheme constructor, default the
            paper's ``x mod b`` scheme.
        length_strategy: Used only when ``bits`` is ``None``.
    """

    def __init__(
        self,
        bits: int | None = None,
        scheme_factory: type[SignatureScheme] = ModuloScheme,
        length_strategy: SignatureLengthStrategy | None = None,
    ) -> None:
        self.requested_bits = bits
        self.scheme_factory = scheme_factory
        self.length_strategy = length_strategy or SignatureLengthStrategy()
        self.scheme: SignatureScheme | None = None

    # ------------------------------------------------------------------
    # Parameter selection
    # ------------------------------------------------------------------
    def _choose_bits(self, r: Relation | None, s: Relation) -> int:
        """Resolve the signature length for this index.

        Explicit ``bits`` wins; otherwise apply the Sec. III-D strategy to
        the (memoized) statistics of the relations at hand — both sides
        when a probe hint is available (the paper's global-statistics
        rule), the indexed side alone otherwise.
        """
        if self.requested_bits is not None:
            return self.requested_bits
        return self.length_strategy.choose_for(
            compute_stats(s), None if r is None else compute_stats(r)
        )

    # ------------------------------------------------------------------
    # Template hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _build_index(self, s: Relation, signatures: list[int], stats: JoinStats) -> None:
        """Index every tuple of ``s`` under its signature (Alg. 1 lines 1–3).

        ``signatures[i]`` is the signature of the ``i``-th tuple of ``s``,
        hashed once by :meth:`_prepare`.
        """

    @abstractmethod
    def _enumerate_groups(self, signature: int, stats: JoinStats) -> Iterable[list[CandidateGroup]]:
        """Yield the group lists of index entries with ``entry.sig ⊑ signature``.

        This is the pluggable "subset enumeration algorithm" of Algorithm 1
        line 5 — SHJENUM, TRIEENUM or PATRICIAENUM.
        """

    def _pack_trie(self, kernel: KernelBackend) -> Any:
        """The kernel's pack of the built trie, or ``None``.

        An index with a trie pack answers every probe block with one
        ``kernel.subset_leaves_batch`` call instead of per-record
        :meth:`_enumerate_groups`; only PTSJ's Patricia trie has one.
        """
        return None

    # ------------------------------------------------------------------
    # Template body
    # ------------------------------------------------------------------
    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> PreparedIndex:
        bits = self._choose_bits(probe_hint, s)
        self.scheme = self.scheme_factory(bits)
        build_stats = JoinStats(algorithm=self.name)
        # Hash S ahead of the index build.  This loop's polls stay out of
        # build_stats, so ``deadline_polls`` still counts the index
        # build's loop alone.
        signature = self.scheme.signature
        signatures: list[int] = []
        gov = governor("build")
        for rec in s:
            if gov is not None:
                gov.tick()
            signatures.append(signature(rec.elements))
        self._build_index(s, signatures, build_stats)
        # Snapshot the instance so later prepare() calls (which rebind fresh
        # structures) cannot invalidate this index.
        index = SignaturePreparedIndex(copy.copy(self), s)
        index.signature_bits = bits
        index.index_nodes = build_stats.index_nodes
        index.build_extras = dict(build_stats.extras)
        # Pack once; cached on the index so every probe batch reuses it.
        kernel = get_backend()
        index._kernel = kernel
        index._trie_pack = self._pack_trie(kernel)
        if index._trie_pack is not None and self.scheme.exact_below(s.max_element()):
            index._exact_version = index.trie.version
        return index
