"""Unit tests for the swappable kernel backend layer (docs/KERNELS.md).

Covers the registry (registration, selection order, the ``REPRO_KERNEL``
override, error paths), the ABI parity contract between the ``python``
and ``numpy`` backends (SHJ's bucket filter, intersection and the
batched Patricia subset walk), pickling-by-name, the kernel packs on
prepared indexes (probing and memory accounting), and the
posting-list-ordered ``refine_many``.
"""

from __future__ import annotations

import json
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.bench.memory import deep_sizeof
from repro.core.registry import make_algorithm
from repro.errors import CancelledError, ReproError, SignatureError
from repro.governance import DEFAULT_POLL_INTERVAL, CancelToken, GovernancePolicy, govern
from repro.index.inverted import InvertedIndex, intersect_sorted
from repro.kernels import (
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
    use_backend,
)
from repro.kernels.numpy_backend import _SMALL_SUBSET_BATCH
from repro.kernels.python_backend import (
    GALLOP_RATIO,
    PythonKernel,
    gallop_intersect,
    merge_intersect,
)
from repro.relations.relation import Relation, SetRecord
from repro.signatures.hashing import ModuloScheme
from repro.tries.patricia import PatriciaTrie
from tests.conftest import random_relation

BACKENDS = available_backends()
HAS_NUMPY = "numpy" in BACKENDS


def random_signatures(count: int, bits: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    sigs = [rng.getrandbits(bits) for _ in range(count)]
    # Edge rows the filters must get right: all-zero, all-one, one bit
    # at each word boundary of the packed uint64 layout.
    sigs += [0, (1 << bits) - 1]
    for shift in (0, 1, 63, 64, 65, bits - 1):
        if 0 <= shift < bits:
            sigs.append(1 << shift)
    return sigs[: count + 8]


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
def test_python_backend_always_available():
    assert "python" in BACKENDS
    assert isinstance(get_backend("python"), PythonKernel)


def test_registered_superset_of_available():
    assert set(BACKENDS) <= set(registered_backends())
    # AUTO_ORDER names come first in both listings.
    assert registered_backends()[: len(kernels.AUTO_ORDER)] == tuple(
        n for n in kernels.AUTO_ORDER if n in registered_backends()
    )


def test_unknown_backend_raises_repro_error():
    with pytest.raises(KernelUnavailableError, match="unknown kernel backend"):
        get_backend("no-such-backend")
    # KernelUnavailableError is a ReproError: the CLI exits 2 cleanly.
    assert issubclass(KernelUnavailableError, ReproError)


def test_get_backend_returns_cached_singleton():
    assert get_backend("python") is get_backend("python")


def test_set_default_backend_round_trip():
    original = kernels.active_backend_name()
    previous = set_default_backend("python")
    try:
        assert previous == original
        assert kernels.active_backend_name() == "python"
        assert kernels.backend_source() == "explicit"
        assert get_backend().name == "python"
    finally:
        set_default_backend(original)


def test_use_backend_restores_default_and_source():
    before_name = kernels.active_backend_name()
    before_source = kernels.backend_source()
    with use_backend("python") as backend:
        assert backend.name == "python"
        assert kernels.active_backend_name() == "python"
        assert kernels.backend_source() == "explicit"
    assert kernels.active_backend_name() == before_name
    assert kernels.backend_source() == before_source


def test_env_override_selects_backend(monkeypatch):
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setattr(kernels, "_source", "auto")
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    assert kernels.active_backend_name() == "python"
    assert kernels.backend_source() == "env"


def test_env_override_fails_loudly_for_bad_backend(monkeypatch):
    """Forcing an unavailable backend must not silently fall back."""
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setenv(kernels.ENV_VAR, "no-such-backend")
    with pytest.raises(KernelUnavailableError):
        get_backend()


def test_register_backend_replacement_and_unavailability(monkeypatch):
    # Shield the real registry from the throwaway registration.
    monkeypatch.setattr(kernels, "_factories", dict(kernels._factories))
    monkeypatch.setattr(kernels, "_instances", dict(kernels._instances))

    def broken() -> KernelBackend:
        raise KernelUnavailableError("no accelerator on this host")

    register_backend("accel", broken)
    assert "accel" in registered_backends()
    assert "accel" not in available_backends()
    with pytest.raises(KernelUnavailableError, match="not available"):
        get_backend("accel")
    register_backend("accel", PythonKernel)
    assert isinstance(get_backend("accel"), PythonKernel)


def test_backend_pickles_by_name():
    for name in BACKENDS:
        backend = get_backend(name)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone is backend  # singleton reconnect, not a copy


# ----------------------------------------------------------------------
# ABI parity: python vs numpy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [1, 7, 64, 65, 128, 200, 512])
def test_pack_and_filter_parity(bits):
    sigs = random_signatures(40, bits, seed=bits)
    rng = random.Random(1000 + bits)
    probes = [rng.getrandbits(bits) for _ in range(12)] + [0, (1 << bits) - 1]
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures(sigs)
        assert pack == tuple(sigs)
        for probe in probes:
            assert backend.filter_subset_batch(pack, probe) == \
                [i for i, sig in enumerate(sigs) if sig & ~probe == 0]


def test_empty_pack():
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures([])
        assert len(pack) == 0
        assert backend.filter_subset_batch(pack, 0) == []
        assert backend.filter_subset_batch(pack, (1 << 64) - 1) == []


def test_filter_semantics_are_positional():
    """Filters return *row indices* into the pack, in ascending order."""
    sigs = [0b0001, 0b0011, 0b0111, 0b1000, 0b0011]
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures(sigs)
        # Rows whose signature is covered by probe 0b0011.
        assert backend.filter_subset_batch(pack, 0b0011) == [0, 1, 4]
        # Rows whose signature is covered by probe 0b1000.
        assert backend.filter_subset_batch(pack, 0b1000) == [3]


@pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0), (3, 200), (200, 3),
                                   (50, 50), (1, 1)])
def test_intersect_sorted_parity(sizes):
    rng = random.Random(sum(sizes) * 7 + 1)
    a = sorted(rng.sample(range(1000), sizes[0]))
    b = sorted(rng.sample(range(1000), sizes[1]))
    expected = sorted(set(a) & set(b))
    for name in BACKENDS:
        assert get_backend(name).intersect_sorted(a, b) == expected
        assert get_backend(name).intersect_sorted(b, a) == expected


def test_gallop_and_merge_agree():
    rng = random.Random(99)
    small = sorted(rng.sample(range(10_000), 20))
    large = sorted(rng.sample(range(10_000), 20 * GALLOP_RATIO + 50))
    expected = sorted(set(small) & set(large))
    assert gallop_intersect(small, large) == expected
    assert merge_intersect(small, large) == expected
    assert merge_intersect(large, small) == expected


def test_module_level_intersect_uses_active_backend():
    assert intersect_sorted([1, 3, 5, 9], [3, 4, 5, 10]) == [3, 5]


# ----------------------------------------------------------------------
# Batched Patricia subset walk: parity with the reference node walk
# ----------------------------------------------------------------------
#: Widths around the uint64 word boundaries, plus the SHJ-like and
#: PTSJ-like signature lengths.
WALK_WIDTHS = [1, 63, 64, 65, 120, 512]
#: Batch sizes on both sides of the numpy frontier's crossover.
WALK_BATCHES = [1, _SMALL_SUBSET_BATCH - 1, _SMALL_SUBSET_BATCH, 2 * _SMALL_SUBSET_BATCH + 3]


def reference_walk(trie: PatriciaTrie, probes: list[int]):
    """What ``subset_leaves_batch`` must return: the subset_leaves loop."""
    counts, leaves, visits = [], [], 0
    for probe in probes:
        found = trie.subset_leaves(probe)
        visits += trie.visits_last_query
        counts.append(len(found))
        leaves.extend(leaf.items for leaf in found)
    return counts, leaves, visits


def assert_walk_parity(backend: str, trie: PatriciaTrie, probes: list[int], pack=None) -> None:
    kernel = get_backend(backend)
    if pack is None:
        pack = kernel.pack_trie(trie)
    counts, leaves, visits = kernel.subset_leaves_batch(pack, probes)
    expected_counts, expected_leaves, expected_visits = reference_walk(trie, probes)
    assert counts == expected_counts
    assert visits == expected_visits
    # The very payload lists, in the reference order (not equal copies).
    assert len(leaves) == len(expected_leaves)
    assert all(got is want for got, want in zip(leaves, expected_leaves))


def build_trie(bits: int, signatures: list[int]) -> PatriciaTrie:
    trie = PatriciaTrie(bits)
    for i, sig in enumerate(signatures):
        trie.insert(sig).append(i)
    return trie


@st.composite
def walk_cases(draw, batch: int):
    """A trie of sparse signatures and ``batch`` denser probes, some of
    them built to cover a stored signature so leaves are actually hit."""
    bits = draw(st.sampled_from(WALK_WIDTHS))
    word = st.integers(min_value=0, max_value=(1 << bits) - 1)
    stored = draw(st.lists(st.builds(operator.and_, word, word), max_size=40))
    dense = st.builds(operator.or_, word, word)
    probe = dense
    if stored:
        covering = st.builds(operator.or_, st.sampled_from(stored), word)
        probe = st.one_of(dense, covering, st.just(0))
    probes = draw(st.lists(probe, min_size=batch, max_size=batch))
    return bits, stored, probes


@pytest.mark.parametrize("batch", WALK_BATCHES)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_subset_leaves_batch_matches_node_walk(backend, batch, data):
    bits, stored, probes = data.draw(walk_cases(batch))
    assert_walk_parity(backend, build_trie(bits, stored), probes)


@pytest.mark.parametrize("batch", [1, 2 * _SMALL_SUBSET_BATCH])
@pytest.mark.parametrize("backend", BACKENDS)
def test_subset_leaves_batch_edge_tries(backend, batch):
    rng = random.Random(batch)
    for bits in WALK_WIDTHS:
        full = (1 << bits) - 1
        tries = {
            "empty": build_trie(bits, []),
            "single leaf root": build_trie(bits, [rng.getrandbits(bits)]),
            "zero signature": build_trie(bits, [0, full, rng.getrandbits(bits)]),
        }
        probes = [0, full] + [rng.getrandbits(bits) for _ in range(batch)]
        for name, trie in tries.items():
            assert_walk_parity(backend, trie, probes[:batch])
            assert_walk_parity(backend, trie, [0] * batch)
        # The one-leaf root is a leaf: one visit per probe, a hit iff covered.
        root = tries["single leaf root"].root
        kernel = get_backend(backend)
        pack = kernel.pack_trie(tries["single leaf root"])
        counts, leaves, visits = kernel.subset_leaves_batch(pack, [root.signature] * batch)
        assert counts == [1] * batch and visits == batch
        assert all(items is root.items for items in leaves)


@pytest.mark.parametrize("backend", BACKENDS)
def test_subset_leaves_batch_empty_batch(backend):
    kernel = get_backend(backend)
    for trie in (build_trie(64, []), build_trie(64, [3, 5, 1 << 63])):
        assert kernel.subset_leaves_batch(kernel.pack_trie(trie), []) == ([], [], 0)


@pytest.mark.parametrize("batch", [1, 2 * _SMALL_SUBSET_BATCH])
@pytest.mark.parametrize("backend", BACKENDS)
def test_subset_leaves_batch_rejects_oversized_probes(backend, batch):
    kernel = get_backend(backend)
    pack = kernel.pack_trie(build_trie(64, [3, 5]))
    for bad in (1 << 64, -1):
        with pytest.raises(SignatureError):
            kernel.subset_leaves_batch(pack, [0] * (batch - 1) + [bad])


@pytest.mark.parametrize("backend", BACKENDS)
def test_pack_follows_leaves_added_or_removed_after_packing(backend):
    rng = random.Random(17)
    trie = build_trie(120, [rng.getrandbits(120) for _ in range(50)])
    pack = get_backend(backend).pack_trie(trie)
    probes = [rng.getrandbits(120) | rng.getrandbits(120) for _ in range(2 * _SMALL_SUBSET_BATCH)]
    trie.insert(0).append("added")
    assert_walk_parity(backend, trie, probes, pack)
    trie.remove(next(trie.leaves()).signature)
    assert_walk_parity(backend, trie, probes, pack)


def test_python_trie_pack_is_the_trie():
    trie = build_trie(16, [1, 2, 3])
    assert get_backend("python").pack_trie(trie) is trie


# ----------------------------------------------------------------------
# Blockwise batch probes of prepared signature indexes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def block_pair():
    """An R of more than two probe blocks, and a small S."""
    s = random_relation(200, 6, 64, seed=731)
    r = random_relation(2 * DEFAULT_POLL_INTERVAL + 300, 14, 64, seed=732)
    return r, s


@pytest.mark.parametrize("algorithm", ["ptsj", "shj", "tsj", "mwtsj"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_probe_matches_streaming_probe(backend, algorithm, block_pair):
    """``probe_many`` walks R in blocks; pairs, pair order and counters
    equal one streaming ``probe`` per record."""
    r, s = block_pair
    with use_backend(backend):
        index = make_algorithm(algorithm).prepare(s, probe_hint=r)
    batch = index.probe_many(r)
    stream_stats = index._new_probe_stats()
    streamed = [(rec.rid, sid) for rec in r for sid in index.probe(rec, stream_stats)]
    assert batch.pairs == streamed
    for counter in ("candidates", "verifications", "node_visits"):
        assert getattr(batch.stats, counter) == getattr(stream_stats, counter)
    for key, value in stream_stats.extras.items():
        assert batch.stats.extras.get(key) == value


class _CancelOnWalk:
    """Kernel proxy that trips ``token`` inside the second block's walk."""

    def __init__(self, inner, token: CancelToken) -> None:
        self.inner = inner
        self.token = token
        self.walks = 0

    def subset_leaves_batch(self, pack, probes):
        self.walks += 1
        if self.walks == 2:
            self.token.cancel("fired mid-probe")
        return self.inner.subset_leaves_batch(pack, probes)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _CountingScheme(ModuloScheme):
    """Counts hashed records, i.e. records the probe loop has reached."""

    def __init__(self, bits: int) -> None:
        super().__init__(bits)
        self.hashed = 0

    def signature(self, elements):
        self.hashed += 1
        return super().signature(elements)


@pytest.mark.parametrize("poll_interval", [DEFAULT_POLL_INTERVAL, 100])
@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_during_batched_ptsj_probe(backend, poll_interval, block_pair):
    r, s = block_pair
    with use_backend(backend):
        index = make_algorithm("ptsj").prepare(s, probe_hint=r)
    token = CancelToken()
    kernel = _CancelOnWalk(index.kernel, token)
    index._kernel = kernel
    scheme = index._algorithm.scheme = _CountingScheme(index.scheme.bits)
    block = min(poll_interval, DEFAULT_POLL_INTERVAL)
    assert len(r) > 2 * block
    with govern(GovernancePolicy(cancel=token, poll_interval=poll_interval)):
        with pytest.raises(CancelledError, match="fired mid-probe"):
            index.probe_many(r)
    # The cancel fired inside block 2's walk; block 3 was never walked,
    # and the poll that raised came within one interval of records.
    assert kernel.walks == 2
    assert 2 * block <= scheme.hashed <= 2 * block + poll_interval


# ----------------------------------------------------------------------
# Memory accounting covers the kernel packs
# ----------------------------------------------------------------------
def _graph_bytes(objs) -> tuple[int, set[int]]:
    seen: set[int] = set()
    return sum(deep_sizeof(obj, seen) for obj in objs), seen


#: The numpy arrays a numpy trie pack holds.
_PACK_ARRAYS = ("prefixes", "left", "right", "branch_word", "branch_mask")


@pytest.mark.parametrize("algorithm,structure", [("ptsj", "trie"), ("shj", "buckets")])
@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_objects_count_kernel_packs(backend, algorithm, structure):
    s = random_relation(120, 8, 96, seed=741)
    with use_backend(backend):
        index = make_algorithm(algorithm).prepare(s)
    bucket_packs = getattr(index._algorithm, "bucket_packs", None)  # SHJ only
    total, _ = _graph_bytes(index.memory_objects())
    structure_bytes, seen = _graph_bytes([getattr(index._algorithm, structure)])
    packs = [index._trie_pack, bucket_packs]
    pack_bytes = sum(deep_sizeof(pack, seen) for pack in packs if pack is not None)
    assert total == structure_bytes + pack_bytes
    # The python trie pack *is* the trie and adds nothing; numpy's node
    # tables and SHJ's bucket packs do.
    assert (pack_bytes > 0) == (algorithm == "shj" or backend == "numpy")
    # Under numpy every trie-pack array's buffer is among the counted bytes.
    arrays = [getattr(index._trie_pack, name) for name in _PACK_ARRAYS
              if hasattr(index._trie_pack, name)]
    assert bool(arrays) == (algorithm == "ptsj" and backend == "numpy")
    assert pack_bytes >= sum(array.nbytes for array in arrays)


#: Prints PRETTI's and PRETTI+'s Fig. 6a bytes per tuple as JSON.
_INVERTED_MEMORY_SCRIPT = """
import json
from repro.bench.memory import memory_per_tuple
from tests.conftest import random_relation
r = random_relation(80, 8, 64, seed=742)
s = random_relation(80, 6, 64, seed=743)
print(json.dumps({name: memory_per_tuple(name, r, s) for name in ("pretti", "pretti+")}))
"""


def test_inverted_index_memory_is_backend_independent():
    """PRETTI/PRETTI+ build no backend-specific structure, so their
    Fig. 6a bytes per tuple must not depend on the backend: the kernel an
    ``InvertedIndex`` captures (and any module it reaches) is not index
    memory.  Each backend is measured in a fresh interpreter, because
    CPython sizes a class's instance ``__dict__`` by how many were
    materialized before it, so only equal histories give equal bytes."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root)])

    def measure(backend: str) -> dict[str, float]:
        env = {**os.environ, kernels.ENV_VAR: backend, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", _INVERTED_MEMORY_SCRIPT], env=env,
                              cwd=root, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    per_backend = {name: measure(name) for name in BACKENDS}
    reference = per_backend["python"]
    assert reference["pretti+"] < reference["pretti"]
    assert all(value == reference for value in per_backend.values()), per_backend


# ----------------------------------------------------------------------
# Prepared-index integration
# ----------------------------------------------------------------------
def small_relation(start_id: int = 0) -> Relation:
    sets = [
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
        frozenset({4, 5}),
        frozenset({2, 3, 4, 5, 6}),
    ]
    return Relation(
        [SetRecord(start_id + i, elements) for i, elements in enumerate(sets)]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_prepared_index_trie_walk_candidates(backend):
    """The kernel walk over a prepared PTSJ index's trie pack admits
    exactly the records whose signature ``⊑`` the probe's: a superset of
    the true matches, equal to the scalar signature filter.  The probes
    repeat past the numpy frontier's crossover, so both walks run."""
    s = small_relation()
    r = list(small_relation(start_id=100)) * (_SMALL_SUBSET_BATCH // 6 + 1)
    with use_backend(backend):
        index = make_algorithm("ptsj").prepare(s)
    assert index.kernel.name == backend
    probe_sigs = [index.scheme.signature(record.elements) for record in r]
    counts, leaves, _ = index.kernel.subset_leaves_batch(index._trie_pack, probe_sigs)
    pos = 0
    for record, probe_sig, count in zip(r, probe_sigs, counts):
        candidates = {rid for groups in leaves[pos:pos + count]
                      for group in groups for rid in group.ids}
        pos += count
        # Kernel-admitted candidates are a superset of the true matches
        # (signatures never produce false negatives) ...
        true_matches = {
            rec.rid for rec in s if record.elements >= rec.elements
        }
        assert true_matches <= candidates
        # ... and equal what the scalar signature filter admits.
        scalar = {
            rec.rid
            for rec in s
            if index.scheme.signature(rec.elements) & ~probe_sig == 0
        }
        assert candidates == scalar


def test_prepared_index_keeps_build_backend():
    """An index packed under one backend keeps using it even after the
    process default changes (internal consistency for resident indexes)."""
    s = small_relation()
    r = small_relation(start_id=100)
    with use_backend("python"):
        index = make_algorithm("ptsj").prepare(s)
        expected = index.probe_many(r).pairs
    assert index.kernel.name == "python"
    assert index._trie_pack is index.trie  # the python pack is the trie
    for other in BACKENDS:
        with use_backend(other):
            result = index.probe_many(r)
            assert index.kernel.name == "python"
            assert index._trie_pack is index.trie
        assert result.pairs == expected
        assert result.stats.extras["kernel_backend"] == "python"


# ----------------------------------------------------------------------
# refine_many ordering
# ----------------------------------------------------------------------
def test_refine_many_orders_by_posting_length():
    relation = Relation(
        [
            SetRecord(0, frozenset({1, 2, 3})),
            SetRecord(1, frozenset({1, 2})),
            SetRecord(2, frozenset({1})),
        ]
    )
    index = InvertedIndex(relation)
    # Element 7 has no postings; sorted-by-length refinement hits it
    # first, empties the candidate list, and stops after ONE refine even
    # though the caller listed the expensive elements first.
    before = index.intersection_count
    assert index.refine_many(index.all_ids, [1, 2, 7]) == []
    assert index.intersection_count == before + 1
    # Order of the surviving refinement is invisible in the result.
    assert index.refine_many(index.all_ids, [2, 1]) == [0, 1]
    assert index.refine_many(index.all_ids, [3, 1]) == [0]
