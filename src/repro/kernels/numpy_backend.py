"""The numpy kernel backend: vectorized Patricia walk and large intersections.

:class:`NumpyKernel` is the pure-Python reference
(:class:`~repro.kernels.python_backend.PythonKernel`) with the two
operations numpy wins end to end replaced:

* PTSJ's Patricia subset walk — the trie is flattened once into node
  tables (:class:`NumpyTriePack`) and a block of probes walks it level
  by level, as one frontier of ``(probe, node)`` pairs
  (:meth:`NumpyKernel.subset_leaves_batch`);
* large sorted-list intersections (PRETTI's refinement), via
  ``numpy.intersect1d``.

SHJ's per-bucket signature filter stays the inherited reference loop:
buckets are a handful of rows, which no vectorized call repays.

numpy is an *optional* dependency of this module alone (lint rule
RPR010 keeps it from leaking anywhere else outside ``repro/kernels/``
and the data-generation layer).  When numpy is missing, constructing
:class:`NumpyKernel` raises :class:`KernelUnavailableError` and the
registry's auto-selection falls back to the pure-Python backend.

Parity: all outputs are plain Python values in the same order the
``python`` backend produces, which the backend-parametrized
differential and golden suites verify bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.kernels.base import KernelUnavailableError
from repro.kernels.python_backend import PythonKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tries.patricia import PatriciaTrie

try:  # pragma: no cover - exercised implicitly by backend availability
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less hosts
    _np = None  # type: ignore[assignment]

__all__ = ["NumpyKernel", "NumpyTriePack"]

#: Below this size the numpy call overhead loses to the pure merge, so
#: ``intersect_sorted`` delegates tiny inputs to the python kernels.
#: Purely a performance crossover: both paths return identical lists.
_SMALL_INTERSECT = 64

#: Below this many probes ``subset_leaves_batch`` walks the trie node by
#: node (the python kernel): the frontier pays a fixed numpy cost per
#: trie level, which only a batch's worth of per-pair savings repays.
#: Measured (docs/KERNELS.md) on the served shape, |S| = 1024 at c = 128:
#: the frontier is ~25x slower at one probe, ~1.7x faster at 64 and
#: ~2.7x at 128; on a small trie (|S| = 256, c = 16) it breaks even
#: between 64 and 128.  Purely a performance crossover: both paths
#: return identical results.
_SMALL_SUBSET_BATCH = 64


def _to_matrix(signatures: Sequence[int], bits: int) -> "tuple":
    """Pack ints MSB-first into an ``[n, words]`` native-endian uint64 matrix."""
    words = max(1, (bits + 63) // 64)
    if not signatures:
        return _np.empty((0, words), dtype=_np.uint64), words
    buf = b"".join(sig.to_bytes(words * 8, "big") for sig in signatures)
    matrix = (
        _np.frombuffer(buf, dtype=">u8")
        .reshape(len(signatures), words)
        .astype(_np.uint64)
    )
    return matrix, words


class NumpyTriePack:
    """A Patricia trie flattened into node tables for the frontier walk.

    Nodes are numbered in right-first preorder — the order in which
    :meth:`~repro.tries.patricia.PatriciaTrie.subset_leaves` pops them —
    so sorting one probe's hits by node number reproduces that walk's
    leaf order.  Per node:

    * ``prefixes[n]`` — the node's segment bits placed at full signature
      width, ``[nodes, words]`` ``uint64``, MSB-first like the probes, so
      the segment test is ``prefixes[n] & ~probe == 0`` over all words;
    * ``left[n]`` / ``right[n]`` — child numbers, ``-1`` for a leaf;
    * ``branch_word[n]`` / ``branch_mask[n]`` — where the probe bit that
      decides the right branch (logical position ``stop``) sits;
    * ``payloads[n]`` — the leaf's payload list (``None`` if internal),
      shared with the trie, not copied.

    ``trie`` is kept for the fallback to the node walk: for small
    batches, and once the trie has gained or lost a leaf since packing
    (``version`` no longer matches), so a stale table is never walked.
    """

    __slots__ = ("trie", "version", "bits", "words", "prefixes", "left", "right",
                 "branch_word", "branch_mask", "payloads")

    def __init__(self, trie: "PatriciaTrie") -> None:
        np = _np
        self.trie = trie
        self.version = trie.version
        bits = self.bits = trie.bits
        prefixes: list[int] = []
        left: list[int] = []
        right: list[int] = []
        branch: list[int] = []
        payloads: list[Any] = []
        # Preorder, right child first; children are numbered when popped,
        # so each internal node's slots are patched as they are reached.
        stack = [(trie.root, -1, 0)] if trie.root is not None else []
        while stack:
            node, parent, side = stack.pop()
            number = len(prefixes)
            if parent >= 0:
                (right if side else left)[parent] = number
            prefixes.append(node.prefix << node.shift)
            left.append(-1)
            right.append(-1)
            payloads.append(node.items)
            if node.items is None:
                branch.append(bits - 1 - node.stop)
                stack.append((node.left, number, 0))
                stack.append((node.right, number, 1))
            else:
                branch.append(0)
        self.prefixes, self.words = _to_matrix(prefixes, bits)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        # Int bit j lies in word ``words - 1 - j // 64`` (MSB-first rows).
        position = np.array(branch, dtype=np.int64)
        self.branch_word = (self.words - 1 - position // 64).astype(np.intp)
        self.branch_mask = np.left_shift(np.uint64(1), (position % 64).astype(np.uint64))
        self.payloads = payloads

    def __len__(self) -> int:
        """Number of trie nodes."""
        return len(self.payloads)


class NumpyKernel(PythonKernel):
    """The reference kernels with numpy's Patricia walk and intersection.

    Raises:
        KernelUnavailableError: If numpy is not importable on this host.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:
            raise KernelUnavailableError(
                "numpy is not installed; use the 'python' kernel backend"
            )

    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        if min(len(a), len(b)) < _SMALL_INTERSECT:
            return super().intersect_sorted(a, b)
        out = _np.intersect1d(
            _np.asarray(a, dtype=_np.int64),
            _np.asarray(b, dtype=_np.int64),
            assume_unique=True,
        )
        return out.tolist()

    def pack_trie(self, trie: "PatriciaTrie") -> NumpyTriePack:
        return NumpyTriePack(trie)

    def subset_leaves_batch(
        self, pack: Any, probes: Sequence[int]
    ) -> tuple[list[int], list[Any], int]:
        """The level-synchronous frontier walk over a whole block.

        Each round tests every live ``(probe, node)`` pair's segment at
        once, records the surviving leaves, and expands the surviving
        internal nodes: the left child always, the right child where the
        probe has the branch bit set (Algorithm 5's rule).  Every pair
        ever in the frontier is one node visit, as in the node walk.
        Hits are finally ordered by (probe, node number).
        """
        assert isinstance(pack, NumpyTriePack)
        bits = pack.bits
        # The node walk also raises the reference SignatureError for a
        # probe that does not fit the width.
        if (len(probes) < _SMALL_SUBSET_BATCH or pack.version != pack.trie.version
                or min(probes) < 0 or max(probes) >> bits):
            return super().subset_leaves_batch(pack.trie, probes)
        n = len(probes)
        if len(pack) == 0:
            return [0] * n, [], 0
        np = _np
        missing = ~_to_matrix(probes, bits)[0]  # bits each probe lacks
        prefixes, left, right = pack.prefixes, pack.left, pack.right
        branch_word, branch_mask = pack.branch_word, pack.branch_mask
        probe_ix = np.arange(n, dtype=np.intp)
        node_ix = np.zeros(n, dtype=np.intp)
        hit_probes: list[Any] = []
        hit_nodes: list[Any] = []
        visits = 0
        while probe_ix.size:
            visits += probe_ix.size
            fits = ~(prefixes[node_ix] & missing[probe_ix]).any(axis=1)
            probe_ix, node_ix = probe_ix[fits], node_ix[fits]
            lefts = left[node_ix]
            leaf = lefts < 0
            if leaf.any():
                hit_probes.append(probe_ix[leaf])
                hit_nodes.append(node_ix[leaf])
                inner = ~leaf
                probe_ix, node_ix, lefts = probe_ix[inner], node_ix[inner], lefts[inner]
            both = (missing[probe_ix, branch_word[node_ix]] & branch_mask[node_ix]) == 0
            probe_ix = np.concatenate((probe_ix, probe_ix[both]))
            node_ix = np.concatenate((lefts, right[node_ix[both]]))
        if not hit_probes:
            return [0] * n, [], visits
        hit_p = np.concatenate(hit_probes)
        hit_n = np.concatenate(hit_nodes)
        order = np.argsort(hit_p * len(pack) + hit_n)
        payloads = pack.payloads
        leaves = [payloads[i] for i in hit_n[order].tolist()]
        counts = np.bincount(hit_p, minlength=n).tolist()
        return counts, leaves, visits
