"""The kernel ABI: what a probe-kernel backend must provide.

The ABI is the five inner operations a join calls, and nothing else:

``pack_signatures(signatures)`` / ``filter_subset_batch(pack, probe)``
    SHJ's per-bucket signature filter (Algorithm 2).  A pack is the
    tuple of a bucket's signatures, built once at index build time;
    the filter returns the *indices* (ascending) of packed signatures
    ``sig`` with ``sig & ~probe == 0``, so the caller translates rows
    back to its bucket entries without the backend knowing about them.

``intersect_sorted(a, b)``
    Intersection of two strictly-increasing integer sequences — the
    PRETTI-family refinement step.  The adaptive gallop/merge crossover
    policy ("Fast Set Intersection in Memory") lives behind this call.

``pack_trie(trie)`` / ``subset_leaves_batch(pack, probes)``
    PTSJ's Patricia subset walk (Algorithm 5) for a whole block of probe
    signatures at once.  ``pack_trie`` prepares a built
    :class:`~repro.tries.patricia.PatriciaTrie` once, at index build
    time; ``subset_leaves_batch`` returns ``(counts, leaves, visits)``:
    ``counts[i]`` leaves belong to ``probes[i]``, ``leaves`` holds their
    payload lists back to back in exactly the order
    ``trie.subset_leaves(probes[i])`` returns them, and ``visits`` is
    the sum of ``trie.visits_last_query`` over the batch.

Parity contract
---------------
Backends must be *bit-for-bit interchangeable*: for any valid inputs,
every method returns exactly the same Python values on every backend
(same ids, same order).  Differential and golden tests run the full
join suite under each available backend and require identical pairs
and identical ``JoinStats`` counters; ``docs/KERNELS.md`` spells out
the contract.

``intersect_sorted`` inputs are **strictly increasing** sequences (the
inverted index and all candidate lists guarantee this); behaviour on
inputs with duplicates is backend-defined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tries.patricia import PatriciaTrie

__all__ = ["KernelBackend", "KernelUnavailableError"]


class KernelUnavailableError(ReproError):
    """A requested kernel backend cannot be constructed on this host."""


class KernelBackend(ABC):
    """One implementation of the batch probe kernels.

    Backends are stateless singletons resolved through the registry in
    :mod:`repro.kernels`; they pickle by name (see ``__reduce__``), so
    prepared indexes that captured a backend at build time can be
    shipped to worker processes and reconnect to the worker's instance.
    """

    #: Registry name ("python", "numpy", ...); subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # SHJ's bucket filter
    # ------------------------------------------------------------------
    @abstractmethod
    def pack_signatures(self, signatures: Iterable[int]) -> tuple[int, ...]:
        """Pack ``signatures`` for :meth:`filter_subset_batch`."""

    @abstractmethod
    def filter_subset_batch(self, pack: tuple[int, ...], probe: int) -> list[int]:
        """Rows ``i`` (ascending) with ``pack[i] ⊑ probe``.

        The signature filter of every containment join: a packed
        signature survives iff every set bit appears in ``probe``.
        """

    # ------------------------------------------------------------------
    # Posting-list kernel
    # ------------------------------------------------------------------
    @abstractmethod
    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Intersect two strictly-increasing integer sequences."""

    # ------------------------------------------------------------------
    # Patricia subset walk
    # ------------------------------------------------------------------
    @abstractmethod
    def pack_trie(self, trie: "PatriciaTrie") -> Any:
        """Prepare a built trie for :meth:`subset_leaves_batch`.

        The pack may copy the trie's layout, but the batch walk must
        still answer for the trie as it is when walked: a backend whose
        pack is a copy checks ``trie.version`` and walks the trie itself
        once a leaf has been added or removed since packing.
        """

    @abstractmethod
    def subset_leaves_batch(
        self, pack: Any, probes: Sequence[int]
    ) -> tuple[list[int], list[Any], int]:
        """Algorithm 5 for every probe: ``(counts, leaves, visits)``.

        ``leaves`` concatenates, probe by probe, the payload lists
        (``leaf.items``) of the leaves ``trie.subset_leaves(probe)``
        returns, in that order; ``counts[i]`` says how many belong to
        ``probes[i]``.  ``visits`` sums the per-probe node visits.

        Raises:
            repro.errors.SignatureError: If a probe does not fit the
                trie's width.
        """

    # ------------------------------------------------------------------
    # Identity / pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        from repro.kernels import get_backend

        return (get_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
