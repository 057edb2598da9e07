"""The pure-stdlib kernel backend — the reference semantics.

This backend *is* the behaviour every other backend must reproduce
bit-for-bit: arbitrary-precision-int signature filtering
(``sub & ~sup == 0``), the adaptive merge/galloping sorted-list
intersection that previously lived in :mod:`repro.index.inverted`, and
the Patricia subset walk as a loop over
:meth:`~repro.tries.patricia.PatriciaTrie.subset_leaves`.
It has no dependencies beyond the standard library, so it is always
available and serves as the auto-selection fallback.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.kernels.base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tries.patricia import PatriciaTrie

__all__ = [
    "GALLOP_RATIO",
    "PythonKernel",
    "gallop_intersect",
    "merge_intersect",
]

#: Below this length ratio the plain linear merge wins over galloping
#: ("Fast Set Intersection in Memory": galloping pays off only when one
#: list is much shorter than the other).
GALLOP_RATIO = 8


def gallop_intersect(small: Sequence[int], large: Sequence[int]) -> list[int]:
    """Intersect two ascending lists where ``small`` is much shorter.

    For each item of ``small``, binary-search ``large`` within a window
    that only moves forward — O(|small| * log |large|).
    """
    out: list[int] = []
    lo = 0
    hi = len(large)
    for value in small:
        lo = bisect_left(large, value, lo, hi)
        if lo == hi:
            break
        if large[lo] == value:
            out.append(value)
            lo += 1
    return out


def merge_intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Classic two-pointer merge intersection of ascending lists."""
    out: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


class PythonKernel(KernelBackend):
    """Pure-Python kernels; always available, defines the parity contract."""

    name = "python"

    def pack_signatures(self, signatures: Iterable[int]) -> tuple[int, ...]:
        return tuple(signatures)

    def filter_subset_batch(self, pack: tuple[int, ...], probe: int) -> list[int]:
        mask = ~probe
        return [i for i, sig in enumerate(pack) if sig & mask == 0]

    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Adaptive strategy: lists within a factor ``GALLOP_RATIO`` of
        each other in length take the linear merge; otherwise galloping
        on the longer list wins."""
        if not a or not b:
            return []
        if len(a) > len(b):
            a, b = b, a
        if len(b) > GALLOP_RATIO * len(a):
            return gallop_intersect(a, b)
        return merge_intersect(a, b)

    def pack_trie(self, trie: "PatriciaTrie") -> "PatriciaTrie":
        """The reference walk needs no other layout: the pack is the trie."""
        return trie

    def subset_leaves_batch(
        self, pack: Any, probes: Sequence[int]
    ) -> tuple[list[int], list[Any], int]:
        trie: PatriciaTrie = pack
        walk = trie.subset_leaves
        counts: list[int] = []
        leaves: list[Any] = []
        visits = 0
        for probe in probes:
            found = walk(probe)
            visits += trie.visits_last_query
            counts.append(len(found))
            leaves.extend([leaf.items for leaf in found])
        return counts, leaves, visits
