"""Paper Sec. VI future-work directions, implemented.

* :class:`~repro.future.multiway.MWTSJ` — multi-way (16-ary) signature
  trie join ("more advanced data structures such as multi-way trie").
* :class:`~repro.future.trie_trie.TrieTrieJoin` — simultaneous traversal
  of two signature tries ("join algorithms such as trie-trie join").

The third direction, multi-core execution ("nontrivial multi-core ...
settings"), lives in :mod:`repro.exec`: the parallel, resilient and
sharded executors (see ``docs/EXECUTORS.md``).
"""

from repro.future.multiway import MWTSJ, MultiwayTrie
from repro.future.trie_trie import TrieTrieJoin

__all__ = [
    "MultiwayTrie",
    "MWTSJ",
    "TrieTrieJoin",
]
