"""Deep memory measurement for index structures (paper Fig. 6a).

The paper's Fig. 6a reports *main-memory consumption per tuple* of each
algorithm's index.  :func:`deep_sizeof` recursively measures a Python
object graph (handling ``__slots__``, dicts, sequences and shared
sub-objects); :func:`memory_per_tuple` applies it to what a prepared
index reports through ``memory_objects``.

Absolute bytes are Python-object bytes (boxed ints, dict overhead), far
above the paper's Java numbers — the reproduction target is the *relative*
picture: PRETTI an order of magnitude above the rest, linear growth in set
cardinality, SHJ/PTSJ insensitive to it (Fig. 6a).
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any

from repro.core.registry import make_algorithm
from repro.kernels import KernelBackend
from repro.relations.relation import Relation

__all__ = ["deep_sizeof", "memory_per_tuple"]

#: Process-wide objects an index may reference but does not own: a
#: module (and through it ``sys.modules``) and the kernel backend
#: singleton.  The walk neither counts nor follows them.
_SHARED = (ModuleType, KernelBackend)


def deep_sizeof(obj: Any, _seen: set[int] | None = None) -> int:
    """Total bytes of ``obj`` and everything reachable from it.

    Each distinct object is counted once (cycles and sharing are safe).
    Containers (dict/list/tuple/set/frozenset), instance ``__dict__`` (as
    a fresh copy, so the size depends only on its contents) and
    ``__slots__`` attributes are followed; atomic values are measured with
    :func:`sys.getsizeof`.  Modules and kernel backends are shared
    process state, not part of any index: they count zero and are not
    followed.  The walk is iterative, so arbitrarily deep structures
    (e.g. PRETTI tries over high-cardinality sets) are safe.
    """
    seen = _seen if _seen is not None else set()
    # Instance dicts are sized through fresh copies: CPython sizes a
    # materialized instance dict by how many of its class's came before
    # it, so the original's size depends on process history, not on the
    # contents.  The copies stay referenced for the whole walk, so a
    # freed copy's id can never alias a later object in ``seen``.
    copies: list[dict] = []
    total = 0
    stack: list[Any] = [obj]
    while stack:
        current = stack.pop()
        oid = id(current)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(current, _SHARED):
            continue
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif isinstance(current, (str, bytes, bytearray, int, float, bool, complex)) or current is None:
            pass
        else:
            instance_dict = getattr(current, "__dict__", None)
            if instance_dict is not None:
                seen.add(id(instance_dict))
                copies.append(dict(instance_dict))
                stack.append(copies[-1])
            for klass in type(current).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(current, slot):
                        stack.append(getattr(current, slot))
    return total


def memory_per_tuple(name: str, r: Relation, s: Relation, **kwargs) -> float:
    """Build ``name``'s index for ``R ⋈⊇ S`` and report bytes per tuple.

    Matches Fig. 6a's metric: total index bytes divided by the number of
    indexed tuples, measured through the prepared index's
    :meth:`~repro.core.base.PreparedIndex.memory_objects`.  PRETTI/PRETTI+
    index both relations (trie on ``S``, inverted file on ``R``), so their
    divisor is ``|R| + |S|``; signature algorithms index only ``S``
    (trie-trie's probe-side R-trie is measured but, as probe-batch state,
    not added to the divisor).
    """
    algorithm = make_algorithm(name, **kwargs)
    prepared = algorithm.prepare(s, probe_hint=r)
    divisor = len(s) + (len(r) if algorithm.name in ("pretti", "pretti+") else 0)
    if divisor == 0:
        return 0.0
    seen: set[int] = set()
    total = sum(deep_sizeof(obj, seen) for obj in prepared.memory_objects(r))
    return total / divisor
