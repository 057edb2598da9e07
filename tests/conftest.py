"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.relations.relation import Relation, SetRecord
from repro.testing.faults import CrashingIndex, DyingIndex, FaultTrigger, SleepingIndex


def random_relation(
    size: int,
    max_cardinality: int,
    domain: int,
    seed: int,
    start_id: int = 0,
    min_cardinality: int = 0,
) -> Relation:
    """A reproducible random relation for tests (stdlib RNG, no numpy).

    Cardinalities are uniform on [min_cardinality, max_cardinality];
    elements uniform without replacement over [0, domain).
    """
    rng = random.Random(seed)
    records = []
    for i in range(size):
        k = rng.randint(min_cardinality, min(max_cardinality, domain))
        records.append(SetRecord(start_id + i, frozenset(rng.sample(range(domain), k))))
    return Relation(records, name=f"rand(seed={seed})")


def oracle_pairs(r: Relation, s: Relation) -> set[tuple[int, int]]:
    """Reference containment-join output, computed the obvious way."""
    return {
        (rr.rid, ss.rid)
        for rr in r
        for ss in s
        if rr.elements >= ss.elements
    }


def crash_then_die(
    crash: FaultTrigger,
    sleep: FaultTrigger,
    die: FaultTrigger,
    index,
    parent_pid: int | None = None,
):
    """Fault wrapper: the first probe raises, the next dies 0.2 s in.

    Bind the triggers with :func:`functools.partial` to get an
    ``index_transform`` that pickles under spawn.  With two tasks on two
    workers, one task's retry backoff outlasts the other worker's death,
    so the retry is resubmitted in the round the pool breaks.
    """
    dying = DyingIndex(index, die, parent_pid=parent_pid)
    return CrashingIndex(SleepingIndex(dying, sleep, sleep_seconds=0.2), crash)


@pytest.fixture
def table1_profiles() -> Relation:
    """The paper's Table I user-profiles relation (a..h -> 0..7)."""
    # u1={b,d,f,g}, u2={a,c,h}, u3={a,c,d}
    return Relation.from_sets([{1, 3, 5, 6}, {0, 2, 7}, {0, 2, 3}], name="profiles")


@pytest.fixture
def table1_preferences() -> Relation:
    """The paper's Table I user-preferences relation."""
    # p1={b,d}, p2={b,f,g}, p3={a,c,h}
    return Relation.from_sets([{1, 3}, {1, 5, 6}, {0, 2, 7}], name="preferences")


#: Expected Table I join result with 0-based ids: {(u1,p1),(u1,p2),(u2,p3)}.
TABLE1_EXPECTED = {(0, 0), (0, 1), (1, 2)}


@pytest.fixture
def small_pair() -> tuple[Relation, Relation]:
    """A small random (R, S) pair exercising empty sets and duplicates."""
    r = random_relation(60, 10, 40, seed=11)
    s = random_relation(60, 6, 40, seed=22)
    return r, s
