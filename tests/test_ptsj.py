"""Unit tests for PTSJ (the paper's primary contribution)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.nested_loop import NestedLoopJoin
from repro.core.base import JoinStats, PreparedIndex
from repro.core.ptsj import PTSJ
from repro.extensions.set_index import PatriciaSetIndex
from repro.kernels import available_backends, use_backend
from repro.relations.relation import Relation
from repro.signatures.hashing import ScrambleScheme
from tests.conftest import TABLE1_EXPECTED, oracle_pairs, random_relation


class TestCorrectness:
    def test_table1_example(self, table1_profiles, table1_preferences):
        result = PTSJ().join(table1_profiles, table1_preferences)
        assert result.pair_set() == TABLE1_EXPECTED

    def test_matches_oracle_random(self, small_pair):
        r, s = small_pair
        assert PTSJ().join(r, s).pair_set() == oracle_pairs(r, s)

    def test_self_join(self):
        rel = random_relation(80, 8, 50, seed=70)
        assert PTSJ().join(rel, rel).pair_set() == oracle_pairs(rel, rel)

    def test_empty_relations(self):
        empty = Relation([])
        other = Relation.from_sets([{1}])
        assert len(PTSJ(bits=16).join(empty, other)) == 0
        assert len(PTSJ(bits=16).join(other, empty)) == 0
        assert len(PTSJ(bits=16).join(empty, empty)) == 0

    def test_empty_sets_match_everything(self):
        r = Relation.from_sets([{1}, set()])
        s = Relation.from_sets([set(), {1, 2}])
        result = PTSJ().join(r, s)
        # Every r contains the empty s-set; only nothing contains {1,2}.
        assert result.pair_set() == {(0, 0), (1, 0)}

    def test_duplicate_sets_all_reported(self):
        r = Relation.from_sets([{1, 2, 3}])
        s = Relation.from_sets([{1, 2}, {1, 2}, {1, 2}])
        result = PTSJ().join(r, s)
        assert result.pair_set() == {(0, 0), (0, 1), (0, 2)}

    @pytest.mark.parametrize("bits", [8, 64, 333, 2048])
    def test_any_signature_length_is_correct(self, bits, small_pair):
        """Signature length affects speed, never correctness."""
        r, s = small_pair
        assert PTSJ(bits=bits).join(r, s).pair_set() == oracle_pairs(r, s)

    def test_merge_identical_off_same_result(self, small_pair):
        r, s = small_pair
        merged = PTSJ(merge_identical=True).join(r, s).pair_set()
        unmerged = PTSJ(merge_identical=False).join(r, s).pair_set()
        assert merged == unmerged


class TestStatsAndExtension:
    def test_default_bits_follow_strategy(self, small_pair):
        r, s = small_pair
        result = PTSJ().join(r, s)
        cards = [rec.cardinality for rec in r] + [rec.cardinality for rec in s]
        avg_c = sum(cards) / len(cards)
        assert result.stats.signature_bits <= 16 * avg_c + 32
        assert result.stats.signature_bits >= 8

    def test_explicit_bits_respected(self, small_pair):
        r, s = small_pair
        assert PTSJ(bits=128).join(r, s).stats.signature_bits == 128

    def test_merge_identical_reduces_verifications(self):
        """Sec. III-E1: duplicates cost one comparison instead of many."""
        r = random_relation(50, 6, 12, seed=71)
        base = Relation.from_sets([{1, 2}, {1, 2}, {1, 2}, {1, 2}, {3, 4}] * 10)
        with_merge = PTSJ(merge_identical=True).join(r, base)
        without = PTSJ(merge_identical=False).join(r, base)
        assert with_merge.pair_set() == without.pair_set()
        assert with_merge.stats.verifications < without.stats.verifications

    def test_node_visits_accumulated(self, small_pair):
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert stats.node_visits >= len(r)  # at least the root per probe

    def test_index_nodes_bounded(self, small_pair):
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert 0 < stats.index_nodes <= 2 * len(s)

    def test_built_trie_reusable(self, small_pair):
        r, s = small_pair
        algo = PTSJ()
        algo.join(r, s)
        trie = algo.built_trie()
        assert trie.leaf_count > 0

    def test_built_trie_before_join_raises(self):
        with pytest.raises(RuntimeError):
            PTSJ().built_trie()

    def test_candidates_at_least_pairs(self, small_pair):
        """Every output pair's group passed verification."""
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert stats.verifications >= stats.candidates > 0

    def test_longer_signatures_filter_better(self):
        """More bits -> fewer false-positive candidates (Sec. III-C)."""
        r = random_relation(150, 10, 500, seed=72)
        s = random_relation(150, 6, 500, seed=73)
        short = PTSJ(bits=16).join(r, s).stats
        long = PTSJ(bits=512).join(r, s).stats
        assert long.candidates < short.candidates
        assert long.pairs == short.pairs


# ----------------------------------------------------------------------
# Exact-signature regime: verification skipped only where provably sound
# ----------------------------------------------------------------------
BACKENDS = available_backends()
#: One probe record takes the node walk; 64+ take numpy's frontier walk.
BATCH_SIZES = [1, 80]


def streamed(index, r: Relation) -> tuple[list[tuple[int, int]], JoinStats]:
    """The parity oracle: one streaming ``probe()`` per record, which
    always verifies every candidate."""
    stats = JoinStats(algorithm="ptsj")
    return PreparedIndex._probe_all(index, r, stats), stats


def counted_groups(index) -> list[int]:
    """Swap every indexed group's set for one that counts ``<=`` calls;
    returns the one-cell counter."""
    calls = [0]

    class Counted(frozenset):
        def __le__(self, other):
            calls[0] += 1
            return frozenset.__le__(self, other)

    for leaf in index.trie.leaves():
        for group in leaf.items:
            group.elements = Counted(group.elements)
    return calls


def counters(stats: JoinStats) -> tuple[int, int, int]:
    return stats.candidates, stats.verifications, stats.node_visits


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestExactRegime:
    def test_adopter_add_with_colliding_signature_is_verified(self, backend, batch):
        """``{9}`` hashes like ``{1}`` at b = 8 and joins ``{1}``'s leaf,
        so no leaf is created; exactness proven for S at prepare time no
        longer holds and must not be trusted."""
        with use_backend(backend):
            index = PTSJ(bits=8).prepare(Relation.from_sets([{1}, {2, 3}]))
            PatriciaSetIndex.from_prepared(index).add(5, frozenset({9}))
            r = Relation.from_sets([{1}] * batch)
            result = index.probe_many(r)
        assert result.pairs == [(i, 0) for i in range(batch)]
        pairs, stats = streamed(index, r)
        assert result.pairs == pairs
        assert counters(result.stats) == counters(stats)

    def test_probe_element_beyond_width_is_verified(self, backend, batch):
        """Prepared without a probe hint, b = d of S alone (4); a probe
        element 5 folds onto S's ``{1}`` and must be caught."""
        s = Relation.from_sets([{1}, {2, 3}])
        with use_backend(backend):
            index = PTSJ().prepare(s)
            assert index.signature_bits == 4
            r = Relation.from_sets([{5}, {1, 7}, {1, 2, 3}] * batch)
            result = index.probe_many(r)
        assert set(result.pairs) == oracle_pairs(r, s)
        pairs, stats = streamed(index, r)
        assert result.pairs == pairs
        assert counters(result.stats) == counters(stats)

    def test_exact_regime_skips_verification(self, backend, batch):
        s = Relation.from_sets([{1}, {2, 3}, {0, 3}, {1}])
        r = Relation.from_sets([{0, 1, 3}, {2}] * batch)
        with use_backend(backend):
            index = PTSJ(bits=4).prepare(s)
            calls = counted_groups(index)
            result = index.probe_many(r)
            assert calls[0] == 0
            assert set(result.pairs) == oracle_pairs(r, s)
            # The streaming probe stays the verifying oracle.
            pairs, stats = streamed(index, r)
        assert calls[0] == stats.verifications > 0
        assert result.pairs == pairs
        assert counters(result.stats) == counters(stats)

    def test_scramble_scheme_never_skips(self, backend, batch):
        """Scrambled bits are not injective below b (4 and 10 collide at
        b = 64), so every candidate is verified."""
        assert ScrambleScheme(64).bit_of(4) == ScrambleScheme(64).bit_of(10)
        s = Relation.from_sets([{4}, {10}, {4, 10}])
        r = Relation.from_sets([{4}, {10, 11}] * batch)
        with use_backend(backend):
            index = PTSJ(bits=64, scheme_factory=ScrambleScheme).prepare(s)
            calls = counted_groups(index)
            result = index.probe_many(r)
        assert calls[0] == result.stats.verifications > 0
        assert set(result.pairs) == oracle_pairs(r, s)


EXACT_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("backend", BACKENDS)
@EXACT_SETTINGS
@given(
    domain=st.integers(min_value=2, max_value=24),
    data=st.data(),
)
def test_differential_around_b_equals_d(backend, offset, domain, data):
    """At b ∈ {d−1, d, d+1} the batch probe (exact or not) returns the
    streaming probe's pairs in its order with its counters, and the
    nested loop's pair set."""
    sets = st.frozensets(st.integers(min_value=0, max_value=domain - 1), max_size=6)
    s = Relation.from_sets(data.draw(st.lists(sets, max_size=10)))
    r_sets = data.draw(st.lists(sets, max_size=10))
    frontier = data.draw(st.booleans())
    if frontier and r_sets:
        r_sets = r_sets * (64 // len(r_sets) + 1)
    r = Relation.from_sets(r_sets)
    with use_backend(backend):
        index = PTSJ(bits=domain + offset).prepare(s)
        result = index.probe_many(r)
        pairs, stats = streamed(index, r)
    assert result.pairs == pairs
    assert counters(result.stats) == counters(stats)
    assert set(result.pairs) == oracle_pairs(r, s)
    assert set(result.pairs) == NestedLoopJoin().join(r, s).pair_set()
