"""Unit tests for the future-work implementations (paper Sec. VI)."""

from __future__ import annotations

import pytest

from repro.core.registry import make_algorithm
from repro.errors import AlgorithmError, TrieError
from repro.future.multiway import MWTSJ, MultiwayTrie
from repro.exec import ParallelJoin, parallel_join
from repro.future.trie_trie import TrieTrieJoin
from repro.relations.relation import Relation
from tests.conftest import TABLE1_EXPECTED, oracle_pairs, random_relation
from tests.test_patricia_trie import brute_subsets, random_signatures


class TestMultiwayTrie:
    def test_invalid_width(self):
        with pytest.raises(TrieError):
            MultiwayTrie(0)

    def test_insert_and_len(self):
        trie = MultiwayTrie(16)
        trie.insert(0x0F0F).append("x")
        trie.insert(0x0F0F).append("y")
        trie.insert(0x1111).append("z")
        assert len(trie) == 2

    def test_non_multiple_of_four_width(self):
        trie = MultiwayTrie(10)
        trie.insert(0b1010101010).append(1)
        found = trie.subset_leaves(0b1111111111)
        assert [leaf.signature for leaf in found] == [0b1010101010]

    @pytest.mark.parametrize("density", [0.2, 0.5])
    def test_subset_matches_brute_force(self, density):
        bits = 32
        sigs = random_signatures(120, bits, density, seed=600)
        trie = MultiwayTrie(bits)
        for sig in sigs:
            trie.insert(sig)
        for query in random_signatures(40, bits, density, seed=601):
            found = {leaf.signature for leaf in trie.subset_leaves(query)}
            assert found == brute_subsets(sigs, query)

    def test_empty_trie(self):
        trie = MultiwayTrie(8)
        assert trie.subset_leaves(0xFF) == []

    def test_zero_query(self):
        trie = MultiwayTrie(8)
        trie.insert(0)
        trie.insert(0b1)
        found = {leaf.signature for leaf in trie.subset_leaves(0)}
        assert found == {0}

    def test_shallower_than_binary_trie(self):
        assert MultiwayTrie(64).levels == 16


class TestMWTSJ:
    def test_table1(self, table1_profiles, table1_preferences):
        assert MWTSJ().join(table1_profiles, table1_preferences).pair_set() == TABLE1_EXPECTED

    def test_matches_oracle(self, small_pair):
        r, s = small_pair
        assert MWTSJ().join(r, s).pair_set() == oracle_pairs(r, s)

    def test_matches_ptsj_output(self, small_pair):
        from repro.core.ptsj import PTSJ

        r, s = small_pair
        assert MWTSJ(bits=64).join(r, s).pair_set() == PTSJ(bits=64).join(r, s).pair_set()

    def test_registered(self):
        assert make_algorithm("mwtsj").name == "mwtsj"

    def test_empty_relations(self):
        empty = Relation([])
        other = Relation.from_sets([{1}])
        assert len(MWTSJ(bits=8).join(empty, other)) == 0
        assert len(MWTSJ(bits=8).join(other, empty)) == 0


class TestTrieTrieJoin:
    def test_table1(self, table1_profiles, table1_preferences):
        result = TrieTrieJoin().join(table1_profiles, table1_preferences)
        assert result.pair_set() == TABLE1_EXPECTED

    def test_matches_oracle(self, small_pair):
        r, s = small_pair
        assert TrieTrieJoin().join(r, s).pair_set() == oracle_pairs(r, s)

    @pytest.mark.parametrize("bits", [16, 48])
    def test_explicit_bits(self, bits, small_pair):
        r, s = small_pair
        result = TrieTrieJoin(bits=bits).join(r, s)
        assert result.stats.signature_bits == bits
        assert result.pair_set() == oracle_pairs(r, s)

    def test_self_join(self):
        rel = random_relation(60, 6, 40, seed=602)
        assert TrieTrieJoin().join(rel, rel).pair_set() == oracle_pairs(rel, rel)

    def test_duplicates_grouped_on_both_sides(self):
        r = Relation.from_sets([{1, 2}] * 3)
        s = Relation.from_sets([{1}] * 2)
        result = TrieTrieJoin().join(r, s)
        assert len(result) == 6

    def test_empty_relations(self):
        empty = Relation([])
        other = Relation.from_sets([{1}])
        assert len(TrieTrieJoin(bits=8).join(empty, other)) == 0
        assert len(TrieTrieJoin(bits=8).join(other, empty)) == 0

    def test_registered(self):
        assert make_algorithm("trie-trie").name == "trie-trie"

    def test_shared_prefixes_amortised(self):
        """Node-pair visits stay far below |R-leaves| x |S-leaves|."""
        r = random_relation(150, 5, 30, seed=603)
        s = random_relation(150, 5, 30, seed=604)
        result = TrieTrieJoin(bits=64).join(r, s)
        assert result.stats.node_visits < len(r) * len(s)


class TestParallelJoin:
    def test_invalid_configuration(self):
        with pytest.raises(AlgorithmError):
            ParallelJoin(workers=0)
        with pytest.raises(AlgorithmError):
            ParallelJoin(chunks=0)

    def test_single_worker_matches_oracle(self, small_pair):
        r, s = small_pair
        result = ParallelJoin(workers=1, chunks=3).join(r, s)
        assert result.pair_set() == oracle_pairs(r, s)
        assert result.stats.extras["chunks"] == 3

    def test_multi_worker_matches_oracle(self):
        r = random_relation(80, 6, 40, seed=605)
        s = random_relation(80, 4, 40, seed=606)
        result = parallel_join(r, s, workers=2)
        assert result.pair_set() == oracle_pairs(r, s)

    def test_any_inner_algorithm(self, small_pair):
        r, s = small_pair
        result = ParallelJoin(algorithm="pretti+", workers=1, chunks=4).join(r, s)
        assert result.pair_set() == oracle_pairs(r, s)
        assert result.stats.algorithm == "parallel-pretti+"

    def test_empty_probe_relation(self):
        s = Relation.from_sets([{1}])
        result = ParallelJoin(workers=1).join(Relation([]), s)
        assert len(result) == 0


class TestParallelBuildOnce:
    """The S-index is prepared exactly once, however many chunks/workers."""

    def test_index_prepared_once_across_chunks(self, small_pair, monkeypatch):
        from repro.core.ptsj import PTSJ

        calls = {"n": 0}
        original = PTSJ._prepare

        def counting(self, s, probe_hint=None):
            calls["n"] += 1
            return original(self, s, probe_hint)

        monkeypatch.setattr(PTSJ, "_prepare", counting)
        r, s = small_pair
        result = ParallelJoin(algorithm="ptsj", workers=1, chunks=4).join(r, s)
        assert calls["n"] == 1
        assert result.stats.extras["index_builds"] == 1
        assert result.pair_set() == oracle_pairs(r, s)

    def test_multi_worker_reports_single_build(self):
        r = random_relation(40, 6, 40, seed=607)
        s = random_relation(40, 4, 40, seed=608)
        result = ParallelJoin(algorithm="ptsj", workers=2).join(r, s)
        assert result.stats.extras["index_builds"] == 1
        assert result.pair_set() == oracle_pairs(r, s)

    def test_build_time_not_multiplied_by_chunks(self, small_pair):
        """Aggregated build time equals the one prepare, not a per-chunk sum."""
        r, s = small_pair
        join = ParallelJoin(algorithm="ptsj", workers=1, chunks=4)
        index = join.prepare(s, probe_hint=r)
        assert index.build_seconds > 0.0
        result = join.join(r, s)
        # probe_many never reports build time, so the only build in the
        # aggregate is the parent's single prepare.
        assert result.stats.build_seconds > 0.0
        assert result.stats.extras["chunks"] == 4

    def test_prepare_returns_shareable_index(self, small_pair):
        r, s = small_pair
        index = ParallelJoin(algorithm="pretti+", workers=1).prepare(s)
        assert index.probe_many(r).pair_set() == oracle_pairs(r, s)


class TestMultiwayIntrospection:
    def test_node_count_grows_with_inserts(self):
        trie = MultiwayTrie(32)
        baseline = trie.node_count()
        for sig in (0x1, 0x10, 0x100, 0x1000):
            trie.insert(sig)
        assert trie.node_count() > baseline

    def test_visits_recorded(self):
        trie = MultiwayTrie(16)
        for sig in (0x0F0F, 0x00FF, 0xF000):
            trie.insert(sig)
        trie.subset_leaves(0xFFFF)
        assert trie.visits_last_query > 0

    def test_dense_node_uses_submask_table(self):
        """A node with many children triggers the submask-probe path."""
        trie = MultiwayTrie(4)
        for value in range(16):
            trie.insert(value)
        found = {leaf.signature for leaf in trie.subset_leaves(0b0111)}
        assert found == {v for v in range(16) if v & ~0b0111 == 0}


class TestParallelChunking:
    def test_more_chunks_than_tuples(self):
        r = Relation.from_sets([{1}, {2}])
        s = Relation.from_sets([{1}])
        result = ParallelJoin(workers=1, chunks=10).join(r, s)
        assert result.pair_set() == {(0, 0)}

    def test_stats_aggregated_across_chunks(self, small_pair):
        r, s = small_pair
        solo = ParallelJoin(workers=1, chunks=1).join(r, s)
        quad = ParallelJoin(workers=1, chunks=4).join(r, s)
        assert quad.stats.extras["chunks"] == 4
        # Chunked probes verify at most as many candidates in total per
        # chunk boundary effects, but output identically.
        assert quad.pair_set() == solo.pair_set()
