"""Unit tests for the relation data model."""

from __future__ import annotations

import pytest

from repro.errors import RelationError
from repro.relations.relation import Relation, SetRecord


class TestSetRecord:
    def test_elements_coerced_to_frozenset(self):
        rec = SetRecord(1, {3, 1, 2})  # type: ignore[arg-type]
        assert isinstance(rec.elements, frozenset)
        assert rec.elements == frozenset({1, 2, 3})

    def test_cardinality(self):
        assert SetRecord(0, frozenset({5, 9})).cardinality == 2

    def test_empty_set_allowed(self):
        assert SetRecord(0, frozenset()).cardinality == 0

    def test_sorted_elements(self):
        assert SetRecord(0, frozenset({9, 1, 5})).sorted_elements() == (1, 5, 9)

    def test_contains_superset(self):
        big = SetRecord(0, frozenset({1, 2, 3}))
        small = SetRecord(1, frozenset({2, 3}))
        assert big.contains(small)
        assert not small.contains(big)

    def test_contains_is_reflexive(self):
        rec = SetRecord(0, frozenset({4}))
        assert rec.contains(rec)

    def test_empty_set_contained_in_all(self):
        empty = SetRecord(0, frozenset())
        assert SetRecord(1, frozenset({1})).contains(empty)
        assert empty.contains(empty)

    def test_negative_element_rejected(self):
        with pytest.raises(RelationError):
            SetRecord(0, frozenset({-1, 2}))

    def test_non_int_element_rejected(self):
        with pytest.raises(RelationError):
            SetRecord(0, frozenset({"a"}))  # type: ignore[arg-type]

    def test_records_are_immutable(self):
        rec = SetRecord(0, frozenset({1}))
        with pytest.raises(AttributeError):
            rec.rid = 5  # type: ignore[misc]


class TestRelation:
    def test_from_sets_assigns_sequential_ids(self):
        rel = Relation.from_sets([{1}, {2}, {3}])
        assert rel.ids() == (0, 1, 2)

    def test_from_sets_start_id(self):
        rel = Relation.from_sets([{1}, {2}], start_id=10)
        assert rel.ids() == (10, 11)

    def test_from_mapping_preserves_ids(self):
        rel = Relation.from_mapping({7: {1}, 3: {2, 4}})
        assert set(rel.ids()) == {7, 3}
        assert rel.get(3).elements == frozenset({2, 4})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(RelationError):
            Relation([SetRecord(1, frozenset()), SetRecord(1, frozenset({2}))])

    def test_len_iter_getitem(self):
        rel = Relation.from_sets([{1}, {2, 3}])
        assert len(rel) == 2
        assert [rec.cardinality for rec in rel] == [1, 2]
        assert rel[1].elements == frozenset({2, 3})

    def test_contains_checks_ids(self):
        rel = Relation.from_sets([{1}], start_id=5)
        assert 5 in rel
        assert 0 not in rel

    def test_get_missing_raises_keyerror(self):
        rel = Relation.from_sets([{1}])
        with pytest.raises(KeyError):
            rel.get(99)

    def test_equality_by_records(self):
        a = Relation.from_sets([{1}, {2}])
        b = Relation.from_sets([{1}, {2}])
        c = Relation.from_sets([{1}, {3}])
        assert a == b
        assert a != c

    def test_domain_is_union(self):
        rel = Relation.from_sets([{1, 2}, {2, 5}, set()])
        assert rel.domain() == frozenset({1, 2, 5})

    def test_max_element(self):
        rel = Relation.from_sets([{1, 9}, {3}])
        assert rel.max_element() == 9

    def test_max_element_all_empty(self):
        rel = Relation.from_sets([set(), set()])
        assert rel.max_element() == -1

    def test_max_element_reuses_computed_stats(self):
        from repro.relations.stats import compute_stats

        rel = Relation.from_sets([{1, 9}, {3}])
        assert compute_stats(rel).max_element == 9
        rel._records = ()  # a rescan would now find nothing
        assert rel.max_element() == 9

    def test_max_element_is_memoized(self):
        rel = Relation.from_sets([{1, 9}, {3}])
        assert rel.max_element() == 9
        rel._records = ()
        assert rel.max_element() == 9

    def test_empty_relation(self):
        rel = Relation([])
        assert len(rel) == 0
        assert rel.domain() == frozenset()

    def test_filter_cardinality_minimum(self):
        rel = Relation.from_sets([{1}, {1, 2}, {1, 2, 3}])
        kept = rel.filter_cardinality(minimum=2)
        assert [rec.cardinality for rec in kept] == [2, 3]

    def test_filter_cardinality_maximum(self):
        rel = Relation.from_sets([{1}, {1, 2}, {1, 2, 3}])
        kept = rel.filter_cardinality(maximum=2)
        assert [rec.cardinality for rec in kept] == [1, 2]

    def test_filter_preserves_ids(self):
        rel = Relation.from_sets([{1}, {1, 2}, {1, 2, 3}])
        kept = rel.filter_cardinality(minimum=3)
        assert kept.ids() == (2,)

    def test_sample_smaller_than_relation(self):
        rel = Relation.from_sets([{i} for i in range(50)])
        sampled = rel.sample(10, seed=3)
        assert len(sampled) == 10
        assert set(sampled.ids()) <= set(rel.ids())

    def test_sample_larger_returns_self(self):
        rel = Relation.from_sets([{1}, {2}])
        assert rel.sample(10) is rel

    def test_sample_deterministic(self):
        rel = Relation.from_sets([{i} for i in range(50)])
        assert rel.sample(5, seed=4).ids() == rel.sample(5, seed=4).ids()

    def test_repr_mentions_size(self):
        rel = Relation.from_sets([{1}], name="demo")
        assert "demo" in repr(rel)
        assert "1" in repr(rel)
