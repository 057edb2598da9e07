"""Unit tests for distributions, synthetic generation and surrogates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.distributions import PoissonDist, UniformDist, ZipfDist, make_distribution
from repro.datagen.realworld import (
    SURROGATE_SPECS,
    make_surrogate,
    scaled_sizes,
    twitter_surrogate,
)
from repro.datagen.synthetic import SyntheticConfig, generate_pair, generate_relation
from repro.errors import DataGenError
from repro.relations.stats import compute_stats


class TestUniformDist:
    def test_range_respected(self):
        rng = np.random.default_rng(0)
        draws = UniformDist(3, 9).sample(rng, 2000)
        assert draws.min() >= 3 and draws.max() <= 9

    def test_mean(self):
        assert UniformDist(0, 10).mean == 5.0

    def test_invalid_range(self):
        with pytest.raises(DataGenError):
            UniformDist(5, 2)
        with pytest.raises(DataGenError):
            UniformDist(-1, 2)


class TestPoissonDist:
    def test_clipping(self):
        rng = np.random.default_rng(1)
        draws = PoissonDist(4.0, low=1, high=6).sample(rng, 2000)
        assert draws.min() >= 1 and draws.max() <= 6

    def test_mean_close_to_lambda(self):
        rng = np.random.default_rng(2)
        draws = PoissonDist(16.0).sample(rng, 5000)
        assert abs(draws.mean() - 16.0) < 0.5

    def test_invalid(self):
        with pytest.raises(DataGenError):
            PoissonDist(0)
        with pytest.raises(DataGenError):
            PoissonDist(3, low=5, high=2)


class TestZipfDist:
    def test_support(self):
        rng = np.random.default_rng(3)
        draws = ZipfDist(100, s=1.2).sample(rng, 3000)
        assert draws.min() >= 0 and draws.max() < 100

    def test_offset(self):
        rng = np.random.default_rng(4)
        draws = ZipfDist(10, s=1.0, offset=5).sample(rng, 500)
        assert draws.min() >= 5 and draws.max() < 15

    def test_rank_one_most_frequent(self):
        rng = np.random.default_rng(5)
        draws = ZipfDist(50, s=1.2).sample(rng, 10_000)
        counts = np.bincount(draws, minlength=50)
        assert counts[0] == counts.max()
        assert counts[0] > 4 * counts[10]

    def test_zero_skew_is_uniform(self):
        rng = np.random.default_rng(6)
        draws = ZipfDist(20, s=0.0).sample(rng, 20_000)
        counts = np.bincount(draws, minlength=20)
        assert counts.min() > 0.7 * counts.max()

    def test_mean_matches_empirical(self):
        dist = ZipfDist(30, s=1.0)
        rng = np.random.default_rng(7)
        draws = dist.sample(rng, 50_000)
        assert abs(draws.mean() - dist.mean) < 0.2

    def test_invalid(self):
        with pytest.raises(DataGenError):
            ZipfDist(0)
        with pytest.raises(DataGenError):
            ZipfDist(10, s=-1)


class TestMakeDistribution:
    def test_kinds(self):
        assert isinstance(make_distribution("uniform", mean=5, low=1, high=10), UniformDist)
        assert isinstance(make_distribution("poisson", mean=5, low=1, high=10), PoissonDist)
        assert isinstance(make_distribution("zipf", mean=5, low=1, high=10), ZipfDist)

    def test_unknown_kind(self):
        with pytest.raises(DataGenError):
            make_distribution("cauchy", mean=5, low=1, high=10)

    def test_uniform_targets_mean(self):
        dist = make_distribution("uniform", mean=8, low=1, high=100)
        assert abs(dist.mean - 8) <= 1.0


class TestSyntheticConfig:
    def test_validation(self):
        with pytest.raises(DataGenError):
            SyntheticConfig(size=-1, avg_cardinality=4, domain=10)
        with pytest.raises(DataGenError):
            SyntheticConfig(size=10, avg_cardinality=0, domain=10)
        with pytest.raises(DataGenError):
            SyntheticConfig(size=10, avg_cardinality=4, domain=0)
        with pytest.raises(DataGenError):
            SyntheticConfig(size=10, avg_cardinality=20, domain=10)

    def test_with_seed(self):
        cfg = SyntheticConfig(size=10, avg_cardinality=4, domain=64, seed=1)
        assert cfg.with_seed(2).seed == 2
        assert cfg.with_seed(2).size == cfg.size

    def test_label(self):
        cfg = SyntheticConfig(size=10, avg_cardinality=4, domain=64, name="x")
        assert cfg.label() == "x"
        cfg2 = SyntheticConfig(size=10, avg_cardinality=4, domain=64)
        assert "|R|=10" in cfg2.label()


class TestGenerateRelation:
    def test_size_and_determinism(self):
        cfg = SyntheticConfig(size=200, avg_cardinality=8, domain=512, seed=9)
        a = generate_relation(cfg)
        b = generate_relation(cfg)
        assert len(a) == 200
        assert a == b

    def test_different_seeds_differ(self):
        cfg = SyntheticConfig(size=100, avg_cardinality=8, domain=512, seed=9)
        assert generate_relation(cfg) != generate_relation(cfg.with_seed(10))

    def test_average_cardinality_close_to_target(self):
        cfg = SyntheticConfig(size=2000, avg_cardinality=16, domain=4096, seed=11)
        st = compute_stats(generate_relation(cfg))
        assert abs(st.avg_cardinality - 16) < 1.5

    def test_elements_within_domain(self):
        cfg = SyntheticConfig(size=300, avg_cardinality=8, domain=100, seed=12)
        rel = generate_relation(cfg)
        assert rel.max_element() < 100

    def test_cardinality_at_least_one(self):
        cfg = SyntheticConfig(size=300, avg_cardinality=2, domain=50, seed=13)
        assert compute_stats(generate_relation(cfg)).min_cardinality >= 1

    def test_zipf_cardinality_is_right_skewed(self):
        cfg = SyntheticConfig(size=1500, avg_cardinality=64, domain=512,
                              cardinality_dist="zipf", seed=14)
        st = compute_stats(generate_relation(cfg))
        assert st.median_cardinality < st.avg_cardinality

    def test_zipf_elements_skew_popularity(self):
        cfg = SyntheticConfig(size=800, avg_cardinality=6, domain=400,
                              element_dist="zipf", seed=15)
        rel = generate_relation(cfg)
        counts: dict[int, int] = {}
        for rec in rel:
            for e in rec.elements:
                counts[e] = counts.get(e, 0) + 1
        top = max(counts.values())
        assert top > 10 * (sum(counts.values()) / len(counts))

    def test_dense_sets_saturating_domain(self):
        cfg = SyntheticConfig(size=50, avg_cardinality=10, domain=10, seed=16)
        rel = generate_relation(cfg)
        assert all(rec.cardinality <= 10 for rec in rel)

    def test_generate_pair_independent_seeds(self):
        cfg = SyntheticConfig(size=50, avg_cardinality=4, domain=128, seed=17)
        r, s = generate_pair(cfg)
        assert r != s
        assert len(r) == len(s) == 50


class TestSurrogates:
    @pytest.mark.parametrize("name", list(SURROGATE_SPECS))
    def test_shapes_match_table3(self, name):
        spec = SURROGATE_SPECS[name]
        rel = make_surrogate(name, 800, seed=18)
        st = compute_stats(rel)
        assert st.size == 800
        assert st.min_cardinality >= spec.min_cardinality
        # Mean and median within 25% of the published shape.
        assert abs(st.avg_cardinality - spec.mean_cardinality) < 0.25 * spec.mean_cardinality
        assert abs(st.median_cardinality - spec.median_cardinality) <= max(
            2.0, 0.25 * spec.median_cardinality
        )

    def test_relative_ordering_of_cardinalities(self):
        """flickr < orkut < twitter < webbase in average cardinality."""
        means = [
            compute_stats(make_surrogate(n, 300, seed=19)).avg_cardinality
            for n in ("flickr", "orkut", "twitter", "webbase")
        ]
        assert means == sorted(means)

    def test_twitter_domain_is_small(self):
        """Table III: twitter has d = 1318 despite medium cardinality."""
        st = compute_stats(make_surrogate("twitter", 500, seed=20))
        assert st.domain_cardinality < 10 * st.avg_cardinality

    def test_unknown_dataset(self):
        with pytest.raises(DataGenError):
            make_surrogate("netflix", 100)

    def test_invalid_size(self):
        with pytest.raises(DataGenError):
            make_surrogate("flickr", 0)

    def test_determinism(self):
        assert make_surrogate("flickr", 100, seed=3) == make_surrogate("flickr", 100, seed=3)

    def test_overshooting_last_batch_is_trimmed_not_topped_up(self):
        """A set that needs more than 64 Zipf batches can overshoot its
        cardinality in the last one; the uniform top-up must then be
        skipped (it used to ask for a negative number of elements)."""
        spec = SURROGATE_SPECS["twitter"]
        rel = make_surrogate("twitter", 1500, seed=42032)
        assert len(rel) == 1500
        assert min(rec.cardinality for rec in rel) >= spec.min_cardinality

    def test_surrogate_draws_are_pinned(self):
        """The same seed keeps yielding the same relation (goldens and
        benchmark data are built from these draws)."""
        assert make_surrogate("twitter", 300, seed=5).fingerprint() == (
            "rf1:bd418c89545cf5285c46b13945b9b8b0c849e79a7ee041620d553845c5ada86d"
        )

    def test_scaled_sizes_preserve_ratios(self):
        sizes = scaled_sizes(169)
        assert sizes["webbase"] == 169
        assert sizes["flickr"] == 3550
        assert sizes["orkut"] == 1850
        assert sizes["twitter"] == 370

    def test_twitter_from_graph(self):
        rel = twitter_surrogate(size=60, from_graph=True, seed=21)
        st = compute_stats(rel)
        assert st.size > 0
        assert st.min_cardinality >= 1
