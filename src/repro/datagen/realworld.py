"""Surrogates for the paper's four real-world datasets (Sec. V-A2, Table III).

The originals (flickr tags, orkut communities, twitter k-bisimulation,
webbase outlinks) are multi-gigabyte downloads behind dead or offline
links, so — per this repository's substitution policy (DESIGN.md §3) —
each is *simulated*: a generator reproduces the dataset's published shape
(relation-size ratios, average and median set cardinality, domain
cardinality regime, Zipf-skewed element popularity) at a configurable
scale.  What the paper's Fig. 8 measures is precisely these shape regimes
(low / low-to-medium / medium / high set cardinality), which the
surrogates preserve:

=========  ==========  ======  ========  =========================
dataset    |R| (paper)  avg c  median c  d (paper)    regime
=========  ==========  ======  ========  =========================
flickr     3.55e6       5.36       4     6.19e5   low cardinality
orkut      1.85e6      57.16      22     1.53e7   low-to-medium
twitter    3.70e5      65.96      61     1318     medium, tiny domain
webbase    1.69e5     462.64     334     1.51e7   high cardinality
=========  ==========  ======  ========  =========================

Cardinalities are drawn from (shifted) log-normals fitted to the published
mean/median pairs; elements are Zipf-distributed over the scaled domain.
The twitter surrogate can alternatively be *derived* from an actual
k-bisimulation of a synthetic graph via
:func:`repro.datagen.bisimulation.kbisim_relation` (``from_graph=True``),
exercising the full pipeline of the paper's source [28].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datagen.bisimulation import kbisim_relation, random_power_law_digraph
from repro.datagen.distributions import ZipfDist
from repro.errors import DataGenError
from repro.relations.relation import Relation, SetRecord

__all__ = [
    "SurrogateSpec",
    "SURROGATE_SPECS",
    "make_surrogate",
    "flickr_surrogate",
    "orkut_surrogate",
    "twitter_surrogate",
    "webbase_surrogate",
]


@dataclass(frozen=True, slots=True)
class SurrogateSpec:
    """Shape parameters of one real-world surrogate.

    Attributes:
        name: Dataset name as in Table III.
        median_cardinality: Target median of the *excess* over ``min_card``.
        mean_cardinality: Target mean set cardinality.
        min_cardinality: Pruning threshold (paper: orkut >= 10, twitter
            >= 30, webbase > 200).
        domain_per_tuple: Scaled domain cardinality = this factor x size.
        element_skew: Zipf exponent for element popularity.
    """

    name: str
    median_cardinality: float
    mean_cardinality: float
    min_cardinality: int
    domain_per_tuple: float
    element_skew: float

    def lognormal_params(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the excess-over-minimum log-normal.

        A log-normal's median is ``exp(mu)`` and its mean
        ``exp(mu + sigma^2 / 2)``, so matching the published median and
        mean of ``c - min_card`` fixes both parameters.
        """
        median_excess = max(self.median_cardinality - self.min_cardinality, 1.0)
        mean_excess = max(self.mean_cardinality - self.min_cardinality, median_excess * 1.01)
        mu = math.log(median_excess)
        sigma = math.sqrt(2.0 * math.log(mean_excess / median_excess))
        return mu, sigma


#: Table III shapes.  ``domain_per_tuple`` is the paper's d / |R| ratio.
SURROGATE_SPECS: dict[str, SurrogateSpec] = {
    "flickr": SurrogateSpec("flickr", 4.0, 5.36, 1, 0.174, 1.0),
    "orkut": SurrogateSpec("orkut", 22.0, 57.16, 10, 8.27, 0.9),
    "twitter": SurrogateSpec("twitter", 61.0, 65.96, 30, 0.00356, 0.8),
    "webbase": SurrogateSpec("webbase", 334.0, 462.64, 201, 89.3, 1.0),
}

#: Paper relation sizes, used to scale the four datasets proportionally.
_PAPER_SIZES: dict[str, int] = {
    "flickr": 3_550_000,
    "orkut": 1_850_000,
    "twitter": 370_000,
    "webbase": 169_000,
}


def _draw_cardinalities(spec: SurrogateSpec, size: int, rng: np.random.Generator, domain: int) -> np.ndarray:
    mu, sigma = spec.lognormal_params()
    excess = rng.lognormal(mu, sigma, size=size)
    cards = spec.min_cardinality + np.floor(excess).astype(np.int64)
    return np.clip(cards, spec.min_cardinality, max(spec.min_cardinality, domain))


def make_surrogate(name: str, size: int, seed: int = 0) -> Relation:
    """Generate the ``name`` surrogate with ``size`` tuples.

    The domain scales with ``size`` through the dataset's published
    ``d / |R|`` ratio (with a floor so tiny test datasets stay non-trivial);
    element popularity is Zipf with the dataset's skew.

    Raises:
        DataGenError: For an unknown dataset name or non-positive size.
    """
    spec = SURROGATE_SPECS.get(name.strip().lower())
    if spec is None:
        raise DataGenError(
            f"unknown dataset {name!r}; available: {', '.join(SURROGATE_SPECS)}"
        )
    if size <= 0:
        raise DataGenError(f"size must be positive, got {size}")
    rng = np.random.default_rng(seed)
    domain = max(int(round(spec.domain_per_tuple * size)), 4 * spec.min_cardinality, 64)
    cards = _draw_cardinalities(spec, size, rng, domain)
    element_dist = ZipfDist(domain, s=spec.element_skew)
    records = []
    for i, k in enumerate(cards):
        k = int(k)
        if k >= domain:
            records.append(SetRecord(i, frozenset(range(domain))))
            continue
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < k:
            batch = element_dist.sample(rng, max(2 * (k - len(chosen)), 8))
            chosen.update(int(x) for x in batch)
            attempts += 1
            if attempts > 64:
                # Top up with uniform draws, unless the last Zipf batch
                # already overshot k (the trim below handles that case).
                if len(chosen) <= k:
                    remaining = np.setdiff1d(np.arange(domain), np.fromiter(chosen, dtype=np.int64))
                    chosen.update(
                        int(x) for x in rng.choice(remaining, size=k - len(chosen), replace=False)
                    )
                break
        if len(chosen) > k:
            kept = rng.choice(np.fromiter(sorted(chosen), dtype=np.int64), size=k, replace=False)
            chosen = {int(x) for x in kept}
        records.append(SetRecord(i, frozenset(chosen)))
    return Relation(records, name=f"{spec.name}-surrogate")


def scaled_sizes(base: int) -> dict[str, int]:
    """Per-dataset sizes preserving the paper's relative relation sizes.

    ``base`` is the size of the *smallest* dataset (webbase); the others
    scale by their Table III ratios.
    """
    smallest = _PAPER_SIZES["webbase"]
    return {
        name: max(1, round(base * paper_size / smallest))
        for name, paper_size in _PAPER_SIZES.items()
    }


def flickr_surrogate(size: int = 3000, seed: int = 0) -> Relation:
    """Low-cardinality photo/tag surrogate (paper: avg c 5.36, median 4)."""
    return make_surrogate("flickr", size, seed)


def orkut_surrogate(size: int = 1500, seed: int = 0) -> Relation:
    """Low-to-medium community-membership surrogate (avg c 57, median 22)."""
    return make_surrogate("orkut", size, seed)


def twitter_surrogate(size: int = 400, seed: int = 0, from_graph: bool = False) -> Relation:
    """Medium-cardinality, tiny-domain bisimulation surrogate.

    With ``from_graph=True`` the relation is *derived* — a synthetic
    power-law digraph is 5-bisimulated and encoded exactly as the paper's
    source pipeline [28]; otherwise the published shape is sampled
    directly (deterministic size, much faster).
    """
    if from_graph:
        graph = random_power_law_digraph(max(4 * size, 64), avg_out_degree=8.0, seed=seed)
        relation, _ = kbisim_relation(graph, k=5)
        pruned = relation.filter_cardinality(minimum=30)
        return pruned if len(pruned) > 0 else relation
    return make_surrogate("twitter", size, seed)


def webbase_surrogate(size: int = 170, seed: int = 0) -> Relation:
    """High-cardinality web-graph outlink surrogate (avg c 463, c > 200)."""
    return make_surrogate("webbase", size, seed)
