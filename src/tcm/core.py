"""Footprint-vs-neighborhood divergence over time and the first-crossing rule.

For each chip layer, pixels are clustered, the footprint and its neighborhood
are summarized as discrete distributions of cluster indices, and the layer's
score is the KL divergence between the two. A footprint is called developed
from the first layer whose divergence exceeds the decision threshold, and
from the last layer when none does; `first_crossings` is the rule's one
spelling. Because every layer is clustered on its own, the comparison is
immune to global color shifts between years. `DivergenceCache` is the one
store through which calibration, detection and evaluation read these
divergences, as read-only (n, T) tables whose rows follow its `ids`.

`layer_divergence` states one layer's computation and is its reference.
The store computes a request, one set of layers at some ks, as batches of
`BATCH` polygons: a batch's chips are cut from the scenes in array passes
(`extract_chips`), their features and seeds are made once for all k, one
`region_counts` call per k fits every layer of the batch and counts its
clusters per region, and the KL of every layer follows in one vectorized
step with the arithmetic of `cluster_distribution` and `kl_divergence`, so
the values are the same bits. The chips are dropped with their batch: the
store keeps only tables. With workers > 1, the batches run on a thread pool
(`run_tasks`) and each cuts its chips from the request's one stack of the
scenes. The store also counts the fits it made (`fit_stats`), merged in
batch order; the batch size is a constant, so neither the values nor the
counts depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clustering import (FitStats, PixelFeatureConfig, assign_features, extract_features,
                         fit_kmeans, region_counts)
from .data import FootprintDataset
from .errors import EmptyRegion, SupportMismatch
from .geometry import ChipStack, Polygon, extract_chips, stack_scenes
from .supervised import avg_color_series, color_over_time_features
from .util import run_tasks, stable_seed

DEFAULT_EPS = 1.0  # add-one smoothing keeps every KL finite
# Polygons per store task. Fixed, so that results and counters never depend
# on the worker count; small, so that a batch's float64 features stay a few
# MB at the stock radii (nine times that with spectral_window's 27 features).
BATCH = 32


@dataclass(frozen=True)
class DetectionResult:
    """Predicted first-developed layer for one footprint."""

    footprint_id: str
    index: int  # 1-based layer index
    year: int
    values: np.ndarray  # (T,) float64 divergences d_1..d_T, nats
    crossed: bool  # False means the fallback "last layer" answer was used


def cluster_distribution(
    cmap: np.ndarray,
    mask: np.ndarray,
    region: str,
    k: int,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Normalized histogram of cluster indices over one mask region.

    eps is added to every bin before normalizing so downstream KL stays finite
    even when a cluster never occurs in the region.
    """
    if region not in ("footprint", "neighborhood"):
        raise ValueError(f"region must be footprint|neighborhood, got {region!r}")
    selected = np.asarray(cmap)[np.asarray(mask) == (1 if region == "footprint" else 0)]
    if selected.size == 0:
        raise EmptyRegion(f"{region} region is empty")
    counts = np.bincount(selected.ravel(), minlength=k).astype(np.float64)
    counts += eps
    return counts / counts.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats, with 0*log(0/q) = 0. Infinite when q lacks support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise SupportMismatch(f"support sizes differ: {p.shape} vs {q.shape}")
    pos = p > 0
    with np.errstate(divide="ignore"):
        terms = p[pos] * (np.log(p[pos]) - np.log(q[pos]))
    return float(terms.sum())


def layer_divergence(
    chips: ChipStack,
    layer: int,
    k: int,
    feature_config: PixelFeatureConfig = PixelFeatureConfig(),
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> float:
    """Footprint-vs-neighborhood divergence of one chip layer (0-based).

    The layer's k-means fit is seeded from (seed, footprint_id, layer), so any
    single layer can be recomputed independently of the rest of the series.
    """
    image = chips.imagery[layer]
    feats = extract_features(image, feature_config)
    model = fit_kmeans(feats, k, stable_seed(seed, chips.footprint_id, layer))
    cmap = assign_features(model, feats).reshape(image.shape[:2])
    d_fp = cluster_distribution(cmap, chips.mask, "footprint", k, eps)
    d_nb = cluster_distribution(cmap, chips.mask, "neighborhood", k, eps)
    return kl_divergence(d_fp, d_nb)


def _kl_rows(counts: np.ndarray, eps: float) -> np.ndarray:
    """KL(footprint || neighborhood) of each layer's (2, k) cluster counts,
    with the arithmetic of `cluster_distribution` and `kl_divergence`."""
    dist = counts.astype(np.float64)
    dist += eps
    dist /= dist.sum(axis=2, keepdims=True)
    p = dist[:, 0]
    if not (p > 0).all():  # kl_divergence sums only the positive terms, in their order
        return np.array([kl_divergence(fp, nb) for fp, nb in dist])
    with np.errstate(divide="ignore"):
        logs = np.log(dist)
    return (p * (logs[:, 0] - logs[:, 1])).sum(axis=1)


def divergence_series(
    chips: ChipStack,
    k: int,
    feature_config: PixelFeatureConfig = PixelFeatureConfig(),
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """(T,) divergence of every chip layer, clustered independently per layer."""
    return _batch_divergences([chips], [k], range(chips.n_layers), feature_config, seed,
                              eps)[0][k][0]


def first_crossings(series: Sequence[Sequence[float]], theta: float) -> np.ndarray:
    """The decision rule for each row of an (n, T) series table: the smallest
    1-based index whose value exceeds theta (equal does not cross), else T."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("series is empty")
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    above = series > theta
    return np.where(above.any(axis=1), above.argmax(axis=1) + 1, series.shape[1])


def first_crossing(values: Sequence[float], theta: float) -> int:
    """`first_crossings` of one (T,) series."""
    return int(first_crossings([values], theta)[0])


def detect(
    chips: ChipStack,
    k: int,
    theta: float,
    feature_config: PixelFeatureConfig = PixelFeatureConfig(),
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> DetectionResult:
    """Run the full per-footprint decision: series, then first crossing."""
    values = divergence_series(chips, k, feature_config, seed, eps)
    index = first_crossing(values, theta)
    return DetectionResult(chips.footprint_id, index, chips.years[index - 1], values,
                           bool((values > theta).any()))


def _batch_divergences(chips: Sequence[ChipStack], ks: Sequence[int], layers: Sequence[int],
                       feature_config, seed, eps) -> tuple[dict[int, np.ndarray], FitStats]:
    """Per k of `ks`, the (chip, layer) divergences of a batch of chips over
    `layers`, and the counters of their fits.

    Each value equals `layer_divergence` of that chip layer. The region
    codes, features and seeds are made once for all k; each k then takes
    one `region_counts` call for the whole batch.
    """
    masks = np.concatenate([ch.mask.ravel() for ch in chips])
    codes = np.where(masks == 1, 0, np.where(masks == 0, 1, 2)).astype(np.uint8)
    sizes = np.array([ch.mask.size for ch in chips])
    starts = np.cumsum(sizes) - sizes
    for region, code in (("footprint", 0), ("neighborhood", 1)):
        if not np.logical_or.reduceat(codes == code, starts).all():
            raise EmptyRegion(f"{region} region is empty")
    layers = list(layers)
    n_layers, dim = len(layers), feature_config.dim(chips[0].imagery.shape[-1])
    feats = np.empty((n_layers * int(sizes.sum()), dim))
    for ch, start, n in zip(chips, (n_layers * starts).tolist(), sizes.tolist()):
        block = feats[start : start + n_layers * n].reshape(n_layers, n, dim)
        block[...] = extract_features(ch.imagery[layers], feature_config)
    seeds = np.array([stable_seed(seed, ch.footprint_id, l) for ch in chips for l in layers],
                     dtype=np.uint64)
    stats = FitStats()
    rows = {}
    for k in ks:
        counts, _, _, *fits = region_counts(feats, sizes, codes, k, seeds)
        rows[k] = _kl_rows(counts, eps).reshape(len(chips), n_layers)
        stats.add(*fits)
    return rows, stats


class DivergenceCache:
    """The one divergence store: every layer divergence is computed here.

    A footprint's value at (r, k, layer) depends only on those and on the
    store's seed, eps and feature config, so calibration, detection, splits
    and methods share it. Per-footprint values are rows of tables in `ids`
    order, the dataset's sorted polygon ids: one (n, T) table per (k, r), of
    which a request computes only the layers not done yet, and one table per
    colour feature and r. `series`, `avg_color` and `color_deltas` hand out
    those tables read-only. The store keeps tables, not chips: every request
    runs the one batch loop, `_batches`, which cuts the chips of `BATCH`
    polygons at a time and drops them once the batch's values are made.
    `workers` threads only speed up the first computation of a value.
    """

    def __init__(self, dataset: FootprintDataset,
                 feature_config: PixelFeatureConfig = PixelFeatureConfig(),
                 eps: float = DEFAULT_EPS, seed: int = 0, workers: int = 1):
        self.dataset = dataset
        self.feature_config = feature_config
        self.eps = eps
        self.seed = seed
        self.workers = workers
        self.ids = tuple(p.id for p in dataset.polygons)
        self._tables: dict[tuple[int, float], np.ndarray] = {}  # (k, r) -> (n, T)
        self._done: dict[tuple[int, float], set[int]] = {}  # the table's computed layers
        self._colors: dict[tuple[str, float], np.ndarray] = {}
        self.fit_stats = FitStats()  # every fit this store made, at any worker count

    def _batches(self, polygons: Sequence[Polygon], r: float, fn) -> list:
        """fn of the chips of each batch of `BATCH` polygons, in batch order:
        one task per batch, each cut from the request's one stack of the scenes."""
        scenes = stack_scenes(self.dataset.scenes)
        batches = [polygons[i : i + BATCH] for i in range(0, len(polygons), BATCH)]
        return run_tasks(lambda batch: fn(extract_chips(scenes, batch, r)), batches,
                         self.workers)

    def chips(self, r: float) -> dict[str, ChipStack]:
        """Every footprint's chips at r by id, cut afresh on each call."""
        batches = self._batches(self.dataset.polygons, float(r), list)
        return {ch.footprint_id: ch for batch in batches for ch in batch}

    def series(self, k: int, r: float) -> np.ndarray:
        """The (n, T) divergences, read-only, rows in `ids` order; repeat calls
        return the same array."""
        k, r = int(k), float(r)
        if len(self._done.get((k, r), ())) < self.dataset.n_layers:
            self.layer_values([k], r, range(self.dataset.n_layers))
        return self._tables[(k, r)]

    def layer_values(self, k_grid: Sequence[int], r: float,
                     layers: Sequence[int]) -> dict[int, np.ndarray]:
        """Per k, the divergences of every footprint (rows) at the given layers
        (columns). The ks that miss any of the layers take one computation of
        the layers that any of them misses, and a table turns read-only once
        every layer is done."""
        r, layers = float(r), list(layers)
        done = {k: self._done.setdefault((k, r), set()) for k in k_grid}
        ks = [k for k in k_grid if not done[k].issuperset(layers)]
        if ks:
            missing = [l for l in layers if any(l not in done[k] for k in ks)]
            computed = self._compute(self.dataset.polygons, r, ks, missing)
            n_layers = self.dataset.n_layers
            for k in ks:
                table = self._tables.setdefault((k, r), np.empty((len(self.ids), n_layers)))
                table[:, missing] = computed[k]
                done[k].update(missing)
                table.flags.writeable = len(done[k]) < n_layers
        return {k: self._tables[(k, r)][:, layers] for k in k_grid}

    def polygon_series(self, polygons: Sequence[Polygon], k_grid: Sequence[int],
                       r: float) -> dict[int, np.ndarray]:
        """Per k, the full series (rows) of polygons outside the dataset, such
        as calibration's random ones. Their chips and values are not kept, so
        they never mix with a footprint's, whatever its id."""
        return self._compute(polygons, float(r), k_grid, range(self.dataset.n_layers))

    def _compute(self, polygons: Sequence[Polygon], r: float, ks: Sequence[int],
                 layers: Sequence[int]) -> dict[int, np.ndarray]:
        """Per k, the (polygon, layer) table of the layers."""
        results = self._batches(polygons, r, lambda chips: _batch_divergences(
            chips, ks, layers, self.feature_config, self.seed, self.eps))
        for _, stats in results:
            self.fit_stats += stats
        return {k: np.concatenate([rows[k] for rows, _ in results]) for k in ks}

    def avg_color(self, r: float) -> np.ndarray:
        """`avg_color_series` of every footprint: (n, T), read-only, in `ids` order."""
        return self._color_table(avg_color_series, r)

    def color_deltas(self, r: float) -> np.ndarray:
        """`color_over_time_features` of every footprint: (n, T - 1), likewise."""
        return self._color_table(color_over_time_features, r)

    def _color_table(self, feature_fn, r: float) -> np.ndarray:
        key = (feature_fn.__name__, float(r))
        if key not in self._colors:
            rows = self._batches(self.dataset.polygons, float(r),
                                 lambda chips: [feature_fn(ch) for ch in chips])
            self._colors[key] = np.stack([row for batch in rows for row in batch])
            self._colors[key].flags.writeable = False
        return self._colors[key]


def divergence_store(cache: Optional[DivergenceCache], dataset: FootprintDataset,
                     seed: int) -> DivergenceCache:
    """The caller's store when it was built for this dataset and seed, else a
    new store with the default features, eps and one worker.

    Features, eps and workers are the store's own settings. A store for
    another dataset or seed is refused: the caller reads that dataset's
    labels and samples random polygons from that seed.
    """
    if cache is None:
        return DivergenceCache(dataset, seed=seed)
    differ = [name for name, same in (
        ("dataset", cache.dataset is dataset), ("seed", cache.seed == seed)) if not same]
    if differ:
        raise ValueError(f"the DivergenceCache passed was built with another {', '.join(differ)}")
    return cache
