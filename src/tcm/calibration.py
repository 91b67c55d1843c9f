"""Label-free calibration of (k, r, theta).

Footprints known to hold structures at the final time step should score high
divergences; polygons dropped at random over the study area should score low
ones. For every (k, r) candidate we histogram both sample sets and measure
their overlap with the Bhattacharyya coefficient; the cell with the least
overlap wins, and theta is set at a high percentile of the random-polygon
divergences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DivergenceCache, divergence_store
from .errors import BinMismatch, PlacementFailed
from .geometry import Polygon
from .util import stable_seed

DEFAULT_N_RANDOM = 1000
DEFAULT_N_BINS = 50
DEFAULT_PERCENTILE = 98.0


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin histogram with unit total mass."""

    edges: np.ndarray  # (n_bins + 1,)
    masses: np.ndarray  # (n_bins,)

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=np.float64))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=np.float64))
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("histogram edges must be strictly increasing")
        if abs(self.masses.sum() - 1.0) > 1e-9:
            raise ValueError("histogram masses must sum to 1")


@dataclass(frozen=True)
class CalibrationCell:
    k: int
    r: float
    bc: float
    theta: float
    hist_p: Histogram
    hist_q: Histogram


@dataclass(frozen=True)
class CalibrationReport:
    cells: tuple[CalibrationCell, ...]
    chosen_k: int
    chosen_r: float
    chosen_theta: float
    seed: int
    n_random: int
    percentile: float


def make_histogram(samples: Sequence[float], n_bins: int, d_max: float) -> Histogram:
    """Histogram over [0, d_max]; values above d_max land in the last bin."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    if d_max <= 0:
        d_max = 1.0
    edges = np.linspace(0.0, d_max, n_bins + 1)
    counts, _ = np.histogram(np.clip(values, 0.0, d_max), bins=edges)
    return Histogram(edges=edges, masses=counts.astype(np.float64) / values.size)


def bhattacharyya(p: Histogram, q: Histogram) -> float:
    """Overlap of two identically-binned histograms, in [0, 1]."""
    if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
        raise BinMismatch("histograms use different bin edges")
    return float(np.sqrt(p.masses * q.masses).sum())


def percentile_threshold(samples: Sequence[float], pct: float = DEFAULT_PERCENTILE) -> float:
    """Nearest-rank percentile of the raw (unbinned) samples."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if values.size == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    rank = int(np.ceil(pct / 100.0 * values.size))
    return float(values[rank - 1])


def build_pq(
    footprint_series: Sequence,
    random_series: Sequence,
    n_bins: int = DEFAULT_N_BINS,
    d_max: Optional[float] = None,
) -> tuple[Histogram, Histogram]:
    """Histograms of footprint final-layer divergences (p) and of random-polygon
    divergences pooled over every layer (q), over a shared bin range.

    Each series is a row of values ending at the final layer (a footprint
    row may hold the final layer alone).
    """
    p_samples = np.array([s[-1] for s in footprint_series], dtype=np.float64)
    q_samples = np.concatenate([np.asarray(s, dtype=np.float64) for s in random_series])
    if p_samples.size == 0 or q_samples.size == 0:
        raise ValueError("both sample sets must be nonempty")
    if d_max is None:
        d_max = float(max(p_samples.max(), q_samples.max()))
    return make_histogram(p_samples, n_bins, d_max), make_histogram(q_samples, n_bins, d_max)


def sample_random_polygons(
    study_footprints: Sequence[Polygon],
    study_extent: tuple[float, float, float, float],
    n: int,
    seed: int,
    buffer: float = 0.0,
) -> list[Polygon]:
    """Drop n real footprint shapes at uniform random spots in the study extent.

    Reusing the observed shapes keeps the size/aspect distribution of the
    random set matched to the real one. Placements are rejected until the
    shape's bbox, expanded by `buffer`, fits inside the extent.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 random polygons, got {n}")
    xmin, ymin, xmax, ymax = study_extent
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("study extent is empty")
    rng = np.random.default_rng(stable_seed(seed, "random-polygons"))
    out: list[Polygon] = []
    for i in range(n):
        for _ in range(1000):
            shape = study_footprints[int(rng.integers(len(study_footprints)))]
            cx = float(rng.uniform(xmin, xmax))
            cy = float(rng.uniform(ymin, ymax))
            scx, scy = shape.centroid
            moved = shape.translated(cx - scx, cy - scy, new_id=f"rand-{i:05d}")
            bx0, by0, bx1, by1 = moved.bounds
            if (bx0 - buffer >= xmin and by0 - buffer >= ymin
                    and bx1 + buffer <= xmax and by1 + buffer <= ymax):
                out.append(moved)
                break
        else:
            raise PlacementFailed(f"no valid placement for random polygon {i} in 1000 attempts")
    return out


def calibrate(
    dataset,
    k_grid: Sequence[int],
    r_grid: Sequence[float],
    n_random: int = DEFAULT_N_RANDOM,
    n_bins: int = DEFAULT_N_BINS,
    pct: float = DEFAULT_PERCENTILE,
    seed: int = 0,
    cache: Optional[DivergenceCache] = None,
) -> CalibrationReport:
    """Grid-search (k, r) by Bhattacharyya overlap and pick theta from q.

    The random polygon set is sampled once (rejecting placements whose extent
    buffered by max(r_grid) would leave the imagery) and shared by every grid
    cell, so cells differ only in the parameters under test. Ties on the
    coefficient go to smaller k, then smaller r. Every divergence goes through
    `cache`, which sets the features, eps and workers (a default store when
    None), so later reads of the same store reuse the footprint values.
    """
    k_grid = sorted(set(int(k) for k in k_grid))
    r_grid = sorted(set(float(r) for r in r_grid))
    if not k_grid or not r_grid:
        raise ValueError("k_grid and r_grid must be nonempty")
    cache = divergence_store(cache, dataset, seed)
    if not dataset.polygons:
        raise ValueError("dataset has no footprints to calibrate on")

    extent = dataset.scenes[-1].world_extent()
    randoms = sample_random_polygons(dataset.polygons, extent, n_random, seed,
                                     buffer=max(r_grid))

    cells = []
    for r in r_grid:
        finals = cache.layer_values(k_grid, r, [dataset.n_layers - 1])
        random_rows = cache.polygon_series(randoms, k_grid, r)
        for k in k_grid:
            hist_p, hist_q = build_pq(finals[k], random_rows[k], n_bins)
            cells.append(CalibrationCell(
                k=k, r=r,
                bc=bhattacharyya(hist_p, hist_q),
                theta=percentile_threshold(random_rows[k].ravel(), pct),
                hist_p=hist_p, hist_q=hist_q,
            ))

    chosen = min(cells, key=lambda c: (c.bc, c.k, c.r))
    return CalibrationReport(
        cells=tuple(sorted(cells, key=lambda c: (c.k, c.r))),
        chosen_k=chosen.k,
        chosen_r=chosen.r,
        chosen_theta=chosen.theta,
        seed=seed,
        n_random=n_random,
        percentile=pct,
    )
