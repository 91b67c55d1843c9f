"""Deterministic synthetic study areas with known construction years.

Each scene is a smooth patchwork of palette colors plus Gaussian noise.
Footprints are rotated rectangles; before their construction layer their
pixels come from the very same background process, and from it onward the
interior is painted in a roof color family absent from the background.
Optionally every layer is then divided into a few acquisition swaths, each
receiving its own monotone color transform (per-channel gain and offset),
imitating imagery collected on different days, by different sensors, or with
different corrections across the study area.

Placement tests each candidate's bounding box only against the placed boxes
in the neighbouring cells of a uniform grid, and builds a Polygon only for
an accepted candidate, so a rejected one is never validated. Each layer
draws the roof noise of all the footprints built by then in one call, in
polygon order, which yields the numbers of one call per footprint in turn,
and writes it with one indexed assignment, the later footprint winning where
two overlap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FootprintDataset
from .errors import SceneTooCrowded
from .geometry import AffineGeoTransform, Polygon, Scene, _pixel_windows, _window_masks
from .util import stable_seed

IDENTITY_TRANSFORM = AffineGeoTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

log = logging.getLogger("tcm")


@dataclass(frozen=True)
class SynthConfig:
    height: int = 256
    width: int = 256
    channels: int = 3
    layers: int = 5
    footprints: int = 200
    size_range: tuple[float, float] = (5.0, 10.0)  # rectangle side lengths, px
    # Probability that a footprint is first visible at layer 1..T; index 1
    # means the structure predates the series.
    year_weights: tuple[float, ...] = (0.30, 0.25, 0.20, 0.15, 0.10)
    palette: tuple[tuple[float, ...], ...] = (
        (58.0, 92.0, 48.0),
        (96.0, 128.0, 72.0),
        (130.0, 110.0, 70.0),
        (86.0, 74.0, 52.0),
    )
    noise_sigma: float = 6.0
    roof_base: tuple[float, ...] = (214.0, 212.0, 205.0)
    roof_jitter: float = 14.0
    # 0 disables the per-layer global transforms; 1 is the default severity.
    color_shift: float = 1.0
    margin: float = 12.0  # keep footprint bboxes this far from scene edges
    min_separation: float = 2.0
    start_year: int = 2016
    seed: int = 0

    def __post_init__(self):
        if len(self.year_weights) != self.layers:
            raise ValueError("year_weights must have one entry per layer")
        if abs(sum(self.year_weights) - 1.0) > 1e-9:
            raise ValueError("year_weights must sum to 1")
        if any(len(color) != self.channels for color in self.palette):
            raise ValueError("palette colors must match the channel count")
        if len(self.roof_base) != self.channels:
            raise ValueError("roof_base must match the channel count")
        if not 0 < self.size_range[0] <= self.size_range[1]:
            raise ValueError("size_range must be positive and ordered")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.start_year + t for t in range(self.layers))


def _rotated_rect(cx, cy, half_w, half_h, angle) -> tuple[tuple[float, float], ...]:
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    corners = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        x = sx * half_w * cos_a - sy * half_h * sin_a
        y = sx * half_w * sin_a + sy * half_h * cos_a
        corners.append((cx + x, cy + y))
    return tuple(corners)


def _place_footprints(config: SynthConfig) -> list[Polygon]:
    """Draw the footprints in order, each retried until its bounding box,
    grown by `min_separation`, is clear of every box placed before it.

    The placed boxes are filed in a uniform grid by their lower corner. A
    cell is wider than the largest box extent (a diagonal) plus the
    separation, so a box that a candidate could touch lies in the 3x3 cells
    around the candidate's own, and only those are tested. A candidate is
    drawn and tested as its corners; only an accepted one is built as a
    Polygon.
    """
    rng = np.random.default_rng(stable_seed(config.seed, "placement"))
    gap = config.min_separation
    reach = config.size_range[1] * math.sqrt(2.0) + max(gap, 0.0)
    # One unit wider than `reach` absorbs the rounding of corners and bounds;
    # a separation of inf or NaN puts every box in one cell.
    cell = reach + 1.0 if math.isfinite(reach) else math.inf
    grid: dict[tuple[int, int], list[tuple[float, float, float, float]]] = {}
    placed: list[Polygon] = []
    drawn = 0
    for i in range(config.footprints):
        for _ in range(5000):
            side_w = float(rng.uniform(*config.size_range))
            side_h = float(rng.uniform(*config.size_range))
            angle = float(rng.uniform(0.0, math.pi))
            radius = math.hypot(side_w, side_h) / 2.0
            lo_x = config.margin + radius
            hi_x = config.width - 1 - config.margin - radius
            lo_y = config.margin + radius
            hi_y = config.height - 1 - config.margin - radius
            if hi_x <= lo_x or hi_y <= lo_y:
                raise SceneTooCrowded("scene too small for the footprint size and margin")
            cx = float(rng.uniform(lo_x, hi_x))
            cy = float(rng.uniform(lo_y, hi_y))
            drawn += 1
            corners = _rotated_rect(cx, cy, side_w / 2, side_h / 2, angle)
            xs, ys = [x for x, _ in corners], [y for _, y in corners]
            x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)  # Polygon.bounds
            gx, gy = math.floor(x0 / cell), math.floor(y0 / cell)
            if _clear((x0, y0, x1, y1), gap, (box for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                                              for box in grid.get((gx + dx, gy + dy), ()))):
                placed.append(Polygon(id=f"fp-{i:04d}", exterior=corners))
                grid.setdefault((gx, gy), []).append((x0, y0, x1, y1))
                break
        else:
            raise SceneTooCrowded(
                f"placed {len(placed)} of {config.footprints} footprints before giving up")
    log.debug("placement drew %d candidates and rejected %d", drawn, drawn - len(placed))
    return placed


def _clear(box, gap: float, others) -> bool:
    """Whether `box` stays more than `gap` away from each of `others` along
    x or along y; boxes are (xmin, ymin, xmax, ymax)."""
    x0, y0, x1, y1 = box
    for bx0, by0, bx1, by1 in others:
        if not (x1 + gap < bx0 or bx1 + gap < x0 or y1 + gap < by0 or by1 + gap < y0):
            return False
    return True


def _background_classes(config: SynthConfig) -> np.ndarray:
    """Smooth (h, w) map assigning each pixel to a palette color."""
    rng = np.random.default_rng(stable_seed(config.seed, "background"))
    yy, xx = np.mgrid[0 : config.height, 0 : config.width].astype(np.float64)
    scores = np.empty((len(config.palette), config.height, config.width))
    for i in range(len(config.palette)):
        total = np.zeros((config.height, config.width))
        for _ in range(3):
            wavelength = float(rng.uniform(40.0, 160.0))
            angle = float(rng.uniform(0.0, 2 * math.pi))
            phase = float(rng.uniform(0.0, 2 * math.pi))
            amp = float(rng.uniform(0.5, 1.0))
            ux, uy = math.cos(angle) / wavelength, math.sin(angle) / wavelength
            total += amp * np.cos(2 * math.pi * (ux * xx + uy * yy) + phase)
        scores[i] = total + float(rng.normal(0.0, 0.05))
    return np.argmax(scores, axis=0)


def _footprint_masks(config: SynthConfig, polygons: Sequence[Polygon]) -> list[tuple]:
    """(row0, col0, mask) ready to paste onto the full scene grid."""
    if not polygons:
        return []
    bounds = np.array([p.bounds for p in polygons], dtype=np.float64)
    windows = _pixel_windows(bounds, IDENTITY_TRANSFORM).astype(np.int64)
    windows[:, [0, 2]] = np.maximum(windows[:, [0, 2]], 0)
    windows[:, 1] = np.minimum(windows[:, 1], config.height - 1)
    windows[:, 3] = np.minimum(windows[:, 3], config.width - 1)
    # 256 footprints per array pass keep its temporaries to a few MB.
    masks = [mask for i in range(0, len(polygons), 256)
             for mask in _window_masks(polygons[i : i + 256], IDENTITY_TRANSFORM,
                                       windows[i : i + 256])]
    return [(row0, col0, mask) for (row0, _, col0, _), mask in zip(windows.tolist(), masks)]


def _footprint_pixels(config: SynthConfig,
                      polygons: Sequence[Polygon]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat index on the scene grid of every footprint pixel, footprint
    after footprint in polygon order and each in row-major order; the index
    of the footprint that each belongs to; and whether another footprint
    covers that pixel too."""
    at = [(row0 + rows) * config.width + col0 + cols
          for row0, col0, mask in _footprint_masks(config, polygons)
          for rows, cols in [np.nonzero(mask)]]
    owner = np.repeat(np.arange(len(at)), [a.size for a in at])
    at = np.concatenate(at) if at else np.empty(0, np.int64)
    _, inverse, counts = np.unique(at, return_inverse=True, return_counts=True)
    return at, owner, counts[inverse] > 1


def _paste(flat: np.ndarray, at: np.ndarray, values: np.ndarray, shared: np.ndarray) -> None:
    """`flat[at] = values`, where a pixel named more than once in `at` (each
    such entry is marked in `shared`) keeps its last value."""
    flat[at] = values
    at, values = at[shared], values[shared]
    _, from_end = np.unique(at[::-1], return_index=True)
    last = at.size - 1 - from_end
    flat[at[last]] = values[last]


def _shift_layer(img: np.ndarray, config: SynthConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Split the layer into 2-3 swaths and color-transform each independently.

    Each swath gets a per-channel gain in 1 +/- 0.25*s and offset in
    +/- 35*s: a strictly increasing map, so within a swath only the palette
    changes, not which pixels resemble which. The RNG stream is consumed
    identically when shifts are disabled, keeping the rest of the dataset
    byte-identical when toggling color_shift.
    """
    h, w, _ = img.shape
    vertical = bool(rng.integers(2))
    n_swaths = int(rng.integers(2, 4))
    cuts = np.sort(rng.uniform(0.2, 0.8, n_swaths - 1))
    gains = 1.0 + rng.uniform(-0.25, 0.25, (n_swaths, config.channels)) * config.color_shift
    offsets = rng.uniform(-35.0, 35.0, (n_swaths, config.channels)) * config.color_shift
    if config.color_shift <= 0:
        return img
    size = w if vertical else h
    edges = [0] + [int(round(c * size)) for c in cuts] + [size]
    for i in range(n_swaths):
        lo, hi = edges[i], edges[i + 1]
        if lo >= hi:
            continue
        sel = (slice(None), slice(lo, hi)) if vertical else (slice(lo, hi), slice(None))
        img[sel] *= gains[i]
        img[sel] += offsets[i]
    return img


def generate(config: SynthConfig) -> FootprintDataset:
    """Build scenes, footprint polygons, and the hidden construction labels."""
    polygons = _place_footprints(config)

    label_rng = np.random.default_rng(stable_seed(config.seed, "labels"))
    first_indices = 1 + label_rng.choice(
        config.layers, size=len(polygons), p=np.asarray(config.year_weights))
    labels = {
        poly.id: (int(idx), config.years[int(idx) - 1])
        for poly, idx in zip(polygons, first_indices)
    }

    roof_rng = np.random.default_rng(stable_seed(config.seed, "roofs"))
    roof_colors = np.asarray(config.roof_base) + roof_rng.uniform(
        -config.roof_jitter, config.roof_jitter, (len(polygons), config.channels))

    classes = _background_classes(config)
    palette = np.asarray(config.palette, dtype=np.float64)
    pixels_at, owner, shared = _footprint_pixels(config, polygons)

    shift_rng = np.random.default_rng(stable_seed(config.seed, "shift"))
    scenes = []
    for t in range(1, config.layers + 1):
        layer_rng = np.random.default_rng(stable_seed(config.seed, "layer", t))
        img = layer_rng.normal(
            0.0, config.noise_sigma, (config.height, config.width, config.channels))
        img += palette[classes]
        # The roofs of the footprints built by layer t, in polygon order: one
        # draw gives the same numbers as one draw per footprint in turn.
        built = first_indices[owner] <= t
        roofs = layer_rng.normal(0.0, config.noise_sigma, (int(built.sum()), config.channels))
        roofs += roof_colors[owner[built]]
        _paste(img.reshape(-1, config.channels), pixels_at[built], roofs, shared[built])
        img = _shift_layer(img, config, shift_rng)
        pixels = np.clip(np.rint(img, out=img), 0, 255, out=img).astype(np.uint8)
        scenes.append(Scene(pixels=pixels, year=config.years[t - 1],
                            transform=IDENTITY_TRANSFORM))

    return FootprintDataset(scenes=scenes, polygons=polygons,
                            labels=labels if polygons else None)
