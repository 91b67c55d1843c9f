"""Deterministic synthetic study areas with known construction years.

Each scene is a smooth patchwork of palette colors plus Gaussian noise.
Footprints are rotated rectangles; before their construction layer their
pixels come from the very same background process, and from it onward the
interior is painted in a roof color family absent from the background.
Optionally every layer is then divided into a few acquisition swaths, each
receiving its own monotone color transform (per-channel gain and offset),
imitating imagery collected on different days, by different sensors, or with
different corrections across the study area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FootprintDataset
from .errors import SceneTooCrowded
from .geometry import AffineGeoTransform, Polygon, Scene, _pixel_windows, _window_masks
from .util import stable_seed

IDENTITY_TRANSFORM = AffineGeoTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


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
    rng = np.random.default_rng(stable_seed(config.seed, "placement"))
    placed: list[Polygon] = []
    boxes: list[tuple[float, float, float, float]] = []
    for i in range(config.footprints):
        for attempt in range(5000):
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
            poly = Polygon(id=f"fp-{i:04d}",
                           exterior=_rotated_rect(cx, cy, side_w / 2, side_h / 2, angle))
            x0, y0, x1, y1 = poly.bounds
            gap = config.min_separation
            if all(x1 + gap < bx0 or bx1 + gap < x0 or y1 + gap < by0 or by1 + gap < y0
                   for bx0, by0, bx1, by1 in boxes):
                placed.append(poly)
                boxes.append((x0, y0, x1, y1))
                break
        else:
            raise SceneTooCrowded(
                f"placed {len(placed)} of {config.footprints} footprints before giving up")
    return placed


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
        img[sel] = img[sel] * gains[i] + offsets[i]
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
    roof_colors = [
        np.asarray(config.roof_base) + roof_rng.uniform(-config.roof_jitter,
                                                        config.roof_jitter, config.channels)
        for _ in polygons
    ]

    classes = _background_classes(config)
    palette = np.asarray(config.palette, dtype=np.float64)
    masks = _footprint_masks(config, polygons)

    shift_rng = np.random.default_rng(stable_seed(config.seed, "shift"))
    scenes = []
    for t in range(1, config.layers + 1):
        layer_rng = np.random.default_rng(stable_seed(config.seed, "layer", t))
        img = palette[classes] + layer_rng.normal(
            0.0, config.noise_sigma, (config.height, config.width, config.channels))
        for poly_i, (poly, (row0, col0, mask)) in enumerate(zip(polygons, masks)):
            if labels[poly.id][0] > t:
                continue
            sel = mask.astype(bool)
            n_px = int(sel.sum())
            patch = roof_colors[poly_i] + layer_rng.normal(
                0.0, config.noise_sigma, (n_px, config.channels))
            block = img[row0 : row0 + mask.shape[0], col0 : col0 + mask.shape[1]]
            block[sel] = patch
        img = _shift_layer(img, config, shift_rng)
        pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        scenes.append(Scene(pixels=pixels, year=config.years[t - 1],
                            transform=IDENTITY_TRANSFORM))

    return FootprintDataset(scenes=scenes, polygons=polygons,
                            labels=labels if polygons else None)
