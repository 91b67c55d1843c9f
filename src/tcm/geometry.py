"""Polygon handling, rasterization, and per-footprint chip extraction.

Coordinate conventions
----------------------
Polygons live in arbitrary planar world coordinates. An AffineGeoTransform
maps continuous pixel coordinates (col, row) to world (x, y); integer
(col, row) address pixel *centers*, and (c, f) is the world position of the
center of pixel (0, 0). Buffer radii are expressed in the polygon's own
coordinate units (meters for projected data, degrees for geographic data,
pixels for pixel-space polygons).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegeneratePolygon,
    EmptyFootprintMask,
    EmptyRegion,
    FootprintOutsideImagery,
    NonFinitePixels,
    SceneMismatch,
)

Point = tuple[float, float]
Ring = tuple[Point, ...]

_EPS = 1e-9


def _normalize_ring(ring: Sequence[Sequence[float]]) -> Ring:
    pts = [(float(x), float(y)) for x, y in ring]
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(set(pts)) < 3:
        raise DegeneratePolygon(f"ring needs >= 3 distinct vertices, got {len(set(pts))}")
    return tuple(pts)


def _closed(ring: Ring) -> np.ndarray:
    """(n + 1, 2) vertices of the ring, the first repeated at the end: edge i
    runs from row i to row i + 1."""
    return np.asarray(ring + ring[:1], dtype=np.float64)


def _ring_area(ring: Ring) -> float:
    """Signed shoelace area."""
    v = _closed(ring)
    x, y = v[:-1, 0], v[:-1, 1]
    return 0.5 * float(np.sum(x * v[1:, 1] - v[1:, 0] * y))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with optional holes.

    The exterior and hole rings are stored without the closing vertex; rings
    are closed implicitly. Construction rejects degenerate rings.
    """

    id: str
    exterior: Ring
    holes: tuple[Ring, ...] = ()
    label_year: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "exterior", _normalize_ring(self.exterior))
        object.__setattr__(self, "holes", tuple(_normalize_ring(h) for h in self.holes))
        if abs(_ring_area(self.exterior)) <= 0.0:
            raise DegeneratePolygon(f"polygon {self.id!r} has zero area")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the exterior ring."""
        v = np.asarray(self.exterior, dtype=np.float64)
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))

    @property
    def area(self) -> float:
        return abs(_ring_area(self.exterior)) - sum(abs(_ring_area(h)) for h in self.holes)

    @property
    def centroid(self) -> Point:
        """Area centroid of the exterior ring."""
        v = _closed(self.exterior)
        x, y, xn, yn = v[:-1, 0], v[:-1, 1], v[1:, 0], v[1:, 1]
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        cx = float(((x + xn) * cross).sum() / (6.0 * a))
        cy = float(((y + yn) * cross).sum() / (6.0 * a))
        return (cx, cy)

    def translated(self, dx: float, dy: float, new_id: Optional[str] = None) -> "Polygon":
        move = lambda ring: tuple((x + dx, y + dy) for x, y in ring)
        return Polygon(
            id=self.id if new_id is None else new_id,
            exterior=move(self.exterior),
            holes=tuple(move(h) for h in self.holes),
            label_year=None,
        )


@dataclass(frozen=True)
class AffineGeoTransform:
    """Affine map pixel (col, row) -> world (x, y), world-file convention.

    x = a*col + b*row + c ; y = d*col + e*row + f. The linear part must be
    invertible.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        if self.det == 0.0:
            raise ValueError("geotransform linear part is singular")

    @property
    def det(self) -> float:
        return self.a * self.e - self.b * self.d

    def pixel_to_world(self, col, row):
        col = np.asarray(col, dtype=np.float64)
        row = np.asarray(row, dtype=np.float64)
        return self.a * col + self.b * row + self.c, self.d * col + self.e * row + self.f

    def world_to_pixel(self, x, y):
        x = np.asarray(x, dtype=np.float64) - self.c
        y = np.asarray(y, dtype=np.float64) - self.f
        det = self.det
        col = (self.e * x - self.b * y) / det
        row = (self.a * y - self.d * x) / det
        return col, row

    def coefficients(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


@dataclass(frozen=True)
class Scene:
    """One co-registered raster layer of the study area."""

    pixels: np.ndarray  # (h, w, c)
    year: int
    transform: AffineGeoTransform

    def __post_init__(self):
        if self.pixels.ndim != 3 or min(self.pixels.shape) < 1:
            raise SceneMismatch(f"scene raster must be (h, w, c), got {self.pixels.shape}")
        if self.pixels.dtype.kind == "f" and not np.isfinite(self.pixels).all():
            raise NonFinitePixels(f"scene {self.year} holds NaN or infinite pixels")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape

    def world_extent(self) -> tuple[float, float, float, float]:
        """World bbox of the full pixel area (out to the outer pixel edges)."""
        h, w, _ = self.pixels.shape
        cols = np.array([-0.5, w - 0.5, -0.5, w - 0.5])
        rows = np.array([-0.5, -0.5, h - 0.5, h - 0.5])
        xs, ys = self.transform.pixel_to_world(cols, rows)
        return (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))


@dataclass(frozen=True)
class ChipStack:
    """Aligned per-footprint image time series plus the rasterized footprint mask."""

    footprint_id: str
    imagery: np.ndarray  # (T, h', w', c)
    mask: np.ndarray  # (h', w') uint8, 1 inside the footprint
    years: tuple[int, ...]
    buffer_radius: float

    def __post_init__(self):
        if self.imagery.ndim != 4:
            raise SceneMismatch(f"chip imagery must be (T, h, w, c), got {self.imagery.shape}")
        if self.mask.shape != self.imagery.shape[1:3]:
            raise SceneMismatch("mask shape does not match chip imagery")
        if len(self.years) != self.imagery.shape[0]:
            raise SceneMismatch("years length does not match chip count")
        if not self.mask.any():
            raise EmptyFootprintMask(f"footprint {self.footprint_id!r} has an empty mask")
        if self.mask.all():
            raise EmptyRegion(f"footprint {self.footprint_id!r} fills its chip; neighborhood is empty")

    @property
    def n_layers(self) -> int:
        return self.imagery.shape[0]


def buffered_extent(poly: Polygon, r: float) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box of the polygon expanded by r on every side."""
    if r <= 0:
        raise ValueError(f"buffer radius must be > 0, got {r}")
    xmin, ymin, xmax, ymax = poly.bounds
    return (xmin - r, ymin - r, xmax + r, ymax + r)


def _points_in_polygon(poly: Polygon, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd inclusion test for arrays of points; holes flip parity.

    A ring's edges are broadcast against the points as (edges, points)
    arrays. A horizontal edge divides by zero, but it crosses no point's
    horizontal, so its quotients are masked out.
    """
    inside = np.zeros(px.shape, dtype=bool)
    for ring in (poly.exterior, *poly.holes):
        v = _closed(ring)
        x1, y1 = v[:-1, 0, None], v[:-1, 1, None]
        x2, y2 = v[1:, 0, None], v[1:, 1, None]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
        inside ^= np.logical_xor.reduce(crosses & (px < xint), axis=0)
    return inside


def _window_for_extent(
    extent: tuple[float, float, float, float], transform: AffineGeoTransform
) -> tuple[int, int, int, int]:
    """Inclusive pixel window (row0, row1, col0, col1) whose centers cover extent."""
    xmin, ymin, xmax, ymax = extent
    xs = np.array([xmin, xmax, xmin, xmax])
    ys = np.array([ymin, ymin, ymax, ymax])
    cols, rows = transform.world_to_pixel(xs, ys)
    col0 = int(np.ceil(cols.min() - _EPS))
    col1 = int(np.floor(cols.max() + _EPS))
    row0 = int(np.ceil(rows.min() - _EPS))
    row1 = int(np.floor(rows.max() + _EPS))
    return row0, row1, col0, col1


def _window_points(transform: AffineGeoTransform, row0: int, col0: int, height: int,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """World (x, y) of the window's pixel centers, in row-major order."""
    xs, ys = transform.pixel_to_world(np.arange(col0, col0 + width),
                                      np.arange(row0, row0 + height)[:, None])
    return xs.ravel(), ys.ravel()


def _mask_for_points(poly: Polygon, xs: np.ndarray, ys: np.ndarray, height: int,
                     width: int) -> np.ndarray:
    return _points_in_polygon(poly, xs, ys).reshape(height, width).astype(np.uint8)


def _mask_for_window(
    poly: Polygon,
    transform: AffineGeoTransform,
    row0: int,
    col0: int,
    height: int,
    width: int,
) -> np.ndarray:
    xs, ys = _window_points(transform, row0, col0, height, width)
    return _mask_for_points(poly, xs, ys, height, width)


def extract_chip_stack(scenes: Sequence[Scene], poly: Polygon, r: float) -> ChipStack:
    """Crop every scene to the polygon's buffered extent and rasterize the mask.

    Scenes are sampled onto the grid of the *last* scene (nearest neighbor when
    geotransforms differ). Windows falling partly outside any scene are clipped
    to the common valid rectangle.
    """
    if len(scenes) == 0:
        raise SceneMismatch("need at least one scene")
    channels = scenes[0].pixels.shape[2]
    for sc in scenes[1:]:
        if sc.pixels.shape[2] != channels:
            raise SceneMismatch("scenes disagree on channel count")

    ref = scenes[-1]
    extent = buffered_extent(poly, r)
    row0, row1, col0, col1 = _window_for_extent(extent, ref.transform)

    # Scenes on the reference grid are cropped with slices, so the window
    # first shrinks to the pixels that all of them hold.
    on_grid = [sc.transform == ref.transform for sc in scenes]
    grid_h = min(sc.pixels.shape[0] for sc, same in zip(scenes, on_grid) if same)
    grid_w = min(sc.pixels.shape[1] for sc, same in zip(scenes, on_grid) if same)
    clipped = row0 < 0 or col0 < 0 or row1 >= grid_h or col1 >= grid_w
    row0, row1 = max(row0, 0), min(row1, grid_h - 1)
    col0, col1 = max(col0, 0), min(col1, grid_w - 1)
    if row1 < row0 or col1 < col0:
        raise FootprintOutsideImagery(f"footprint {poly.id!r} lies outside the imagery")

    # Nearest-neighbor source indices per resampled scene, shrinking the
    # window to the rectangle every scene can fill.
    while True:
        height, width = row1 - row0 + 1, col1 - col0 + 1
        xs, ys = _window_points(ref.transform, row0, col0, height, width)
        samplers = []
        valid = np.ones((height, width), dtype=bool)
        for sc, same in zip(scenes, on_grid):
            if same:
                continue
            pc, pr = sc.transform.world_to_pixel(xs, ys)
            src_c = np.floor(pc + 0.5).astype(np.int64).reshape(height, width)
            src_r = np.floor(pr + 0.5).astype(np.int64).reshape(height, width)
            h, w, _ = sc.pixels.shape
            valid &= (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
            samplers.append((src_r, src_c))
        if valid.all():
            break
        clipped = True
        ok_rows = np.nonzero(valid.any(axis=1))[0]
        ok_cols = np.nonzero(valid.any(axis=0))[0]
        if ok_rows.size == 0 or ok_cols.size == 0:
            raise FootprintOutsideImagery(f"footprint {poly.id!r} lies outside the imagery")
        new = (row0 + int(ok_rows[0]), row0 + int(ok_rows[-1]),
               col0 + int(ok_cols[0]), col0 + int(ok_cols[-1]))
        if new == (row0, row1, col0, col1):
            raise SceneMismatch(f"scenes overlap non-rectangularly around footprint {poly.id!r}")
        row0, row1, col0, col1 = new

    resampled = iter(samplers)
    chips = np.stack([
        sc.pixels[row0 : row1 + 1, col0 : col1 + 1] if same else sc.pixels[next(resampled)]
        for sc, same in zip(scenes, on_grid)
    ])

    mask = _mask_for_points(poly, xs, ys, height, width)
    if not mask.any():
        if clipped:
            raise FootprintOutsideImagery(f"clipping emptied the mask of footprint {poly.id!r}")
        raise EmptyFootprintMask(f"polygon {poly.id!r} covers no pixel center in the extent")

    return ChipStack(
        footprint_id=poly.id,
        imagery=chips,
        mask=mask,
        years=tuple(sc.year for sc in scenes),
        buffer_radius=float(r),
    )
