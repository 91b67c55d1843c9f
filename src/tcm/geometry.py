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

import math
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
    if not all(map(math.isfinite, (v for pt in pts for v in pt))):
        raise DegeneratePolygon("ring has a NaN or infinite vertex")
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
    """Signed shoelace area; inf or NaN where it overflows."""
    v = _closed(ring)
    x, y = v[:-1, 0], v[:-1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
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
        exterior = abs(_ring_area(self.exterior))
        if not math.isfinite(exterior - sum(abs(_ring_area(h)) for h in self.holes)):
            raise DegeneratePolygon(f"polygon {self.id!r} has an area past the float range")
        if exterior <= 0.0:
            raise DegeneratePolygon(f"polygon {self.id!r} has zero area")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the exterior ring."""
        xs, ys = zip(*self.exterior)
        return (min(xs), min(ys), max(xs), max(ys))

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
    invertible, with a finite determinant. A position past the float range
    maps to inf or NaN, which every window test takes as outside.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        if self.det == 0.0 or not math.isfinite(self.det):
            raise ValueError(f"geotransform linear part must be invertible with a finite "
                             f"determinant, got {self.det}")

    @property
    def det(self) -> float:
        return self.a * self.e - self.b * self.d

    def pixel_to_world(self, col, row):
        col = np.asarray(col, dtype=np.float64)
        row = np.asarray(row, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.a * col + self.b * row + self.c, self.d * col + self.e * row + self.f

    def world_to_pixel(self, x, y):
        x = np.asarray(x, dtype=np.float64) - self.c
        y = np.asarray(y, dtype=np.float64) - self.f
        det = self.det
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.e * x - self.b * y) / det, (self.a * y - self.d * x) / det

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


def _edge_table(polygons: Sequence[Polygon]) -> np.ndarray:
    """(4, P, E) x1, y1, x2, y2 of the ring edges of each polygon, its rings
    in order, padded to one edge count with NaN edges."""
    rings = [ring for p in polygons for ring in (p.exterior, *p.holes)]
    owner = np.repeat(np.arange(len(polygons)), [1 + len(p.holes) for p in polygons])
    sizes = np.array([len(ring) for ring in rings])
    closed = np.array([pt for ring in rings for pt in ring + ring[:1]], dtype=np.float64)
    # An edge runs from each row of `closed` to the next, except from a
    # ring's closing vertex to the next ring.
    opens_edge = np.ones(len(closed) - 1, dtype=bool)
    opens_edge[np.cumsum(sizes + 1)[:-1] - 1] = False
    x1, y1 = closed[:-1][opens_edge].T
    x2, y2 = closed[1:][opens_edge].T
    edge_owner = np.repeat(owner, sizes)
    per_polygon = np.bincount(edge_owner, minlength=len(polygons))
    slot = np.arange(edge_owner.size) - np.repeat(np.cumsum(per_polygon) - per_polygon,
                                                  per_polygon)
    edges = np.full((4, len(polygons), int(per_polygon.max())), np.nan)
    edges[:, edge_owner, slot] = (x1, y1, x2, y2)
    return edges


def _points_in_polygons(edges: np.ndarray, sizes: Sequence[int], px: np.ndarray,
                        py: np.ndarray) -> np.ndarray:
    """Even-odd inclusion of points (px, py) in the polygons of an
    `_edge_table`: the first sizes[0] points in polygon 0, the next sizes[1]
    in polygon 1, and so on. Holes flip parity.

    Each edge slot is tested at once against the points of the polygons up
    to the last one that has an edge there; a NaN edge that pads a shorter
    polygon crosses no point's horizontal. With the polygons in descending
    order of edge count, the cost is the sum over them of edges times
    points. A horizontal edge divides by zero, but it crosses no point's
    horizontal either, so its quotients are masked out; so is a quotient that
    overflows, whose point lies far above or below the edge.
    """
    has_edge = ~np.isnan(edges[0])  # (P, E)
    last = len(has_edge) - np.argmax(has_edge[::-1], axis=0)  # polygons tested per slot
    ends = np.cumsum(sizes).tolist()
    inside = np.zeros(px.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for slot, n_poly in enumerate(last.tolist()):
            n = ends[n_poly - 1]
            x1, y1, x2, y2 = np.repeat(edges[:, :n_poly, slot], sizes[:n_poly], axis=1)
            qx, qy = px[:n], py[:n]
            crosses = (y1 > qy) != (y2 > qy)
            xint = x1 + (qy - y1) / (y2 - y1) * (x2 - x1)
            inside[:n] ^= crosses & (qx < xint)
    return inside


def _pixel_windows(extents: np.ndarray, transform: AffineGeoTransform) -> np.ndarray:
    """(P, 4) row0, row1, col0, col1 of the inclusive pixel windows whose
    centers cover each (xmin, ymin, xmax, ymax) extent, as whole floats."""
    cols, rows = transform.world_to_pixel(extents[:, [0, 2, 0, 2]], extents[:, [1, 1, 3, 3]])
    return np.stack([np.ceil(rows.min(axis=1) - _EPS), np.floor(rows.max(axis=1) + _EPS),
                     np.ceil(cols.min(axis=1) - _EPS), np.floor(cols.max(axis=1) + _EPS)],
                    axis=1)


def _window_points(transform: AffineGeoTransform, row0: int, col0: int, height: int,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """World (x, y) of the window's pixel centers, in row-major order."""
    xs, ys = transform.pixel_to_world(np.arange(col0, col0 + width),
                                      np.arange(row0, row0 + height)[:, None])
    return xs.ravel(), ys.ravel()


def _window_masks(polygons: Sequence[Polygon], transform: AffineGeoTransform,
                  windows: np.ndarray) -> list[np.ndarray]:
    """(h, w) uint8 mask of each polygon over its inclusive pixel window
    (row0, row1, col0, col1): 1 where a pixel center lies inside. One array
    pass over the pixels of all the windows, the polygons taken in
    descending order of edge count."""
    n_edges = [len(p.exterior) + sum(map(len, p.holes)) for p in polygons]
    order = np.argsort(np.negative(n_edges), kind="stable")
    row0, row1, col0, col1 = np.asarray(windows, dtype=np.int64)[order].T
    heights, widths = row1 - row0 + 1, col1 - col0 + 1
    sizes = heights * widths
    owner = np.repeat(np.arange(len(polygons)), sizes)
    local = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    xs, ys = transform.pixel_to_world(col0[owner] + local % widths[owner],
                                      row0[owner] + local // widths[owner])
    edges = _edge_table([polygons[i] for i in order.tolist()])
    flat = _points_in_polygons(edges, sizes, xs, ys).astype(np.uint8)
    masks = [flat[end - h * w : end].reshape(h, w)
             for end, h, w in zip(np.cumsum(sizes).tolist(), heights.tolist(), widths.tolist())]
    return [masks[i] for i in np.argsort(order).tolist()]


@dataclass(frozen=True)
class SceneStack:
    """The scenes read on the grid of the last one, so that a chip has one
    pixel window in every layer.

    No pixel is copied here. Scenes on that grid are sliced; the others are
    sampled onto it by nearest neighbor over each chip's window when the chip
    is cut, so a chip costs the pixels of its window, whatever the scene size.
    """

    scenes: tuple[Scene, ...]
    on_grid: tuple[bool, ...]
    grid_shape: tuple[int, int]  # (h, w) that every scene on the grid holds

    @property
    def transform(self) -> AffineGeoTransform:
        return self.scenes[-1].transform

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(sc.year for sc in self.scenes)


def stack_scenes(scenes: Sequence[Scene]) -> SceneStack:
    """The scenes on the grid of the last one, in their order."""
    if len(scenes) == 0:
        raise SceneMismatch("need at least one scene")
    channels = scenes[0].pixels.shape[2]
    for sc in scenes[1:]:
        if sc.pixels.shape[2] != channels:
            raise SceneMismatch("scenes disagree on channel count")
    on_grid = tuple(sc.transform == scenes[-1].transform for sc in scenes)
    grid_h = min(sc.pixels.shape[0] for sc, same in zip(scenes, on_grid) if same)
    grid_w = min(sc.pixels.shape[1] for sc, same in zip(scenes, on_grid) if same)
    return SceneStack(tuple(scenes), on_grid, (grid_h, grid_w))


def _resample_window(stack: SceneStack, window: tuple[int, int, int, int], poly_id: str
                     ) -> tuple[tuple[int, int, int, int], list[tuple[np.ndarray, np.ndarray]]]:
    """The window shrunk to the rectangle that every off-grid scene fills,
    and each such scene's nearest-neighbor (rows, cols) source pixels over it.
    Whether a pixel is filled depends on that pixel alone: after one shrink to
    the rows and columns that hold a filled pixel, either all are filled or
    the overlap is not a rectangle."""
    row0, row1, col0, col1 = window
    height, width = row1 - row0 + 1, col1 - col0 + 1
    xs, ys = _window_points(stack.transform, row0, col0, height, width)
    valid, sources = np.ones((height, width), dtype=bool), []
    for sc, same in zip(stack.scenes, stack.on_grid):
        if not same:  # the source pixel is the floor of (row, col) + 0.5
            pc, pr = (p.reshape(height, width) + 0.5 for p in sc.transform.world_to_pixel(xs, ys))
            # floor(p) lies in [0, n) when p does; inf and NaN fail here, before any cast
            valid &= (pr >= 0) & (pr < sc.pixels.shape[0]) & (pc >= 0) & (pc < sc.pixels.shape[1])
            sources.append((pr, pc))
    rows, cols = np.flatnonzero(valid.any(axis=1)), np.flatnonzero(valid.any(axis=0))
    if rows.size == 0:
        raise FootprintOutsideImagery(f"footprint {poly_id!r} lies outside the imagery")
    keep = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    if not valid[keep].all():
        raise SceneMismatch(f"scenes overlap non-rectangularly around footprint {poly_id!r}")
    samplers = [tuple(np.floor(p[keep]).astype(np.int64) for p in src) for src in sources]
    return (row0 + int(rows[0]), row0 + int(rows[-1]), col0 + int(cols[0]),
            col0 + int(cols[-1])), samplers


def extract_chips(stack: SceneStack, polygons: Sequence[Polygon], r: float) -> list[ChipStack]:
    """Each polygon's chip: the scenes cropped to the polygon's buffered
    extent, and its rasterized mask.

    Windows falling partly outside the scenes are clipped to the common
    valid rectangle. The windows and masks of all the polygons are computed
    in array passes; each chip's imagery is its own (T, h, w, c) array.
    Raises the error of the first polygon, in order, whose chip cannot be
    cut.
    """
    if not polygons:
        return []
    grid_h, grid_w = stack.grid_shape
    extents = np.array([buffered_extent(p, r) for p in polygons], dtype=np.float64)
    window = _pixel_windows(extents, stack.transform)
    clipped = ((window[:, 0] < 0) | (window[:, 2] < 0) | (window[:, 1] >= grid_h)
               | (window[:, 3] >= grid_w))
    # Clipped to the grid, or past its far side when the window misses it.
    window[:, 0] = np.clip(window[:, 0], 0, grid_h)
    window[:, 1] = np.clip(window[:, 1], -1, grid_h - 1)
    window[:, 2] = np.clip(window[:, 2], 0, grid_w)
    window[:, 3] = np.clip(window[:, 3], -1, grid_w - 1)
    # NaN, from a position past the float range, compares as outside.
    outside = ~((window[:, 1] >= window[:, 0]) & (window[:, 3] >= window[:, 2]))
    window[outside] = 0  # one pixel, so that the array passes below stay uniform
    window = window.astype(np.int64)
    failed = {i: FootprintOutsideImagery(f"footprint {polygons[i].id!r} lies outside the "
                                         f"imagery") for i in np.flatnonzero(outside).tolist()}
    samplers = {}
    if not all(stack.on_grid):
        for i, poly in enumerate(polygons):
            if i in failed:
                continue
            try:
                shrunk, samplers[i] = _resample_window(stack, tuple(window[i].tolist()), poly.id)
            except (FootprintOutsideImagery, SceneMismatch) as exc:
                failed[i] = exc
                window[i] = 0
                continue
            clipped[i] |= shrunk != tuple(window[i].tolist())
            window[i] = shrunk

    masks = _window_masks(polygons, stack.transform, window)
    years = stack.years
    layers = [sc.pixels for sc in stack.scenes]
    dtype, channels = np.result_type(*layers), layers[0].shape[2]
    chips = []
    for i, (poly, (r0, r1, c0, c1), mask) in enumerate(zip(polygons, window.tolist(), masks)):
        if i in failed:
            raise failed[i]
        if not mask.any():
            if clipped[i]:
                raise FootprintOutsideImagery(
                    f"clipping emptied the mask of footprint {poly.id!r}")
            raise EmptyFootprintMask(
                f"polygon {poly.id!r} covers no pixel center in the extent")
        imagery = np.empty((len(layers), r1 - r0 + 1, c1 - c0 + 1, channels), dtype)
        resampled = iter(samplers.get(i, ()))
        for out, pixels, same in zip(imagery, layers, stack.on_grid):
            out[...] = pixels[r0 : r1 + 1, c0 : c1 + 1] if same else pixels[next(resampled)]
        chips.append(ChipStack(
            footprint_id=poly.id,
            imagery=imagery,
            mask=mask,
            years=years,
            buffer_radius=float(r),
        ))
    return chips


def extract_chip_stack(scenes: Sequence[Scene], poly: Polygon, r: float) -> ChipStack:
    """Crop every scene to the polygon's buffered extent and rasterize the mask.

    Scenes are sampled onto the grid of the *last* scene (nearest neighbor when
    geotransforms differ). Windows falling partly outside any scene are clipped
    to the common valid rectangle. This is `extract_chips` of one polygon; it
    reads only the pixels of the polygon's window.
    """
    return extract_chips(stack_scenes(scenes), [poly], r)[0]
