import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import oracle_mask

from tcm.errors import (
    DegeneratePolygon,
    EmptyFootprintMask,
    EmptyRegion,
    FootprintOutsideImagery,
    SceneMismatch,
)
from tcm.cli import main
from tcm.formats import write_polygons_geojson, write_scene
from tcm.geometry import (
    AffineGeoTransform,
    Polygon,
    Scene,
    _edge_table,
    _pixel_windows,
    _points_in_polygons,
    _window_masks,
    buffered_extent,
    extract_chip_stack,
)

IDENTITY = AffineGeoTransform(1, 0, 0, 0, 1, 0)
# Grid whose pixel corners sit on integer coordinates (centers at half-integers).
CORNER_ALIGNED = AffineGeoTransform(1, 0, 0.5, 0, 1, 0.5)

SQUARE10 = Polygon("sq", [(0, 0), (10, 0), (10, 10), (0, 10)])


def window_mask(poly, transform, row0, col0, height, width):
    """The polygon's mask over the window with top-left pixel (row0, col0)."""
    window = [[row0, row0 + height - 1, col0, col0 + width - 1]]
    return _window_masks([poly], transform, window)[0]


def points_in_polygon(poly, px, py):
    return _points_in_polygons(_edge_table([poly]), [px.size], px, py)


class TestPolygon:
    def test_closing_vertex_dropped(self):
        poly = Polygon("p", [(0, 0), (1, 0), (1, 1), (0, 0)])
        assert poly.exterior == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))

    def test_too_few_vertices(self):
        with pytest.raises(DegeneratePolygon):
            Polygon("p", [(0, 0), (1, 1)])

    def test_zero_area(self):
        with pytest.raises(DegeneratePolygon):
            Polygon("p", [(0, 0), (1, 1), (2, 2)])

    def test_centroid_of_square(self):
        assert SQUARE10.centroid == pytest.approx((5.0, 5.0))

    def test_area_with_hole(self):
        poly = Polygon("p", [(0, 0), (10, 0), (10, 10), (0, 10)],
                       holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        assert poly.area == pytest.approx(96.0)

    @pytest.mark.parametrize("ring, hole", [
        ([(0, 0), (1e308, 0), (1e308, 20), (0, 20)], None),
        ([(0, 0), (10, 0), (10, 1e308), (0, 10)], None),
        ([(0, 0), (10, 0), (10, 10), (0, 10)], [(1, 1), (1e308, 1), (1e308, 1e308), (1, 2)]),
    ])
    def test_area_past_the_float_range(self, ring, hole):
        # Finite vertices whose shoelace products overflow to inf or NaN.
        with pytest.raises(DegeneratePolygon, match="float range"):
            Polygon("p", ring, holes=[hole] if hole else [])


class TestBufferedExtent:
    def test_square_r5(self):
        assert buffered_extent(SQUARE10, 5) == (-5, -5, 15, 15)

    def test_triangle_r_half(self):
        tri = Polygon("t", [(0, 0), (4, 0), (0, 4)])
        assert buffered_extent(tri, 0.5) == (-0.5, -0.5, 4.5, 4.5)

    def test_square_r100(self):
        assert buffered_extent(SQUARE10, 100) == (-100, -100, 110, 110)

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            buffered_extent(SQUARE10, 0)


class TestRasterize:
    def test_square_fills_grid(self):
        assert _pixel_windows(np.array([[0, 0, 10, 10]]), CORNER_ALIGNED).tolist() == [
            [0, 9, 0, 9]]
        mask = window_mask(SQUARE10, CORNER_ALIGNED, 0, 0, 10, 10)
        assert mask.shape == (10, 10)
        assert mask.sum() == 100

    def test_square_with_hole(self):
        poly = Polygon("p", [(0, 0), (10, 0), (10, 10), (0, 10)],
                       holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        assert window_mask(poly, CORNER_ALIGNED, 0, 0, 10, 10).sum() == 96

    def test_polygon_outside_extent(self):
        far = Polygon("far", [(100, 100), (105, 100), (105, 105), (100, 105)])
        assert not window_mask(far, CORNER_ALIGNED, 0, 0, 10, 10).any()
        # Inside the imagery but between pixel centers: a chip with no footprint.
        between = Polygon("between", [(5.1, 5.1), (5.4, 5.1), (5.4, 5.4), (5.1, 5.4)])
        with pytest.raises(EmptyFootprintMask):
            extract_chip_stack([make_scene(2000, size=(12, 12), seed=0)], between, 0.2)

    def test_matches_oracle_on_random_polygons(self):
        # 100 randomized simple polygons (convex and star-shaped) on small grids.
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            n_vert = int(rng.integers(3, 11))
            angles = np.sort(rng.uniform(0, 2 * math.pi, n_vert))
            if trial % 2 == 0:
                ax, bx = rng.uniform(3, 20, 2)
                radii = np.full(n_vert, 1.0)
                xs = ax * radii * np.cos(angles)
                ys = bx * radii * np.sin(angles)
            else:
                radii = rng.uniform(2, 20, n_vert)
                xs = radii * np.cos(angles)
                ys = radii * np.sin(angles)
            cx, cy = rng.uniform(-5, 5, 2)
            try:
                poly = Polygon(f"r{trial}", list(zip(xs + cx, ys + cy)))
            except DegeneratePolygon:
                continue
            res = float(rng.choice([0.5, 1.0, 2.0]))
            origin = rng.uniform(-3, 3, 2)
            transform = AffineGeoTransform(res, 0, origin[0], 0, res, origin[1])
            size = int(rng.integers(8, 65))
            row0, col0 = int(rng.integers(-40, 0)), int(rng.integers(-40, 0))
            mask = window_mask(poly, transform, row0, col0, size, size)
            expect = oracle_mask(poly, transform, row0, col0, size, size)
            assert np.array_equal(mask, expect), f"trial {trial} disagrees with oracle"

    def test_matches_oracle_on_rotated_grid(self):
        transform = AffineGeoTransform(0.8, -0.6, 2.0, 0.6, 0.8, -1.0)
        poly = Polygon("rot", [(1.3, 0.2), (7.9, 1.1), (6.2, 8.3), (0.4, 6.7)])
        mask = window_mask(poly, transform, -10, -10, 24, 24)
        expect = oracle_mask(poly, transform, -10, -10, 24, 24)
        assert np.array_equal(mask, expect)


def rotated(size, angle):
    """A transform that turns a size x size grid by angle about its center."""
    cos, sin, mid = math.cos(angle), math.sin(angle), (size - 1) / 2
    return AffineGeoTransform(cos, -sin, mid - (cos - sin) * mid, sin, cos,
                              mid - (sin + cos) * mid)


def make_scene(year, value=0, size=(32, 32), channels=3, transform=IDENTITY, seed=None):
    if seed is None:
        pixels = np.full((*size, channels), value, dtype=np.uint8)
    else:
        pixels = np.random.default_rng(seed).integers(0, 255, (*size, channels), dtype=np.uint8)
    return Scene(pixels=pixels, year=year, transform=transform)


# Covers pixel centers 5..8 in both axes: a 4x4-pixel footprint.
PIXEL_SQUARE = Polygon("px", [(4.5, 4.5), (8.5, 4.5), (8.5, 8.5), (4.5, 8.5)])


class TestExtractChipStack:
    def test_pixel_square_chip_geometry(self):
        scenes = [make_scene(2000 + i, seed=i) for i in range(3)]
        chips = extract_chip_stack(scenes, PIXEL_SQUARE, 2.0)
        assert chips.imagery.shape == (3, 8, 8, 3)
        assert chips.mask.sum() == 16
        assert chips.years == (2000, 2001, 2002)
        assert chips.buffer_radius == 2.0

    def test_five_scene_world_coordinates(self):
        # 10 m/px grid; a 100 m footprint buffered by 100 m.
        transform = AffineGeoTransform(10, 0, 0, 0, 10, 0)
        scenes = [make_scene(2011 + 2 * i, size=(60, 60), transform=transform, seed=i)
                  for i in range(5)]
        poly = Polygon("barn", [(200, 200), (300, 200), (300, 300), (200, 300)])
        chips = extract_chip_stack(scenes, poly, 100.0)
        assert chips.n_layers == 5
        assert chips.mask.any() and not chips.mask.all()

    def test_neighborhood_empty_is_error(self):
        scenes = [make_scene(2000, size=(6, 6), seed=0)]
        whole = Polygon("all", [(-1, -1), (6, -1), (6, 6), (-1, 6)])
        with pytest.raises(EmptyRegion):
            extract_chip_stack(scenes, whole, 1.0)

    def test_footprint_outside_imagery(self):
        scenes = [make_scene(2000, size=(8, 8), seed=0)]
        far = Polygon("far", [(50, 50), (55, 50), (55, 55), (50, 55)])
        with pytest.raises(FootprintOutsideImagery):
            extract_chip_stack(scenes, far, 2.0)

    def test_clipping_keeps_partial_footprint(self):
        scenes = [make_scene(2000, size=(8, 8), seed=0)]
        # Straddles the left edge; inside part covers centers 0..1.
        poly = Polygon("edge", [(-4.5, 0.5), (1.5, 0.5), (1.5, 2.5), (-4.5, 2.5)])
        chips = extract_chip_stack(scenes, poly, 1.0)
        assert chips.mask.any()
        assert chips.imagery.shape[1:3] == chips.mask.shape

    def test_mask_independent_of_scene_values(self):
        a = [make_scene(2000 + i, seed=10 + i) for i in range(2)]
        b = [make_scene(2000 + i, seed=90 + i) for i in range(4)]
        mask_a = extract_chip_stack(a, PIXEL_SQUARE, 2.0).mask
        mask_b = extract_chip_stack(b, PIXEL_SQUARE, 2.0).mask
        assert np.array_equal(mask_a, mask_b)

    def test_deterministic(self):
        scenes = [make_scene(2000 + i, seed=i) for i in range(3)]
        c1 = extract_chip_stack(scenes, PIXEL_SQUARE, 2.0)
        c2 = extract_chip_stack(scenes, PIXEL_SQUARE, 2.0)
        assert c1.imagery.tobytes() == c2.imagery.tobytes()
        assert c1.mask.tobytes() == c2.mask.tobytes()

    def test_resampling_that_empties_the_mask_is_outside_imagery(self):
        # The 12x12 scene, 0.2 px off the 20x20 reference grid, covers columns
        # 0..11 only: the window (columns 10..15) shrinks to 10..11, which
        # holds none of the footprint's pixel centers (columns 12 and 13).
        scenes = [make_scene(2000, size=(12, 12), seed=0,
                             transform=AffineGeoTransform(1, 0, 0.2, 0, 1, 0.2)),
                  make_scene(2001, size=(20, 20), seed=1)]
        poly = Polygon("past_the_edge", [(11.6, 4.6), (13.4, 4.6), (13.4, 6.4), (11.6, 6.4)])
        assert extract_chip_stack(scenes[1:], poly, 2.0).mask.sum() == 4
        with pytest.raises(FootprintOutsideImagery, match="clipping emptied"):
            extract_chip_stack(scenes, poly, 2.0)

    def test_geotransform_without_a_finite_determinant(self):
        with pytest.raises(ValueError, match="finite determinant"):
            AffineGeoTransform(1e308, 0, 0, 0, 1e308, 0)
        with pytest.raises(ValueError, match="finite determinant"):
            AffineGeoTransform(1, 2, 0, 2, 4, 0)

    @pytest.mark.parametrize("entry", range(6))
    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("scene", [0, 1], ids=["off_grid", "grid"])
    def test_transform_past_the_float_range_is_outside(self, entry, value, scene):
        # The pixel positions overflow to inf or NaN or lie past int64; they
        # compare as outside before any cast, without a warning.
        coefficients = [1, 0, 0, 0, 1, 0]
        coefficients[entry] = value
        scenes = [make_scene(2000, seed=0), make_scene(2001, seed=1)]
        scenes[scene] = make_scene(2000 + scene, seed=scene,
                                   transform=AffineGeoTransform(*coefficients))
        with pytest.raises(FootprintOutsideImagery):
            extract_chip_stack(scenes, PIXEL_SQUARE, 2.0)

    def test_nearest_resampling_matches_shifted_grid(self):
        # Second scene's grid is offset by half a pixel; nearest sampling
        # should pick deterministic source pixels.
        base = make_scene(2000, seed=1)
        shifted = Scene(
            pixels=base.pixels,
            year=2001,
            transform=AffineGeoTransform(1, 0, 0.4, 0, 1, 0.4),
        )
        chips = extract_chip_stack([base, shifted], PIXEL_SQUARE, 2.0)
        assert chips.imagery.shape[0] == 2
        # chip grid = last scene's grid; first scene resampled onto it
        assert chips.imagery[1].tobytes() != b"" and chips.imagery[0].shape == chips.imagery[1].shape


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(-5, 20), y0=st.floats(-5, 20),
    w=st.floats(0.6, 9), h=st.floats(0.6, 9),
)
def test_rect_mask_matches_oracle(x0, y0, w, h):
    from hypothesis import assume

    # Pixel centers lie on integers here; edges exactly on centers are a
    # measure-zero boundary case where inclusion conventions may differ.
    for coord in (x0, y0, x0 + w, y0 + h):
        assume(abs(coord - round(coord)) > 1e-3)
    poly = Polygon("r", [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])
    mask = window_mask(poly, IDENTITY, -6, -6, 32, 32)
    expect = oracle_mask(poly, IDENTITY, -6, -6, 32, 32)
    assert np.array_equal(mask, expect)


def edge_loop_inside(poly, px, py):
    """Even-odd inclusion one edge at a time: the arithmetic of
    `_points_in_polygons`, without its broadcasting."""
    inside = np.zeros(px.shape, dtype=bool)
    for ring in (poly.exterior, *poly.holes):
        for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
            crosses = (y1 > py) != (y2 > py)
            if crosses.any():
                xint = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
                inside ^= crosses & (px < xint)
    return inside


def test_inclusion_matches_edge_loop_on_vertices_and_edges():
    # Points on the vertices' own coordinates and on horizontal edges are
    # where a change in the arithmetic would show.
    rng = np.random.default_rng(7)
    for trial in range(200):
        ring = [tuple(v) for v in rng.integers(-8, 9, size=(int(rng.integers(3, 9)), 2)) / 2]
        hole = [(0.25, 0.25), (1.25, 0.25), (0.75, 1.25)] if trial % 3 == 0 else None
        try:
            poly = Polygon(f"p{trial}", ring, holes=(hole,) if hole else ())
        except DegeneratePolygon:
            continue
        grid = np.arange(-10, 11) / 2
        px, py = (a.ravel() for a in np.meshgrid(np.r_[grid, rng.uniform(-5, 5, 20)],
                                                 np.r_[grid, rng.uniform(-5, 5, 20)]))
        assert np.array_equal(points_in_polygon(poly, px, py), edge_loop_inside(poly, px, py))


def test_one_pass_over_polygons_of_mixed_edge_counts():
    # Rings of 3 to 40 vertices, some with holes, given in ascending edge
    # count, so that the pass must reorder them and put the masks back.
    rng = np.random.default_rng(11)
    polygons, windows = [], []
    for n_vert in range(3, 41):
        angles = np.sort(rng.uniform(0, 2 * math.pi, n_vert))
        radii = rng.uniform(3, 9, n_vert)
        cx, cy = rng.uniform(10, 30, 2)
        ring = list(zip(cx + radii * np.cos(angles), cy + radii * np.sin(angles)))
        holes = [[(cx - 1, cy - 1), (cx + 1.5, cy - 1), (cx, cy + 1.5)]] if n_vert % 4 == 0 else []
        try:
            polygons.append(Polygon(f"p{n_vert}", ring, holes=holes))
        except DegeneratePolygon:
            continue
        row0, col0 = (int(v) for v in rng.integers(-2, 15, 2))
        windows.append([row0, row0 + int(rng.integers(5, 25)), col0,
                        col0 + int(rng.integers(5, 25))])
    transform = AffineGeoTransform(1, 0, 0.3, 0, 1, -0.2)
    masks = _window_masks(polygons, transform, windows)
    assert len(masks) == len(polygons) > 30
    for poly, (row0, row1, col0, col1), mask in zip(polygons, windows, masks):
        xs, ys = transform.pixel_to_world(np.arange(col0, col1 + 1),
                                          np.arange(row0, row1 + 1)[:, None])
        xs, ys = np.broadcast_arrays(xs, ys)
        expect = edge_loop_inside(poly, xs.ravel(), ys.ravel()).reshape(xs.shape)
        assert np.array_equal(mask, expect.astype(np.uint8)), poly.id


def test_chip_reads_only_its_window_of_an_off_grid_scene():
    import tracemalloc

    # Two 1024x1024 scenes, the first 0.3 px off the grid of the second.
    size = (1024, 1024)
    scenes = [make_scene(2000, size=size, seed=0,
                         transform=AffineGeoTransform(1, 0, 0.3, 0, 1, 0.3)),
              make_scene(2001, size=size, seed=1)]
    tracemalloc.start()
    try:
        chips = extract_chip_stack(scenes, PIXEL_SQUARE, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chips.imagery.shape == (2, 8, 8, 3)
    assert peak < 64 * 1024  # one scene alone is 3 MiB


# (case, scenes, error message): the first scene turned 0.5 rad off the grid of
# the second, whose corners cut across the central footprint's window, and
# scenes of three and four channels.
MISMATCHED_SCENES = [
    ("rotated", [make_scene(2000, size=(20, 20), seed=0, transform=rotated(20, 0.5)),
                 make_scene(2001, size=(20, 20), seed=1)], "non-rectangularly"),
    ("channels", [make_scene(2000, size=(20, 20), seed=0),
                  make_scene(2001, size=(20, 20), channels=4, seed=1)], "channel count"),
]
CENTRAL_SQUARE = Polygon("centre", [(7.5, 7.5), (11.5, 7.5), (11.5, 11.5), (7.5, 11.5)])


@pytest.mark.parametrize("scenes, message", [case[1:] for case in MISMATCHED_SCENES],
                         ids=[case[0] for case in MISMATCHED_SCENES])
def test_mismatched_scenes_raise_scene_mismatch(scenes, message):
    with pytest.raises(SceneMismatch, match=message):
        extract_chip_stack(scenes, CENTRAL_SQUARE, 6.0)


@pytest.mark.parametrize("scenes", [case[1] for case in MISMATCHED_SCENES],
                         ids=[case[0] for case in MISMATCHED_SCENES])
def test_mismatched_scenes_exit_3(tmp_path, capsys, scenes):
    (tmp_path / "scenes").mkdir()
    for scene in scenes:
        write_scene(tmp_path / "scenes" / f"scene_{scene.year}.tcs", scene)
    write_polygons_geojson(tmp_path / "polygons.geojson", [CENTRAL_SQUARE])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenes_dir": str(tmp_path / "scenes"),
                               "polygons": str(tmp_path / "polygons.geojson"),
                               "out_dir": str(tmp_path / "out"), "k": 2, "r": 6.0,
                               "theta": 0.5}))
    assert main(["detect", "--config", str(cfg)]) == 3
    assert "error[SceneMismatch]" in capsys.readouterr().err
