import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm.calibration import (
    Histogram,
    bhattacharyya,
    build_pq,
    calibrate,
    make_histogram,
    percentile_threshold,
    sample_random_polygons,
)
from tcm.core import DivergenceCache
from tcm.data import FootprintDataset
from tcm.errors import BinMismatch, PlacementFailed
from tcm.geometry import AffineGeoTransform, Polygon, Scene


def hist(masses, d_max=1.0):
    masses = np.asarray(masses, dtype=np.float64)
    edges = np.linspace(0.0, d_max, masses.size + 1)
    return Histogram(edges=edges, masses=masses)


class TestBhattacharyya:
    def test_identical_is_one(self):
        p = hist([0.25, 0.25, 0.5])
        assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert bhattacharyya(hist([1.0, 0.0]), hist([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        expect = math.sqrt(0.45) + math.sqrt(0.05)
        got = bhattacharyya(hist([0.5, 0.5]), hist([0.9, 0.1]))
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.894427, abs=5e-7)

    def test_bin_mismatch(self):
        with pytest.raises(BinMismatch):
            bhattacharyya(hist([1.0, 0.0]), hist([1.0, 0.0], d_max=2.0))
        with pytest.raises(BinMismatch):
            bhattacharyya(hist([1.0, 0.0]), hist([0.5, 0.25, 0.25]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), bins=st.integers(1, 30))
def test_bc_bounds(seed, bins):
    rng = np.random.default_rng(seed)
    p = hist(rng.dirichlet(np.ones(bins)))
    q = hist(rng.dirichlet(np.ones(bins)))
    bc = bhattacharyya(p, q)
    assert -1e-12 <= bc <= 1.0 + 1e-12
    assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)


class TestPercentile:
    def test_nearest_rank_98(self):
        samples = np.arange(1, 101, dtype=np.float64)
        assert percentile_threshold(samples, 98) == 98.0

    def test_constant_samples(self):
        assert percentile_threshold([0.2, 0.2, 0.2], 98) == 0.2

    def test_single_sample(self):
        assert percentile_threshold([0.7], 50) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_threshold([], 98)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9), pct=st.floats(0.5, 99.5), n=st.integers(1, 200))
    def test_matches_nearest_rank_definition(self, seed, pct, n):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0, 5, n)
        rank = math.ceil(pct / 100 * n)
        assert percentile_threshold(samples, pct) == np.sort(samples)[rank - 1]


class TestBuildPq:
    def test_constant_p_is_one_hot(self):
        p_series = [np.array([0.0, 2.0])] * 5
        q_series = [np.array([0.1, 3.9])]
        hist_p, _ = build_pq(p_series, q_series, n_bins=8, d_max=4.0)
        expect = np.zeros(8)
        expect[4] = 1.0  # 2.0 lands in [2.0, 2.5)
        assert np.array_equal(hist_p.masses, expect)

    def test_q_pools_all_layers(self):
        q_series = [np.array([0.1, 0.1]), np.array([0.3])]
        _, hist_q = build_pq([np.array([0.4])], q_series, n_bins=2, d_max=0.4)
        assert np.allclose(hist_q.masses, [2 / 3, 1 / 3])

    def test_values_above_dmax_clamp_into_last_bin(self):
        hist_p, _ = build_pq([np.array([99.0])], [np.array([0.1])],
                             n_bins=4, d_max=1.0)
        assert hist_p.masses[-1] == 1.0

    def test_shared_adaptive_range(self):
        hist_p, hist_q = build_pq([np.array([3.0])], [np.array([0.5])], n_bins=10)
        assert hist_p.edges[-1] == 3.0
        assert np.array_equal(hist_p.edges, hist_q.edges)


def tiny_dataset(seed=0, n_fp=3, size=48, res=1.0, years=(2019, 2020)):
    rng = np.random.default_rng(seed)
    transform = AffineGeoTransform(res, 0, 0, 0, res, 0)
    scenes = [
        Scene(pixels=rng.integers(0, 60, (size, size, 3)).astype(np.uint8),
              year=y, transform=transform)
        for y in years
    ]
    polys = []
    for i in range(n_fp):
        x = (6 + 12 * i) * res
        y = 20 * res
        side = 4 * res
        polys.append(Polygon(f"fp-{i}", [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]))
    # Developed look in the final layer: paint footprints bright.
    final = scenes[-1].pixels.copy()
    for poly in polys:
        x0, y0, x1, y1 = poly.bounds
        c0, r0 = int(x0 / res), int(y0 / res)
        c1, r1 = int(x1 / res), int(y1 / res)
        final[r0:r1, c0:c1] = 220
    scenes[-1] = Scene(pixels=final, year=years[-1], transform=transform)
    return FootprintDataset(scenes=scenes, polygons=polys)


class TestSampleRandomPolygons:
    def test_deterministic(self):
        ds = tiny_dataset()
        extent = ds.scenes[-1].world_extent()
        a = sample_random_polygons(ds.polygons, extent, 20, seed=5, buffer=2.0)
        b = sample_random_polygons(ds.polygons, extent, 20, seed=5, buffer=2.0)
        assert [p.exterior for p in a] == [p.exterior for p in b]

    def test_shapes_come_from_footprints(self):
        ds = tiny_dataset()
        extent = ds.scenes[-1].world_extent()
        shapes = set()
        for poly in ds.polygons:
            cx, cy = poly.centroid
            shapes.add(tuple((round(x - cx, 9), round(y - cy, 9)) for x, y in poly.exterior))
        for rand in sample_random_polygons(ds.polygons, extent, 30, seed=1, buffer=1.0):
            cx, cy = rand.centroid
            offset = tuple((round(x - cx, 9), round(y - cy, 9)) for x, y in rand.exterior)
            assert offset in shapes

    def test_placements_respect_buffer(self):
        ds = tiny_dataset()
        xmin, ymin, xmax, ymax = ds.scenes[-1].world_extent()
        for rand in sample_random_polygons(ds.polygons, (xmin, ymin, xmax, ymax),
                                           40, seed=2, buffer=3.0):
            bx0, by0, bx1, by1 = rand.bounds
            assert bx0 - 3.0 >= xmin and by0 - 3.0 >= ymin
            assert bx1 + 3.0 <= xmax and by1 + 3.0 <= ymax

    def test_n_must_be_positive(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            sample_random_polygons(ds.polygons, (0, 0, 10, 10), 0, seed=0)

    def test_placement_failure(self):
        ds = tiny_dataset()
        with pytest.raises(PlacementFailed):
            sample_random_polygons(ds.polygons, (0, 0, 5, 5), 1, seed=0, buffer=50.0)


class TestCalibrate:
    def test_single_cell_grid(self):
        ds = tiny_dataset()
        report = calibrate(ds, k_grid=[3], r_grid=[3.0], n_random=6, n_bins=10, seed=1)
        assert len(report.cells) == 1
        assert (report.chosen_k, report.chosen_r) == (3, 3.0)
        assert report.chosen_theta == report.cells[0].theta

    def test_paper_scale_grid_has_nine_records(self):
        # World-coordinate study area at 10 m/px with the documented search
        # grid: buffer radii in meters, three cluster counts.
        ds = tiny_dataset(size=100, res=10.0, n_fp=2)
        report = calibrate(ds, k_grid=[16, 32, 64], r_grid=[100.0, 200.0, 400.0],
                           n_random=3, n_bins=10, seed=0)
        assert len(report.cells) == 9
        assert {(c.k, c.r) for c in report.cells} == {
            (k, r) for k in (16, 32, 64) for r in (100.0, 200.0, 400.0)
        }
        chosen_bc = min(c.bc for c in report.cells)
        assert any(c.k == report.chosen_k and c.r == report.chosen_r
                   and c.bc == chosen_bc for c in report.cells)

    def test_chosen_minimizes_bc_with_tiebreak(self):
        ds = tiny_dataset()
        report = calibrate(ds, k_grid=[2, 3], r_grid=[2.0, 4.0], n_random=8, seed=3)
        best = min(report.cells, key=lambda c: (c.bc, c.k, c.r))
        assert (report.chosen_k, report.chosen_r, report.chosen_theta) == \
            (best.k, best.r, best.theta)
        assert all(0.0 <= c.bc <= 1.0 for c in report.cells)

    def test_deterministic(self):
        ds = tiny_dataset()
        r1 = calibrate(ds, k_grid=[2], r_grid=[3.0], n_random=10, seed=7)
        r2 = calibrate(ds, k_grid=[2], r_grid=[3.0], n_random=10, seed=7)
        assert r1.chosen_theta == r2.chosen_theta
        assert [c.bc for c in r1.cells] == [c.bc for c in r2.cells]

    def test_workers_do_not_change_report(self):
        ds = tiny_dataset()
        r1 = calibrate(ds, k_grid=[2, 4], r_grid=[3.0], n_random=10, seed=7,
                       cache=DivergenceCache(ds, seed=7, workers=1))
        r4 = calibrate(ds, k_grid=[2, 4], r_grid=[3.0], n_random=10, seed=7,
                       cache=DivergenceCache(ds, seed=7, workers=4))
        assert [c.bc for c in r1.cells] == [c.bc for c in r4.cells]
        assert [c.theta for c in r1.cells] == [c.theta for c in r4.cells]

    def test_developed_footprints_separate_from_random(self):
        # p concentrates at high divergence (footprints are painted in the
        # final layer), q at low divergence, so overlap should be small.
        ds = tiny_dataset(n_fp=4)
        report = calibrate(ds, k_grid=[4], r_grid=[4.0], n_random=40, seed=0)
        assert report.cells[0].bc < 0.3
