import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcm.core
from tcm.clustering import FitStats
from tcm.core import (
    DivergenceCache,
    cluster_distribution,
    detect,
    divergence_series,
    first_crossing,
    first_crossings,
    kl_divergence,
    layer_divergence,
)
from tcm.errors import EmptyRegion, SupportMismatch
from tcm.geometry import ChipStack
from tcm.synthgen import SynthConfig, generate

from oracles import scalar_first_crossing


def hand_kl(p, q):
    """Independent scalar evaluation of sum p*ln(p/q)."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def chip_from_layers(layers, mask, years=None):
    imagery = np.stack([np.asarray(l) for l in layers])
    years = tuple(years) if years else tuple(range(1, imagery.shape[0] + 1))
    return ChipStack(footprint_id="t", imagery=imagery, mask=np.asarray(mask, dtype=np.uint8),
                     years=years, buffer_radius=1.0)


class TestClusterDistribution:
    def test_one_hot(self):
        cmap = np.array([[3]])
        mask = np.array([[1]])
        # A lone neighborhood pixel keeps the chip invariants satisfied.
        cmap = np.array([[3, 0]])
        mask = np.array([[1, 0]])
        dist = cluster_distribution(cmap, mask, "footprint", k=4, eps=0.0)
        assert np.array_equal(dist, [0, 0, 0, 1])

    def test_normalization(self):
        cmap = np.array([[0, 0, 0, 1]])
        mask = np.ones((1, 4), dtype=np.uint8)
        mask[0, 0] = 1  # all footprint
        dist = cluster_distribution(cmap, mask, "footprint", k=2, eps=0.0)
        assert np.allclose(dist, [0.75, 0.25])

    def test_smoothing(self):
        cmap = np.array([[0, 0, 2, 2]])
        mask = np.ones((1, 4), dtype=np.uint8)
        dist = cluster_distribution(cmap, mask, "footprint", k=3, eps=1.0)
        assert np.allclose(dist, [3 / 7, 1 / 7, 3 / 7])

    def test_empty_region(self):
        cmap = np.array([[0, 1]])
        mask = np.ones((1, 2), dtype=np.uint8)
        with pytest.raises(EmptyRegion):
            cluster_distribution(cmap, mask, "neighborhood", k=2)

    def test_bad_region_name(self):
        with pytest.raises(ValueError):
            cluster_distribution(np.zeros((1, 1)), np.ones((1, 1)), "edge", k=1)


class TestKL:
    def test_self_divergence_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_ln2(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_quarter_split(self):
        expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.130812, abs=5e-7)

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_divergence([1.0], [0.5, 0.5])

    def test_missing_support_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), k=st.integers(2, 12))
def test_kl_properties(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(k)) + 1e-9
    q /= q.sum()
    assert kl_divergence(p, p) <= 1e-12
    assert kl_divergence(p, q) >= -1e-12
    assert hand_kl(p, q) == pytest.approx(kl_divergence(p, q), abs=1e-9)


class TestFirstCrossing:
    def test_first_exceedance(self):
        assert first_crossing(np.array([0.1, 0.5, 0.6]), 0.3) == 2

    def test_fallback_returns_last(self):
        assert first_crossing(np.array([0.1, 0.1, 0.1]), 0.3) == 3

    def test_immediate(self):
        assert first_crossing(np.array([0.9, 0.9]), 0.3) == 1

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            first_crossing(np.array([0.1]), -1.0)

    def test_table_without_rows_or_layers_rejected(self):
        for series in (np.empty((0, 3)), np.empty((2, 0))):
            with pytest.raises(ValueError):
                first_crossings(series, 0.5)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_first_crossing_monotone_in_theta(seed):
    rng = np.random.default_rng(seed)
    series = rng.uniform(0, 3, size=int(rng.integers(1, 12)))
    t1, t2 = sorted(rng.uniform(0, 3, size=2))
    assert first_crossing(series, t1) <= first_crossing(series, t2)


def test_first_crossings_match_the_scalar_loop():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n, t = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        series = rng.uniform(0, 2, (n, t))
        if rng.random() < 1 / 3:  # quarters: theta often equals a value
            series = np.round(series * 4) / 4
        theta = float(rng.choice(np.append(series.ravel(), [0.0, 1.0, 3.0])))
        expected = [scalar_first_crossing(row, theta) for row in series]
        assert first_crossings(series, theta).tolist() == expected
        assert first_crossing(series[0], theta) == expected[0]


def solid_chip(fp_value, nb_value, size=8, fp=4):
    """One-layer chip: fp x fp footprint of one color inside another color."""
    img = np.full((size, size, 1), float(nb_value))
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[:fp, :fp] = 1
    img[mask == 1] = float(fp_value)
    return chip_from_layers([img], mask)


class TestLayerDivergence:
    def test_solid_footprint_matches_hand_kl(self):
        chips = solid_chip(100.0, 10.0)
        d = layer_divergence(chips, 0, k=2, seed=0)
        # 16 footprint pixels in one cluster, 48 neighborhood pixels in the
        # other; with add-one smoothing the distributions are exact.
        p = np.array([17.0, 1.0])
        q = np.array([1.0, 49.0])
        variant_a = hand_kl(p / p.sum(), q / q.sum())
        p2 = p[::-1]
        q2 = q[::-1]
        variant_b = hand_kl(p2 / p2.sum(), q2 / q2.sum())
        assert d == pytest.approx(variant_a, abs=1e-12) or d == pytest.approx(variant_b, abs=1e-12)
        assert d > 2.0

    def test_identically_distributed_regions_score_low(self):
        rng = np.random.default_rng(0)
        img = rng.choice([10.0, 40.0, 90.0, 160.0], size=(24, 24, 1))
        mask = np.zeros((24, 24), dtype=np.uint8)
        mask[8:16, 8:16] = 1
        chips = chip_from_layers([img], mask)
        d = layer_divergence(chips, 0, k=4, seed=0)
        assert d < 0.2

    def test_series_matches_per_layer_calls(self):
        rng = np.random.default_rng(1)
        layers = [rng.uniform(0, 255, (10, 10, 3)) for _ in range(3)]
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[3:7, 3:7] = 1
        chips = chip_from_layers(layers, mask)
        series = divergence_series(chips, k=3, seed=5)
        singles = [layer_divergence(chips, l, k=3, seed=5) for l in range(3)]
        assert np.array_equal(series, singles)


def test_fit_counters_do_not_depend_on_workers():
    dataset = generate(SynthConfig(height=96, width=96, layers=3, footprints=8,
                                   size_range=(5.0, 8.0), margin=8.0,
                                   year_weights=(0.4, 0.35, 0.25), seed=2))
    counted = []
    for workers in (1, 2):
        store = DivergenceCache(dataset, workers=workers)
        store.layer_values([2], 3.0, [2])  # the final layer alone, as calibration asks
        store.series(4, 3.0)
        store.series(2, 3.0)  # adds only the two layers not yet fitted at k=2
        counted.append(store.fit_stats)
    assert counted[0] == counted[1]
    assert counted[0].fits == 8 * (1 + 3 + 2)
    assert counted[0].lloyd_iters >= counted[0].fits


def test_store_keeps_tables_not_chips(monkeypatch):
    dataset = generate(SynthConfig(height=96, width=96, layers=3, footprints=8,
                                   size_range=(5.0, 8.0), margin=8.0,
                                   year_weights=(0.4, 0.35, 0.25), seed=2))
    store = DivergenceCache(dataset)
    first, second = store.chips(3.0), store.chips(3.0)
    assert first is not second and tuple(first) == tuple(second) == store.ids
    assert all(first[i].imagery.tobytes() == second[i].imagery.tobytes() for i in store.ids)
    del first, second
    cut = []  # a weak reference to every chip the store cuts from here on
    extract = tcm.core.extract_chips
    monkeypatch.setattr(tcm.core, "extract_chips",
                        lambda *args: [cut.append(weakref.ref(ch)) or ch for ch in extract(*args)])
    store.series(4, 3.0)
    store.avg_color(3.0)
    gc.collect()
    assert len(cut) == 2 * len(store.ids)
    assert all(ref() is None for ref in cut)


def test_fit_stats_count_cap_hits():
    stats = FitStats()
    # The second fit of 50 iterations converged on its last one: no cap hit.
    stats.add(np.array([50, 3, 50]), np.array([0, 0, 0]), np.array([False, True, True]))
    stats += FitStats(fits=1, lloyd_iters=7, cap_hits=0)
    assert stats == FitStats(fits=4, lloyd_iters=110, cap_hits=1)


class TestDivergenceSeries:
    def build_construction_chip(self, built_from, layers=5, seed=0):
        rng = np.random.default_rng(seed)
        size, fp = 12, 5
        mask = np.zeros((size, size), dtype=np.uint8)
        mask[3 : 3 + fp, 3 : 3 + fp] = 1
        imgs = []
        for t in range(1, layers + 1):
            img = rng.choice([20.0, 60.0, 110.0], size=(size, size, 1))
            img += rng.normal(0, 2, img.shape)
            if t >= built_from:
                img[mask == 1] = 230.0 + rng.normal(0, 2, (int(mask.sum()), 1))
            imgs.append(img)
        return chip_from_layers(imgs, mask)

    def test_low_then_high_pattern(self):
        chips = self.build_construction_chip(built_from=3)
        series = divergence_series(chips, k=4, seed=0)
        low, high = series[:2], series[2:]
        assert low.max() < 0.5
        assert high.min() > 1.0

    def test_deterministic_given_seed_and_id(self):
        chips = self.build_construction_chip(built_from=2)
        a = divergence_series(chips, k=4, seed=9)
        b = divergence_series(chips, k=4, seed=9)
        assert np.array_equal(a, b)

    def test_monotone_value_transform_keeps_divergence(self):
        # Distinct discrete colors, k = number of colors: the partition is the
        # color classes, so any strictly increasing per-channel remap leaves
        # the divergence unchanged (up to summation order).
        rng = np.random.default_rng(4)
        img = rng.choice([10.0, 30.0, 70.0, 150.0], size=(16, 16, 1))
        mask = np.zeros((16, 16), dtype=np.uint8)
        mask[5:11, 5:11] = 1
        chips_a = chip_from_layers([img], mask)
        transformed = (img * 1.7 + 11.0) ** 1.1
        chips_b = chip_from_layers([transformed], mask)
        d_a = layer_divergence(chips_a, 0, k=4, seed=3)
        d_b = layer_divergence(chips_b, 0, k=4, seed=3)
        assert d_a == pytest.approx(d_b, abs=1e-12)


class TestDetect:
    def chip(self, values_by_layer):
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[2:4, 2:4] = 1
        layers = []
        for built in values_by_layer:
            img = np.full((6, 6, 1), 10.0)
            if built:
                img[mask == 1] = 200.0
            layers.append(img)
        return chip_from_layers(layers, mask, years=range(2011, 2011 + len(values_by_layer)))

    def test_developed_mid_series(self):
        res = detect(self.chip([False, False, True, True]), k=2, theta=0.5, seed=0)
        assert res.index == 3
        assert res.year == 2013
        assert res.crossed

    def test_always_developed(self):
        res = detect(self.chip([True, True]), k=2, theta=0.5, seed=0)
        assert res.index == 1 and res.crossed

    def test_never_crossing_flagged(self):
        res = detect(self.chip([False, False, False]), k=2, theta=10.0, seed=0)
        assert res.index == 3
        assert res.year == 2013
        assert not res.crossed
