import logging

import numpy as np
import pytest
from scipy import stats

import oracles
from tcm.errors import SceneTooCrowded
from tcm.geometry import extract_chip_stack
from tcm.synthgen import SynthConfig, _footprint_pixels, _place_footprints, generate

SMALL = dict(height=128, width=128, layers=3, footprints=20,
             size_range=(5.0, 9.0), margin=8.0, year_weights=(0.4, 0.35, 0.25))


class TestConfigValidation:
    def test_weights_must_match_layers(self):
        with pytest.raises(ValueError):
            SynthConfig(layers=3, year_weights=(0.5, 0.5))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SynthConfig(layers=2, year_weights=(0.5, 0.6))

    def test_palette_channel_mismatch(self):
        with pytest.raises(ValueError):
            SynthConfig(channels=4)

    def test_size_range_ordering(self):
        with pytest.raises(ValueError):
            SynthConfig(size_range=(10.0, 5.0))


class TestGenerate:
    def test_deterministic_bytes(self):
        a = generate(SynthConfig(**SMALL, seed=11))
        b = generate(SynthConfig(**SMALL, seed=11))
        for sa, sb in zip(a.scenes, b.scenes):
            assert sa.pixels.tobytes() == sb.pixels.tobytes()
        assert [p.exterior for p in a.polygons] == [p.exterior for p in b.polygons]
        assert a.labels == b.labels

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(**SMALL, seed=1))
        b = generate(SynthConfig(**SMALL, seed=2))
        assert a.scenes[0].pixels.tobytes() != b.scenes[0].pixels.tobytes()

    def test_no_footprints(self):
        ds = generate(SynthConfig(height=64, width=64, footprints=0))
        assert ds.polygons == []
        assert ds.labels is None
        assert len(ds.scenes) == 5

    def test_scene_metadata(self):
        ds = generate(SynthConfig(**SMALL, start_year=2014, seed=0))
        assert ds.years == (2014, 2015, 2016)
        assert all(s.pixels.dtype == np.uint8 for s in ds.scenes)
        assert all(s.pixels.shape == (128, 128, 3) for s in ds.scenes)

    def test_labels_within_time_axis(self):
        ds = generate(SynthConfig(**SMALL, seed=5))
        for fid, (idx, year) in ds.labels.items():
            assert 1 <= idx <= 3
            assert year == ds.years[idx - 1]

    def test_footprints_disjoint_and_inside_margin(self):
        cfg = SynthConfig(**SMALL, seed=7)
        ds = generate(cfg)
        boxes = [p.bounds for p in ds.polygons]
        for i, (x0, y0, x1, y1) in enumerate(boxes):
            assert x0 >= cfg.margin and y0 >= cfg.margin
            assert x1 <= cfg.width - 1 - cfg.margin
            assert y1 <= cfg.height - 1 - cfg.margin
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                assert a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1], \
                    f"footprints {i} and {j} overlap"

    def test_crowded_scene_fails(self):
        with pytest.raises(SceneTooCrowded):
            generate(SynthConfig(height=48, width=48, footprints=60,
                                 size_range=(6.0, 9.0), margin=8.0))

    def test_label_distribution_chi_square(self):
        cfg = SynthConfig(seed=123)  # default: 200 footprints
        ds = generate(cfg)
        counts = np.bincount([idx for idx, _ in ds.labels.values()], minlength=6)[1:]
        expected = np.asarray(cfg.year_weights) * len(ds.polygons)
        _, p_value = stats.chisquare(counts, expected)
        assert p_value > 0.01

    def test_toggling_color_shift_keeps_layout(self):
        on = generate(SynthConfig(**SMALL, seed=3, color_shift=1.0))
        off = generate(SynthConfig(**SMALL, seed=3, color_shift=0.0))
        assert [p.exterior for p in on.polygons] == [p.exterior for p in off.polygons]
        assert on.labels == off.labels
        assert on.scenes[0].pixels.tobytes() != off.scenes[0].pixels.tobytes()


class TestStatisticalProperties:
    def test_preconstruction_footprints_match_background(self):
        # With transforms off and conditioning on the palette class, pixels
        # inside not-yet-built footprints and plain background pixels come
        # from the same process.
        cfg = SynthConfig(**SMALL, seed=21, color_shift=0.0)
        ds = generate(cfg)
        from tcm.synthgen import _background_classes, _footprint_masks

        classes = _background_classes(cfg)
        masks = _footprint_masks(cfg, ds.polygons)
        any_fp = np.zeros(classes.shape, dtype=bool)
        for row0, col0, mask in masks:
            any_fp[row0 : row0 + mask.shape[0], col0 : col0 + mask.shape[1]] |= mask.astype(bool)

        scene = ds.scenes[0].pixels  # first layer has the most unbuilt footprints
        fp_vals, bg_vals = [], []
        for (poly, (row0, col0, mask)) in zip(ds.polygons, masks):
            if ds.labels[poly.id][0] == 1:
                continue  # already built in layer 1
            sel = mask.astype(bool)
            block_class = classes[row0 : row0 + mask.shape[0], col0 : col0 + mask.shape[1]]
            block_scene = scene[row0 : row0 + mask.shape[0], col0 : col0 + mask.shape[1]]
            keep = sel & (block_class == 0)
            fp_vals.append(block_scene[keep][:, 0])
        bg_keep = (~any_fp) & (classes == 0)
        bg_vals = scene[bg_keep][:, 0]
        fp_vals = np.concatenate([v for v in fp_vals if v.size])
        rng = np.random.default_rng(0)
        bg_sample = rng.choice(bg_vals, size=min(fp_vals.size, bg_vals.size), replace=False)
        _, p_value = stats.ks_2samp(fp_vals, bg_sample)
        assert fp_vals.size > 50
        assert p_value > 0.01

    def test_built_footprints_stand_out_by_five_sigma(self):
        cfg = SynthConfig(**SMALL, seed=9)
        ds = generate(cfg)
        final = ds.scenes[-1]
        for poly in ds.polygons:
            chips = extract_chip_stack([final], poly, r=5.0)
            fp_mean = chips.imagery[0][chips.mask == 1].mean(axis=0)
            nb_mean = chips.imagery[0][chips.mask == 0].mean(axis=0)
            gap = float(np.linalg.norm(fp_mean.astype(float) - nb_mean.astype(float)))
            assert gap >= 5 * cfg.noise_sigma, f"{poly.id} gap {gap:.1f}"


def assert_same_area(a, b):
    assert [s.pixels.tobytes() for s in a.scenes] == [s.pixels.tobytes() for s in b.scenes]
    assert [s.year for s in a.scenes] == [s.year for s in b.scenes]
    assert [(p.id, p.exterior) for p in a.polygons] == [(p.id, p.exterior) for p in b.polygons]
    assert a.labels == b.labels


class TestAgainstOracle:
    """`generate` against the per-candidate placement and per-footprint
    paint of `oracles.generate`, byte for byte."""

    @pytest.mark.parametrize("extra", [
        {},
        {"min_separation": 0.0},
        {"size_range": (7.0, 7.0)},
        {"color_shift": 0.0},
        {"channels": 4, "palette": ((58.0, 92.0, 48.0, 30.0), (96.0, 128.0, 72.0, 90.0),
                                    (130.0, 110.0, 70.0, 150.0)),
         "roof_base": (214.0, 212.0, 205.0, 220.0)},
    ], ids=["small", "no_separation", "equal_sides", "no_color_shift", "four_channels"])
    def test_same_bytes(self, extra):
        config = SynthConfig(**{**SMALL, "seed": 31, **extra})
        assert_same_area(generate(config), oracles.generate(config))

    def test_overlapping_footprints_keep_the_later_one(self):
        config = SynthConfig(**{**SMALL, "footprints": 60, "min_separation": -4.0, "seed": 5})
        ds = generate(config)
        assert_same_area(ds, oracles.generate(config))
        # Overlaps do occur, and in the last layer every footprint is built.
        assert _footprint_pixels(config, ds.polygons)[2].any()

    @pytest.mark.parametrize("extra, message", [
        ({"height": 48, "width": 48, "footprints": 60, "size_range": (6.0, 9.0),
          "margin": 8.0}, "placed "),
        ({"height": 20, "width": 64, "margin": 8.0}, "scene too small"),
        ({**SMALL, "min_separation": float("inf")}, "placed 1 of 20"),
    ], ids=["crowded", "too_small", "infinite_separation"])
    def test_same_scene_too_crowded_message(self, extra, message):
        config = SynthConfig(**extra)
        with pytest.raises(SceneTooCrowded, match=message) as new:
            generate(config)
        with pytest.raises(SceneTooCrowded) as old:
            oracles.generate(config)
        assert str(new.value) == str(old.value)


def test_placement_counter_is_logged_at_debug(caplog):
    config = SynthConfig(height=768, width=768, footprints=1800, seed=1)
    with caplog.at_level(logging.DEBUG, logger="tcm"):
        _place_footprints(config)
    assert "placement drew 9496 candidates and rejected 7696" in caplog.messages
