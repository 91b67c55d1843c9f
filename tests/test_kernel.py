"""The compiled k-means kernel against its numpy oracle.

Every fit here runs twice, through the kernel and through the numpy path
that `tcm.clustering` falls back to, and must give the same centroid and
inertia bits, iteration and reseed counts and converged flag. The batch
path, one kernel call per k for every wanted layer of a batch of chips
that also assigns and counts their labels, must give the divergence bits
and each layer's fit counters of `layer_divergence` and `fit_kmeans` on the
numpy path, through the store too. The kernel's own
generator must pick the init centres that numpy's `default_rng` picks.
"""

import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcm import clustering, core
from tcm.cli import main
from tcm.clustering import FitStats, PixelFeatureConfig, extract_features, fit_kmeans
from tcm.core import BATCH, DEFAULT_EPS, DivergenceCache, _batch_divergences, layer_divergence
from tcm.data import FootprintDataset
from tcm.formats import read_tcs, write_tcs
from tcm.geometry import AffineGeoTransform, ChipStack, Polygon, Scene, extract_chip_stack
from tcm.synthgen import SynthConfig, generate
from tcm.util import stable_seed

needs_kernel = pytest.mark.skipif(clustering._lib is None, reason=clustering.KERNEL)


def test_kernel_loads_where_a_compiler_exists():
    # A build that fails quietly would leave every other test on the numpy path.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert clustering._lib is not None, clustering.KERNEL


def test_kernel_source_builds_without_warnings(tmp_path):
    # The runtime build leaves -Werror out, so that another compiler's warning
    # keeps the kernel; this repository's own warnings still fail here.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    assert "-Werror" not in clustering._CFLAGS
    source = Path(clustering.__file__).with_name("_lloyd.c")
    build = subprocess.run([cc, *clustering._CFLAGS, "-Werror", "-o", str(tmp_path / "k.so"),
                            str(source), "-lm"], capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr


def numpy_fit(*args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_lib", None)
        return fit_kmeans(*args, **kwargs)


def assert_same_fit(x, k, seed, max_iter=50):
    kernel = fit_kmeans(x, k, seed, max_iter=max_iter)
    oracle = numpy_fit(x, k, seed, max_iter=max_iter)
    assert kernel.centroids.tobytes() == oracle.centroids.tobytes()
    assert (kernel.n_iter, kernel.reseeds, kernel.inertia, kernel.converged) == (
        oracle.n_iter, oracle.reseeds, oracle.inertia, oracle.converged)


@pytest.fixture(scope="module")
def chip_layers():
    dataset = generate(SynthConfig(height=128, width=128, footprints=12, seed=4))
    return [(p.id, layer, chips.imagery[layer])
            for p in dataset.polygons
            for chips in [extract_chip_stack(dataset.scenes, p, r) for r in (2.0, 8.0)]
            for layer in range(chips.n_layers)]


@needs_kernel
@pytest.mark.parametrize("mode", ["spectral", "spectral_window"])
def test_real_chip_fits_match_numpy(chip_layers, mode):
    config = PixelFeatureConfig(mode)
    for fid, layer, image in chip_layers:
        x = extract_features(image, config)
        for k in (1, 2, 4, 8):
            assert_same_fit(x, k, stable_seed(1, fid, layer))


def numpy_divergences(chips, layers, k, config, seed, eps):
    """Divergences of the layers on the numpy per-layer path, and each
    layer's (n_iter, reseeds, converged)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_lib", None)
        values = np.array([layer_divergence(chips, l, k, config, seed, eps) for l in layers])
        models = [fit_kmeans(extract_features(chips.imagery[l], config), k,
                             stable_seed(seed, chips.footprint_id, l)) for l in layers]
    return values, [(m.n_iter, m.reseeds, m.converged) for m in models]


def recording_fits(mp):
    """Patch the store's `region_counts` to log each call's per-fit
    (n_iter, reseeds, converged), one list per call."""
    calls = []

    def recorded(x, sizes, region, k, seeds):
        out = clustering.region_counts(x, sizes, region, k, seeds)
        n_iter, reseeds, converged = out[3:]
        calls.append(list(zip(n_iter.tolist(), reseeds.tolist(), converged.tolist())))
        return out

    mp.setattr(core, "region_counts", recorded)
    return calls


def assert_same_divergences(batch, ks, layers, config, seed=1, eps=DEFAULT_EPS):
    """The batch path over the chips of `batch` at the layers and every k of
    `ks`, one call per k."""
    with pytest.MonkeyPatch.context() as mp:
        calls = recording_fits(mp)
        rows, stats = _batch_divergences(batch, ks, layers, config, seed, eps)
    assert len(calls) == len(ks)
    oracle_stats = FitStats()
    for k, fits in zip(ks, calls):
        oracle_fits = []
        for chips, row in zip(batch, rows[k]):
            oracle, chip_fits = numpy_divergences(chips, layers, k, config, seed, eps)
            assert row.tobytes() == oracle.tobytes()
            oracle_fits += chip_fits
        assert fits == oracle_fits
        oracle_stats.add(*zip(*oracle_fits))
    assert stats == oracle_stats


@pytest.fixture(scope="module")
def stock_dataset():
    return generate(SynthConfig(footprints=40, seed=1))


@needs_kernel
@pytest.mark.parametrize("mode", ["spectral", "spectral_window"])
def test_chip_path_matches_numpy(stock_dataset, mode):
    config = PixelFeatureConfig(mode)
    every, last = range(stock_dataset.n_layers), [stock_dataset.n_layers - 1]
    for r in (2.0, 8.0):
        batch = [extract_chip_stack(stock_dataset.scenes, p, r)
                 for p in stock_dataset.polygons[:12]]
        # Full series and the final layer alone, as calibration asks, at
        # several k of one call.
        assert_same_divergences(batch, [1, 2, 4, 8], every, config)
        assert_same_divergences(batch, [8, 4, 2, 1], last, config)


@needs_kernel
def test_constant_layer_stays_in_kernel(monkeypatch):
    rng = np.random.default_rng(3)
    imagery = rng.integers(0, 256, size=(3, 12, 12, 3)).astype(np.uint8)
    imagery[1] = 77  # its k-means++ weights sum to 0 after the first pick
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[3:8, 4:9] = 1
    chips = ChipStack("const", imagery, mask, (2015, 2016, 2017), 2.0)
    numpy_body = clustering._fit_kmeans_numpy
    for k in (1, 2, 4, 8):
        redone = []
        with monkeypatch.context() as mp:
            mp.setattr(clustering, "_fit_kmeans_numpy",
                       lambda x, *args: redone.append(x) or numpy_body(x, *args))
            _batch_divergences([chips], [k], range(3), PixelFeatureConfig(), 1, DEFAULT_EPS)
        # The kernel draws the integers that zero total weight asks for itself.
        assert redone == []
        assert_same_divergences([chips], [k], range(3), PixelFeatureConfig())


@needs_kernel
@pytest.mark.parametrize("k", [2, 8])
def test_store_without_smoothing_matches_numpy(stock_dataset, k):
    """eps=0 leaves bins empty: kl_divergence skips an empty footprint bin and
    gives inf for a footprint bin that the neighborhood lacks."""
    dataset = FootprintDataset(stock_dataset.scenes, stock_dataset.polygons[:20], {})
    store = DivergenceCache(dataset, eps=0.0, seed=4)
    final = store.layer_values([k], 2.0, [dataset.n_layers - 1])[k]
    series = store.series(k, 2.0)
    config = PixelFeatureConfig()
    for row, (p, last) in enumerate(zip(dataset.polygons, final)):
        chips = store.chips(2.0)[p.id]
        oracle, _ = numpy_divergences(chips, range(chips.n_layers), k, config, 4, 0.0)
        assert series[row].tobytes() == oracle.tobytes()
        assert last.tobytes() == oracle[-1:].tobytes()
    assert store.fit_stats.fits == len(dataset.polygons) * dataset.n_layers
    values = series.ravel()
    assert np.isinf(values).any() and np.isfinite(values).any()


@pytest.fixture(scope="module")
def ragged_dataset(stock_dataset):
    """42 footprints, which BATCH does not divide, two of them across the
    scene's corners so that their chips are clipped, and a first scene on a
    grid shifted by -0.6 px: the store resamples it, and its far row and
    column fall outside it, so the far corner's window shrinks again."""
    assert (len(stock_dataset.polygons) + 2) % BATCH
    scenes = list(stock_dataset.scenes)
    first = scenes[0]
    scenes[0] = Scene(first.pixels, first.year, AffineGeoTransform(1, 0, -0.6, 0, 1, -0.6))
    h, w, _ = first.pixels.shape
    corners = [Polygon("corner_near", [(-4.0, -4.0), (6.5, -4.0), (6.5, 5.5), (-4.0, 5.5)]),
               Polygon("corner_far", [(w - 6.5, h - 5.5), (w + 3.0, h - 5.5), (w + 3.0, h + 3.0),
                                      (w - 6.5, h + 3.0)])]
    return FootprintDataset(scenes, list(stock_dataset.polygons) + corners, {})


@pytest.mark.parametrize("mode, lib", [("spectral", "kernel"), ("spectral_window", "kernel"),
                                       ("spectral", None)])
def test_store_batches_match_layer_divergence(ragged_dataset, monkeypatch, mode, lib):
    if lib is None:
        monkeypatch.setattr(clustering, "_lib", None)
    elif clustering._lib is None:
        pytest.skip(clustering.KERNEL)
    config, k, r, seed = PixelFeatureConfig(mode), 4, 3.0, 2
    polygons = ragged_dataset.polygons
    store = DivergenceCache(ragged_dataset, config, seed=seed)
    calls = recording_fits(monkeypatch)
    series = store.series(k, r)
    assert len(calls) == -(-len(polygons) // BATCH)
    oracle_fits = []
    for row, p in enumerate(polygons):
        chips = extract_chip_stack(ragged_dataset.scenes, p, r)
        if p.id.startswith("corner"):  # clipped: their full windows are 15 px or more
            assert max(chips.mask.shape) <= 10
        values, fits = numpy_divergences(chips, range(chips.n_layers), k, config, seed,
                                         DEFAULT_EPS)
        assert series[row].tobytes() == values.tobytes(), p.id
        oracle_fits += fits
    assert [fit for call in calls for fit in call] == oracle_fits
    oracle_stats = FitStats()
    oracle_stats.add(*zip(*oracle_fits))
    assert store.fit_stats == oracle_stats


@pytest.mark.parametrize("lib", ["kernel", None])
def test_converged_only_when_the_shift_falls_below_tol(chip_layers, lib, monkeypatch):
    if lib is None:
        monkeypatch.setattr(clustering, "_lib", None)
    elif clustering._lib is None:
        pytest.skip(clustering.KERNEL)
    x = next(x for x in (extract_features(image, PixelFeatureConfig())
                         for _, _, image in chip_layers)
             if fit_kmeans(x, 4, 7).n_iter >= 3)
    model = fit_kmeans(x, 4, 7)
    assert model.converged
    # Converging on the last allowed iteration is no budget stop ...
    assert fit_kmeans(x, 4, 7, max_iter=model.n_iter).converged
    # ... and stopping one iteration short of it is.
    capped = fit_kmeans(x, 4, 7, max_iter=model.n_iter - 1)
    assert not capped.converged and capped.n_iter == model.n_iter - 1


@pytest.mark.parametrize("lib", ["kernel", None])
def test_region_counts_report_budget_stops(chip_layers, lib, monkeypatch):
    if lib is None:
        monkeypatch.setattr(clustering, "_lib", None)
    elif clustering._lib is None:
        pytest.skip(clustering.KERNEL)
    layers = [extract_features(image, PixelFeatureConfig()) for _, _, image in chip_layers[:40]]
    seeds = np.arange(len(layers), dtype=np.uint64)
    sizes = [len(x) for x in layers]  # one layer per chip
    *_, n_iter, _, converged = clustering.region_counts(
        np.concatenate(layers), sizes, np.zeros(sum(sizes), np.uint8), 4, seeds, max_iter=3)
    models = [fit_kmeans(x, 4, int(seed), max_iter=3) for x, seed in zip(layers, seeds)]
    assert n_iter.tolist() == [m.n_iter for m in models]
    assert converged.tolist() == [m.converged for m in models]
    assert 0 < converged.sum() < len(layers)


@needs_kernel
def test_region_counts_return_each_fits_centroids_and_inertia(chip_layers):
    # The first two layers of six chips of different sizes: fit f writes its own slots.
    config = PixelFeatureConfig("spectral_window")
    chips = [(a, b) for a, b in zip(chip_layers, chip_layers[1:]) if a[1] == 0][:6]
    layers = [extract_features(image, config) for pair in chips for _, _, image in pair]
    sizes = [len(x) for x in layers[::2]]
    assert len(set(sizes)) > 1
    seeds = np.arange(100, 100 + len(layers), dtype=np.uint64)
    _, centroids, inertia, *_ = clustering.region_counts(
        np.concatenate(layers), sizes, np.zeros(sum(sizes), np.uint8), 8, seeds)
    for x, seed, c, i in zip(layers, seeds.tolist(), centroids, inertia):
        oracle = numpy_fit(x, 8, seed)
        assert (c.tobytes(), float(i)) == (oracle.centroids.tobytes(), oracle.inertia)


def init_picks(n, k, seed):
    """The point indices that k-means++ picks among n points, on both paths:
    points 0, 1, ..., n - 1 on a line, and no Lloyd iteration."""
    x = np.arange(n, dtype=np.float64)[:, None]
    return (fit_kmeans(x, k, seed, max_iter=0).centroids[:, 0],
            numpy_fit(x, k, seed, max_iter=0).centroids[:, 0])


@needs_kernel
def test_init_picks_match_default_rng():
    # One entropy word below 2**32, two from there on.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += np.random.default_rng(5).integers(0, 2**64 - 1, 2000, dtype=np.uint64).tolist()
    for i, seed in enumerate(seeds):
        for n in (1, 2, 3, 450):
            picks, oracle = init_picks(n, min(n, 1 + i % 8), seed)
            assert picks.tobytes() == oracle.tobytes(), (seed, n)


@needs_kernel
def test_rejected_bounded_draw_matches_default_rng():
    # Found with bit_generator.random_raw(): the low half of seed 1147's first
    # output falls in Lemire's rejection zone for n = 1,000,003, so the first
    # pick comes from the buffered high half.
    picks, oracle = init_picks(1_000_003, 1, 1147)
    assert picks.tolist() == oracle.tolist() == [614714.0]


@needs_kernel
@pytest.mark.parametrize("k", [4, 8])
def test_zero_total_picks_match_default_rng(k):
    # Two values: once both are picked, every later pick meets zero total
    # weight and draws integers(n) between random() draws.
    x = np.repeat([[3.0, 1.0, 4.0], [1.0, 5.0, 9.0]], [40, 23], axis=0)
    for seed in range(200):
        assert_same_fit(np.random.default_rng(seed).permutation(x), k, seed, max_iter=0)
        assert_same_fit(x, k, seed)


@pytest.mark.parametrize("lib", ["kernel", None])
def test_seeds_outside_64_bits_take_numpy_path(lib, monkeypatch):
    if lib is None:
        monkeypatch.setattr(clustering, "_lib", None)
    x = np.arange(30, dtype=np.float64).reshape(10, 3)
    # ctypes would pass -1 as 2**64 - 1, where default_rng raises.
    with pytest.raises(ValueError, match="non-negative"):
        fit_kmeans(x, 3, -1)
    with pytest.raises(ValueError, match="non-negative"):
        clustering.region_counts(x, [10], np.zeros(10, np.uint8), 3, np.array([-1]))
    # default_rng hashes three entropy words from 2**70; ctypes would pass 0.
    fitted = fit_kmeans(x, 3, 2**70).centroids
    assert fitted.tobytes() == numpy_fit(x, 3, 2**70).centroids.tobytes()
    assert fitted.tobytes() != numpy_fit(x, 3, 0).centroids.tobytes()


def test_reseeds_counted_alike_on_both_paths_and_workers(stock_dataset, monkeypatch):
    # A two-valued final layer has fewer distinct points than k = 4 clusters,
    # so Lloyd's first iteration empties some and reseeds them.
    scenes = list(stock_dataset.scenes)
    last = scenes[-1]
    two_valued = np.where(np.arange(last.pixels.shape[1]) % 2, 10, 200).astype(np.uint8)
    scenes[-1] = Scene(np.broadcast_to(two_valued[None, :, None], last.pixels.shape).copy(),
                       last.year, last.transform)
    dataset = FootprintDataset(scenes, stock_dataset.polygons[:10], {})
    counted = []
    for lib in (clustering._lib, None):
        monkeypatch.setattr(clustering, "_lib", lib)
        for workers in (1, 2):
            store = DivergenceCache(dataset, seed=3, workers=workers)
            store.series(4, 3.0)
            counted.append(store.fit_stats)
    assert counted[0].reseeds > 0
    assert counted == [counted[0]] * 4


@st.composite
def fit_cases(draw):
    k = draw(st.integers(1, 8))
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 27]))
    kind = draw(st.sampled_from(["pixels", "normal", "constant", "duplicates", "n_equals_k"]))
    n = k if kind == "n_equals_k" else draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        x = rng.normal(size=(n, d)) * 50.0
    elif kind == "constant":  # every pick after the first takes the total <= 0 branch
        x = np.full((n, d), float(rng.integers(256)))
    elif kind == "duplicates":  # fewer distinct points than clusters: clusters empty out
        distinct = rng.integers(0, 256, size=(int(rng.integers(1, 4)), d))
        x = distinct[rng.integers(0, len(distinct), size=n)].astype(np.float64)
    else:
        x = rng.integers(0, 256, size=(n, d)).astype(np.float64)
    return x, k, draw(st.integers(0, 2**63)), draw(st.sampled_from([0, 1, 2, 50]))


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(fit_cases())
@example((np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]]), 3, 0, 50))  # reseeds an empty cluster
@example((np.full((4, 3), 7.0), 4, 2, 1))
def test_edge_case_fits_match_numpy(case):
    assert_same_fit(*case)


@needs_kernel
def test_float_repeated_points_match_numpy():
    # A point on its centroid gets a distance that rounds to about 1e-13 of
    # the norms. A cross term rounded another way (BLAS's) flips such ties,
    # and with them the farthest-point reseeds, in about one fit in ten.
    # Such roundings also raise the inertia by far more than 1e-12 of it,
    # which the inertia check must allow: no fit here may raise.
    rng = np.random.default_rng(0)
    for _ in range(3000):
        d, k = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        distinct = rng.normal(size=(int(rng.integers(1, 4)), d)) * 50.0
        x = distinct[rng.integers(0, len(distinct), size=int(rng.integers(max(3, k), 40)))]
        assert_same_fit(x, k, int(rng.integers(0, 2**63)))


@needs_kernel
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), step=st.sampled_from([30.0, 45.0, 60.0]),
       mode=st.sampled_from(clustering.FEATURE_MODES))
def test_float32_scenes_give_the_same_bytes_on_both_paths(seed, step, mode):
    # Scenes of a few repeated colours, fractional noise on some pixels:
    # float-valued layers whose points repeat, through the whole CLI.
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = generate(SynthConfig(
            height=112, width=112, layers=3, footprints=12, size_range=(5.0, 8.0),
            margin=8.0, year_weights=(0.4, 0.35, 0.25), seed=seed)).save(tmp / "data")
        for path in sorted(paths["scenes"].glob("*.tcs")):
            pixels = np.round(read_tcs(path) / step) * step
            noisy = rng.random(pixels.shape[:-1]) < 0.3
            pixels[noisy] += rng.normal(size=(int(noisy.sum()), pixels.shape[-1]))
            write_tcs(path, pixels.astype(np.float32))
        outputs = []
        for lib in (clustering._lib, None):
            out = tmp / f"out-{len(outputs)}"
            config = tmp / "run.json"
            config.write_text(json.dumps({
                "scenes_dir": str(paths["scenes"]), "polygons": str(paths["polygons"]),
                "out_dir": str(out), "k_grid": [2, 4, 8], "r_grid": [3.0, 6.0],
                "n_random": 20, "seed": seed, "feature_mode": mode}))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(clustering, "_lib", lib)
                for command in (["calibrate"], ["detect", "--theta", "auto"]):
                    assert main([*command, "--config", str(config)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert list(outputs[0]) == ["calibration.json", "calibration_cells.csv",
                                    "detections.csv"]
        assert outputs[0] == outputs[1]


def test_build_falls_back_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(clustering.shutil, "which", lambda name: None)
    lib, note = clustering._load_kernel()
    assert lib is None and "no C compiler" in note


def test_build_falls_back_on_unwritable_cache(tmp_path, monkeypatch):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should be")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    lib, note = clustering._load_kernel()
    assert lib is None and note.startswith("numpy path")


@needs_kernel
def test_build_is_cached_by_source_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    lib, note = clustering._load_kernel()
    built = sorted((tmp_path / "tcm").iterdir())
    assert lib is not None and [p.suffix for p in built] == [".so"]
    monkeypatch.setattr(clustering.subprocess, "run", None)  # a second build would fail
    assert clustering._load_kernel()[0] is not None
    assert sorted((tmp_path / "tcm").iterdir()) == built
