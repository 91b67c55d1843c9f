"""The compiled k-means kernel against its numpy oracle.

Every fit here runs twice, through the kernel and through the numpy path
that `tcm.clustering` falls back to, and must give the same centroid bits
and iteration count. Inertia is only compared to 1e-12, relative to itself
and to the data's sum of squares: BLAS may fuse the multiply-adds of the
cross term, and no output contains the inertia. The chip path, one kernel
call for a chip's layers that also assigns and counts their labels, must
give the divergence bits and n_iter of `layer_divergence` and `fit_kmeans`
on the numpy path.
"""

import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcm import clustering
from tcm.clustering import PixelFeatureConfig, extract_features, fit_kmeans
from tcm.core import DEFAULT_EPS, DivergenceCache, _divergences, layer_divergence
from tcm.data import FootprintDataset
from tcm.geometry import ChipStack, extract_chip_stack
from tcm.synthgen import SynthConfig, generate
from tcm.util import stable_seed

needs_kernel = pytest.mark.skipif(clustering._lib is None, reason=clustering.KERNEL)


def test_kernel_loads_where_a_compiler_exists():
    # A build that fails quietly would leave every other test on the numpy path.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert clustering._lib is not None, clustering.KERNEL


def assert_same_fit(x, k, seed, max_iter=50):
    kernel = fit_kmeans(x, k, seed, max_iter=max_iter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_lib", None)
        oracle = fit_kmeans(x, k, seed, max_iter=max_iter)
    assert kernel.centroids.tobytes() == oracle.centroids.tobytes()
    assert kernel.n_iter == oracle.n_iter
    assert kernel.inertia == pytest.approx(oracle.inertia, rel=1e-12, abs=1e-12 * (x * x).sum())


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
    """Divergences and n_iter of the layers on the numpy per-layer path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_lib", None)
        values = np.array([layer_divergence(chips, l, k, config, seed, eps) for l in layers])
        n_iter = [fit_kmeans(extract_features(chips.imagery[l], config), k,
                             stable_seed(seed, chips.footprint_id, l)).n_iter for l in layers]
    return values, n_iter


def assert_same_divergences(chips, layers, k, config, seed=1, eps=DEFAULT_EPS):
    values, n_iter = _divergences(chips, layers, k, config, seed, eps)
    oracle, oracle_iter = numpy_divergences(chips, layers, k, config, seed, eps)
    assert values.tobytes() == oracle.tobytes()
    assert n_iter.tolist() == oracle_iter


@pytest.fixture(scope="module")
def stock_dataset():
    return generate(SynthConfig(footprints=40, seed=1))


@needs_kernel
@pytest.mark.parametrize("mode", ["spectral", "spectral_window"])
def test_chip_path_matches_numpy(stock_dataset, mode):
    config = PixelFeatureConfig(mode)
    for p in stock_dataset.polygons[:12]:
        for r in (2.0, 8.0):
            chips = extract_chip_stack(stock_dataset.scenes, p, r)
            for k in (1, 2, 4, 8):
                # A full series, and the final layer alone, as calibration asks.
                assert_same_divergences(chips, range(chips.n_layers), k, config)
                assert_same_divergences(chips, [chips.n_layers - 1], k, config)


@needs_kernel
def test_constant_layer_is_redone_on_numpy_path(monkeypatch):
    rng = np.random.default_rng(3)
    imagery = rng.integers(0, 256, size=(3, 12, 12, 3)).astype(np.uint8)
    imagery[1] = 77  # its k-means++ weights sum to 0 after the first pick
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[3:8, 4:9] = 1
    chips = ChipStack("const", imagery, mask, (2015, 2016, 2017), 2.0)
    numpy_fit = clustering._fit_kmeans_numpy
    for k in (1, 2, 4, 8):
        redone = []
        with monkeypatch.context() as mp:
            mp.setattr(clustering, "_fit_kmeans_numpy",
                       lambda x, *args: redone.append(x) or numpy_fit(x, *args))
            _divergences(chips, range(3), k, PixelFeatureConfig(), 1, DEFAULT_EPS)
        # The chip path redoes the constant layer, and only it, once k > 1.
        assert len(redone) == (k > 1) and all((x == 77).all() for x in redone)
        assert_same_divergences(chips, range(3), k, PixelFeatureConfig())


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
    for p, last in zip(dataset.polygons, final):
        chips = store.chips(2.0)[p.id]
        oracle, _ = numpy_divergences(chips, range(chips.n_layers), k, config, 4, 0.0)
        assert series[p.id].tobytes() == oracle.tobytes()
        assert last.tobytes() == oracle[-1:].tobytes()
    assert store.fit_stats.fits == len(dataset.polygons) * dataset.n_layers
    values = np.concatenate(list(series.values()))
    assert np.isinf(values).any() and np.isfinite(values).any()


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
