import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import best_partition_inertia, concatenated_features

from tcm import clustering
from tcm.clustering import (
    ClusterModel,
    PixelFeatureConfig,
    assign_features,
    extract_features,
    fit_kmeans,
)
from tcm.errors import FeatureDimMismatch, TooFewPixels


class TestExtractFeatures:
    def test_spectral_is_reshape(self):
        img = np.arange(2 * 2 * 3).reshape(2, 2, 3)
        feats = extract_features(img, PixelFeatureConfig())
        assert feats.shape == (4, 3)
        assert np.array_equal(feats, img.reshape(4, 3))
        assert feats.dtype == np.float64

    def test_single_pixel_window_replicates(self):
        img = np.array([[[3.0, 5.0, 7.0]]])
        feats = extract_features(img, PixelFeatureConfig("spectral_window", window=1))
        assert feats.shape == (1, 27)
        assert np.array_equal(feats.reshape(9, 3), np.tile([3.0, 5.0, 7.0], (9, 1)))

    def test_ramp_center_window_row_major(self):
        img = np.arange(9, dtype=np.float64).reshape(3, 3, 1)
        feats = extract_features(img, PixelFeatureConfig("spectral_window", window=1))
        # Center pixel (1,1): its window is the whole image in row-major order.
        assert np.array_equal(feats[4], np.arange(9, dtype=np.float64))

    def test_window_dim(self):
        cfg = PixelFeatureConfig("spectral_window", window=2)
        assert cfg.dim(4) == 4 * 25

    @pytest.mark.parametrize("config", [PixelFeatureConfig(),
                                        PixelFeatureConfig("spectral_window", window=2)])
    def test_stack_is_features_of_each_layer(self, config):
        stack = np.random.default_rng(0).integers(0, 256, size=(4, 5, 7, 3)).astype(np.uint8)
        feats = extract_features(stack, config)
        assert feats.shape == (4, 35, config.dim(3)) and feats.dtype == np.float64
        for layer, image in zip(feats, stack):
            assert layer.tobytes() == extract_features(image, config).tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    @pytest.mark.parametrize("config", [PixelFeatureConfig(),
                                        PixelFeatureConfig("spectral_window", window=1),
                                        PixelFeatureConfig("spectral_window", window=2)])
    def test_cast_in_place_matches_concatenated_copy(self, config, dtype):
        rng = np.random.default_rng(1)
        stack = (rng.random((3, 6, 5, 3)) * 255).astype(dtype)
        for image in (stack, stack[1], stack[:, 1:, ::-1]):  # the last is not contiguous
            oracle = concatenated_features(image, config)
            assert extract_features(image, config).tobytes() == oracle.tobytes()
            out = np.full(oracle.shape, np.nan)
            assert extract_features(image, config, out=out) is out
            assert out.tobytes() == oracle.tobytes()

    def test_out_of_another_shape_or_type_is_refused(self):
        image = np.zeros((4, 4, 3), np.uint8)
        for out in (np.empty((16, 4)), np.empty((16, 3), np.float32),
                    np.empty((3, 16))[:, :].T):
            with pytest.raises(ValueError, match="out must be"):
                extract_features(image, PixelFeatureConfig(), out=out)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PixelFeatureConfig("texture")
        with pytest.raises(ValueError):
            PixelFeatureConfig("spectral_window", window=0)


class TestFitKmeans:
    def test_exact_fit_on_k_distinct_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        model = fit_kmeans(pts, 3, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        got = {tuple(c) for c in model.centroids}
        assert got == {(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)}

    def test_k1_is_mean(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 3))
        model = fit_kmeans(pts, 1, seed=0)
        assert model.centroids[0] == pytest.approx(pts.mean(axis=0))

    def test_two_blobs_match_exhaustive_partition(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(0.0, 0.3, size=(4, 2))
        blob_b = rng.normal(8.0, 0.3, size=(4, 2))
        pts = np.vstack([blob_a, blob_b])
        _, oracle_labels = best_partition_inertia(pts, 2)
        model = fit_kmeans(pts, 2, seed=0)
        labels = assign_features(model, pts)
        # Same partition up to cluster relabeling.
        groups = {tuple(np.nonzero(labels == j)[0]) for j in range(2)}
        oracle_groups = {tuple(np.nonzero(oracle_labels == j)[0]) for j in range(2)}
        assert groups == oracle_groups

    def test_too_few_points(self):
        with pytest.raises(TooFewPixels):
            fit_kmeans(np.zeros((2, 3)), 5, seed=0)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 4))
        a = fit_kmeans(pts, 6, seed=42)
        b = fit_kmeans(pts, 6, seed=42)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.n_iter == b.n_iter

    def test_duplicate_points_fill_clusters(self):
        pts = np.zeros((6, 2))
        pts[5] = [1.0, 1.0]
        model = fit_kmeans(pts, 3, seed=0)
        assert model.centroids.shape == (3, 2)
        assert np.isfinite(model.centroids).all()


class TestAssign:
    def test_exact_centroid_pixel(self):
        model = ClusterModel(k=3, centroids=np.array([[0.0], [5.0], [9.0]]), seed=0)
        assert assign_features(model, np.array([[9.0]]))[0] == 2

    def test_tie_breaks_to_lowest_index(self):
        model = ClusterModel(k=2, centroids=np.array([[0.0], [1.0]]), seed=0)
        assert assign_features(model, np.array([[0.5]]))[0] == 0

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 255, size=(256, 3))
        model = fit_kmeans(pts, 4, seed=9)
        labels = assign_features(model, pts)
        for i, p in enumerate(pts):
            dists = [float(((p - c) ** 2).sum()) for c in model.centroids]
            assert labels[i] == int(np.argmin(dists))

    def test_dim_mismatch(self):
        model = ClusterModel(k=2, centroids=np.zeros((2, 3)), seed=0)
        with pytest.raises(FeatureDimMismatch):
            assign_features(model, np.zeros((16, 2)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 60),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_assigned_indices_below_k(n, k, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(max(n, k), 3))
    model = fit_kmeans(pts, k, seed=seed)
    labels = assign_features(model, pts)
    assert labels.min() >= 0 and labels.max() < k


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inertia_monotone_assert_never_fires(seed):
    # fit_kmeans asserts non-increasing inertia internally on every iteration.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(int(rng.integers(10, 120)), int(rng.integers(1, 5))))
    fit_kmeans(pts, int(rng.integers(1, 7)), seed=seed)


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_row_norms_and_sums_run_left_to_right():
    # Both fit paths sum in this written order. np.einsum and np.sum take
    # others, which round differently on some of these draws.
    rng = np.random.default_rng(5)
    einsum_differs = sum_differs = False
    for d in range(1, 28):
        rows = rng.normal(size=(50, d)) * 10.0 ** rng.integers(-3, 4, size=(50, d))
        expected = [left_to_right(v * v for v in row) for row in rows.tolist()]
        assert clustering._row_norms(rows).tolist() == expected
        einsum_differs |= np.einsum("ij,ij->i", rows, rows).tolist() != expected
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 2000):
        values = np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-3, 4, size=n)
        expected = left_to_right(values.tolist())
        assert clustering._sum(values) == expected
        sum_differs |= float(np.sum(values)) != expected
    assert einsum_differs and sum_differs
