import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcm.core import first_crossing, first_crossings
from tcm.errors import DegenerateLabels, SeriesTooShort
from tcm.geometry import ChipStack
from tcm.supervised import (
    LR_GRAD_TOL,
    LR_LAM,
    LR_MAX_ITER,
    LogisticModel,
    _loss_and_grad,
    avg_color_series,
    color_over_time_features,
    fit_lr,
    fit_threshold,
    lr_probabilities,
    mode_predictor,
    predict_lr,
    threshold_candidates,
)

from oracles import exhaustive_threshold, lstsq_fit_lr


def fit_pairs(pairs):
    """fit_threshold of (series, label) pairs, as a table and its labels."""
    return fit_threshold(np.stack([s for s, _ in pairs]), [label for _, label in pairs])


def crossing_accuracy(series_label_pairs, theta):
    hits = sum(first_crossing(s, theta) == l for s, l in series_label_pairs)
    return hits / len(series_label_pairs)


class TestFitThreshold:
    def test_single_separable_series_returns_midpoint(self):
        assert fit_threshold(np.array([[0.1, 0.9]]), [2]) == pytest.approx(0.5)

    def test_separable_set_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        pairs = []
        for i in range(40):
            label = int(rng.integers(1, 6))
            low = rng.uniform(0.0, 0.3, 5)
            series = low.copy()
            series[label - 1 :] = rng.uniform(1.0, 2.0, 5 - label + 1)
            pairs.append((series, label))
        theta = fit_pairs(pairs)
        assert crossing_accuracy(pairs, theta) == 1.0

    def test_all_last_layer_labels_push_theta_above_max(self):
        pairs = [(np.array([0.1, 0.2, 0.15]), 3) for _ in range(4)]
        theta = fit_pairs(pairs)
        assert theta > 0.2
        assert crossing_accuracy(pairs, theta) == 1.0

    def test_ties_prefer_smallest_theta(self):
        # Both 0.5 and anything above 0.9 give accuracy 1; the midpoint wins.
        assert fit_threshold(np.array([[0.1, 0.9]]), [2]) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_beats_dense_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        pairs = [(rng.uniform(0, 2, t), int(rng.integers(1, t + 1))) for _ in range(n)]
        theta = fit_pairs(pairs)
        best = crossing_accuracy(pairs, theta)
        for candidate in np.linspace(0.0, 2.5, 301):
            assert best >= crossing_accuracy(pairs, candidate) - 1e-12


def random_labeled_set(rng):
    """1-40 series of 1-7 values with labels from 1 to T. In half of the sets
    the series step up at their labels; a third are quantised to quarters,
    so that values and candidates tie; a tenth hold a label outside 1..T."""
    n, t = int(rng.integers(1, 41)), int(rng.integers(1, 8))
    series = rng.uniform(0, 1, (n, t))
    labels = rng.integers(1, t + 1, n)
    if rng.random() < 1 / 2:
        series += np.arange(t) >= labels[:, None] - 1
    if rng.random() < 1 / 3:
        series = np.round(series * 4) / 4
    if rng.random() < 1 / 10:
        labels[0] = rng.choice([0, t + 1])
    return [(row, int(label)) for row, label in zip(series, labels)]


def test_fit_threshold_matches_the_exhaustive_search():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        pairs = random_labeled_set(rng)
        cands = threshold_candidates(np.stack([row for row, _ in pairs]))
        theta = exhaustive_threshold([(row.tolist(), label) for row, label in pairs], cands)
        assert fit_pairs(pairs) == theta


def test_candidates_of_negative_values_are_nonnegative_and_ascending():
    cands = threshold_candidates(np.array([-10.0, -9.0]))
    assert (cands >= 0).all() and (np.diff(cands) > 0).all()
    theta = fit_threshold(np.array([[-10.0, -9.0]]), [2])
    assert theta == cands[0] == 0.0
    assert first_crossing([-10.0, -9.0], theta) == 2


def test_candidates_of_nonnegative_values_keep_their_formula():
    rng = np.random.default_rng(29)
    for _ in range(200):
        values = rng.uniform(0, 2, int(rng.integers(1, 30)))
        if rng.random() < 1 / 3:
            values = np.round(values * 4) / 4  # ties and zeros
        v = np.unique(values)
        formula = np.concatenate(([v[0] / 2.0], (v[:-1] + v[1:]) / 2.0, [v[-1] + 1.0]))
        assert threshold_candidates(values).tobytes() == formula.tobytes()


def test_fit_threshold_on_signed_series_beats_every_admissible_theta():
    rng = np.random.default_rng(31)
    for _ in range(100):
        pairs = [(row - 0.5, label) for row, label in random_labeled_set(rng)]
        series, labels = np.stack([row for row, _ in pairs]), np.array([l for _, l in pairs])
        cands = threshold_candidates(series)
        assert (cands >= 0).all() and (np.diff(cands) > 0).all()
        theta = fit_threshold(series, labels)
        assert theta == exhaustive_threshold([(row.tolist(), l) for row, l in pairs], cands)
        best = (first_crossings(series, theta) == labels).mean()
        for candidate in np.linspace(0.0, 2.0, 81):
            assert best >= (first_crossings(series, candidate) == labels).mean()


class TestLogisticRegression:
    def test_linearly_separable(self):
        rng = np.random.default_rng(1)
        x = np.vstack([rng.normal(-3, 0.4, (30, 2)), rng.normal(3, 0.4, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        model = fit_lr(x, y)
        assert (predict_lr(model, x) == y).mean() == 1.0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        n, d, c = 12, 4, 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, n)
        onehot = np.zeros((n, c))
        onehot[np.arange(n), y] = 1.0
        w = rng.normal(scale=0.5, size=(c, d))
        b = rng.normal(scale=0.5, size=c)
        lam = 1e-3
        _, gw, gb, _ = _loss_and_grad(w, b, x, onehot, lam)

        h = 1e-6
        num_gw = np.zeros_like(w)
        for i in range(c):
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                lp = _loss_and_grad(wp, b, x, onehot, lam)[0]
                lm = _loss_and_grad(wm, b, x, onehot, lam)[0]
                num_gw[i, j] = (lp - lm) / (2 * h)
        num_gb = np.zeros_like(b)
        for i in range(c):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            lp = _loss_and_grad(w, bp, x, onehot, lam)[0]
            lm = _loss_and_grad(w, bm, x, onehot, lam)[0]
            num_gb[i] = (lp - lm) / (2 * h)

        assert np.abs(gw - num_gw).max() <= 1e-5
        assert np.abs(gb - num_gb).max() <= 1e-5

    def test_zero_weights_give_uniform_probabilities(self):
        model = LogisticModel(
            n_classes=4, weights=np.zeros((4, 3)), bias=np.zeros(4),
            feat_mean=np.zeros(3), feat_scale=np.ones(3),
            n_iter=0, final_loss=float("nan"), grad_norm=float("nan"))
        probs = lr_probabilities(model, np.array([[5.0, -2.0, 9.0]]))
        assert np.allclose(probs, 0.25)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), absent=st.booleans())
    def test_converges_to_the_minimum(self, seed, absent):
        # Classes missing from the labels (absent=True) push their bias to
        # -inf, the slowest case the solver meets in the repeated splits.
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(10, 80)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0, d) + rng.normal(0, 20, d)
        y = rng.integers(0, c, n)
        y[:2] = (0, 1)
        model = fit_lr(x, y, n_classes=c + 2 * absent)
        assert model.n_iter < LR_MAX_ITER

        xs = (x - model.feat_mean) / model.feat_scale
        onehot = np.eye(model.n_classes)[y]
        loss, gw, gb, _ = _loss_and_grad(model.weights, model.bias, xs, onehot, LR_LAM)
        grad_norm = np.sqrt((gw ** 2).sum() + (gb ** 2).sum())
        assert grad_norm < LR_GRAD_TOL
        assert grad_norm == pytest.approx(model.grad_norm, rel=1e-6, abs=1e-12)
        assert loss == model.final_loss
        for _ in range(20):
            w = model.weights + rng.normal(scale=1e-3, size=model.weights.shape)
            b = model.bias + rng.normal(scale=1e-3, size=model.bias.shape)
            assert _loss_and_grad(w, b, xs, onehot, LR_LAM)[0] >= loss

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            fit_lr(np.zeros((5, 2)), [1, 1, 1, 1, 1])

    def test_prediction_ties_take_lowest_class(self):
        model = LogisticModel(
            n_classes=3, weights=np.zeros((3, 2)), bias=np.zeros(3),
            feat_mean=np.zeros(2), feat_scale=np.ones(2),
            n_iter=0, final_loss=0.0, grad_norm=0.0)
        assert predict_lr(model, np.array([[1.0, 2.0]]))[0] == 0

    def test_labels_capped_by_n_classes(self):
        with pytest.raises(ValueError):
            fit_lr(np.zeros((4, 2)), [0, 1, 2, 3], n_classes=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.random.default_rng(3).normal(size=(10, 2))
        x[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_lr(x, [0, 1] * 5)

    def test_overflowing_spread_rejected(self):
        # Finite features whose squared deviations overflow to inf.
        x = np.array([[1e308, 0.0], [-1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]])
        with pytest.raises(ValueError, match="overflows"):
            fit_lr(x, [0, 1, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), absent=st.integers(0, 2), constant=st.booleans(),
           collinear=st.booleans())
    def test_matches_the_least_squares_oracle(self, seed, absent, constant, collinear):
        # The oracle's steps may carry a shared bias shift, which no logit
        # sees, so biases are compared centred. An absent class's bias (its
        # curvature is its vanishing probability) and the weights of a
        # constant column (it can standardise to a copy of the bias column,
        # curved by LR_LAM alone) are ill-conditioned: any two stable solvers
        # agree there to about 1e-7.
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(10, 80)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0, d) + rng.normal(0, 20, d)
        if constant:
            x = np.hstack([x, np.full((n, 1), rng.normal(0, 20))])
        if collinear:
            x = np.hstack([x, rng.uniform(-3, 3) * x[:, :1] + rng.normal(0, 20)])
        y = rng.integers(0, c, n)
        y[:2] = (0, 1)
        model = fit_lr(x, y, n_classes=c + absent)
        oracle = lstsq_fit_lr(x, y, c + absent)
        tol = 1e-9 if np.unique(y).size == model.n_classes and not constant else 1e-6
        assert model.n_iter == oracle.n_iter
        assert np.abs(model.weights - oracle.weights).max() <= tol
        centred = lambda bias: bias - bias.mean()
        assert np.abs(centred(model.bias) - centred(oracle.bias)).max() <= tol
        assert (predict_lr(model, x) == predict_lr(oracle, x)).all()
        assert abs(model.bias.sum()) < 1e-9


def chips_with_layers(layers, mask):
    return ChipStack(footprint_id="c", imagery=np.stack(layers),
                     mask=mask.astype(np.uint8),
                     years=tuple(range(1, len(layers) + 1)), buffer_radius=1.0)


def uniform_chip(fp_color, nb_color, layers=1):
    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[2:4, 2:4] = 1
    imgs = []
    for _ in range(layers):
        img = np.zeros((6, 6, 3))
        img[:, :] = nb_color
        img[mask == 1] = fp_color
        imgs.append(img)
    return chips_with_layers(imgs, mask)


class TestColorBaselines:
    def test_identical_regions_have_zero_distance(self):
        chips = uniform_chip((9.0, 9.0, 9.0), (9.0, 9.0, 9.0))
        assert avg_color_series(chips)[0] == 0.0

    def test_hand_computed_distance(self):
        chips = uniform_chip((10.0, 10.0, 10.0), (13.0, 14.0, 10.0))
        assert avg_color_series(chips)[0] == pytest.approx(5.0)  # sqrt(9+16+0)

    def test_built_layer_towers_over_preconstruction(self):
        rng = np.random.default_rng(0)
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[3:6, 3:6] = 1
        pre = rng.uniform(20, 40, (10, 10, 3))
        post = pre.copy()
        post[mask == 1] = 220.0
        chips = chips_with_layers([pre, post], mask)
        series = avg_color_series(chips)
        assert series[1] > 10 * max(series[0], 1.0)

    def test_color_over_time_counts(self):
        chips = uniform_chip((9.0, 9.0, 9.0), (9.0, 9.0, 9.0), layers=5)
        feats = color_over_time_features(chips)
        assert feats.shape == (4,)
        assert np.allclose(feats, 0.0)

    def test_color_over_time_peaks_at_change(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:5, 2:5] = 1
        layers = []
        for t in range(1, 6):
            img = np.full((8, 8, 3), 30.0)
            if t >= 4:
                img[mask == 1] = 200.0
            layers.append(img)
        feats = color_over_time_features(chips_with_layers(layers, mask))
        assert int(np.argmax(feats)) == 2  # between layers 3 and 4
        assert feats[2] > 50

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShort):
            color_over_time_features(uniform_chip((1, 1, 1), (2, 2, 2), layers=1))


class TestModePredictor:
    def test_most_frequent_year(self):
        predict = mode_predictor([2011, 2011, 2013])
        assert predict() == 2011
        assert predict("anything") == 2011

    def test_tie_takes_earliest(self):
        assert mode_predictor([1, 2])() == 1
        assert mode_predictor([2, 1])() == 1

    def test_single_label(self):
        assert mode_predictor([4])() == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mode_predictor([])
