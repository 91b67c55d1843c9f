"""Scoring, the repeated-split protocol, and the method registry.

Divergence and color features depend only on (footprint, parameters), never on
how the labeled set was split, so one `DivergenceCache` (defined in `core`)
computes them once and every split/method reuses them. Supervised methods
grid-search their hyperparameters on the training side of each split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calibration import DEFAULT_N_BINS, DEFAULT_N_RANDOM, DEFAULT_PERCENTILE
from .calibration import CalibrationReport, calibrate
from .core import DivergenceCache, divergence_store, first_crossings
from .data import FootprintDataset
from .errors import DegenerateRanks, MissingPrediction, TooFewLabels
from .supervised import fit_lr, fit_threshold, mode_predictor, predict_lr
from .util import stable_seed

METHODS = (
    "tcm_semi",
    "tcm_supervised",
    "tcm_lr",
    "avgcolor_threshold",
    "avgcolor_lr",
    "color_over_time",
    "mode",
)


@dataclass(frozen=True)
class EvalResult:
    """Exact-match accuracy and mean absolute error of first-developed years."""

    accuracy: float
    mae: float  # calendar years
    n: int
    mae_index: Optional[float] = None  # time-step units, when the year axis is known


def score(
    predictions: dict[str, int],
    labels: dict[str, int],
    years: Optional[Sequence[int]] = None,
) -> EvalResult:
    """Score predicted first-developed years against labeled ones.

    Every labeled id must have a prediction. When the scene year axis is
    given, the error is also reported in time-step units.
    """
    missing = sorted(set(labels) - set(predictions))
    if missing:
        raise MissingPrediction(f"no prediction for {missing[:5]} (+{max(0, len(missing) - 5)} more)")
    if not labels:
        raise ValueError("no labels to score against")
    ids = sorted(labels)
    pred = np.array([int(predictions[i]) for i in ids])
    true = np.array([int(labels[i]) for i in ids])
    mae_index = None
    if years is not None:
        pos = {int(y): i for i, y in enumerate(years)}
        mae_index = float(np.mean([abs(pos[int(p)] - pos[int(t)]) for p, t in zip(pred, true)]))
    return EvalResult(
        accuracy=float((pred == true).mean()),
        mae=float(np.abs(pred - true).mean()),
        n=len(ids),
        mae_index=mae_index,
    )


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties get the average of their rank range."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    rx, ry = _ranks(x), _ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateRanks("an input has zero rank variance")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def _accuracy_of_threshold(series: dict[str, np.ndarray], ids, labels_idx, theta) -> float:
    pred = first_crossings([series[i] for i in ids], theta)
    true = np.array([labels_idx[i] for i in ids])
    return float((pred == true).mean())


def _threshold_method(feature_fn, grid, labels_idx, train_ids, test_ids):
    """Fit a threshold per grid cell on train, keep the best cell, predict test."""
    def fitted(cell):
        series = feature_fn(cell)
        theta = fit_threshold([(series[i], labels_idx[i]) for i in train_ids])
        return -_accuracy_of_threshold(series, train_ids, labels_idx, theta), cell, theta

    _, cell, theta = min(fitted(cell) for cell in grid)
    series = feature_fn(cell)
    return dict(zip(test_ids, first_crossings([series[i] for i in test_ids], theta).tolist()))


def _lr_method(feature_fn, grid, labels_idx, train_ids, test_ids, n_classes):
    """Fit a logistic regression per grid cell on train, keep the best cell."""
    y_train = np.array([labels_idx[i] - 1 for i in train_ids])

    def fitted(cell):
        feats = feature_fn(cell)
        x_train = np.stack([feats[i] for i in train_ids])
        model = fit_lr(x_train, y_train, n_classes=n_classes)
        return -float((predict_lr(model, x_train) == y_train).mean()), cell, model

    _, cell, model = min((fitted(cell) for cell in grid), key=lambda fit: fit[:2])
    feats = feature_fn(cell)
    x_test = np.stack([feats[i] for i in test_ids])
    preds = predict_lr(model, x_test) + 1
    return {i: int(p) for i, p in zip(test_ids, preds)}


def _predict_split(method: str, cache: DivergenceCache, labels_idx: dict[str, int],
                   train_ids: list[str], test_ids: list[str], k_grid: Sequence[int],
                   r_grid: Sequence[float]) -> dict[str, int]:
    """Predicted 1-based first-developed indices for the test side of one split."""
    n_classes = cache.dataset.n_layers
    kr_grid = [(k, r) for k in k_grid for r in r_grid]
    if method == "tcm_supervised":
        return _threshold_method(lambda c: cache.series(*c), kr_grid,
                                 labels_idx, train_ids, test_ids)
    if method == "tcm_lr":
        return _lr_method(lambda c: cache.series(*c), kr_grid,
                          labels_idx, train_ids, test_ids, n_classes)
    if method == "avgcolor_threshold":
        return _threshold_method(cache.avg_color, list(r_grid),
                                 labels_idx, train_ids, test_ids)
    if method == "avgcolor_lr":
        return _lr_method(cache.avg_color, list(r_grid),
                          labels_idx, train_ids, test_ids, n_classes)
    if method == "color_over_time":
        return _lr_method(cache.color_deltas, [r_grid[0]],
                          labels_idx, train_ids, test_ids, n_classes)
    if method == "mode":
        predictor = mode_predictor([labels_idx[i] for i in train_ids])
        return {i: predictor() for i in test_ids}
    raise ValueError(f"unknown split method {method!r}")


@dataclass(frozen=True)
class SplitRecord:
    repeat: int
    accuracy: float
    mae: float
    mae_index: float
    n_test: int


@dataclass(frozen=True)
class SplitSummary:
    method: str
    acc_mean: float
    acc_std: float
    mae_mean: float
    mae_std: float
    mae_index_mean: float
    records: tuple[SplitRecord, ...]


def repeated_splits(
    dataset: FootprintDataset,
    method: str,
    n_repeats: int = 50,
    train_frac: float = 0.8,
    seed: int = 0,
    k_grid: Sequence[int] = (16, 32, 64),
    r_grid: Sequence[float] = (100.0, 200.0, 400.0),
    cache: Optional[DivergenceCache] = None,
) -> SplitSummary:
    """Shuffle labeled footprints n_repeats times, fit on the train side of
    each split (hyperparameter grids included), and score the test side.
    Features come from `cache` (a default store when None)."""
    if method not in METHODS or method == "tcm_semi":
        raise ValueError(f"method must be a supervised method, got {method!r}")
    ids = dataset.labeled_ids()
    if len(ids) < 5:
        raise TooFewLabels(f"need >= 5 labeled footprints, got {len(ids)}")
    labels_idx = {i: dataset.labels[i][0] for i in ids}
    labels_year = {i: dataset.labels[i][1] for i in ids}
    cache = divergence_store(cache, dataset, seed)

    rng = np.random.default_rng(stable_seed(seed, "splits"))
    n_train = int(round(train_frac * len(ids)))
    n_train = min(max(n_train, 1), len(ids) - 1)

    records = []
    for rep in range(n_repeats):
        perm = rng.permutation(len(ids))
        train_ids = [ids[i] for i in perm[:n_train]]
        test_ids = sorted(ids[i] for i in perm[n_train:])
        preds_idx = _predict_split(
            method, cache, labels_idx, train_ids, test_ids, k_grid, r_grid)
        preds_year = {i: dataset.year_of_index(preds_idx[i]) for i in test_ids}
        result = score(preds_year, {i: labels_year[i] for i in test_ids}, years=dataset.years)
        records.append(SplitRecord(
            repeat=rep,
            accuracy=result.accuracy,
            mae=result.mae,
            mae_index=result.mae_index,
            n_test=result.n,
        ))

    acc = np.array([r.accuracy for r in records])
    mae = np.array([r.mae for r in records])
    mae_i = np.array([r.mae_index for r in records])
    std = lambda v: float(v.std(ddof=1)) if v.size > 1 else 0.0
    return SplitSummary(
        method=method,
        acc_mean=float(acc.mean()), acc_std=std(acc),
        mae_mean=float(mae.mean()), mae_std=std(mae),
        mae_index_mean=float(mae_i.mean()),
        records=tuple(records),
    )


def detect_all(
    dataset: FootprintDataset,
    k: int,
    r: float,
    theta: float,
    seed: int = 0,
    cache: Optional[DivergenceCache] = None,
) -> dict[str, int]:
    """First-crossing index for every footprint at fixed parameters."""
    series = divergence_store(cache, dataset, seed).series(k, r)
    return dict(zip(series, first_crossings(list(series.values()), theta).tolist()))


def evaluate_semi_supervised(
    dataset: FootprintDataset,
    k_grid: Sequence[int],
    r_grid: Sequence[float],
    n_random: int = DEFAULT_N_RANDOM,
    n_bins: int = DEFAULT_N_BINS,
    pct: float = DEFAULT_PERCENTILE,
    seed: int = 0,
    cache: Optional[DivergenceCache] = None,
) -> tuple[EvalResult, CalibrationReport, dict[str, int]]:
    """Calibrate label-free, detect everything from the same store, and score
    on the labeled set."""
    cache = divergence_store(cache, dataset, seed)
    report = calibrate(dataset, k_grid, r_grid, n_random, n_bins, pct, seed, cache)
    preds_idx = detect_all(dataset, report.chosen_k, report.chosen_r, report.chosen_theta,
                           seed, cache)
    ids = dataset.labeled_ids()
    if not ids:
        raise ValueError("semi-supervised evaluation needs labels")
    preds_year = {i: dataset.year_of_index(preds_idx[i]) for i in ids}
    labels_year = {i: dataset.labels[i][1] for i in ids}
    result = score(preds_year, labels_year, years=dataset.years)
    return result, report, preds_idx


def grid_cell_accuracies(
    dataset: FootprintDataset,
    report: CalibrationReport,
    cache: Optional[DivergenceCache] = None,
    seed: int = 0,
) -> list[dict]:
    """Accuracy of every calibrated (k, r, theta) cell on the labeled set.

    This is the diagnostic pairing overlap scores with realized accuracy; the
    two should be anti-correlated when the calibration heuristic is healthy.
    """
    ids = dataset.labeled_ids()
    if not ids:
        raise ValueError("cell accuracies need labels")
    cache = divergence_store(cache, dataset, seed)
    labels_idx = {i: dataset.labels[i][0] for i in ids}
    rows = []
    for cell in report.cells:
        series = cache.series(cell.k, cell.r)
        acc = _accuracy_of_threshold(series, ids, labels_idx, cell.theta)
        rows.append({"k": cell.k, "r": cell.r, "bc": cell.bc, "theta": cell.theta,
                     "accuracy": acc})
    return rows
