"""Scoring, the repeated-split protocol, and the method registry.

Divergence and color features depend only on (footprint, parameters), never on
how the labeled set was split, so one `DivergenceCache` (defined in `core`)
computes them once and every split/method reuses them. They are read as
tables whose rows follow the store's `ids`; a split is two arrays of rows,
the train side in its shuffled order and the test side in id order.
Supervised methods grid-search their hyperparameters on the train rows of
each split. Ids reappear only in what is keyed by them: `score`'s inputs and
the dicts that `detect_all` and `evaluate_semi_supervised` return.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calibration import DEFAULT_N_BINS, DEFAULT_N_RANDOM, DEFAULT_PERCENTILE
from .calibration import CalibrationReport, calibrate
from .core import DivergenceCache, divergence_store, first_crossings
from .data import FootprintDataset
from .errors import DegenerateRanks, MissingPrediction, TooFewLabels
from .supervised import LR_GRAD_TOL, fit_lr_stack, fit_threshold, mode_predictor, predict_lr
from .util import stable_seed

log = logging.getLogger("tcm")

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


def _labelled_rows(cache: DivergenceCache) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the labelled footprints in the store's tables, in the order
    of `labeled_ids`, and their 1-based labels."""
    labels = cache.dataset.labels or {}
    rows = np.flatnonzero([fid in labels for fid in cache.ids])
    return rows, np.array([labels[cache.ids[row]][0] for row in rows], dtype=np.int64)


def _accuracy_of_threshold(series: np.ndarray, labels: np.ndarray, theta: float) -> float:
    return float((first_crossings(series, theta) == labels).mean())


def _threshold_method(table, grid, train, y_train, test) -> np.ndarray:
    """Fit a threshold per grid cell on the train rows, keep the best cell,
    and date the test rows."""
    def fitted(cell):
        x = table(cell)[train]
        theta = fit_threshold(x, y_train)
        return -_accuracy_of_threshold(x, y_train, theta), cell, theta

    _, cell, theta = min(fitted(cell) for cell in grid)
    return first_crossings(table(cell)[test], theta)


def _lr_method(table, grid, train, y_train, test, n_classes) -> tuple[np.ndarray, int]:
    """Fit a logistic regression per grid cell on the train rows, in their
    order, as one stack; keep the best cell, and date the test rows. Also
    return how many of the fits stopped at `LR_MAX_ITER` unconverged."""
    xs = [table(cell)[train] for cell in grid]
    models = fit_lr_stack(np.stack(xs), y_train - 1, n_classes=n_classes)
    budget_stops = sum(not m.grad_norm < LR_GRAD_TOL for m in models)
    fits = [(-float((predict_lr(m, x) + 1 == y_train).mean()), cell, m)
            for cell, x, m in zip(grid, xs, models)]
    _, cell, model = min(fits, key=lambda fit: fit[:2])
    return predict_lr(model, table(cell)[test]) + 1, budget_stops


def _predict_split(method: str, cache: DivergenceCache, train: np.ndarray,
                   y_train: np.ndarray, test: np.ndarray, k_grid: Sequence[int],
                   r_grid: Sequence[float]) -> tuple[np.ndarray, int]:
    """Predicted 1-based first-developed indices of the test rows of one
    split, and how many of its logistic fits stopped at `LR_MAX_ITER`.

    train and test are rows of the store's tables, and y_train holds the
    train rows' 1-based labels."""
    n_classes = cache.dataset.n_layers
    kr_grid = [(k, r) for k in k_grid for r in r_grid]
    series = lambda cell: cache.series(*cell)
    if method == "tcm_supervised":
        return _threshold_method(series, kr_grid, train, y_train, test), 0
    if method == "tcm_lr":
        return _lr_method(series, kr_grid, train, y_train, test, n_classes)
    if method == "avgcolor_threshold":
        return _threshold_method(cache.avg_color, list(r_grid), train, y_train, test), 0
    if method == "avgcolor_lr":
        return _lr_method(cache.avg_color, list(r_grid), train, y_train, test, n_classes)
    if method == "color_over_time":
        return _lr_method(cache.color_deltas, [r_grid[0]], train, y_train, test, n_classes)
    if method == "mode":
        return np.full(len(test), mode_predictor(y_train)()), 0
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
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    if not 0 < train_frac < 1:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    ids = dataset.labeled_ids()
    if len(ids) < 5:
        raise TooFewLabels(f"need >= 5 labeled footprints, got {len(ids)}")
    cache = divergence_store(cache, dataset, seed)
    rows, labels = _labelled_rows(cache)

    rng = np.random.default_rng(stable_seed(seed, "splits"))
    n_train = int(round(train_frac * len(ids)))
    n_train = min(max(n_train, 1), len(ids) - 1)

    records, budget_stops = [], 0
    for rep in range(n_repeats):
        perm = rng.permutation(len(ids))
        train, test = perm[:n_train], np.sort(perm[n_train:])
        preds_idx, stops = _predict_split(method, cache, rows[train], labels[train],
                                          rows[test], k_grid, r_grid)
        budget_stops += stops
        test_ids = [ids[i] for i in test]
        result = score(dict(zip(test_ids, map(dataset.year_of_index, preds_idx.tolist()))),
                       {i: dataset.labels[i][1] for i in test_ids}, years=dataset.years)
        records.append(SplitRecord(rep, result.accuracy, result.mae, result.mae_index,
                                   result.n))
    if budget_stops:
        log.warning("%s: %d logistic regression fits stopped at LR_MAX_ITER Newton steps "
                    "with the gradient norm not below LR_GRAD_TOL", method, budget_stops)

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
    cache = divergence_store(cache, dataset, seed)
    return dict(zip(cache.ids, first_crossings(cache.series(k, r), theta).tolist()))


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
    if not dataset.labels:
        raise ValueError("semi-supervised evaluation needs labels")
    cache = divergence_store(cache, dataset, seed)
    report = calibrate(dataset, k_grid, r_grid, n_random, n_bins, pct, seed, cache)
    preds_idx = detect_all(dataset, report.chosen_k, report.chosen_r, report.chosen_theta,
                           seed, cache)
    result = score({i: dataset.year_of_index(p) for i, p in preds_idx.items()},
                   {i: year for i, (_, year) in dataset.labels.items()}, years=dataset.years)
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
    if not dataset.labels:
        raise ValueError("cell accuracies need labels")
    cache = divergence_store(cache, dataset, seed)
    rows, labels = _labelled_rows(cache)
    cells = []
    for cell in report.cells:
        acc = _accuracy_of_threshold(cache.series(cell.k, cell.r)[rows], labels, cell.theta)
        cells.append({"k": cell.k, "r": cell.r, "bc": cell.bc, "theta": cell.theta,
                      "accuracy": acc})
    return cells
