"""Supervised decision models and color baselines.

Threshold fitting and a small multinomial logistic regression cover the
label-trained variants; both take a table whose rows are the labelled
footprints' series or features, with one label per row. The threshold fit
counts, for every candidate at once, the rows that `core.first_crossings`
would date right. The average-color and color-over-time feature extractors
provide the non-clustered baselines. Everything here is deterministic: the
regression starts from zero weights and runs damped Newton steps on its
convex objective until the gradient norm falls below `LR_GRAD_TOL`, so its
result depends on the data alone. The objective ignores one direction, a
shared shift of all class biases, so its Hessian is singular there; each step
solves the Hessian bordered with that direction, a nonsingular system whose
solution is the minimum-norm Newton step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLabels, SeriesTooShort
from .geometry import ChipStack


def threshold_candidates(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct observed values, plus one
    candidate below the minimum and one above the maximum, in ascending order.
    A value below 0 counts as 0, since no theta >= 0 is crossed by either."""
    v = np.unique(np.maximum(np.asarray(values, dtype=np.float64).ravel(), 0.0))
    mids = (v[:-1] + v[1:]) / 2.0
    return np.concatenate(([v[0] / 2.0], mids, [v[-1] + 1.0]))


def fit_threshold(series: np.ndarray, labels: Sequence[int]) -> float:
    """Exhaustive threshold search maximizing exact-match accuracy.

    series is an (n, T) table and labels its rows' 1-based true indices.
    Ties in accuracy go to the smallest candidate threshold. A series s is
    dated right exactly for theta in [max(s[:y-1]), s[y-1]), open below at
    y = 1 and above at y = T, so a candidate's hits are the intervals that
    start at or below it less those that end there.
    """
    series = np.asarray(series, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if series.ndim != 2 or series.size == 0 or labels.shape != series.shape[:1]:
        raise ValueError(f"need an (n, T) table and n labels, got {series.shape}, {labels.shape}")
    n, t = series.shape
    at = np.clip(labels, 1, t) - 1
    rows = np.arange(n)
    lo = np.where(at > 0, np.maximum.accumulate(series, axis=1)[rows, at - 1], -np.inf)
    hi = np.where(at < t - 1, series[rows, at], np.inf)
    keep = (labels == at + 1) & (lo < hi)  # a label outside 1..T is never right
    cands = threshold_candidates(series)
    hits = (np.searchsorted(np.sort(lo[keep]), cands, side="right")
            - np.searchsorted(np.sort(hi[keep]), cands, side="right"))
    return float(cands[int(np.argmax(hits))])


LR_LAM = 1e-3  # L2 weight penalty; the bias is not penalized
LR_GRAD_TOL = 1e-8  # stop once the gradient norm is below this
LR_MAX_ITER = 100  # Newton steps; reaching it is visible as grad_norm >= LR_GRAD_TOL


@dataclass(frozen=True)
class LogisticModel:
    """Multinomial logistic regression with standardized inputs."""

    n_classes: int
    weights: np.ndarray  # (C, dim)
    bias: np.ndarray  # (C,), summing to 0 up to rounding
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    n_iter: int  # Newton steps taken
    final_loss: float
    grad_norm: float  # at the returned weights; >= LR_GRAD_TOL only after LR_MAX_ITER steps


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad(weights, bias, x, onehot, lam):
    """Cross-entropy + (lam/2)*||W||^2, its gradients (bias unpenalized) and
    the (n, C) class probabilities they were taken at."""
    n = x.shape[0]
    probs = _softmax(x @ weights.T + bias)
    eps = 1e-300  # guards log of an exactly-zero probability
    loss = -np.log((probs * onehot).sum(axis=1) + eps).mean() + 0.5 * lam * (weights ** 2).sum()
    delta = (probs - onehot) / n
    return loss, delta.T @ x + lam * weights, delta.sum(axis=0), probs


def fit_lr(features: np.ndarray, labels: Sequence[int],
           n_classes: int | None = None) -> LogisticModel:
    """Damped Newton iteration on standardized features from zero weights.

    labels are 0-based class indices. Each step solves the Hessian system
    bordered with e, the shared shift of all C biases, and is halved until
    the loss drops enough (Armijo). The Hessian H is singular along e alone:
    the data term ignores every shift of all classes' parameters alike, and
    the penalty charges every such shift that moves a weight. The gradient g
    is orthogonal to e, since each row's probabilities and its one-hot label
    both sum to 1. So the minimum-norm solution s of H s = -g lies in e's
    orthogonal complement, where adding e e^T to H changes nothing, and
    H + e e^T is nonsingular: one LAPACK solve gives s, and the biases keep
    summing to 0 from their zero start.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    y = np.asarray(labels, dtype=np.int64)
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels(f"need >= 2 distinct classes, got {classes.size}")
    c = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if y.min() < 0 or y.max() >= c:
        raise ValueError("labels outside [0, n_classes)")

    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
    if not np.isfinite(scale).all():
        raise ValueError("feature spread overflows float64")
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    n, d = xs.shape
    xt = np.hstack([xs, np.ones((n, 1))])  # bias as the last column of theta
    outer = (xt[:, :, None] * xt[:, None, :]).reshape(n, -1)
    onehot = np.eye(c)[y]
    e = np.hstack([np.zeros((c, d)), np.ones((c, 1))]).ravel()  # all biases, in theta's order
    fixed = np.diag(LR_LAM * (1.0 - e)) + np.outer(e, e)  # the penalty's Hessian + e e^T

    def objective(theta):
        loss, gw, gb, probs = _loss_and_grad(theta[:, :d], theta[:, d], xs, onehot, LR_LAM)
        return loss, np.hstack([gw, gb[:, None]]), probs

    theta = np.zeros((c, d + 1))
    loss, grad, probs = objective(theta)
    n_iter = 0
    while not np.linalg.norm(grad) < LR_GRAD_TOL and n_iter < LR_MAX_ITER:  # NaN never converges
        curv = probs[:, :, None] * (np.eye(c) - probs[:, None, :])  # (n, C, C)
        hess = (curv.reshape(n, -1).T @ outer).reshape(c, c, d + 1, d + 1).transpose(0, 2, 1, 3)
        hess = hess.reshape(grad.size, grad.size) / n + fixed
        step = np.linalg.solve(hess, -grad.ravel()).reshape(theta.shape)
        for t in 0.5 ** np.arange(34):  # halve until the loss drops enough (Armijo)
            new_loss, new_grad, new_probs = objective(theta + t * step)
            if new_loss <= loss + 1e-4 * t * (grad * step).sum():
                break
        theta, loss, grad, probs = theta + t * step, new_loss, new_grad, new_probs
        n_iter += 1

    return LogisticModel(
        n_classes=c, weights=theta[:, :d], bias=theta[:, d],
        feat_mean=mean, feat_scale=scale, n_iter=n_iter,
        final_loss=float(loss), grad_norm=float(np.linalg.norm(grad)),
    )


def lr_probabilities(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    xs = (x - model.feat_mean) / model.feat_scale
    return _softmax(xs @ model.weights.T + model.bias)


def predict_lr(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    return np.argmax(lr_probabilities(model, features), axis=1).astype(np.int64)


def avg_color_series(chips: ChipStack) -> np.ndarray:
    """Per-layer Euclidean distance between mean footprint and neighborhood color."""
    fp = chips.mask == 1
    nb = chips.mask == 0
    out = np.empty(chips.n_layers, dtype=np.float64)
    for t in range(chips.n_layers):
        layer = chips.imagery[t].astype(np.float64)
        out[t] = float(np.linalg.norm(layer[fp].mean(axis=0) - layer[nb].mean(axis=0)))
    return out


def color_over_time_features(chips: ChipStack) -> np.ndarray:
    """Distances between mean footprint colors of consecutive layers (T-1 values)."""
    if chips.n_layers < 2:
        raise SeriesTooShort("need at least two layers for color-over-time features")
    fp = chips.mask == 1
    means = np.stack([chips.imagery[t].astype(np.float64)[fp].mean(axis=0)
                      for t in range(chips.n_layers)])
    return np.linalg.norm(np.diff(means, axis=0), axis=1)


def mode_predictor(labels: Sequence[int]):
    """Constant predictor returning the most frequent label (ties -> smallest)."""
    if len(labels) == 0:
        raise ValueError("need at least one label")
    counts = Counter(int(l) for l in labels)
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    def predict(_ignored=None) -> int:
        return best

    return predict
