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
solution is the minimum-norm Newton step. `fit_lr_stack` runs that iteration
for a stack of problems with the same labels at once, such as one split's
grid cells, and each problem gets the bits it would get alone; `fit_lr` is
its stack of one.
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
_HALVINGS = 0.5 ** np.arange(34)  # Armijo step lengths, tried in this order


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


def _class_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) over C >= 2 class columns, written out left to right:
    numpy's own order for rows shorter than 8, without its per-row cost."""
    total = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        total += a[..., j]
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis."""
    top = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j])  # exact, so any order gives these bits
    e = np.exp(logits - top[..., None])
    return e / _class_sum(e)[..., None]


def _loss_and_grad(weights, bias, x, onehot, lam):
    """Cross-entropy + (lam/2)*||W||^2, its gradients (bias unpenalized) and
    the (n, C) class probabilities they were taken at. weights (C, d), bias
    (C,) and x (n, d) may carry the same leading stack axes."""
    n = x.shape[-2]
    probs = _softmax(x @ np.swapaxes(weights, -1, -2) + bias[..., None, :])
    eps = 1e-300  # guards log of an exactly-zero probability
    squares = (weights ** 2).reshape(*weights.shape[:-2], -1)  # summed as one contiguous row
    loss = (-np.log(_class_sum(probs * onehot) + eps).mean(axis=-1)
            + 0.5 * lam * squares.sum(axis=-1))
    delta = (probs - onehot) / n
    return loss, np.swapaxes(delta, -1, -2) @ x + lam * weights, delta.sum(axis=-2), probs


def _norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each a[i], as `np.linalg.norm(a[i])` takes it:
    the square root of a dot product."""
    v = a.reshape(len(a), 1, -1)
    return np.sqrt(v @ np.swapaxes(v, 1, 2))[:, 0, 0]


def fit_lr(features: np.ndarray, labels: Sequence[int],
           n_classes: int | None = None) -> LogisticModel:
    """`fit_lr_stack` of the one (n, d) problem."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D")
    return fit_lr_stack(x[None], labels, n_classes)[0]


def fit_lr_stack(features: np.ndarray, labels: Sequence[int],
                 n_classes: int | None = None) -> list[LogisticModel]:
    """Damped Newton iteration on standardized features from zero weights,
    for a stack of problems at once.

    features is (m, n, d): m problems, each fitting its n rows to the same
    n 0-based class labels. A column is standardized by its mean and std,
    or by scale 1 when it is constant. Each step solves the Hessian system
    bordered with e, the shared shift of all C biases, and is halved until
    the loss drops enough (Armijo). The Hessian H is singular along e alone:
    the data term ignores every shift of all classes' parameters alike, and
    the penalty charges every such shift that moves a weight. The gradient g
    is orthogonal to e, since each row's probabilities and its one-hot label
    both sum to 1. So the minimum-norm solution s of H s = -g lies in e's
    orthogonal complement, where adding e e^T to H changes nothing, and
    H + e e^T is nonsingular: one LAPACK solve gives s, and the biases keep
    summing to 0 from their zero start.

    Each problem keeps its own iterate, step halving, step count and stop
    test, and leaves the stack once it stops. Every operation gives a
    problem the bits it would get alone: class sums run left to right (the
    order of numpy's own sum for C < 8), other sums run along the axis they
    would for one problem, and each matrix product or solve is one
    problem's, looped over the stack.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("features must be an (m, n, d) stack")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != x.shape[1:2]:
        raise ValueError(f"need one label per row, got {y.size} for {x.shape[1]} rows")
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels(f"need >= 2 distinct classes, got {classes.size}")
    c = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if y.min() < 0 or y.max() >= c:
        raise ValueError("labels outside [0, n_classes)")

    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        mean = x.mean(axis=1)
        scale = x.std(axis=1)
    if not np.isfinite(scale).all():
        raise ValueError("feature spread overflows float64")
    scale[(scale == 0.0) | (x.min(axis=1) == x.max(axis=1))] = 1.0
    m, n, d = x.shape
    xs = (x - mean[:, None]) / scale[:, None]
    xt = np.concatenate([xs, np.ones((m, n, 1))], axis=2)  # bias as the last column of theta
    outer = np.einsum("...a,...b->...ab", xt, xt).reshape(m, n, -1)  # each row's xt xt^T
    onehot = np.eye(c)[y]
    e = np.hstack([np.zeros((c, d)), np.ones((c, 1))]).ravel()  # all biases, in theta's order
    fixed = np.diag(LR_LAM * (1.0 - e)) + np.outer(e, e)  # the penalty's Hessian + e e^T
    diagonal = np.arange(c) * (c + 1)  # in a row's flattened (C, C) curvature

    def objective(theta, xs):
        loss, gw, gb, probs = _loss_and_grad(theta[..., :d], theta[..., d], xs, onehot, LR_LAM)
        return [theta, loss, np.concatenate([gw, gb[..., None]], axis=-1), probs]

    models: list = [None] * m
    live = np.arange(m)  # the stack index of each problem still iterating
    state = objective(np.zeros((m, c, d + 1)), xs)  # theta, loss, grad, probs of each
    n_iter = 0  # steps taken by every live problem
    while True:
        norm = _norms(state[2])
        stop = (norm < LR_GRAD_TOL) | (n_iter >= LR_MAX_ITER)  # NaN never converges
        for i in np.flatnonzero(stop):
            theta = state[0][i].copy()
            models[live[i]] = LogisticModel(
                n_classes=c, weights=theta[:, :d], bias=theta[:, d],
                feat_mean=mean[live[i]].copy(), feat_scale=scale[live[i]].copy(),
                n_iter=n_iter, final_loss=float(state[1][i]), grad_norm=float(norm[i]))
        if stop.all():
            return models
        if stop.any():
            live, xs, outer = live[~stop], xs[~stop], outer[~stop]
            state = [a[~stop] for a in state]
        theta, loss, grad, probs = state
        k = len(live)

        curv = np.einsum("...i,...j->...ij", probs, -probs).reshape(k, n, c * c)  # -p p^T
        curv[..., diagonal] = probs * (1.0 - probs)  # each row's p (I - p)
        hess = (np.swapaxes(curv, 1, 2) @ outer).reshape(k, c, c, d + 1, d + 1)
        hess = hess.transpose(0, 1, 3, 2, 4).reshape(k, e.size, e.size) / n + fixed
        step = np.linalg.solve(hess, -grad.reshape(k, -1, 1)).reshape(theta.shape)
        slope = (grad * step).reshape(k, -1).sum(axis=1)
        state, halving = None, slice(None)  # the live problems whose step is still halving
        for t in _HALVINGS:  # halve until the loss drops enough (Armijo)
            tried = objective(theta[halving] + t * step[halving], xs[halving])
            ok = (tried[1] <= loss[halving] + 1e-4 * t * slope[halving]) | (t == _HALVINGS[-1])
            if state is None:
                state, halving = tried, np.flatnonzero(~ok)
            else:
                for kept, new in zip(state, tried):
                    kept[halving[ok]] = new[ok]
                halving = halving[~ok]
            if not halving.size:
                break
        n_iter += 1


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
    imagery = chips.imagery.astype(np.float64)
    # Each layer's norm as its own vector's, where norm(axis=1) would sum in another order.
    return _norms(imagery[:, chips.mask == 1].mean(axis=1)
                  - imagery[:, chips.mask == 0].mean(axis=1))


def color_over_time_features(chips: ChipStack) -> np.ndarray:
    """Distances between mean footprint colors of consecutive layers (T-1 values)."""
    if chips.n_layers < 2:
        raise SeriesTooShort("need at least two layers for color-over-time features")
    means = chips.imagery.astype(np.float64)[:, chips.mask == 1].mean(axis=1)
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
