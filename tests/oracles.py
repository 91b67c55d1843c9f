"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the production code: winding
angles instead of edge-crossing parity, exhaustive assignment enumeration
instead of Lloyd iterations, scalar loops instead of vectorized numpy, an
SVD least-squares Newton step instead of a bordered solve, one logistic
regression at a time instead of a stack of them.
"""

import itertools
import math

import numpy as np

from tcm import supervised
from tcm.supervised import (
    LR_GRAD_TOL, LR_LAM, LR_MAX_ITER, LogisticModel, _loss_and_grad, _softmax)


def winding_inside(px, py, ring):
    """Angle-summation winding test for one ring of a simple polygon."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        a1 = math.atan2(y1 - py, x1 - px)
        a2 = math.atan2(y2 - py, x2 - px)
        da = a2 - a1
        while da > math.pi:
            da -= 2 * math.pi
        while da < -math.pi:
            da += 2 * math.pi
        total += da
    return abs(total) > math.pi


def oracle_inside(poly, px, py):
    if not winding_inside(px, py, poly.exterior):
        return False
    return not any(winding_inside(px, py, hole) for hole in poly.holes)


def oracle_mask(poly, transform, row0, col0, height, width):
    out = np.zeros((height, width), dtype=np.uint8)
    for i in range(height):
        for j in range(width):
            x, y = transform.pixel_to_world(col0 + j, row0 + i)
            out[i, j] = oracle_inside(poly, float(x), float(y))
    return out


def best_partition_inertia(points, k):
    """Optimal k-means objective by enumerating every label assignment."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best = np.inf
    best_labels = None
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        if total < best - 1e-15:
            best = total
            best_labels = labels
    return best, best_labels


def separated_blob_instance(k, n, seed):
    """Small clustering instance whose global optimum is the blob partition."""
    rng = np.random.default_rng(seed)
    centers = rng.permutation(np.array(
        [[-12.0, -12.0], [12.0, -10.0], [0.0, 14.0]]))[:k]
    assign = np.sort(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    return centers[assign] + rng.normal(0, 0.35, (n, 2))


def scalar_first_crossing(values, theta):
    """1-based index of the first value above theta, by a plain loop; the
    last index when none is above it."""
    for index, value in enumerate(values, start=1):
        if value > theta:
            return index
    return len(values)


def exhaustive_threshold(labeled, candidates):
    """The first of the candidates, in their order, that dates the most
    (series, 1-based label) pairs right by the scalar loop."""
    best, best_hits = None, -1
    for theta in candidates:
        hits = sum(scalar_first_crossing(series, theta) == label for series, label in labeled)
        if hits > best_hits:
            best, best_hits = theta, hits
    return best


def lstsq_fit_lr(features, labels, n_classes):
    """`fit_lr`'s damped Newton iteration with each step the minimum-norm
    least-squares solution (an SVD) of the singular Hessian system, and each
    Hessian's probabilities recomputed from the iterate."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    c = n_classes
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[(scale == 0.0) | (x.min(axis=0) == x.max(axis=0))] = 1.0
    xs = (x - mean) / scale
    n, d = xs.shape
    xt = np.hstack([xs, np.ones((n, 1))])
    outer = (xt[:, :, None] * xt[:, None, :]).reshape(n, -1)
    onehot = np.eye(c)[y]
    penalty = np.diag(np.hstack([np.full((c, d), LR_LAM), np.zeros((c, 1))]).ravel())

    def objective(theta):
        loss, gw, gb, _ = _loss_and_grad(theta[:, :d], theta[:, d], xs, onehot, LR_LAM)
        return loss, np.hstack([gw, gb[:, None]])

    theta = np.zeros((c, d + 1))
    loss, grad = objective(theta)
    n_iter = 0
    while np.linalg.norm(grad) >= LR_GRAD_TOL and n_iter < LR_MAX_ITER:
        probs = _softmax(xt @ theta.T)
        curv = probs[:, :, None] * (np.eye(c) - probs[:, None, :])
        hess = (curv.reshape(n, -1).T @ outer).reshape(c, c, d + 1, d + 1).transpose(0, 2, 1, 3)
        hess = hess.reshape(grad.size, grad.size) / n + penalty
        step = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)[0].reshape(theta.shape)
        for t in 0.5 ** np.arange(34):
            new_loss, new_grad = objective(theta + t * step)
            if new_loss <= loss + 1e-4 * t * (grad * step).sum():
                break
        theta, loss, grad = theta + t * step, new_loss, new_grad
        n_iter += 1

    return LogisticModel(
        n_classes=c, weights=theta[:, :d], bias=theta[:, d],
        feat_mean=mean, feat_scale=scale, n_iter=n_iter,
        final_loss=float(loss), grad_norm=float(np.linalg.norm(grad)),
    )


def newton_fit_lr(features, labels, n_classes):
    """`fit_lr_stack`'s damped Newton iteration for one (n, d) problem, in a
    loop of its own: the Hessian of each row's p (I - p), a whole-array
    gradient norm and one line search. Its loss and gradient are the
    package's, so its class sums are the same written-out ones, and it reads
    the step budget when called, as the package does."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    c = n_classes
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[(scale == 0.0) | (x.min(axis=0) == x.max(axis=0))] = 1.0
    xs = (x - mean) / scale
    n, d = xs.shape
    xt = np.hstack([xs, np.ones((n, 1))])
    outer = (xt[:, :, None] * xt[:, None, :]).reshape(n, -1)
    onehot = np.eye(c)[y]
    e = np.hstack([np.zeros((c, d)), np.ones((c, 1))]).ravel()
    fixed = np.diag(LR_LAM * (1.0 - e)) + np.outer(e, e)

    def objective(theta):
        loss, gw, gb, probs = _loss_and_grad(theta[:, :d], theta[:, d], xs, onehot, LR_LAM)
        return loss, np.hstack([gw, gb[:, None]]), probs

    theta = np.zeros((c, d + 1))
    loss, grad, probs = objective(theta)
    n_iter = 0
    while not np.linalg.norm(grad) < supervised.LR_GRAD_TOL and n_iter < supervised.LR_MAX_ITER:
        curv = probs[:, :, None] * (np.eye(c) - probs[:, None, :])
        hess = (curv.reshape(n, -1).T @ outer).reshape(c, c, d + 1, d + 1).transpose(0, 2, 1, 3)
        hess = hess.reshape(grad.size, grad.size) / n + fixed
        step = np.linalg.solve(hess, -grad.ravel()).reshape(theta.shape)
        for t in 0.5 ** np.arange(34):
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


def layer_color_features(chips):
    """`avg_color_series` and `color_over_time_features` by a loop over the
    layers: each layer's mean footprint and neighbourhood colours and the
    norm of their difference, then the norms of the differences of
    consecutive footprint means (taken along axis 1, whose sum order differs
    from a single vector's)."""
    fp, nb = chips.mask == 1, chips.mask == 0
    fp_means, nb_means = [], []
    for layer in chips.imagery:
        layer = layer.astype(np.float64)
        fp_means.append(layer[fp].mean(axis=0))
        nb_means.append(layer[nb].mean(axis=0))
    avg = np.array([np.linalg.norm(f - b) for f, b in zip(fp_means, nb_means)])
    deltas = np.linalg.norm(np.diff(np.stack(fp_means), axis=0), axis=1)
    return avg, deltas
