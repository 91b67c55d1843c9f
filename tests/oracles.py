"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the production code: winding
angles instead of edge-crossing parity, exhaustive assignment enumeration
instead of Lloyd iterations, scalar loops instead of vectorized numpy, an
SVD least-squares Newton step instead of a bordered solve, one logistic
regression at a time instead of a stack of them, one k-means fit and two
histograms per chip layer instead of a batch's region counts, a synthetic
area placed by testing each candidate against every placed box and painted
one footprint at a time instead of by a grid and one paste per layer,
window features concatenated from a float64 copy instead of cast into place.
"""

import itertools
import math

import numpy as np

from tcm import supervised, synthgen
from tcm.clustering import PixelFeatureConfig, assign_features, extract_features, fit_kmeans
from tcm.core import DEFAULT_EPS, kl_divergence
from tcm.data import FootprintDataset
from tcm.errors import EmptyRegion, SceneTooCrowded
from tcm.geometry import Polygon, Scene
from tcm.supervised import (
    LR_GRAD_TOL, LR_LAM, LR_MAX_ITER, LogisticModel, _loss_and_grad, _softmax)
from tcm.util import stable_seed


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


def concatenated_features(image, config):
    """Pixel features of an (h, w, c) image or a (T, h, w, c) stack: a float64
    copy of the pixels, and for windows the edge-padded copy's shifted views
    concatenated along the feature axis."""
    *stack, h, w, c = image.shape
    if config.mode == "spectral":
        return image.reshape(*stack, h * w, c).astype(np.float64)
    wh = config.window
    pad = [(0, 0)] * len(stack) + [(wh, wh), (wh, wh), (0, 0)]
    padded = np.pad(image.astype(np.float64), pad, mode="edge")
    blocks = [padded[..., dy : dy + h, dx : dx + w, :]
              for dy in range(2 * wh + 1) for dx in range(2 * wh + 1)]
    return np.concatenate(blocks, axis=-1).reshape(*stack, h * w, config.dim(c))


def cluster_distribution(cmap, mask, region, k, eps=DEFAULT_EPS):
    """Normalized histogram of cluster indices over one mask region (1 is the
    footprint, 0 the neighborhood), with eps added to every bin first."""
    if region not in ("footprint", "neighborhood"):
        raise ValueError(f"region must be footprint|neighborhood, got {region!r}")
    selected = np.asarray(cmap)[np.asarray(mask) == (1 if region == "footprint" else 0)]
    if selected.size == 0:
        raise EmptyRegion(f"{region} region is empty")
    counts = np.bincount(selected.ravel(), minlength=k).astype(np.float64)
    counts += eps
    return counts / counts.sum()


def layer_divergence(chips, layer, k, feature_config=PixelFeatureConfig(), seed=0,
                     eps=DEFAULT_EPS):
    """`tcm.core.layer_divergence` of one chip layer without the batch path:
    no batching, no region counting in the kernel and no row-wise KL. The
    layer's features get one `fit_kmeans` with the package's seed, every
    pixel one `assign_features` label, each region one `cluster_distribution`
    and the pair one `kl_divergence`."""
    image = chips.imagery[layer]
    feats = extract_features(image, feature_config)
    model = fit_kmeans(feats, k, stable_seed(seed, chips.footprint_id, layer))
    cmap = assign_features(model, feats).reshape(image.shape[:2])
    d_fp = cluster_distribution(cmap, chips.mask, "footprint", k, eps)
    d_nb = cluster_distribution(cmap, chips.mask, "neighborhood", k, eps)
    return kl_divergence(d_fp, d_nb)


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


def place_footprints(config):
    """`synthgen._place_footprints` without the grid: every candidate is
    built as a Polygon and its bounds are tested against every placed box."""
    rng = np.random.default_rng(stable_seed(config.seed, "placement"))
    placed, boxes = [], []
    for i in range(config.footprints):
        for _ in range(5000):
            side_w = float(rng.uniform(*config.size_range))
            side_h = float(rng.uniform(*config.size_range))
            angle = float(rng.uniform(0.0, math.pi))
            radius = math.hypot(side_w, side_h) / 2.0
            lo_x = config.margin + radius
            hi_x = config.width - 1 - config.margin - radius
            lo_y = config.margin + radius
            hi_y = config.height - 1 - config.margin - radius
            if hi_x <= lo_x or hi_y <= lo_y:
                raise SceneTooCrowded("scene too small for the footprint size and margin")
            cx = float(rng.uniform(lo_x, hi_x))
            cy = float(rng.uniform(lo_y, hi_y))
            poly = Polygon(id=f"fp-{i:04d}", exterior=synthgen._rotated_rect(
                cx, cy, side_w / 2, side_h / 2, angle))
            x0, y0, x1, y1 = poly.bounds
            gap = config.min_separation
            if all(x1 + gap < bx0 or bx1 + gap < x0 or y1 + gap < by0 or by1 + gap < y0
                   for bx0, by0, bx1, by1 in boxes):
                placed.append(poly)
                boxes.append((x0, y0, x1, y1))
                break
        else:
            raise SceneTooCrowded(
                f"placed {len(placed)} of {config.footprints} footprints before giving up")
    return placed


def generate(config):
    """`synthgen.generate` from `place_footprints`, each layer's roofs
    painted one footprint at a time in polygon order, each with its own noise
    draw and its own roof colour draw, so that a later footprint overwrites
    an earlier one where they overlap."""
    polygons = place_footprints(config)
    label_rng = np.random.default_rng(stable_seed(config.seed, "labels"))
    first_indices = 1 + label_rng.choice(
        config.layers, size=len(polygons), p=np.asarray(config.year_weights))
    labels = {poly.id: (int(idx), config.years[int(idx) - 1])
              for poly, idx in zip(polygons, first_indices)}
    roof_rng = np.random.default_rng(stable_seed(config.seed, "roofs"))
    roof_colors = [np.asarray(config.roof_base)
                   + roof_rng.uniform(-config.roof_jitter, config.roof_jitter, config.channels)
                   for _ in polygons]
    classes = synthgen._background_classes(config)
    palette = np.asarray(config.palette, dtype=np.float64)
    masks = synthgen._footprint_masks(config, polygons)
    shift_rng = np.random.default_rng(stable_seed(config.seed, "shift"))
    scenes = []
    for t in range(1, config.layers + 1):
        layer_rng = np.random.default_rng(stable_seed(config.seed, "layer", t))
        img = palette[classes] + layer_rng.normal(
            0.0, config.noise_sigma, (config.height, config.width, config.channels))
        for poly_i, (poly, (row0, col0, mask)) in enumerate(zip(polygons, masks)):
            if labels[poly.id][0] > t:
                continue
            sel = mask.astype(bool)
            patch = roof_colors[poly_i] + layer_rng.normal(
                0.0, config.noise_sigma, (int(sel.sum()), config.channels))
            block = img[row0 : row0 + mask.shape[0], col0 : col0 + mask.shape[1]]
            block[sel] = patch
        img = synthgen._shift_layer(img, config, shift_rng)
        pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        scenes.append(Scene(pixels=pixels, year=config.years[t - 1],
                            transform=synthgen.IDENTITY_TRANSFORM))
    return FootprintDataset(scenes=scenes, polygons=polygons,
                            labels=labels if polygons else None)
