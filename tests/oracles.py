"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the production code: winding
angles instead of edge-crossing parity, exhaustive assignment enumeration
instead of Lloyd iterations, scalar loops instead of vectorized numpy.
"""

import itertools
import math

import numpy as np


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
