"""Pixel features and k-means clustering of a single image layer.

The clusterer is written in-house rather than delegated to a library so that
fits are bit-identical across runs and across worker counts: seeded greedy
initialization, Lloyd updates with a fixed tie-break (lowest centroid index),
and single-threaded distance math that takes the same evaluation path for a
given input shape.

Whole fits run in a small C kernel, `_lloyd.c`, that repeats the numpy code
below operation by operation: the k-means++ init, the Lloyd loop and the
final assignment. Its one entry point is `region_counts`, which fits every
layer of a batch of chips, a ragged stack of point sets, and counts their
labels per region in one kernel call; `fit_kmeans` is its case of one chip
and one layer, and `assign_features` stays in numpy. Every floating-point sum
of a fit runs left to right on both paths, written out the same way: row
norms and the cross term of a distance over the dimensions, the init's total
weight and the inertia over the points, a centroid's shift over its
dimensions. Nothing rests on the order in which numpy's reductions or BLAS
sum, and the tests demand the same centroids, inertia, iteration and reseed
counts and region counts from both paths, on real chip layers and on edge
cases, float-valued ones included. The kernel also runs
each fit's `np.random.default_rng(seed)` bit for bit (SeedSequence, PCG64,
`integers` and `random`), so it makes every draw of the init itself, those
of a layer whose weights sum to 0 included. Only a `fit_kmeans` seed
outside [0, 2**64), which the kernel's uint64 seeds cannot hold, an init
whose total weight is not finite, where numpy's `choice` raises, and a
layer of 2**32 points or more, where numpy bounds its integers another way,
take the numpy path. Every fit reports whether it converged or stopped at
its iteration budget.

On import the kernel is compiled once per machine with `cc` into
`$XDG_CACHE_HOME/tcm/` (`~/.cache/tcm/` when that is unset), under a name
keyed by the sha256 of its source and flags; later imports load the cached
file. With no compiler, an unwritable cache or a failed build, every fit
takes the numpy path, which stays as the kernel's tested oracle. On x86-64
the kernel holds its labelling pass compiled for AVX-512, for AVX2 and for
the plain target, and runs the fastest one that the CPU supports; the bits
do not depend on which. `KERNEL` names the path taken, and for the compiled one
the instruction set (`CPU_LEVELS`); the CLI logs the numpy path as a
warning and the compiled one at `TCM_LOG=debug`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import FeatureDimMismatch, TooFewPixels

FEATURE_MODES = ("spectral", "spectral_window")
MAX_ITER, TOL = 50, 1e-4  # Lloyd: default iteration cap, centroid-shift tolerance


@dataclass(frozen=True)
class PixelFeatureConfig:
    """How a pixel becomes a feature vector.

    mode "spectral" uses the pixel's own band values; "spectral_window"
    concatenates the band values of the (2*window+1)^2 neighborhood with
    edge replication at borders.
    """

    mode: str = "spectral"
    window: int = 1

    def __post_init__(self):
        if self.mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode {self.mode!r}")
        if self.mode == "spectral_window" and self.window < 1:
            raise ValueError("window half-size must be >= 1")

    def dim(self, channels: int) -> int:
        if self.mode == "spectral":
            return channels
        side = 2 * self.window + 1
        return channels * side * side


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means centroids over pixel features of one image layer."""

    k: int
    centroids: np.ndarray  # (k, dim) float64
    seed: int
    n_iter: int = 0
    inertia: float = float("nan")
    reseeds: int = 0  # empty clusters given a far point, over all iterations
    converged: bool = False  # the centroid shift fell below TOL within max_iter

    def __post_init__(self):
        if self.centroids.ndim != 2 or self.centroids.shape[0] != self.k:
            raise ValueError(f"expected {self.k} centroids, got {self.centroids.shape}")
        if not np.isfinite(self.centroids).all():
            raise ValueError("centroids must be finite")


def extract_features(image: np.ndarray, config: PixelFeatureConfig,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-major (h*w, dim) float matrix of per-pixel features of an (h, w, c)
    image; a (T, h, w, c) stack of images gives (T, h*w, dim).

    With `out`, a C-contiguous float64 array of that shape, the pixels are
    cast straight into it, with no float64 copy of the image on the way, and
    `out` is returned.
    """
    image = np.asarray(image)
    if image.ndim not in (3, 4) or image.size == 0:
        raise ValueError(f"image must be a nonempty (h, w, c) or (T, h, w, c) array, "
                         f"got {image.shape}")
    *stack, h, w, c = image.shape
    shape = (*stack, h * w, config.dim(c))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    if config.mode == "spectral":
        np.copyto(out, image.reshape(shape), casting="unsafe")
        return out
    # Each pixel's window, row by row, written one neighbour offset at a
    # time; edge replication pads the pixels before they are cast.
    wh = config.window
    pad = [(0, 0)] * len(stack) + [(wh, wh), (wh, wh), (0, 0)]
    padded = np.pad(image, pad, mode="edge")
    grid = out.reshape(*stack, h, w, shape[-1])
    offsets = [(dy, dx) for dy in range(2 * wh + 1) for dx in range(2 * wh + 1)]
    for slot, (dy, dx) in enumerate(offsets):
        np.copyto(grid[..., slot * c : (slot + 1) * c], padded[..., dy : dy + h, dx : dx + w, :],
                  casting="unsafe")
    return out


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Squared norm of each row, its columns summed left to right."""
    return np.cumsum(points * points, axis=1)[:, -1]


def _sum(values: np.ndarray) -> float:
    """Sum of a vector, left to right (np.sum takes another order)."""
    return float(np.cumsum(values)[-1])


def _sqdist(points: np.ndarray, centroids: np.ndarray,
            point_norms: Optional[np.ndarray] = None) -> np.ndarray:
    """(n, k) squared Euclidean distances via the norm expansion.

    The cross term sums one dimension at a time, left to right, as the
    kernel sums it: no BLAS, whose rounding could differ by shape or machine.
    Rounding can push tiny values negative; they are clamped.
    """
    if point_norms is None:
        point_norms = _row_norms(points)
    cross = np.zeros((points.shape[0], centroids.shape[0]))
    for j in range(points.shape[1]):
        cross += points[:, j, None] * centroids[:, j]
    dist = point_norms[:, None] + _row_norms(centroids)[None, :] - 2.0 * cross
    return np.maximum(dist, 0.0, out=dist)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = _row_norms(points - centroids[0])
    for j in range(1, k):
        total = _sum(closest)
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = points[pick]
        np.minimum(closest, _row_norms(points - centroids[j]), out=closest)
    return centroids


def _check_k(n: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise TooFewPixels(f"{n} feature rows < k={k}")


def _checked_features(features: np.ndarray, k: int) -> np.ndarray:
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    _check_k(x.shape[0], k)
    return x


def _fit_kmeans_numpy(x: np.ndarray, k: int, seed: int, max_iter: int) -> ClusterModel:
    n, d = x.shape
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(x, k, rng)
    norms = _row_norms(x)
    # Lloyd never raises the inertia; the check allows what rounding can add.
    # With u = 2**-53, N = sum ||x||^2, X = max ||x||^2, n < 2**32, d < 2**16:
    # - a norm expansion is off by at most (2d + 3) u (||x||^2 + ||c||^2):
    #   gamma_d for each of its three left-to-right sums, u for each of its
    #   two additions; a clamp at 0 only brings it closer, and a centroid,
    #   a point or a rounded mean, has ||c||^2 <= X (1 + 2nu)^2;
    # - labels minimize rounded distances, so the new inertia exceeds the
    #   exact distances of the old labels to the new centroids (a reseeded
    #   point to itself) by at most one such error per point, and the old
    #   one falls short of its exact distances by as much: (4d + 6) u (N + nX);
    # - exact means never raise the exact inertia; a mean rounded by delta_m
    #   adds n_m ||delta_m||^2, at most 4 n^2 u^2 N over all clusters;
    # - a left-to-right sum of n terms >= 0 is within (n - 1) u times its
    #   exact value: 2nu of the old inertia for the two sums, u more where
    #   the check itself rounds.
    # 3n and 4d + 10 cover these and the u^2 terms dropped on the way.
    slack = (4.0 * d + 10.0 + 2.0**-51 * n * n) * (_sum(norms) + n * float(norms.max()))

    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    inertia = 0.0
    n_iter = reseeds = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        dist = _sqdist(x, centroids, norms)
        labels = np.argmin(dist, axis=1)  # ties -> lowest index
        point_d = dist[np.arange(n), labels]
        inertia = _sum(point_d)
        assert inertia <= prev_inertia + 2.0**-53 * (3.0 * n * prev_inertia + slack), \
            "inertia increased"
        prev_inertia = inertia

        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.stack(
            [np.bincount(labels, weights=x[:, dim], minlength=k) for dim in range(x.shape[1])],
            axis=1,
        )
        empty = np.nonzero(counts == 0)[0]
        reseeds += empty.size
        if empty.size:
            order = np.argsort(-point_d, kind="stable")
            for slot, j in enumerate(empty):
                far = order[slot]
                sums[j] = x[far]
                counts[j] = 1.0
        new_centroids = sums / counts[:, None]

        shift = np.sqrt(_row_norms(new_centroids - centroids)).max()
        centroids = new_centroids
        if shift < TOL:
            converged = True
            break

    return ClusterModel(k=k, centroids=centroids, seed=seed, n_iter=n_iter, inertia=inertia,
                        reseeds=int(reseeds), converged=converged)


def _assign_features_numpy(centroids: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.argmin(_sqdist(x, centroids), axis=1).astype(np.int32)


_REDO = 3  # kernel status: redo this fit on the numpy path (see `_lloyd.c`)


def _check_kernel(status: int) -> None:
    if status == 1:
        raise AssertionError("inertia increased")
    if status:
        raise MemoryError("k-means kernel could not allocate its buffers")


def _kernel_seed(seed) -> bool:
    """Whether the kernel's generator repeats default_rng(seed): an integer
    in [0, 2**64), which the kernel's uint64 seeds hold."""
    return isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2**64


def fit_kmeans(features: np.ndarray, k: int, seed: int,
               max_iter: int = MAX_ITER) -> ClusterModel:
    """Lloyd's algorithm with seeded greedy (D^2-weighted) initialization.

    Iterates until the largest centroid movement drops below TOL
    (`converged`) or max_iter passes. Clusters that empty out are reseeded to the points currently
    farthest from their assigned centroid. An iteration that raises the
    inertia is a bug and raises AssertionError. On the compiled path this is
    `region_counts` of one chip and one layer whose points count in no region.
    """
    x = _checked_features(features, k)
    if _lib is None or not _kernel_seed(seed):
        return _fit_kmeans_numpy(x, k, seed, max_iter)
    _, centroids, inertia, n_iter, reseeds, converged = region_counts(
        x, [len(x)], np.full(len(x), 2, np.uint8), k, np.array([seed], np.uint64), max_iter)
    return ClusterModel(k=k, centroids=centroids[0], seed=seed, n_iter=int(n_iter[0]),
                        inertia=float(inertia[0]), reseeds=int(reseeds[0]),
                        converged=bool(converged[0]))


def region_counts(features: np.ndarray, sizes: np.ndarray, region: np.ndarray, k: int,
                  seeds: np.ndarray, max_iter: int = MAX_ITER) -> tuple[np.ndarray, ...]:
    """Cluster every layer of a ragged batch of chips and count its labels
    per region: one kernel call for the whole batch.

    Chip c has `sizes[c]` points and the batch's L = len(seeds) / len(sizes)
    layers. `features` stacks, chip after chip, its L layers of sizes[c]
    rows; `region` stacks the chips' region codes, which a chip's layers
    share. Fit f = c * L + l is `fit_kmeans(layer, k, seeds[f], max_iter)`
    of chip c's layer l, labelled as `assign_features` labels it. Returns,
    per fit, the (2, k) int64 label counts, row 0 over the points whose
    region code is 0 and row 1 over code 1 (other codes count nowhere), the
    (k, dim) centroids, the inertia, n_iter, reseeds and whether it converged.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    region = np.ascontiguousarray(region, dtype=np.uint8)
    seeds = np.asarray(seeds)
    if seeds.dtype != np.uint64:  # a negative or wider seed must not wrap on its way in
        raise ValueError(f"seeds must be non-negative 64-bit integers in a uint64 array, "
                         f"got {seeds.dtype}")
    n_fits = seeds.size
    n_layers = n_fits // max(sizes.size, 1)
    if (x.ndim != 2 or sizes.ndim != 1 or seeds.shape != (n_layers * sizes.size,)
            or x.shape[0] != n_layers * sizes.sum() or region.shape != (sizes.sum(),)):
        raise ValueError(f"{sizes.size} chips, {region.shape} region codes and {seeds.shape} "
                         f"seeds for features of shape {x.shape}")
    _check_k(min(sizes.tolist(), default=k), k)  # k may lie past int64
    counts = np.empty((n_fits, 2, k), dtype=np.int64)
    centroids = np.empty((n_fits, k, x.shape[1]))
    inertia = np.empty(n_fits)
    n_iter = np.empty(n_fits, dtype=np.int64)
    reseeds = np.empty(n_fits, dtype=np.int64)
    converged = np.empty(n_fits, dtype=np.uint8)
    status = np.full(n_fits, _REDO, dtype=np.int32)
    if _lib is not None:
        _check_kernel(_lib.tcm_region_counts(
            x.ctypes.data, sizes.size, sizes.ctypes.data, n_layers, x.shape[1], k,
            region.ctypes.data, seeds.ctypes.data, max_iter, TOL, counts.ctypes.data,
            centroids.ctypes.data, inertia.ctypes.data, n_iter.ctypes.data,
            reseeds.ctypes.data, converged.ctypes.data, status.ctypes.data))
    redo = np.flatnonzero(status == _REDO)
    if redo.size:
        chip = redo // n_layers
        starts = np.concatenate([[0], np.cumsum(sizes)])
        for f, c in zip(redo.tolist(), chip.tolist()):
            n, codes = int(sizes[c]), region[starts[c]:starts[c + 1]]
            layer = x[n_layers * starts[c] + (f - c * n_layers) * n:][:n]
            model = _fit_kmeans_numpy(layer, k, int(seeds[f]), max_iter)
            labels = _assign_features_numpy(model.centroids, layer)
            counts[f] = [np.bincount(labels[codes == code], minlength=k) for code in (0, 1)]
            centroids[f], inertia[f] = model.centroids, model.inertia
            n_iter[f], reseeds[f], converged[f] = model.n_iter, model.reseeds, model.converged
    return counts, centroids, inertia, n_iter, reseeds, converged.view(bool)


@dataclass
class FitStats:
    """Deterministic counters over k-means fits."""

    fits: int = 0
    lloyd_iters: int = 0
    cap_hits: int = 0  # fits stopped by MAX_ITER before they converged
    reseeds: int = 0  # empty clusters reseeded, over all fits and iterations

    def add(self, n_iter: np.ndarray, reseeds: np.ndarray, converged: np.ndarray) -> None:
        """Count the fits whose iteration and reseed counts and converged
        flags are given."""
        self.fits += len(n_iter)
        self.lloyd_iters += int(np.sum(n_iter))
        self.cap_hits += int(np.count_nonzero(np.logical_not(converged)))
        self.reseeds += int(np.sum(reseeds))

    def __iadd__(self, other: "FitStats") -> "FitStats":
        self.fits += other.fits
        self.lloyd_iters += other.lloyd_iters
        self.cap_hits += other.cap_hits
        self.reseeds += other.reseeds
        return self


def assign_features(model: ClusterModel, features: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per feature row, ties to the lowest index."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.centroids.shape[1]:
        raise FeatureDimMismatch(
            f"features of dim {x.shape[-1] if x.ndim else '?'} vs model dim {model.centroids.shape[1]}"
        )
    return _assign_features_numpy(model.centroids, x)


# -O3 vectorizes the labelling pass across points, which leaves each point's
# operations in their order; -ffp-contract=off keeps every multiply and add
# apart. Never -ffast-math or -march: reassociation or fused multiply-adds
# would change the bits, and the kernel picks its instruction set itself, at
# run time (`_lloyd.c`). No -Werror: a warning from another compiler must not
# send every fit down the numpy path; the tests build the source with it.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-Wall")
_P, _L, _I, _D = ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_double
_SIGNATURES = {  # C function: (argument types, result type)
    "tcm_region_counts": ([_P, _L, _P, _L, _L, _L, _P, _P, _L, _D, *[_P] * 7], _I),
    "tcm_cpu_level": ([], _I),
}
CPU_LEVELS = ("plain", "avx2", "avx512f")  # the builds that tcm_cpu_level() numbers


def _load_kernel() -> tuple[Optional[ctypes.CDLL], str]:
    """The compiled kernel, built first if this machine has no copy of this
    source yet, and a line that names the path fits take."""
    source = Path(__file__).with_name("_lloyd.c")
    try:
        digest = hashlib.sha256(source.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "tcm"
        built = cache / f"_lloyd-{digest[:16]}.so"
        if not built.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None, "numpy path: no C compiler (cc) on PATH"
            cache.mkdir(parents=True, exist_ok=True)
            # Build under a private name and rename: concurrent builds never
            # load a partly written library.
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
                               check=True, capture_output=True, text=True, timeout=300)
                os.replace(tmp, built)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(built))
    except subprocess.CalledProcessError as exc:
        return None, f"numpy path: building the kernel failed: {exc.stderr.strip()[:300]}"
    # RuntimeError: no home directory; SubprocessError: the build timed out.
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return None, f"numpy path: kernel unavailable: {exc}"
    _declare(lib)
    return lib, f"compiled kernel {built} ({CPU_LEVELS[lib.tcm_cpu_level()]})"


def _declare(lib: ctypes.CDLL) -> None:
    """Give the kernel's functions their `_SIGNATURES`."""
    for name, (args, result) in _SIGNATURES.items():
        getattr(lib, name).argtypes = args
        getattr(lib, name).restype = result


_lib, KERNEL = _load_kernel()
