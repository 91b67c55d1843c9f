"""Acceptance suite: one printed PASS/FAIL line per criterion.

The synthetic study area stands in for real imagery, with generator labels as
ground truth. Run `pytest tests/test_acceptance.py -v -s` to watch the
criterion lines appear; the whole suite takes a couple of minutes.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from oracles import best_partition_inertia, oracle_mask, separated_blob_instance

from tcm.calibration import Histogram, bhattacharyya
from tcm.cli import main as cli_main
from tcm.clustering import fit_kmeans
from tcm.core import first_crossing, kl_divergence
from tcm.errors import DegeneratePolygon
from tcm.evaluation import (
    DivergenceCache,
    evaluate_semi_supervised,
    grid_cell_accuracies,
    repeated_splits,
    spearman,
)
from tcm.geometry import AffineGeoTransform, Polygon, _window_masks
from tcm.supervised import _loss_and_grad
from tcm.synthgen import SynthConfig, generate

SEED = 0
K_GRID = (2, 4, 8)
R_GRID = (2.0, 6.0, 12.0)
N_RANDOM = 200


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {marker}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def dataset():
    # The stock configuration: 256x256x3 scenes, T=5, 200 footprints,
    # per-layer color shifts enabled.
    return generate(SynthConfig(seed=SEED))


@pytest.fixture(scope="module")
def cache(dataset):
    return DivergenceCache(dataset, seed=SEED, workers=1)


@pytest.fixture(scope="module")
def semi_run(dataset, cache):
    started = time.time()
    result, calib, preds = evaluate_semi_supervised(
        dataset, K_GRID, R_GRID, n_random=N_RANDOM, seed=SEED, cache=cache)
    elapsed = time.time() - started
    return result, calib, preds, elapsed


@pytest.fixture(scope="module")
def supervised_summary(dataset, cache):
    return repeated_splits(dataset, "tcm_supervised", n_repeats=50, seed=SEED,
                           k_grid=K_GRID, r_grid=R_GRID, cache=cache)


def test_criterion_1_semi_supervised_end_to_end(semi_run):
    result, calib, _, elapsed = semi_run
    ok = result.accuracy >= 0.90 and result.mae_index <= 0.15 and elapsed <= 300
    report(1, ok,
           f"semi-supervised ACC={result.accuracy:.4f} (floor 0.90), "
           f"index-MAE={result.mae_index:.4f} (cap 0.15), "
           f"runtime {elapsed:.1f}s (cap 300s), "
           f"chosen k={calib.chosen_k} r={calib.chosen_r:g} theta={calib.chosen_theta:.4f}")


def test_criterion_2_heuristic_matches_supervised(semi_run, supervised_summary):
    result, _, _, _ = semi_run
    gap = abs(result.accuracy - supervised_summary.acc_mean)
    ok = gap <= 0.05
    report(2, ok,
           f"|ACC(semi)={result.accuracy:.4f} - ACC(supervised)={supervised_summary.acc_mean:.4f}"
           f"+/-{supervised_summary.acc_std:.4f}| = {gap:.4f} (cap 0.05, 50 splits)")


def test_criterion_3_lr_beats_color_over_time_under_shift(dataset, cache):
    lr = repeated_splits(dataset, "tcm_lr", n_repeats=50, seed=SEED,
                         k_grid=K_GRID, r_grid=R_GRID, cache=cache)
    cot = repeated_splits(dataset, "color_over_time", n_repeats=50, seed=SEED,
                          k_grid=K_GRID, r_grid=R_GRID, cache=cache)
    ok = lr.acc_mean >= cot.acc_mean
    report(3, ok,
           f"with per-layer color shifts: ACC(divergence LR)={lr.acc_mean:.4f} "
           f">= ACC(color-over-time)={cot.acc_mean:.4f}")


def test_criterion_4_overlap_score_tracks_accuracy(dataset, cache, semi_run):
    _, calib, _, _ = semi_run
    rows = grid_cell_accuracies(dataset, calib, cache, seed=SEED)
    rho = spearman([r["bc"] for r in rows], [r["accuracy"] for r in rows])
    best = max(r["accuracy"] for r in rows)
    chosen = next(r["accuracy"] for r in rows
                  if r["k"] == calib.chosen_k and r["r"] == calib.chosen_r)
    ok = rho < 0 and chosen >= best - 0.02
    report(4, ok,
           f"spearman(BC, ACC)={rho:.3f} (< 0 required); "
           f"argmin-BC cell ACC={chosen:.4f} vs best {best:.4f} (slack 0.02)")


def test_criterion_5_math_property_suites():
    rng = np.random.default_rng(SEED)
    failures = []

    # KL(p||p) = 0 and KL >= 0 over 1e4 random distribution pairs.
    worst_self, worst_cross = 0.0, 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 16))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k)) + 1e-12
        q /= q.sum()
        worst_self = max(worst_self, abs(kl_divergence(p, p)))
        worst_cross = min(worst_cross, kl_divergence(p, q))
    if worst_self > 1e-12 or worst_cross < -1e-12:
        failures.append(f"KL bounds violated (self {worst_self:.2e}, min {worst_cross:.2e})")

    # BC in [0, 1] and BC(p, p) = 1 over 1e4 random histogram pairs.
    worst_low, worst_high, worst_unit = 0.0, 1.0, 0.0
    for _ in range(10_000):
        bins = int(rng.integers(1, 24))
        edges = np.linspace(0, 1, bins + 1)
        p = Histogram(edges, rng.dirichlet(np.ones(bins)))
        q = Histogram(edges, rng.dirichlet(np.ones(bins)))
        bc = bhattacharyya(p, q)
        worst_low = min(worst_low, bc)
        worst_high = max(worst_high, bc)
        worst_unit = max(worst_unit, abs(bhattacharyya(p, p) - 1.0))
    if worst_low < -1e-12 or worst_high > 1 + 1e-12 or worst_unit > 1e-12:
        failures.append("BC bounds violated")

    # k-means matches the exhaustive-partition oracle (n <= 8, k <= 3).
    master = np.random.default_rng(7)
    checked = 0
    for k in (1, 2, 3):
        for n in range(max(k, 3), 9):
            for _ in range(4):
                seed = int(master.integers(1 << 30))
                pts = separated_blob_instance(k, n, seed)
                oracle, _ = best_partition_inertia(pts, k)
                model = fit_kmeans(pts, k, seed=seed)
                checked += 1
                if model.inertia - oracle > 1e-9 * max(oracle, 1.0):
                    failures.append(
                        f"kmeans missed optimum (k={k} n={n} seed={seed}: "
                        f"{model.inertia:.6f} vs {oracle:.6f})")

    # Rasterization equals the winding-number oracle on 100 random polygons.
    poly_rng = np.random.default_rng(20240817)
    mismatches = 0
    trials = 0
    for trial in range(100):
        n_vert = int(poly_rng.integers(3, 11))
        angles = np.sort(poly_rng.uniform(0, 2 * math.pi, n_vert))
        if trial % 2 == 0:
            ax, bx = poly_rng.uniform(3, 20, 2)
            xs, ys = ax * np.cos(angles), bx * np.sin(angles)
        else:
            radii = poly_rng.uniform(2, 20, n_vert)
            xs, ys = radii * np.cos(angles), radii * np.sin(angles)
        cx, cy = poly_rng.uniform(-5, 5, 2)
        try:
            poly = Polygon(f"r{trial}", list(zip(xs + cx, ys + cy)))
        except DegeneratePolygon:
            continue
        res = float(poly_rng.choice([0.5, 1.0, 2.0]))
        origin = poly_rng.uniform(-3, 3, 2)
        transform = AffineGeoTransform(res, 0, origin[0], 0, res, origin[1])
        size = int(poly_rng.integers(8, 65))
        row0, col0 = int(poly_rng.integers(-40, 0)), int(poly_rng.integers(-40, 0))
        window = [[row0, row0 + size - 1, col0, col0 + size - 1]]
        mask = _window_masks([poly], transform, window)[0]
        trials += 1
        if not np.array_equal(mask, oracle_mask(poly, transform, row0, col0, size, size)):
            mismatches += 1
    if mismatches or trials < 90:
        failures.append(f"rasterization oracle mismatches: {mismatches}/{trials}")

    # Logistic-regression analytic gradient vs central differences.
    grad_rng = np.random.default_rng(2)
    n, d, c = 10, 3, 4
    x = grad_rng.normal(size=(n, d))
    y = grad_rng.integers(0, c, n)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    w = grad_rng.normal(scale=0.5, size=(c, d))
    b = grad_rng.normal(scale=0.5, size=c)
    _, gw, gb, _ = _loss_and_grad(w, b, x, onehot, 1e-3)
    h = 1e-6
    worst_grad = 0.0
    for i in range(c):
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            num = (_loss_and_grad(wp, b, x, onehot, 1e-3)[0]
                   - _loss_and_grad(wm, b, x, onehot, 1e-3)[0]) / (2 * h)
            worst_grad = max(worst_grad, abs(num - gw[i, j]))
    for i in range(c):
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        num = (_loss_and_grad(w, bp, x, onehot, 1e-3)[0]
               - _loss_and_grad(w, bm, x, onehot, 1e-3)[0]) / (2 * h)
        worst_grad = max(worst_grad, abs(num - gb[i]))
    if worst_grad > 1e-5:
        failures.append(f"LR gradient error {worst_grad:.2e} > 1e-5")

    # first_crossing is monotone in theta over 1e3 random series.
    for _ in range(1_000):
        series = rng.uniform(0, 3, size=int(rng.integers(1, 12)))
        t1, t2 = sorted(rng.uniform(0, 3, size=2))
        if first_crossing(series, t1) > first_crossing(series, t2):
            failures.append("first_crossing not monotone in theta")
            break

    report(5, not failures,
           "math properties (KL x1e4, BC x1e4, k-means oracle x"
           f"{checked}, rasterize x{trials}, LR gradient {worst_grad:.1e}, "
           "crossing monotonicity x1e3)"
           + ("" if not failures else "; " + "; ".join(failures)))


def _run_cli_outputs(tmp_path, name, workers):
    """Run every CLI command at the given worker count; return output digests."""
    base = tmp_path / f"{name}-w{workers}"
    synth = {
        "height": 112, "width": 112, "layers": 3, "footprints": 14,
        "size_range": [5.0, 8.0], "margin": 8.0,
        "year_weights": [0.4, 0.35, 0.25], "start_year": 2015,
    }
    gen_cfg = base / "gen.json"
    base.mkdir(parents=True)
    gen_cfg.write_text(json.dumps({
        "out_dir": str(base / "data"), "synth": synth, "seed": 13,
        "workers": workers,
    }))
    assert cli_main(["generate", "--config", str(gen_cfg)]) == 0

    run_cfg = base / "run.json"
    run_cfg.write_text(json.dumps({
        "scenes_dir": str(base / "data" / "scenes"),
        "polygons": str(base / "data" / "polygons.geojson"),
        "labels": str(base / "data" / "labels.csv"),
        "out_dir": str(base / "out"),
        "k_grid": [2, 4], "r_grid": [3.0, 6.0],
        "n_random": 24, "n_repeats": 4,
        "seed": 13, "workers": workers,
    }))
    assert cli_main(["calibrate", "--config", str(run_cfg)]) == 0
    assert cli_main(["detect", "--config", str(run_cfg), "--theta", "auto"]) == 0
    assert cli_main(["evaluate", "--config", str(run_cfg),
                     "--method", "tcm_supervised"]) == 0

    digests = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and path.suffix in {".tcs", ".json", ".geojson", ".csv"}:
            if path.name in {"gen.json", "run.json"}:
                continue
            digests[str(path.relative_to(base))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_criterion_6_cli_determinism_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("TCM_LOG", "error")
    runs = {w: _run_cli_outputs(tmp_path, "det", w) for w in (1, 4, 8)}
    baseline = runs[1]
    ok = runs[4] == baseline and runs[8] == baseline and len(baseline) > 5
    diffs = []
    for w in (4, 8):
        for key in sorted(set(baseline) | set(runs[w])):
            if baseline.get(key) != runs[w].get(key):
                diffs.append(f"w{w}:{key}")
    report(6, ok,
           f"generate/calibrate/detect/evaluate byte-identical at workers 1, 4, 8 "
           f"({len(baseline)} files compared)"
           + ("" if not diffs else f"; differs: {diffs[:6]}"))
