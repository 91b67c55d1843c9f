#!/usr/bin/env python3
"""Every claim of the paper on one synthetic study area.

Generates the stock dataset (per-layer color shifts on by default) and fills
one divergence store. One label-free calibration dates every footprint
(`tcm_semi`) and scores its (k, r, theta) cells against generator ground
truth; every supervised baseline runs over repeated 80/20 splits of the same
store. Prints the method table (MAE in layers), then the calibration grid.
A healthy heuristic shows strongly negative rank correlation between overlap
and accuracy, with the argmin-overlap cell at (or near) the best accuracy.
`tcm calibrate` on a labelled dataset writes the same cells as a CSV.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from tcm.errors import DegenerateRanks
from tcm.evaluation import (METHODS, DivergenceCache, evaluate_semi_supervised,
                            grid_cell_accuracies, repeated_splits, spearman)
from tcm.synthgen import SynthConfig, generate

SUPERVISED = tuple(m for m in METHODS if m != "tcm_semi")
COLUMNS = ("acc_mean", "acc_std", "mae_index_mean", "mae_index_std")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--footprints", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--n-random", type=int, default=200,
                        help="random polygons for the calibration heuristic")
    parser.add_argument("--k-grid", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--r-grid", type=float, nargs="+", default=[2.0, 6.0, 12.0])
    parser.add_argument("--no-color-shift", action="store_true",
                        help="disable the per-layer swath transforms")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="optional JSON results path")
    return parser.parse_args()


def main():
    args = parse_args()
    config = SynthConfig(
        footprints=args.footprints,
        color_shift=0.0 if args.no_color_shift else 1.0,
        seed=args.seed,
    )
    dataset = generate(config)
    print(f"dataset: {len(dataset.scenes)} layers, {len(dataset.polygons)} footprints, "
          f"color shifts {'off' if args.no_color_shift else 'on'}")

    cache = DivergenceCache(dataset, seed=args.seed, workers=args.workers)
    semi, report, _ = evaluate_semi_supervised(
        dataset, args.k_grid, args.r_grid, n_random=args.n_random,
        seed=args.seed, cache=cache)
    methods = {"tcm_semi": (semi.accuracy, 0.0, semi.mae_index, 0.0)}  # scored once
    for method in SUPERVISED:
        summary = repeated_splits(dataset, method, n_repeats=args.repeats,
                                  seed=args.seed, k_grid=args.k_grid,
                                  r_grid=args.r_grid, cache=cache)
        maes = [record.mae_index for record in summary.records]
        methods[method] = (summary.acc_mean, summary.acc_std, summary.mae_index_mean,
                           float(np.std(maes, ddof=1)) if len(maes) > 1 else 0.0)
    cells = grid_cell_accuracies(dataset, report, cache, seed=args.seed)
    try:
        rho = spearman([c["bc"] for c in cells], [c["accuracy"] for c in cells])
    except (ValueError, DegenerateRanks):  # fewer than two cells, or a constant column
        rho = None

    print(f"\n{'method':<20s} {'ACC':>8s} {'+/-':>6s} {'MAE':>8s} {'+/-':>6s}")
    for name, (acc, acc_std, mae, mae_std) in methods.items():
        print(f"{name:<20s} {acc:8.4f} {acc_std:6.3f} {mae:8.4f} {mae_std:6.3f}")

    chosen = {"k": report.chosen_k, "r": report.chosen_r, "theta": report.chosen_theta}
    print(f"\n{'k':>4s} {'r':>6s} {'BC':>8s} {'theta':>8s} {'ACC':>8s}")
    for c in cells:
        marker = " <- chosen" if (c["k"], c["r"]) == (chosen["k"], chosen["r"]) else ""
        print(f"{c['k']:4d} {c['r']:6.1f} {c['bc']:8.4f} "
              f"{c['theta']:8.4f} {c['accuracy']:8.4f}{marker}")
    print(f"\nspearman(BC, ACC) = {'undefined' if rho is None else f'{rho:+.3f}'}"
          f"   ({len(cells)} cells)")

    if args.out:
        payload = {
            "chosen": chosen,
            "methods": {name: dict(zip(COLUMNS, row)) for name, row in methods.items()},
            "cells": cells,
            "spearman_bc_acc": rho,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
