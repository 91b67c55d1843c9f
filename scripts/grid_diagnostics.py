#!/usr/bin/env python3
"""Calibration-grid diagnostic on synthetic data.

For every (k, r) cell: the p/q overlap coefficient, the calibrated threshold,
and the realized accuracy against generator ground truth. A healthy heuristic
shows strongly negative rank correlation between overlap and accuracy, with
the argmin-overlap cell at (or near) the best accuracy. The CSV is plot-ready.
"""

import argparse
import csv

from tcm.calibration import calibrate
from tcm.errors import DegenerateRanks
from tcm.evaluation import DivergenceCache, grid_cell_accuracies, spearman
from tcm.synthgen import SynthConfig, generate


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--footprints", type=int, default=200)
    parser.add_argument("--n-random", type=int, default=200)
    parser.add_argument("--k-grid", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--r-grid", type=float, nargs="+", default=[2.0, 6.0, 12.0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="grid_diagnostics.csv")
    return parser.parse_args()


def main():
    args = parse_args()
    dataset = generate(SynthConfig(footprints=args.footprints, seed=args.seed))
    cache = DivergenceCache(dataset, seed=args.seed, workers=args.workers)
    report = calibrate(dataset, args.k_grid, args.r_grid, n_random=args.n_random,
                       seed=args.seed, cache=cache)
    rows = grid_cell_accuracies(dataset, report, cache, seed=args.seed)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["k", "r", "bc", "theta", "accuracy"])
        writer.writeheader()
        writer.writerows(rows)

    print(f"{'k':>4s} {'r':>6s} {'BC':>8s} {'theta':>8s} {'ACC':>8s}")
    for row in rows:
        marker = " <- chosen" if (row["k"] == report.chosen_k
                                  and row["r"] == report.chosen_r) else ""
        print(f"{row['k']:4d} {row['r']:6.1f} {row['bc']:8.4f} "
              f"{row['theta']:8.4f} {row['accuracy']:8.4f}{marker}")
    try:
        rho = f"{spearman([r['bc'] for r in rows], [r['accuracy'] for r in rows]):+.3f}"
    except (ValueError, DegenerateRanks):  # fewer than two cells, or a constant column
        rho = "undefined"
    print(f"\nspearman(BC, ACC) = {rho}   ({len(rows)} cells, wrote {args.out})")


if __name__ == "__main__":
    main()
