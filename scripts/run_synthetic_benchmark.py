#!/usr/bin/env python3
"""Full benchmark on the synthetic study area.

Generates the stock dataset (per-layer color shifts on by default), runs the
label-free heuristic pipeline plus every supervised baseline over repeated
80/20 splits, and prints a comparison table. Useful for eyeballing how the
methods rank before pointing the CLI at real data.
"""

import argparse
import json
import time
from pathlib import Path

from tcm.evaluation import METHODS, DivergenceCache, evaluate_semi_supervised, repeated_splits
from tcm.synthgen import SynthConfig, generate

SUPERVISED = tuple(m for m in METHODS if m != "tcm_semi")


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
    rows = []

    started = time.time()
    semi, calib, _ = evaluate_semi_supervised(
        dataset, args.k_grid, args.r_grid, n_random=args.n_random,
        seed=args.seed, cache=cache)
    rows.append(("tcm_semi", semi.accuracy, 0.0, semi.mae_index, 0.0))
    print(f"heuristic chose k={calib.chosen_k} r={calib.chosen_r:g} "
          f"theta={calib.chosen_theta:.4f} in {time.time() - started:.1f}s")

    for method in SUPERVISED:
        summary = repeated_splits(dataset, method, n_repeats=args.repeats,
                                  seed=args.seed, k_grid=args.k_grid,
                                  r_grid=args.r_grid, cache=cache)
        rows.append((method, summary.acc_mean, summary.acc_std,
                     summary.mae_index_mean, summary.mae_std))

    print(f"\n{'method':<20s} {'ACC':>8s} {'+/-':>6s} {'MAE':>8s} {'+/-':>6s}")
    for name, acc, acc_std, mae, mae_std in rows:
        print(f"{name:<20s} {acc:8.4f} {acc_std:6.3f} {mae:8.4f} {mae_std:6.3f}")

    if args.out:
        payload = [
            {"method": name, "acc_mean": acc, "acc_std": acc_std,
             "mae_index_mean": mae, "mae_std": mae_std}
            for name, acc, acc_std, mae, mae_std in rows
        ]
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
