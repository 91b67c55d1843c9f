"""Command-line entry point: generate / calibrate / detect / evaluate.

All commands read a JSON config (every flag overrides its config key) and are
deterministic given the seed, independent of worker count. Exit codes:
0 success, 2 config error, 3 data error, 4 internal error. Log verbosity
comes from the TCM_LOG environment variable (error | info | debug).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional, Sequence, Union

from . import clustering, evaluation, formats, synthgen
from .calibration import DEFAULT_N_BINS, DEFAULT_N_RANDOM, DEFAULT_PERCENTILE, calibrate
from .clustering import FEATURE_MODES, PixelFeatureConfig
from .core import DEFAULT_EPS, DetectionResult, DivergenceCache, first_crossings
from .data import FootprintDataset
from .errors import ConfigError, TCMError

log = logging.getLogger("tcm")


@dataclass
class RunConfig:
    scenes_dir: Optional[str] = None
    polygons: Optional[str] = None
    labels: Optional[str] = None
    out_dir: str = "out"
    k: Optional[Union[int, Literal["auto"]]] = None
    r: Optional[Union[float, Literal["auto"]]] = None
    theta: Optional[Union[float, Literal["auto"]]] = None
    feature_mode: str = "spectral"
    window: int = 1
    eps: float = DEFAULT_EPS
    percentile: float = DEFAULT_PERCENTILE
    k_grid: Optional[list[int]] = None
    r_grid: Optional[list[float]] = None
    n_random: int = DEFAULT_N_RANDOM
    n_bins: int = DEFAULT_N_BINS
    method: str = "tcm_semi"
    n_repeats: int = 50
    train_frac: float = 0.8
    seed: int = 0
    workers: int = 1
    synth: Optional[dict] = None


# What a given value (each entry, for a list) must meet beyond its field's type:
# a range, a choice or a path kind.
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_LIMITS = {
    "scenes_dir": (os.path.isdir, "a directory"),
    "polygons": (os.path.isfile, "a file"),
    "labels": (os.path.isfile, "a file"),
    "k": (lambda v: v == "auto" or v >= 1, ">= 1"),
    "r": (lambda v: v == "auto" or v > 0, "> 0"),
    "theta": (lambda v: v == "auto" or v >= 0, ">= 0"),
    "k_grid": _AT_LEAST_1, "n_random": _AT_LEAST_1, "n_bins": _AT_LEAST_1,
    "n_repeats": _AT_LEAST_1, "workers": _AT_LEAST_1, "window": _AT_LEAST_1,
    "r_grid": (lambda v: v > 0, "> 0"),
    "eps": (lambda v: v > 0, "> 0"),
    "percentile": (lambda v: 0 < v < 100, "in (0, 100)"),
    "train_frac": (lambda v: 0 < v < 1, "in (0, 1)"),
    "feature_mode": (FEATURE_MODES.__contains__, f"one of {FEATURE_MODES}"),
    "method": (evaluation.METHODS.__contains__, f"one of {evaluation.METHODS}"),
}
_PATHS = ("scenes_dir", "polygons", "labels")
_HINTS = typing.get_type_hints(RunConfig)


def _checked(doc: dict, hints: dict, what: str, limits: dict) -> dict:
    """doc, a JSON object whose keys are fields of a dataclass with the type
    hints `hints`, with each value checked against its hint and its limit."""
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    checked = {}
    for key, value in doc.items():
        try:
            checked[key] = formats._as_type(value, hints[key])
        except ValueError as exc:
            raise ConfigError(f"{what} {key!r}: {exc}") from None
        meets, wanted = limits.get(key, (None, ""))
        entries = value if isinstance(value, list) else [value]
        if meets and not all(meets(v) for v in entries if v is not None):
            raise ConfigError(f"{what} {key!r} must be {wanted}, got {value!r:.80}")
    return checked


def load_config(path: Optional[str], overrides: dict, reads_data: bool = True) -> RunConfig:
    """The JSON object at path, if given, updated with overrides, as a RunConfig whose
    values meet their fields' types and _LIMITS; the paths only when reads_data."""
    doc = {}
    if path is not None:
        cfg_path = Path(path)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            doc = json.loads(cfg_path.read_text())
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file must hold a JSON object, got {doc!r:.80}")
    limits = {key: limit for key, limit in _LIMITS.items() if reads_data or key not in _PATHS}
    return RunConfig(**_checked({**doc, **overrides}, _HINTS, "config", limits))


def _require_grids(cfg: RunConfig) -> None:
    if not cfg.k_grid or not cfg.r_grid:
        raise ConfigError("calibration needs nonempty k_grid and r_grid in the config")


def _load_store(cfg: RunConfig) -> DivergenceCache:
    """The command's dataset in its one divergence store, which holds the
    features, eps and workers every divergence is computed with."""
    if cfg.scenes_dir is None or cfg.polygons is None:
        raise ConfigError("config keys 'scenes_dir' and 'polygons' are required for this command")
    dataset = FootprintDataset.load(cfg.scenes_dir, cfg.polygons, cfg.labels)
    features = PixelFeatureConfig(mode=cfg.feature_mode, window=cfg.window)
    return DivergenceCache(dataset, features, cfg.eps, cfg.seed, cfg.workers)


def _calibrate(cfg: RunConfig, cache: DivergenceCache):
    return calibrate(cache.dataset, cfg.k_grid, cfg.r_grid, cfg.n_random, cfg.n_bins,
                     cfg.percentile, cfg.seed, cache)


def _log_fit_stats(cache: DivergenceCache) -> None:
    """The store's k-means counters: at info when a fit stopped at its
    iteration budget, else at debug."""
    stats = cache.fit_stats
    level = logging.INFO if stats.cap_hits else logging.DEBUG
    log.log(level, "k-means: %d fits, %d Lloyd iterations, %d stopped unconverged at "
            "max_iter, %d empty clusters reseeded", stats.fits, stats.lloyd_iters,
            stats.cap_hits, stats.reseeds)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(cfg: RunConfig) -> int:
    hints = typing.get_type_hints(synthgen.SynthConfig)
    overrides = {"seed": cfg.seed, **_checked(cfg.synth or {}, hints, "synth", {})}
    try:
        synth_cfg = synthgen.SynthConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dataset = synthgen.generate(synth_cfg)
    paths = dataset.save(_out_dir(cfg))
    log.info("generated %d scenes and %d footprints under %s",
             len(dataset.scenes), len(dataset.polygons), cfg.out_dir)
    for name, p in paths.items():
        log.debug("wrote %s: %s", name, p)
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    _require_grids(cfg)
    cache = _load_store(cfg)
    report = _calibrate(cfg, cache)
    out = _out_dir(cfg)
    doc = formats.calibration_report_to_dict(report)
    doc["inputs"] = _inputs_record(cfg, cache.dataset)
    formats.write_json(out / "calibration.json", doc)

    rows = [{"k": c.k, "r": c.r, "bc": c.bc, "theta": c.theta} for c in report.cells]
    if cache.dataset.labels:  # adds an "accuracy" column
        rows = evaluation.grid_cell_accuracies(cache.dataset, report, cache, cfg.seed)
    with open(out / "calibration_cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow([row["k"]] + [repr(float(v)) for v in list(row.values())[1:]])
    log.info("chose k=%d r=%g theta=%.6g (BC grid of %d cells)",
             report.chosen_k, report.chosen_r, report.chosen_theta, len(report.cells))
    _log_fit_stats(cache)
    return 0


def _inputs_record(cfg: RunConfig, dataset: FootprintDataset) -> dict:
    """Everything a calibration report depends on, as written into calibration.json.

    Content digests of the scenes and footprints plus the settings `calibrate`
    reads. Paths, `workers` and labels stay out: none of them changes the
    chosen cell, and reports must be byte-identical across directories and
    worker counts.
    """
    scenes = hashlib.sha256()
    for s in dataset.scenes:
        scenes.update(repr((s.year, s.transform.coefficients(), s.pixels.dtype.str,
                            s.pixels.shape)).encode())
        scenes.update(s.pixels.tobytes())
    rings = [(p.id, p.exterior, p.holes) for p in dataset.polygons]
    return {
        "scenes_sha256": scenes.hexdigest(),
        "polygons_sha256": hashlib.sha256(repr(rings).encode()).hexdigest(),
        "k_grid": list(cfg.k_grid), "r_grid": list(cfg.r_grid), "n_random": cfg.n_random,
        "n_bins": cfg.n_bins, "percentile": cfg.percentile, "seed": cfg.seed,
        "eps": cfg.eps, "feature_mode": cfg.feature_mode, "window": cfg.window,
    }


def _recorded_choice(path: Path, record: dict):
    """The chosen (k, r, theta) of the report at path, if it was written for record."""
    try:
        doc = json.loads(path.read_text())
        if doc["inputs"] != record:
            return None
        chosen = doc["chosen"]
        return int(chosen["k"]), float(chosen["r"]), float(chosen["theta"])
    except (OSError, ValueError, KeyError, TypeError):  # missing, unreadable or older
        return None


def _resolved_params(cfg: RunConfig, cache: DivergenceCache):
    """(k, r, theta) as given, or, when all three are auto, as calibrated.

    A report that `calibrate` wrote into out_dir for the same inputs is reused
    instead of calibrating again.
    """
    given = {"k": cfg.k, "r": cfg.r, "theta": cfg.theta}
    explicit = {name: v for name, v in given.items() if v not in (None, "auto")}
    if len(explicit) == len(given):
        return int(cfg.k), float(cfg.r), float(cfg.theta)
    if explicit:
        raise ConfigError(
            f"k, r and theta are calibrated together: give all three or none; "
            f"{', '.join(f'{n}={v!r}' for n, v in explicit.items())} would be discarded")
    _require_grids(cfg)
    path = Path(cfg.out_dir) / "calibration.json"
    chosen = _recorded_choice(path, _inputs_record(cfg, cache.dataset))
    if chosen is not None:
        log.info("reused k=%d r=%g theta=%.6g from %s (same inputs)", *chosen, path)
        return chosen
    report = _calibrate(cfg, cache)
    log.info("auto-calibrated to k=%d r=%g theta=%.6g (no report for these inputs in %s)",
             report.chosen_k, report.chosen_r, report.chosen_theta, path)
    return report.chosen_k, report.chosen_r, report.chosen_theta


def cmd_detect(cfg: RunConfig) -> int:
    cache = _load_store(cfg)
    k, r, theta = _resolved_params(cfg, cache)
    series, years = cache.series(k, r), cache.dataset.years
    index, crossed = first_crossings(series, theta), (series > theta).any(axis=1)
    results = [DetectionResult(fid, i, years[i - 1], values, c) for fid, i, values, c
               in zip(cache.ids, index.tolist(), series, crossed.tolist())]
    out = _out_dir(cfg)
    formats.write_detections_csv(out / "detections.csv", results)
    log.info("detected %d footprints with k=%d r=%g theta=%.6g", len(results), k, r, theta)
    _log_fit_stats(cache)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    cache = _load_store(cfg)
    dataset = cache.dataset
    if not dataset.labels:
        raise ConfigError("evaluate needs labels (labels csv or label_year properties)")
    out = _out_dir(cfg)
    _require_grids(cfg)

    if cfg.method == "tcm_semi":
        result, report, _ = evaluation.evaluate_semi_supervised(
            dataset, cfg.k_grid, cfg.r_grid, cfg.n_random, cfg.n_bins, cfg.percentile,
            cfg.seed, cache)
        metrics = {
            "method": cfg.method,
            "accuracy": result.accuracy,
            "mae": result.mae,
            "mae_index": result.mae_index,
            "n": result.n,
            "chosen_k": report.chosen_k,
            "chosen_r": report.chosen_r,
            "chosen_theta": report.chosen_theta,
            "seed": cfg.seed,
        }
        rows = [(0, result.accuracy, result.mae, result.mae_index, result.n)]
    else:
        summary = evaluation.repeated_splits(
            dataset, cfg.method, cfg.n_repeats, cfg.train_frac, cfg.seed,
            cfg.k_grid, cfg.r_grid, cache)
        metrics = {
            "method": cfg.method,
            "acc_mean": summary.acc_mean,
            "acc_std": summary.acc_std,
            "mae_mean": summary.mae_mean,
            "mae_std": summary.mae_std,
            "mae_index_mean": summary.mae_index_mean,
            "n_repeats": cfg.n_repeats,
            "seed": cfg.seed,
        }
        rows = [(r.repeat, r.accuracy, r.mae, r.mae_index, r.n_test) for r in summary.records]

    formats.write_json(out / "metrics.json", metrics)
    with open(out / "repeats.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repeat", "accuracy", "mae", "mae_index", "n_test"])
        for rep, acc, mae, mae_i, n in rows:
            writer.writerow([rep, repr(float(acc)), repr(float(mae)),
                             repr(float(mae_i)), n])
    log.info("method=%s metrics written to %s", cfg.method, out / "metrics.json")
    _log_fit_stats(cache)
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "calibrate": cmd_calibrate,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcm",
        description="Detect when footprinted structures first appear in an image time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--workers", type=int, help="worker threads over footprints")
        p.add_argument("--k", type=int, help="cluster count")
        p.add_argument("--r", type=float, help="buffer radius (polygon units)")
        p.add_argument("--theta", help="decision threshold, or 'auto'")
        p.add_argument("--method", help="evaluation method", choices=evaluation.METHODS)
        p.add_argument("--out", dest="out_dir", help="output directory")
    return parser


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("TCM_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr, force=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    level = logging.WARNING if clustering._lib is None else logging.DEBUG
    log.log(level, "k-means: %s", clustering.KERNEL)
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "workers", "k", "r", "theta", "method", "out_dir")
        if getattr(args, key, None) is not None
    }
    try:
        if overrides.get("theta", "auto") != "auto":
            try:
                overrides["theta"] = float(overrides["theta"])
            except ValueError:
                raise ConfigError(f"--theta is not a number or 'auto': {args.theta!r}") from None
        cfg = load_config(args.config, overrides, reads_data=args.command != "generate")
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error[Config]: {exc}", file=sys.stderr)
        return 2
    except TCMError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"error[Internal]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
