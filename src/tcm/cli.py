"""Command-line entry point: generate / calibrate / detect / evaluate.

All commands read a JSON config (every flag overrides its config key) and are
deterministic given the seed, independent of worker count. Exit codes:
0 success, 2 config error, 3 data error, 4 internal error. Log verbosity
comes from the TCM_LOG environment variable (error | info | debug).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import logging
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import clustering, evaluation, formats, synthgen
from .calibration import DEFAULT_N_BINS, DEFAULT_N_RANDOM, DEFAULT_PERCENTILE, calibrate
from .clustering import PixelFeatureConfig
from .core import DEFAULT_EPS, DivergenceCache, decide
from .data import FootprintDataset
from .errors import ConfigError, TCMError

log = logging.getLogger("tcm")


@dataclass
class RunConfig:
    scenes_dir: Optional[str] = None
    polygons: Optional[str] = None
    labels: Optional[str] = None
    out_dir: str = "out"
    k: Optional[int] = None
    r: Optional[float] = None
    theta: Optional[object] = None  # float or "auto"
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

    def feature_config(self) -> PixelFeatureConfig:
        return PixelFeatureConfig(mode=self.feature_mode, window=self.window)


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def load_config(path: Optional[str], overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        cfg_path = Path(path)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            loaded = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.theta is not None and cfg.theta != "auto":
        try:
            cfg.theta = float(cfg.theta)
        except (TypeError, ValueError):
            raise ConfigError(f"theta must be a number or 'auto', got {cfg.theta!r}")
    counts = [("k", cfg.k)] if cfg.k not in (None, "auto") else []
    counts += [("k_grid entry", v) for v in cfg.k_grid or ()]
    counts += [(n, getattr(cfg, n))
               for n in ("n_random", "n_bins", "n_repeats", "workers", "window")]
    for name, value in counts:
        if not (type(value) is int and value >= 1):  # JSON true/false are not counts
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if type(cfg.seed) is not int:
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    if not (isinstance(cfg.eps, (int, float)) and 0 < cfg.eps < math.inf):
        raise ConfigError(f"eps must be a finite number > 0, got {cfg.eps!r}")
    try:
        cfg.feature_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    given = [name for name in ("scenes_dir", "polygons", "labels")
             if getattr(cfg, name) is not None]
    for name in given + ["out_dir"]:
        if not isinstance(getattr(cfg, name), str):
            raise ConfigError(f"{name} must be a string, got {getattr(cfg, name)!r}")
    if not isinstance(cfg.synth, (dict, type(None))):
        raise ConfigError(f"synth must be an object, got {cfg.synth!r:.80}")
    if not (isinstance(cfg.percentile, (int, float)) and 0 < cfg.percentile < 100):
        raise ConfigError(f"percentile must be a number in (0, 100), got {cfg.percentile!r}")
    if not (isinstance(cfg.train_frac, (int, float)) and 0 < cfg.train_frac < 1):
        raise ConfigError(f"train_frac must be a number in (0, 1), got {cfg.train_frac!r}")
    radii = [("r", cfg.r)] if cfg.r not in (None, "auto") else []
    for name, value in radii + [("r_grid entry", v) for v in cfg.r_grid or ()]:
        if not (isinstance(value, (int, float)) and value > 0):
            raise ConfigError(f"{name} must be a number > 0, got {value!r}")
    if isinstance(cfg.theta, float) and not cfg.theta >= 0:
        raise ConfigError(f"theta must be >= 0, got {cfg.theta!r}")
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise ConfigError(f"config key {name!r} is required for this command")


def _require_paths(cfg: RunConfig) -> None:
    _require(cfg, "scenes_dir", "polygons")
    for name in ("scenes_dir", "polygons", "labels"):
        value = getattr(cfg, name)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"{name} path does not exist: {value}")


def _require_grids(cfg: RunConfig) -> None:
    if not cfg.k_grid or not cfg.r_grid:
        raise ConfigError("calibration needs nonempty k_grid and r_grid in the config")


def _load_store(cfg: RunConfig) -> DivergenceCache:
    """The command's dataset in its one divergence store, which holds the
    features, eps and workers every divergence is computed with."""
    _require_paths(cfg)
    dataset = FootprintDataset.load(cfg.scenes_dir, cfg.polygons, cfg.labels)
    return DivergenceCache(dataset, cfg.feature_config(), cfg.eps, cfg.seed, cfg.workers)


def _calibrate(cfg: RunConfig, cache: DivergenceCache):
    return calibrate(cache.dataset, cfg.k_grid, cfg.r_grid, cfg.n_random, cfg.n_bins,
                     cfg.percentile, cfg.seed, cache)


def _log_fit_stats(cache: DivergenceCache) -> None:
    stats = cache.fit_stats
    log.debug("k-means: %d fits, %d Lloyd iterations, %d stopped unconverged at max_iter, "
              "%d empty clusters reseeded", stats.fits, stats.lloyd_iters, stats.cap_hits,
              stats.reseeds)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _as_type(value, hint):
    """A JSON value as the field type `hint`, lists becoming tuples; ValueError
    when it is of another type. A float field takes an integer too."""
    if type(value) is int and hint in (int, float) or type(value) is float and hint is float:
        return value
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            return tuple(_as_type(v, a) for v, a in zip(value, args))
    raise ValueError


def cmd_generate(cfg: RunConfig) -> int:
    hints = typing.get_type_hints(synthgen.SynthConfig)
    overrides = dict(cfg.synth or {})
    unknown = set(overrides) - set(hints)
    if unknown:
        raise ConfigError(f"unknown synth keys: {sorted(unknown)}")
    for key, value in overrides.items():
        try:
            overrides[key] = _as_type(value, hints[key])
        except ValueError:
            raise ConfigError(f"synth {key} must be {inspect.formatannotation(hints[key])}, "
                              f"got {value!r:.80}") from None
    overrides.setdefault("seed", cfg.seed)
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
    results = [decide(fid, values, cache.dataset.years, theta)
               for fid, values in cache.series(k, r).items()]
    out = _out_dir(cfg)
    formats.write_detections_csv(out / "detections.csv", results)
    log.info("detected %d footprints with k=%d r=%g theta=%.6g", len(results), k, r, theta)
    _log_fit_stats(cache)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    if cfg.method not in evaluation.METHODS:
        raise ConfigError(f"method must be one of {evaluation.METHODS}, got {cfg.method!r}")
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
        p.add_argument("--workers", type=int, help="worker processes over footprints")
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
    log.debug("k-means: %s", clustering.KERNEL)
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "workers", "k", "r", "theta", "method", "out_dir")
        if getattr(args, key, None) is not None
    }
    try:
        cfg = load_config(args.config, overrides)
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
