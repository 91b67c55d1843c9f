"""Per-layer metrics computed from the spans of a traced run.

Each layer is a `tcm` module; its metrics are taken over the timed pass,
except `synthgen.generate_s`, which is set-up work. `cli.*` and `util.*` come
from the pass at the workload's own worker count (parent-side spans); every
other layer comes from the pass that kept all its spans in this process
(workers=1 for label_free).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import ATTRS, END, NAME, START, child_counts, self_times

READS = ("formats.read_tcs", "formats.read_scene", "formats.read_polygons_geojson",
         "formats.read_labels_csv")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    return float(sorted(values)[max(1, math.ceil(len(values) * q / 100)) - 1])


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _by_name(spans, idx):
    out = defaultdict(list)
    for i in idx:
        out[spans[i][NAME]].append(i)
    return out


def per_layer(spans, main_idx, pool_idx, setup_idx) -> dict:
    """{metric name: (value, unit)} for every layer named in BENCHMARK.json."""
    own = self_times(spans)
    kids = child_counts(spans)
    main = _by_name(spans, main_idx)
    pool = _by_name(spans, pool_idx)
    setup = _by_name(spans, setup_idx)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(group, name):
        return sum(dur(i) for i in group[name])

    def attr(group, name, key):
        return [spans[i][ATTRS][key] for i in group[name]]

    def self_of(prefix):
        return sum(own[i] for i in main_idx if spans[i][NAME].startswith(prefix))

    fits = main["clustering.fit_kmeans"]
    fit_attrs = [spans[i][ATTRS] for i in fits]
    pooled = [i for i in pool["util.run_tasks"]
              if spans[i][ATTRS]["workers"] > 1 and spans[i][ATTRS]["items"] > 1]
    pool_capacity = sum(spans[i][ATTRS]["workers"] * dur(i) for i in pooled)
    lookups = [i for name, idx in main.items() if name.startswith("evaluation.cache.")
               for i in idx]
    series_ms = [dur(i) * 1e3 for i in main["core.divergence_series"]]
    lr = [spans[i][ATTRS] for i in main["supervised.fit_lr"]]

    return {
        "cli.calibrate_s": (total(pool, "cli.calibrate"), "s"),
        "cli.detect_s": (total(pool, "cli.detect"), "s"),
        "formats.read_s": (self_of("formats.read_"), "s"),
        "formats.read_mb": (sum(sum(attr(main, n, "bytes")) for n in READS) / 2**20, "MiB"),
        "formats.write_s": (self_of("formats.write_"), "s"),
        "geometry.chips": (len(main["geometry.extract_chip_stack"]), "count"),
        "geometry.chip_s": (total(main, "geometry.extract_chip_stack"), "s"),
        "geometry.chip_px_mean": (mean(attr(main, "geometry.extract_chip_stack", "px")), "px"),
        "clustering.fits": (len(fits), "count"),
        "clustering.fits_distinct": (len(set(attr(main, "core.layer_divergence", "key"))),
                                     "count"),
        "clustering.fit_s": (total(main, "clustering.fit_kmeans"), "s"),
        "clustering.lloyd_iters_mean": (mean([a["n_iter"] for a in fit_attrs]), "iters"),
        "clustering.cap_hits": (sum(a["n_iter"] == a["max_iter"] for a in fit_attrs), "count"),
        "clustering.features_s": (total(main, "clustering.extract_features"), "s"),
        "clustering.assign_s": (total(main, "clustering.assign_features"), "s"),
        # Computed, not counted: n_iter passes of an n x k distance matrix in d dims.
        "clustering.dist_gflop": (sum(a["n_iter"] * a["n"] * a["k"] * 2 * a["d"]
                                      for a in fit_attrs) / 1e9, "GFLOP"),
        "core.series_ms_p50": (percentile(series_ms, 50), "ms"),
        "core.series_ms_p99": (percentile(series_ms, 99), "ms"),
        "core.self_s": (self_of("core."), "s"),
        "calibration.sample_random_s": (total(main, "calibration.sample_random_polygons"), "s"),
        "calibration.self_s": (self_of("calibration."), "s"),
        "util.pools": (len(pooled), "count"),
        "util.tasks": (sum(attr(pool, "util.run_tasks", "items")), "count"),
        "util.run_tasks_s": (total(pool, "util.run_tasks"), "s"),
        "util.busy_frac": (sum(spans[i][ATTRS]["child_cpu"] for i in pooled) / pool_capacity
                           if pool_capacity else 0.0, "fraction"),
        "evaluation.splits_s": (total(main, "evaluation.repeated_splits"), "s"),
        "evaluation.self_s": (self_of("evaluation."), "s"),
        "evaluation.cache_hit_ratio": (sum(kids[i] == 0 for i in lookups) / len(lookups)
                                       if lookups else 0.0, "fraction"),
        "supervised.fit_lr_calls": (len(lr), "count"),
        "supervised.fit_lr_s": (total(main, "supervised.fit_lr"), "s"),
        "supervised.fit_lr_iters_mean": (mean([a["n_iter"] for a in lr]), "iters"),
        "supervised.final_loss_mean": (mean([a["final_loss"] for a in lr]), "nats"),
        "supervised.fit_threshold_s": (total(main, "supervised.fit_threshold"), "s"),
        "synthgen.generate_s": (total(setup, "synthgen.generate"), "s"),
    }
