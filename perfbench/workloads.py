"""The three benchmark workloads: inputs from a seed, the timed pass, scoring.

A workload has `setup(work, seed)`, which makes its inputs; `run(workers,
span)`, one timed pass returning an `Outcome`; `units`, the work of one pass;
and `score(outcome)`, its (accuracy, mae_index) against the generator's labels.

Every workload drives `tcm` the way its users do. The CLI workloads write the
generated study area to disk without its labels file and call `tcm.cli.main`
in-process; `method_table` calls `tcm.evaluation.repeated_splits` with one
shared, pre-filled `DivergenceCache`. The generator's labels are kept apart
and used only for scoring.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from tcm import cli, data, evaluation, synthgen

# The acceptance suite's criterion-6 study area; only the smoke test uses it.
TINY_SYNTH = {"height": 112, "width": 112, "layers": 3, "footprints": 14,
              "size_range": (5.0, 8.0), "margin": 8.0,
              "year_weights": (0.4, 0.35, 0.25), "start_year": 2015}
# Stock study area and grids of the paper's pipeline (README,
# scripts/run_synthetic_benchmark.py). method_table runs 10 repeats, not 50,
# so that three set-ups and at least two timed passes fit one run.
SIZES = {
    "stock": {
        "synth": {},
        "large_synth": {"height": 768, "width": 768, "footprints": 1800},
        "k_grid": [2, 4, 8],
        "r_grid": [2.0, 6.0, 12.0],
        "n_random": 200,
        "n_repeats": 10,
    },
    "tiny": {
        "synth": TINY_SYNTH,
        "large_synth": TINY_SYNTH,
        "k_grid": [2, 4],
        "r_grid": [3.0, 6.0],
        "n_random": 24,
        "n_repeats": 4,
    },
}
SUPERVISED = ("tcm_supervised", "tcm_lr", "avgcolor_lr", "avgcolor_threshold",
              "color_over_time", "mode")
SCORED_METHOD = "tcm_lr"


@dataclass
class Outcome:
    """Operations and output checks of one timed pass, or of a whole run."""

    attempted: int = 0
    failed: int = 0
    output: bytes = b""  # byte-compared across passes
    predictions: dict = field(default_factory=dict)  # footprint id -> year
    table: dict = field(default_factory=dict)  # method_table rows
    errors: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def _synth(overrides: dict, seed: int) -> synthgen.SynthConfig:
    return synthgen.SynthConfig(**{**overrides, "seed": seed})


def _write_study_area(work: Path, config: synthgen.SynthConfig) -> dict:
    """Generate and save a study area; move its labels out of the program's view."""
    dataset = synthgen.generate(config)
    data_dir = work / "data"
    if data_dir.exists():
        shutil.rmtree(data_dir)
    paths = dataset.save(data_dir)
    truth = work / "truth"
    truth.mkdir(exist_ok=True)
    shutil.move(str(paths["labels"]), truth / "labels.csv")
    return {"scenes_dir": str(paths["scenes"]), "polygons": str(paths["polygons"]),
            "years": list(dataset.years), "labels": dict(dataset.labels)}


def _read_detections(blob: bytes) -> dict:
    return {row["footprint_id"]: int(row["predicted_year"])
            for row in csv.DictReader(io.StringIO(blob.decode()))}


class CliWorkload:
    """Shared shape of the two workloads that run `tcm` commands on files."""

    name = ""
    workers = 1
    pooled_pass = False  # True when the timed pass fans out to pool workers
    synth = "synth"  # key of the study area in SIZES
    commands: list[list[str]] = []  # tcm subcommand and its flags, one per call

    def __init__(self, size: dict):
        self.size = size
        self.area: dict = {}
        self.config = Path()
        self.out_dir = Path()

    def run_config(self) -> dict:
        return {}

    def setup(self, work: Path, seed: int) -> None:
        self.area = _write_study_area(work, _synth(self.size[self.synth], seed))
        self.out_dir = work / "out"
        self.config = work / "config.json"
        self.config.write_text(json.dumps({
            "scenes_dir": self.area["scenes_dir"], "polygons": self.area["polygons"],
            "out_dir": str(self.out_dir), "seed": seed, "workers": self.workers,
            **self.run_config()}))

    @property
    def units(self) -> int:
        """Footprints dated per pass."""
        return len(self.area["labels"])

    def run(self, workers: int | None = None, span=None) -> Outcome:
        """Run the commands; `span(name)` wraps each `cli.main` call when tracing."""
        out = Outcome()
        detections = self.out_dir / "detections.csv"
        if detections.exists():
            detections.unlink()
        extra = ["--workers", str(workers)] if workers else []
        for argv in self.commands:
            full = [argv[0], "--config", str(self.config)] + argv[1:] + extra
            try:
                if span is None:
                    code = cli.main(full)
                else:
                    with span(f"cli.{argv[0]}"):
                        code = cli.main(full)
            except Exception as exc:  # a raised call is a failed operation
                out.op(False, f"tcm {argv[0]} raised {exc!r}")
                continue
            out.op(code == 0, f"tcm {argv[0]} exited {code}")
        out.output = detections.read_bytes() if detections.exists() else b""
        try:
            out.predictions = _read_detections(out.output)
        except (KeyError, ValueError) as exc:
            out.op(False, f"detections.csv unreadable: {exc!r}")
        out.op(set(out.predictions) == set(self.area["labels"]),
               "detections.csv does not hold exactly one row per footprint")
        return out

    def score(self, out: Outcome) -> tuple[float, float]:
        labels = self.area["labels"]
        result = evaluation.score(
            out.predictions, {i: year for i, (_, year) in labels.items()},
            years=self.area["years"])
        return result.accuracy, result.mae_index


class LabelFree(CliWorkload):
    name = "label_free"
    workers = 2
    pooled_pass = True
    commands = [["calibrate"], ["detect", "--theta", "auto"]]

    def run_config(self):
        return {"k_grid": self.size["k_grid"], "r_grid": self.size["r_grid"],
                "n_random": self.size["n_random"]}


class DetectLarge(CliWorkload):
    name = "detect_large"
    workers = 1
    synth = "large_synth"
    commands = [["detect", "--k", "4", "--r", "6", "--theta", "0.97"]]


class MethodTable:
    """Six supervised methods over repeated splits sharing one warm cache."""

    name = "method_table"
    workers = 2  # of the cache fill in set-up; the timed pass starts no pool
    pooled_pass = False

    def __init__(self, size: dict):
        self.size = size
        self.area: dict = {}
        self.dataset = None
        self.cache = None
        self.seed = 0

    def setup(self, work: Path, seed: int) -> None:
        self.dataset = self.cache = None  # never hold two filled caches at once
        self.area = _write_study_area(work, _synth(self.size["synth"], seed))
        truth = work / "truth" / "labels.csv"
        self.dataset = data.FootprintDataset.load(
            self.area["scenes_dir"], self.area["polygons"], truth)
        self.seed = seed
        self.cache = evaluation.DivergenceCache(self.dataset, seed=seed,
                                                workers=self.workers)
        for k in self.size["k_grid"]:
            for r in self.size["r_grid"]:
                self.cache.series(k, r)

    @property
    def units(self) -> int:
        """Train/test splits evaluated per pass."""
        return len(SUPERVISED) * self.size["n_repeats"]

    def run(self, workers=None, span=None) -> Outcome:
        out = Outcome()
        for method in SUPERVISED:
            try:
                summary = evaluation.repeated_splits(
                    self.dataset, method, n_repeats=self.size["n_repeats"],
                    seed=self.seed, k_grid=self.size["k_grid"], r_grid=self.size["r_grid"],
                    cache=self.cache)
            except Exception as exc:  # a raised call is a failed operation
                out.op(False, f"{method} raised {exc!r}")
                continue
            out.op(len(summary.records) == self.size["n_repeats"],
                   f"{method} returned {len(summary.records)} splits")
            out.table[method] = {"acc_mean": summary.acc_mean, "acc_std": summary.acc_std,
                                 "mae_index_mean": summary.mae_index_mean}
        out.output = json.dumps(out.table, sort_keys=True).encode()
        return out

    def score(self, out: Outcome) -> tuple[float, float]:
        row = out.table[SCORED_METHOD]
        return row["acc_mean"], row["mae_index_mean"]


WORKLOADS = {w.name: w for w in (LabelFree, DetectLarge, MethodTable)}
