import csv
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcm.clustering
import tcm.core
from tcm import (DivergenceCache, PixelFeatureConfig, SynthConfig, calibrate, detect,
                 evaluate_semi_supervised, extract_chip_stack, first_crossing, generate,
                 repeated_splits)
from tcm.cli import RunConfig, load_config, main
from tcm.data import FootprintDataset
from tcm.errors import ConfigError
from tcm.formats import calibration_report_to_dict, read_tcs, write_tcs

SYNTH = {
    "height": 112, "width": 112, "layers": 3, "footprints": 12,
    "size_range": [5.0, 8.0], "margin": 8.0,
    "year_weights": [0.4, 0.35, 0.25], "start_year": 2015,
}


def write_config(tmp_path, **extra):
    cfg = {"out_dir": str(tmp_path / "data"), "synth": SYNTH, "seed": 9}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def generated_config(tmp_path, **extra):
    """Generate a dataset, then return a config pointing at it."""
    gen_cfg = write_config(tmp_path)
    assert main(["generate", "--config", str(gen_cfg)]) == 0
    data = tmp_path / "data"
    cfg = {
        "scenes_dir": str(data / "scenes"),
        "polygons": str(data / "polygons.geojson"),
        "labels": str(data / "labels.csv"),
        "out_dir": str(tmp_path / "out"),
        "k_grid": [2, 4],
        "r_grid": [3.0, 6.0],
        "n_random": 20,
        "n_repeats": 4,
        "seed": 9,
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, data, tmp_path / "out"


class TestGenerate:
    def test_writes_dataset(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        data = tmp_path / "data"
        assert sorted(p.name for p in (data / "scenes").glob("*.tcs")) == [
            "scene_2015.tcs", "scene_2016.tcs", "scene_2017.tcs"]
        ds = FootprintDataset.load(data / "scenes", data / "polygons.geojson",
                                   data / "labels.csv")
        assert len(ds.polygons) == 12
        assert set(ds.labels) == {p.id for p in ds.polygons}

    @pytest.mark.parametrize("lib, warned", [(None, True), (object(), False)])
    def test_numpy_path_is_a_warning(self, tmp_path, monkeypatch, capsys, lib, warned):
        monkeypatch.setattr(tcm.clustering, "_lib", lib)
        monkeypatch.setattr(tcm.clustering, "KERNEL", "numpy path: no C compiler (cc) on PATH")
        monkeypatch.delenv("TCM_LOG", raising=False)
        assert main(["generate", "--config", str(write_config(tmp_path))]) == 0
        err = capsys.readouterr().err
        assert ("WARNING tcm: k-means: numpy path" in err) == warned
        assert ("k-means:" in err) == warned  # the compiled path logs at debug only

    @pytest.mark.parametrize("level, logged", [("debug", True), ("info", False)])
    def test_placement_counter_at_debug_only(self, tmp_path, monkeypatch, capsys, level,
                                             logged):
        monkeypatch.setenv("TCM_LOG", level)
        assert main(["generate", "--config", str(write_config(tmp_path))]) == 0
        out, err = capsys.readouterr()
        line = re.search(r"DEBUG tcm: placement drew \d+ candidates and rejected \d+", err)
        assert (line is not None) == logged
        assert "placement" not in out

    def test_unknown_synth_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, synth={"bogus": 1})
        assert main(["generate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("synth", [
        {"height": "x"},
        {"palette": 5},
        {"palette": [[1.0, 2.0, 3.0], "abc"]},
        {"size_range": [5.0, 8.0, 9.0]},
        {"footprints": True},
        {"noise_sigma": None},
    ], ids=["height_as_string", "palette_as_number", "palette_color_as_string",
            "size_range_of_three", "footprints_as_bool", "noise_sigma_as_null"])
    def test_mistyped_synth_entry_is_config_error(self, tmp_path, capsys, synth):
        cfg = write_config(tmp_path, synth=synth)
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "error[Config]" in capsys.readouterr().err


class TestCalibrate:
    def test_writes_report_and_cells(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert len(report["cells"]) == 4
        assert set(report["chosen"]) == {"k", "r", "theta"}
        with open(out / "calibration_cells.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert "accuracy" in rows[0]  # labels were available

    def test_requires_grids(self, tmp_path):
        cfg, _, _ = generated_config(tmp_path, k_grid=None)
        assert main(["calibrate", "--config", str(cfg)]) == 2


class TestDetect:
    def test_explicit_params_match_library(self, tmp_path):
        cfg, data, out = generated_config(tmp_path)
        code = main(["detect", "--config", str(cfg), "--k", "4", "--r", "3.0",
                     "--theta", "0.8"])
        assert code == 0
        ds = FootprintDataset.load(data / "scenes", data / "polygons.geojson")
        with open(out / "detections.csv") as fh:
            rows = {row["footprint_id"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {p.id for p in ds.polygons}
        for poly in ds.polygons:
            chips = extract_chip_stack(ds.scenes, poly, 3.0)
            res = detect(chips, 4, 0.8, seed=9)
            row = rows[poly.id]
            assert int(row["predicted_index"]) == res.index
            assert int(row["predicted_year"]) == res.year
            assert row["crossed"] == str(res.crossed).lower()
            assert float(row["d_1"]) == res.values[0]

    def test_auto_theta_runs_calibration(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        assert main(["detect", "--config", str(cfg), "--theta", "auto"]) == 0
        assert (out / "detections.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        args = ["detect", "--config", str(cfg), "--k", "2", "--r", "3.0", "--theta", "0.5"]
        assert main(args) == 0
        first = (out / "detections.csv").read_bytes()
        assert main(args) == 0
        assert (out / "detections.csv").read_bytes() == first

    def test_footprint_outside_imagery_is_data_error(self, tmp_path):
        cfg, data, _ = generated_config(tmp_path)
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"id": "far"},
            "geometry": {"type": "Polygon", "coordinates":
                         [[[900, 900], [905, 900], [905, 905], [900, 905], [900, 900]]]},
        }]}
        bad = tmp_path / "far.geojson"
        bad.write_text(json.dumps(doc))
        run = json.loads(Path(cfg).read_text())
        run["polygons"] = str(bad)
        run.pop("labels")
        cfg2 = tmp_path / "bad.json"
        cfg2.write_text(json.dumps(run))
        code = main(["detect", "--config", str(cfg2), "--k", "2", "--r", "3.0",
                     "--theta", "0.5"])
        assert code == 3

    def test_auto_theta_fits_each_layer_once(self, tmp_path, monkeypatch, capsys):
        cfg, _, _ = generated_config(tmp_path)
        keys = count_fits(monkeypatch)
        fitted = []  # the number of layers of each region_counts call, over its batch
        counts = tcm.core.region_counts
        monkeypatch.setattr(tcm.core, "region_counts",
                            lambda feats, sizes, codes, k, seeds: fitted.append(len(seeds))
                            or counts(feats, sizes, codes, k, seeds))
        monkeypatch.setenv("TCM_LOG", "debug")
        assert main(["detect", "--config", str(cfg), "--theta", "auto"]) == 0
        assert len(keys) == len(set(keys))
        # Calibration: 12 footprint finals and 20 random series (3 layers) per
        # (k, r) cell of the 2x2 grid; detection then adds the 2 layers of each
        # footprint that calibration did not fit.
        assert len(keys) == 12 * 4 + 20 * 3 * 4 + 12 * 2
        assert sum(fitted) == len(keys)
        assert f"k-means: {len(keys)} fits, " in capsys.readouterr().err

    def test_duplicate_footprint_id_is_data_error(self, tmp_path, capsys):
        cfg, data, _ = generated_config(tmp_path)
        doc = json.loads((data / "polygons.geojson").read_text())
        doc["features"].append(doc["features"][0])
        (data / "polygons.geojson").write_text(json.dumps(doc))
        code = main(["detect", "--config", str(cfg), "--k", "2", "--r", "3.0",
                     "--theta", "0.5"])
        assert code == 3
        assert "error[DuplicateFootprintId]" in capsys.readouterr().err


class TestEvaluate:
    def test_mode_method(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--method", "mode"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["method"] == "mode"
        assert metrics["n_repeats"] == 4
        with open(out / "repeats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_semi_method(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--method", "tcm_semi"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"accuracy", "mae", "mae_index", "chosen_k", "chosen_r",
                "chosen_theta"} <= set(metrics)

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        cfg, _, _ = generated_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", str(cfg), "--method", "nonsense"])


@pytest.mark.parametrize("flags", [["calibrate"], ["detect", "--theta", "auto"],
                                   ["evaluate", "--method", "tcm_semi"]],
                         ids=["calibrate", "detect", "evaluate"])
def test_k_means_budget_stops_are_logged_at_info(tmp_path, monkeypatch, capsys, flags):
    cfg, _, _ = generated_config(tmp_path)
    command, *rest = flags
    monkeypatch.delenv("TCM_LOG", raising=False)
    assert main([command, "--config", str(cfg)] + rest) == 0
    assert "k-means: " not in capsys.readouterr().err  # no budget stop: debug only
    counts = tcm.core.region_counts
    monkeypatch.setattr(tcm.core, "region_counts", lambda *args: counts(*args, max_iter=1))
    assert main([command, "--config", str(cfg)] + rest) == 0
    line = re.search(r"INFO tcm: k-means: (\d+) fits, (\d+) Lloyd iterations, (\d+) stopped "
                     r"unconverged at max_iter", capsys.readouterr().err)
    assert line is not None
    fits, iters, stops = map(int, line.groups())
    assert 0 < stops <= fits == iters


def test_store_settings_reach_every_command(tmp_path):
    cfg, data, out = generated_config(tmp_path, feature_mode="spectral_window", eps=0.5)
    ds = FootprintDataset.load(data / "scenes", data / "polygons.geojson", data / "labels.csv")
    store = DivergenceCache(ds, PixelFeatureConfig("spectral_window"), 0.5, seed=9)
    grids = {"k_grid": [2, 4], "r_grid": [3.0, 6.0], "seed": 9}
    as_json = lambda report: json.loads(json.dumps(calibration_report_to_dict(report)))

    assert main(["calibrate", "--config", str(cfg)]) == 0
    written = json.loads((out / "calibration.json").read_text())
    del written["inputs"]
    report = calibrate(ds, n_random=20, cache=store, **grids)
    assert written == as_json(report)
    assert written != as_json(calibrate(ds, n_random=20, **grids))  # default settings

    assert main(["detect", "--config", str(cfg), "--theta", "auto"]) == 0
    with open(out / "detections.csv") as fh:
        rows = {row["footprint_id"]: row for row in csv.DictReader(fh)}
    series = store.series(report.chosen_k, report.chosen_r)
    assert set(rows) == set(store.ids)
    for fid, values in zip(store.ids, series):
        assert int(rows[fid]["predicted_index"]) == first_crossing(values, report.chosen_theta)
        assert [float(rows[fid][f"d_{i}"]) for i in range(1, 4)] == list(values)

    assert main(["evaluate", "--config", str(cfg), "--method", "tcm_semi"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    semi, semi_report, _ = evaluate_semi_supervised(ds, n_random=20, cache=store, **grids)
    assert (metrics["accuracy"], metrics["mae"], metrics["chosen_theta"]) == (
        semi.accuracy, semi.mae, semi_report.chosen_theta)

    assert main(["evaluate", "--config", str(cfg), "--method", "tcm_supervised"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    summary = repeated_splits(ds, "tcm_supervised", n_repeats=4, cache=store, **grids)
    assert (metrics["acc_mean"], metrics["acc_std"], metrics["mae_mean"]) == (
        summary.acc_mean, summary.acc_std, summary.mae_mean)


class TestConfigHandling:
    def test_missing_config_file(self):
        assert main(["detect", "--config", "/nonexistent.json"]) == 2

    def test_auto_radius_passes_the_range_check(self):
        cfg = load_config(None, {"r": "auto", "r_grid": [2.0, 6.0], "theta": "auto"})
        assert (cfg.r, cfg.r_grid, cfg.theta) == ("auto", [2.0, 6.0], "auto")

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["generate", "--config", str(path)]) == 2

    def test_missing_paths(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenes_dir": str(tmp_path / "nope"),
                                    "polygons": str(tmp_path / "nope.geojson")}))
        assert main(["detect", "--config", str(path), "--k", "2", "--r", "1",
                     "--theta", "1"]) == 2

    def test_flag_overrides_config_seed(self, tmp_path):
        cfg, _, out = generated_config(tmp_path)
        args = ["detect", "--config", str(cfg), "--k", "2", "--r", "3.0", "--theta", "0.5"]
        assert main(args) == 0
        baseline = (out / "detections.csv").read_bytes()
        assert main(args + ["--seed", "77"]) == 0
        assert (out / "detections.csv").read_bytes() != baseline

    def test_bad_theta_string(self, tmp_path):
        cfg, _, _ = generated_config(tmp_path)
        assert main(["detect", "--config", str(cfg), "--k", "2", "--r", "3.0",
                     "--theta", "weird"]) == 2


def _integer(v):
    return type(v) is int


def _number(v):  # finite, and representable as a float
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _auto_or(check):
    return lambda v: v is None or v == "auto" or check(v)


# Every RunConfig key with the types and ranges the README documents, written out.
DOCUMENTED = {
    "scenes_dir": lambda v: v is None or type(v) is str and os.path.isdir(v),
    "polygons": lambda v: v is None or type(v) is str and os.path.isfile(v),
    "labels": lambda v: v is None or type(v) is str and os.path.isfile(v),
    "out_dir": lambda v: type(v) is str,
    "k": _auto_or(lambda v: _integer(v) and v >= 1),
    "r": _auto_or(lambda v: _number(v) and v > 0),
    "theta": _auto_or(lambda v: _number(v) and v >= 0),
    "feature_mode": lambda v: v in ("spectral", "spectral_window"),
    "window": lambda v: _integer(v) and v >= 1,
    "eps": lambda v: _number(v) and v > 0,
    "percentile": lambda v: _number(v) and 0 < v < 100,
    "k_grid": lambda v: v is None or type(v) is list and all(_integer(x) and x >= 1 for x in v),
    "r_grid": lambda v: v is None or type(v) is list and all(_number(x) and x > 0 for x in v),
    "n_random": lambda v: _integer(v) and v >= 1,
    "n_bins": lambda v: _integer(v) and v >= 1,
    "method": lambda v: v in ("tcm_semi", "tcm_supervised", "tcm_lr", "avgcolor_threshold",
                              "avgcolor_lr", "color_over_time", "mode"),
    "n_repeats": lambda v: _integer(v) and v >= 1,
    "train_frac": lambda v: _number(v) and 0 < v < 1,
    "seed": _integer,
    "workers": lambda v: _integer(v) and v >= 1,
    "synth": lambda v: v is None or type(v) is dict,
}

ROOT = Path(__file__).resolve().parents[1]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
            | st.sampled_from([0, 1, 2, 0.5, 99.5, 1e400, -1e400, 10**400, "auto", "spectral",
                               "mode", str(ROOT), str(ROOT / "README.md")]))
JSON_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(st.text(max_size=2),
                                                                          _SCALARS, max_size=2)


def test_documented_table_names_every_config_key():
    assert set(DOCUMENTED) == {f.name for f in dataclasses.fields(RunConfig)}
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"^\| `(\w+)` \|", readme, re.M) == list(DOCUMENTED)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.sampled_from(sorted(DOCUMENTED)), JSON_VALUES, max_size=4))
def test_config_values_are_refused_or_have_their_documented_type(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "config.json"
    path.write_text(json.dumps(doc))  # writes the literals NaN, Infinity and -Infinity
    if not all(DOCUMENTED[key](value) for key, value in doc.items()):
        with pytest.raises(ConfigError):
            load_config(str(path), {})
        return
    cfg = load_config(str(path), {})
    for field in dataclasses.fields(RunConfig):
        assert DOCUMENTED[field.name](getattr(cfg, field.name)), field.name
    assert json.dumps({key: getattr(cfg, key) for key in doc}) == json.dumps(doc)  # as written


@pytest.fixture(scope="module")
def labelled_run(tmp_path_factory):
    """A generated dataset's run config, its labels.csv and its footprint ids."""
    cfg, data, _ = generated_config(tmp_path_factory.mktemp("labels"), n_repeats=2)
    with open(data / "labels.csv", newline="") as fh:
        ids = [row["footprint_id"] for row in csv.DictReader(fh)]
    return cfg, data / "labels.csv", ids


# (first_index, first_year) cells of a label that SYNTH's scene years admit, and any cells.
_VALID_LABEL = st.sampled_from([[str(i + 1), str(SYNTH["start_year"] + i)]
                                for i in range(SYNTH["layers"])])
_LABEL_CELLS = st.lists(st.integers(-1, 4).map(str) | st.sampled_from(["2015", "2099", ""])
                        | st.text(max_size=4), max_size=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_labels_csv_is_scored_or_refused(labelled_run, data):
    cfg, labels, ids = labelled_run
    good = data.draw(st.lists(st.tuples(st.sampled_from(ids), _VALID_LABEL),
                              unique_by=lambda row: row[0]))
    odd = data.draw(st.lists(st.tuples(st.sampled_from(ids) | st.text(max_size=4),
                                       _VALID_LABEL | _LABEL_CELLS), max_size=4))
    with open(labels, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["footprint_id", "first_index", "first_year"])
        writer.writerows([fid] + cells for fid, cells in good + odd)
    code = main(["evaluate", "--config", str(cfg), "--method", "mode"])
    assert code in (0, 2, 3)
    if not odd:  # well-formed labels: scored when there are enough to split
        assert code == (0 if len(good) >= 5 else 3 if good else 2)


def corrupt_magic(data):
    path = data / "scenes" / "scene_2016.tcs"
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])


def truncate_payload(data):
    path = data / "scenes" / "scene_2016.tcs"
    path.write_bytes(path.read_bytes()[:100])


def edit_sidecar(**changes):
    def edit(data):
        path = data / "scenes" / "scene_2016.json"
        meta = {**json.loads(path.read_text()), **changes}
        path.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
    return edit


def nan_pixel(data):
    path = data / "scenes" / "scene_2016.tcs"
    stack = read_tcs(path).astype(np.float32)
    stack[0, 56, 56, 1] = np.nan
    write_tcs(path, stack)


def drop_first_index(data):
    path = data / "labels.csv"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["footprint_id", "first_year"],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def edit_first_label(change):
    """Replace the first label's (first_index, first_year) with change(index, year)."""
    def edit(data, *_):
        path = data / "labels.csv"
        header, first, *rest = path.read_text().splitlines()
        fid, index, year = first.split(",")
        index, year = change(int(index), int(year))
        path.write_text("\n".join([header, f"{fid},{index},{year}"] + rest) + "\n")
    return edit


def duplicate_first_label(data):
    path = data / "labels.csv"
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first, first] + rest) + "\n")


def rename_labels(count=None):
    """Give the first `count` labels (all when None) ids that name no footprint."""
    def edit(data):
        path = data / "labels.csv"
        header, *rows = path.read_text().splitlines()
        rows[:count] = [f"typo-{i}," + row.split(",", 1)[1] for i, row in enumerate(rows[:count])]
        path.write_text("\n".join([header] + rows) + "\n")
    return edit


def keep_labels(count):
    def edit(data):
        path = data / "labels.csv"
        path.write_text("\n".join(path.read_text().splitlines()[: count + 1]) + "\n")
    return edit


def write_polygons(text):
    def edit(data):
        (data / "polygons.geojson").write_text(text)
    return edit


def label_years_from_csv(first_year):
    """Carry every label of labels.csv as its feature's label_year, the first
    one replaced by first_year, and delete labels.csv."""
    def edit(data):
        with open(data / "labels.csv") as fh:
            years = {row["footprint_id"]: int(row["first_year"]) for row in csv.DictReader(fh)}
        (data / "labels.csv").unlink()
        path = data / "polygons.geojson"
        doc = json.loads(path.read_text())
        for feature in doc["features"]:
            props = feature["properties"]
            props["label_year"] = years[props["id"]]
        doc["features"][0]["properties"]["label_year"] = first_year
        path.write_text(json.dumps(doc))
    return edit


def polygons_as_directory(data):
    path = data / "polygons.geojson"
    path.unlink()
    path.mkdir()


def write_run_config(text):
    def edit(data):
        (data.parent / "run.json").write_text(text)  # where generated_config put it
    return edit


def drop_coordinates(data):
    path = data / "polygons.geojson"
    doc = json.loads(path.read_text())
    del doc["features"][3]["geometry"]["coordinates"]
    path.write_text(json.dumps(doc))


def edit_first_feature(change):
    def edit(data):
        path = data / "polygons.geojson"
        doc = json.loads(path.read_text())
        change(doc["features"][0])
        path.write_text(json.dumps(doc))
    return edit


# (case, edit of the generated data, run-config overrides, extra flags, exit, error class);
# the run config gives k=2, r=3.0 and theta=0.5 unless the overrides say otherwise. The
# command is detect, unless the flags start with another one.
MALFORMED = [
    ("bad_magic", corrupt_magic, {}, [], 3, "CorruptScene"),
    ("truncated_payload", truncate_payload, {}, [], 3, "CorruptScene"),
    ("sidecar_without_year", edit_sidecar(year=None), {}, [], 3, "CorruptScene"),
    ("nan_pixel", nan_pixel, {}, [], 3, "NonFinitePixels"),
    ("duplicate_scene_year", edit_sidecar(year=2015), {}, [], 3, "DuplicateSceneYear"),
    ("labels_without_first_index", drop_first_index, {}, [], 3, "MalformedLabels"),
    ("label_year_off_axis", edit_first_label(lambda index, year: (index, 2099)), {}, [], 3,
     "MalformedLabels"),
    ("label_index_off_year", edit_first_label(lambda index, year: (index % 3 + 1, year)), {},
     [], 3, "MalformedLabels"),
    ("truncated_geojson", write_polygons('{"type": "FeatureCollection", "features": [\n'),
     {}, [], 3, "MalformedPolygons"),
    ("polygon_without_coordinates", drop_coordinates, {}, [], 3, "MalformedPolygons"),
    ("non_object_feature", write_polygons('{"type": "FeatureCollection", "features": [1]}'),
     {}, [], 3, "MalformedPolygons"),
    ("features_not_a_list", write_polygons(
        '{"type": "FeatureCollection", "features": {"type": "Feature"}}'), {}, [], 3,
     "MalformedPolygons"),
    ("non_object_properties", edit_first_feature(lambda f: f.update(properties="id")), {}, [],
     3, "MalformedPolygons"),
    ("non_object_geometry", edit_first_feature(lambda f: f.update(geometry=[1])), {}, [], 3,
     "MalformedPolygons"),
    ("feature_without_id", edit_first_feature(lambda f: f["properties"].pop("id")), {}, [], 3,
     "MalformedPolygons"),
    ("null_geometry", edit_first_feature(lambda f: f.update(geometry=None)), {}, [], 3,
     "MalformedPolygons"),
    ("point_geometry", edit_first_feature(
        lambda f: f.update(geometry={"type": "Point", "coordinates": [20.0, 20.0]})), {}, [], 3,
     "MalformedPolygons"),
    ("multipolygon_geometry", edit_first_feature(lambda f: f["geometry"].update(
        type="MultiPolygon", coordinates=[f["geometry"]["coordinates"]])), {}, [], 3,
     "MalformedPolygons"),
    ("not_a_feature_collection", write_polygons("[1]"), {}, [], 3, "MalformedPolygons"),
    # Without labels, which would name no footprint.
    ("empty_feature_collection", write_polygons('{"type": "FeatureCollection", "features": []}'),
     {"labels": None}, [], 3, "MalformedPolygons"),
    ("empty_feature_collection_calibrate",
     write_polygons('{"type": "FeatureCollection", "features": []}'), {"labels": None},
     ["calibrate"], 3, "MalformedPolygons"),
    ("label_year_not_a_scene_year", label_years_from_csv(1999), {"labels": None},
     ["evaluate", "--method", "tcm_semi"], 3, "MalformedLabels"),
    ("fractional_label_year",
     edit_first_feature(lambda f: f["properties"].update(label_year=2015.5)), {}, [], 3,
     "MalformedPolygons"),
    # json.dumps writes these as the literals NaN and Infinity, which json.loads reads.
    ("nan_coordinate", edit_first_feature(
        lambda f: f["geometry"]["coordinates"][0][1].__setitem__(0, float("nan"))), {}, [], 3,
     "MalformedPolygons"),
    ("infinite_coordinate", edit_first_feature(
        lambda f: f["geometry"]["coordinates"][0][1].__setitem__(1, float("inf"))), {}, [], 3,
     "MalformedPolygons"),
    # A finite vertex whose shoelace products overflow: the area is NaN, not zero.
    ("ring_area_past_float_range", edit_first_feature(
        lambda f: f["geometry"]["coordinates"][0][1].__setitem__(0, 1e308)), {}, [], 3,
     "DegeneratePolygon"),
    ("negative_r", None, {}, ["--r", "-1"], 2, "Config"),
    ("negative_theta", None, {}, ["--theta", "-1"], 2, "Config"),
    ("nonpositive_r_grid", None, {"r_grid": [3.0, 0.0], "k": None, "r": None},
     ["--theta", "auto"], 2, "Config"),
    ("theta_alone", None, {"k": None, "r": None}, ["--theta", "0.01"], 2, "Config"),
    ("k_and_r_with_auto_theta", None, {}, ["--k", "8", "--r", "6", "--theta", "auto"], 2,
     "Config"),
    ("auto_r_with_explicit_k_theta", None, {"r": "auto"}, [], 2, "Config"),
    ("fractional_k", None, {"k": 2.5}, [], 2, "Config"),
    ("zero_in_k_grid", None, {"k_grid": [0, 2], "k": None, "r": None}, ["--theta", "auto"], 2,
     "Config"),
    ("zero_n_random", None, {"n_random": 0, "k": None, "r": None}, ["--theta", "auto"], 2,
     "Config"),
    ("zero_n_bins", None, {"n_bins": 0, "k": None, "r": None}, ["--theta", "auto"], 2,
     "Config"),
    ("percentile_100", None, {"percentile": 100, "k": None, "r": None}, ["--theta", "auto"],
     2, "Config"),
    ("workers_as_string", None, {"workers": "2"}, [], 2, "Config"),
    ("zero_n_repeats", None, {"n_repeats": 0}, [], 2, "Config"),
    ("train_frac_above_one", None, {"train_frac": 2.0}, [], 2, "Config"),
    ("eps_as_string", None, {"eps": "a"}, [], 2, "Config"),
    ("negative_eps", None, {"eps": -1.0}, [], 2, "Config"),
    ("zero_eps", None, {"eps": 0}, [], 2, "Config"),
    ("unknown_feature_mode", None, {"feature_mode": "nope"}, [], 2, "Config"),
    ("zero_window", None, {"feature_mode": "spectral_window", "window": 0}, [], 2, "Config"),
    ("out_dir_as_number", None, {"out_dir": 5}, [], 2, "Config"),
    ("seed_as_string", None, {"seed": "x"}, [], 2, "Config"),
    ("fractional_seed", None, {"seed": 1.5}, [], 2, "Config"),
    ("seed_as_bool", None, {"seed": True}, [], 2, "Config"),
    ("synth_as_list", None, {"synth": [1]}, [], 2, "Config"),
    ("scenes_dir_as_number", None, {"scenes_dir": 5}, [], 2, "Config"),
    ("polygons_as_number", None, {"polygons": 5}, [], 2, "Config"),
    ("labels_as_number", None, {"labels": 5}, [], 2, "Config"),
    ("k_grid_as_number", None, {"k_grid": -1}, [], 2, "Config"),
    ("r_grid_as_number", None, {"r_grid": 1.5}, [], 2, "Config"),
    ("empty_labels_path", None, {"labels": ""}, [], 2, "Config"),
    ("polygons_a_directory", polygons_as_directory, {}, [], 2, "Config"),
    ("config_a_number", write_run_config("5"), {}, [], 2, "Config"),
    ("config_null", write_run_config("null"), {}, [], 2, "Config"),
    ("theta_as_bool", None, {"theta": True}, [], 2, "Config"),
    ("r_as_bool", None, {"r": True}, [], 2, "Config"),
    ("eps_as_bool", None, {"eps": True}, [], 2, "Config"),
    ("percentile_as_bool", None, {"percentile": True}, [], 2, "Config"),
    # json.dumps writes 1e400 (inf) as the literal Infinity, which json.loads reads back.
    ("infinite_r", None, {"r": 1e400}, [], 2, "Config"),
    ("k_past_int64", None, {"k": 10**30}, [], 3, "TooFewPixels"),
    ("fractional_sidecar_year", edit_sidecar(year=2016.7), {}, [], 3, "CorruptScene"),
    ("sidecar_year_as_string", edit_sidecar(year="2016"), {}, [], 3, "CorruptScene"),
    ("geotransform_as_string", edit_sidecar(geotransform="123456"), {}, [], 3,
     "CorruptScene"),
    ("geotransform_of_bools", edit_sidecar(geotransform=[True, False, False, False, True,
                                                         False]), {}, [], 3, "CorruptScene"),
    ("nan_in_geotransform", edit_sidecar(geotransform=[float("nan"), 0, 0, 0, 1, 0]), {}, [],
     3, "CorruptScene"),
    ("null_id", edit_first_feature(lambda f: f["properties"].update(id=None)), {}, [], 3,
     "MalformedPolygons"),
    ("id_as_list", edit_first_feature(lambda f: f["properties"].update(id=[1])), {}, [], 3,
     "MalformedPolygons"),
    ("id_as_object", edit_first_feature(lambda f: f["properties"].update(id={})), {}, [], 3,
     "MalformedPolygons"),
    ("label_index_with_space", edit_first_label(lambda index, year: (f" {index}", year)), {},
     [], 3, "MalformedLabels"),
    ("label_year_with_underscore",
     edit_first_label(lambda index, year: (index, f"{year // 100}_{year % 100}")), {}, [], 3,
     "MalformedLabels"),
    ("footprint_labelled_twice", duplicate_first_label, {}, [], 3, "MalformedLabels"),
    ("label_id_typo", rename_labels(1), {}, ["evaluate", "--method", "tcm_semi"], 3,
     "MalformedLabels"),
    ("no_label_id_known_calibrate", rename_labels(), {}, ["calibrate"], 3, "MalformedLabels"),
    ("no_label_id_known_evaluate", rename_labels(), {}, ["evaluate", "--method", "mode"], 3,
     "MalformedLabels"),
    ("four_labels_to_split", keep_labels(4), {}, ["evaluate", "--method", "mode"], 3,
     "TooFewLabels"),
]


@pytest.mark.parametrize("edit, overrides, flags, code, error",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, edit, overrides, flags, code, error):
    cfg, data, _ = generated_config(tmp_path, **{"k": 2, "r": 3.0, "theta": 0.5, **overrides})
    if edit is not None:
        edit(data)
    command, *flags = flags if flags[:1] in (["calibrate"], ["evaluate"]) else ["detect"] + flags
    assert main([command, "--config", str(cfg)] + flags) == code
    assert f"error[{error}]" in capsys.readouterr().err


# Values put in place of one JSON field: each JSON type, the literals NaN and
# Infinity (json.dumps writes them), floats and an integer past the float range,
# an empty and an over-nested list, and a 3-D vertex.
FIELD_VALUES = (None, True, False, 0, -1, 1.5, 1e308, -1e308, 10**400, float("nan"),
                float("inf"), float("-inf"), "", "x", [], [[[[[]]]]], {}, [1.0, 2.0, 3.0])
_never = lambda v: False
_number = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max
_vertex = lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v))
_ring = lambda v: isinstance(v, list) and all(map(_vertex, v))
_FEATURE = ("features", 0)
_RING = _FEATURE + ("geometry", "coordinates", 0)
# (file, path to one field, which of FIELD_VALUES have the field's type). An index one
# past the end of a list appends, so coordinates index 1 is a hole.
FIELDS = [
    ("sidecar", (), _never),
    ("sidecar", ("year",), lambda v: type(v) is int),
    ("sidecar", ("geotransform",), _never),
    *[("sidecar", ("geotransform", i), _number) for i in range(6)],
    ("polygons", (), _never),
    ("polygons", ("type",), _never),
    ("polygons", ("features",), _never),
    ("polygons", _FEATURE, _never),
    ("polygons", _FEATURE + ("properties",), _never),
    ("polygons", _FEATURE + ("properties", "id"), lambda v: type(v) in (str, int)),
    ("polygons", _FEATURE + ("properties", "label_year"), lambda v: v is None or type(v) is int),
    ("polygons", _FEATURE + ("geometry",), _never),
    ("polygons", _FEATURE + ("geometry", "type"), _never),
    ("polygons", _FEATURE + ("geometry", "coordinates"), _never),
    ("polygons", _RING, _ring),
    ("polygons", _RING[:-1] + (1,), _ring),
    ("polygons", _RING + (1,), _vertex),
    ("polygons", _RING + (1, 0), _number),
    ("polygons", _RING + (1, 1), _number),
]


def with_field(doc, path, value):
    """doc with the field at path set to value."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def tiny_area(tmp_path_factory):
    """A run config for three footprints on two 40x40 scenes, and its data directory."""
    root = tmp_path_factory.mktemp("tiny")
    generate(SynthConfig(height=40, width=40, layers=2, footprints=3, size_range=(5.0, 7.0),
                         margin=8.0, year_weights=(0.5, 0.5), seed=4)).save(root / "data")
    cfg = root / "run.json"
    cfg.write_text(json.dumps({
        "scenes_dir": str(root / "data" / "scenes"),
        "polygons": str(root / "data" / "polygons.geojson"), "out_dir": str(root / "out"),
        "k": 2, "r": 3.0, "theta": 0.5, "k_grid": [2], "r_grid": [3.0], "n_random": 4}))
    return cfg, root / "data"


@pytest.mark.parametrize("file, path, typed", FIELDS,
                         ids=["-".join([f[0], *map(str, f[1])]) for f in FIELDS])
def test_sidecar_and_feature_fields_exit_0_2_or_3(tiny_area, capsys, file, path, typed):
    """Every value of FIELD_VALUES in the field: detect and calibrate exit 0, 2 or 3,
    and never 0 for a value of another type."""
    cfg, data = tiny_area
    target = (sorted((data / "scenes").glob("*.json"))[0] if file == "sidecar"
              else data / "polygons.geojson")
    original = target.read_text()
    wrong = []
    try:
        for value in FIELD_VALUES:
            target.write_text(json.dumps(with_field(json.loads(original), path, value)))
            for command in ("detect", "calibrate"):
                code = main([command, "--config", str(cfg)])
                err = capsys.readouterr().err
                if code not in (0, 2, 3) or code == 0 and not typed(value):
                    wrong.append((repr(value)[:20], command, code, err[-160:]))
    finally:
        target.write_text(original)
    assert not wrong


# (case, ring of one more footprint, whose chip cannot be cut, error class)
UNCUTTABLE = [
    ("outside_imagery", [[900, 900], [905, 900], [905, 905], [900, 905]],
     "FootprintOutsideImagery"),
    ("no_pixel_center", [[20.2, 20.2], [20.8, 20.2], [20.8, 20.8], [20.2, 20.8]],
     "EmptyFootprintMask"),
    ("covers_the_scene", [[-50, -50], [500, -50], [500, 500], [-50, 500]], "EmptyRegion"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ring, error", [case[1:] for case in UNCUTTABLE],
                         ids=[case[0] for case in UNCUTTABLE])
def test_uncuttable_chip_in_a_batch_is_data_error(tmp_path, monkeypatch, capsys, ring, error,
                                                  workers):
    # 13 footprints in batches of 4: at workers=2 the chips are cut in the pool.
    monkeypatch.setattr(tcm.core, "BATCH", 4)
    cfg, data, _ = generated_config(tmp_path, k=2, r=3.0, theta=0.5, workers=workers)
    path = data / "polygons.geojson"
    doc = json.loads(path.read_text())
    doc["features"].insert(6, {"type": "Feature", "properties": {"id": "uncuttable"},
                               "geometry": {"type": "Polygon", "coordinates": [ring + ring[:1]]}})
    path.write_text(json.dumps(doc))
    assert main(["detect", "--config", str(cfg)]) == 3
    assert f"error[{error}]" in capsys.readouterr().err


def count_fits(monkeypatch):
    """The (footprint, r, k, layer) key of every layer fit, in call order."""
    keys = []
    divergences = tcm.core._batch_divergences

    def counted(chips, ks, layers, *args, **kwargs):
        keys.extend((ch.footprint_id, ch.buffer_radius, k, layer)
                    for ch in chips for k in ks for layer in layers)
        return divergences(chips, ks, layers, *args, **kwargs)

    monkeypatch.setattr(tcm.core, "_batch_divergences", counted)
    return keys


def edit_run_config(**changes):
    def edit(data, cfg, out):
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **changes}))
    return edit


def bump_scene_pixel(data, cfg, out):
    path = data / "scenes" / "scene_2016.tcs"
    stack = read_tcs(path)
    stack[0, 56, 56, 1] ^= 1
    write_tcs(path, stack)


def move_polygon_vertex(data, cfg, out):
    path = data / "polygons.geojson"
    doc = json.loads(path.read_text())
    doc["features"][0]["geometry"]["coordinates"][0][1][0] += 0.5
    path.write_text(json.dumps(doc))


def truncate_report(data, cfg, out):
    path = out / "calibration.json"
    path.write_bytes(path.read_bytes()[:200])


def drop_report_inputs(data, cfg, out):
    path = out / "calibration.json"
    doc = json.loads(path.read_text())
    del doc["inputs"]
    path.write_text(json.dumps(doc))


# (case, edit after `calibrate`, flags of both detect runs, calibrate flags, reused?)
CALIBRATION_REUSE = [
    ("same_inputs", None, [], [], True),
    ("seed", None, ["--seed", "10"], [], False),
    ("n_random", edit_run_config(n_random=21), [], [], False),
    ("scene_pixel", bump_scene_pixel, [], [], False),
    ("polygon_vertex", move_polygon_vertex, [], [], False),
    ("truncated_report", truncate_report, [], [], False),
    ("report_without_inputs", drop_report_inputs, [], [], False),
    ("workers", None, [], ["--workers", "2"], True),
    ("labels", edit_first_label(lambda index, year: (index % 3 + 1, 2015 + index % 3)), [], [],
     True),
]


@pytest.mark.parametrize("edit, flags, calibrate_flags, reused",
                         [case[1:] for case in CALIBRATION_REUSE],
                         ids=[case[0] for case in CALIBRATION_REUSE])
def test_auto_params_reuse_only_a_matching_calibration(tmp_path, monkeypatch, edit, flags,
                                                       calibrate_flags, reused):
    cfg, data, out = generated_config(tmp_path)
    assert main(["calibrate", "--config", str(cfg)] + calibrate_flags) == 0
    if edit is not None:
        edit(data, cfg, out)
    report = (out / "calibration.json").read_bytes()
    detect = ["detect", "--config", str(cfg), "--theta", "auto"] + flags
    fits = count_fits(monkeypatch)
    assert main(detect + ["--out", str(tmp_path / "fresh")]) == 0
    fresh_fits = len(fits)
    fits.clear()
    assert main(detect) == 0
    # A reused report leaves detect only the 3 layers of each of the 12 footprints.
    assert len(fits) == (12 * 3 if reused else fresh_fits)
    assert fresh_fits > 12 * 3
    assert (out / "detections.csv").read_bytes() == (
        tmp_path / "fresh" / "detections.csv").read_bytes()
    assert (out / "calibration.json").read_bytes() == report
    assert sorted(p.name for p in out.iterdir()) == [
        "calibration.json", "calibration_cells.csv", "detections.csv"]
