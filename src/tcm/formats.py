"""On-disk formats: TCS rasters, GeoJSON footprints, label and detection CSVs.

TCS layout (little-endian, bit-exact):
  magic "TCS1" | u32 T, H, W, C | u8 dtype code (1=u8, 2=u16, 4=f32)
  | T*H*W*C samples in [t][channel][row][col] order, and nothing after them.
Scene files carry T=1; a sidecar <name>.json next to each scene holds
{"year": int, "geotransform": [a, b, c, d, e, f]}.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import json
import struct
import sys
import typing
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, CorruptScene, MalformedLabels, MalformedPolygons
from .geometry import AffineGeoTransform, Polygon, Scene

MAGIC = b"TCS1"
_CODE_TO_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.float32}
_DTYPE_TO_CODE = {np.dtype(v): k for k, v in _CODE_TO_DTYPE.items()}


def write_tcs(path, stack: np.ndarray) -> None:
    """Write a (T, H, W, C) stack."""
    stack = np.asarray(stack)
    if stack.ndim != 4:
        raise ValueError(f"stack must be (T, H, W, C), got {stack.shape}")
    dtype = np.dtype(stack.dtype)
    if dtype not in _DTYPE_TO_CODE:
        raise ValueError(f"unsupported dtype {dtype}; use u8, u16, or f32")
    t, h, w, c = stack.shape
    ordered = np.ascontiguousarray(np.transpose(stack, (0, 3, 1, 2)))
    payload = ordered.astype(dtype.newbyteorder("<"), copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIIB", t, h, w, c, _DTYPE_TO_CODE[dtype]))
        fh.write(payload)


def read_tcs(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 4 + struct.calcsize("<IIIIB")
    if blob[:4] != MAGIC or len(blob) < offset:
        raise CorruptScene(f"{path}: not a TCS file")
    t, h, w, c, code = struct.unpack_from("<IIIIB", blob, 4)
    if code not in _CODE_TO_DTYPE:
        raise CorruptScene(f"{path}: unknown dtype code {code}")
    dtype = np.dtype(_CODE_TO_DTYPE[code]).newbyteorder("<")
    n_samples = t * h * w * c
    end = offset + n_samples * dtype.itemsize
    if len(blob) != end:
        raise CorruptScene(f"{path}: {len(blob)} bytes where the header needs exactly {end}")
    data = np.frombuffer(blob, dtype=dtype, count=n_samples, offset=offset)
    stack = np.transpose(data.reshape(t, c, h, w), (0, 2, 3, 1))
    return stack.astype(dtype.newbyteorder("="))


def write_scene(path, scene: Scene) -> None:
    path = Path(path)
    write_tcs(path, scene.pixels[None, ...])
    sidecar = {"year": int(scene.year), "geotransform": list(scene.transform.coefficients())}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_scene(path) -> Scene:
    path = Path(path)
    stack = read_tcs(path)
    if stack.shape[0] != 1:
        raise CorruptScene(f"{path}: scene files must hold exactly one layer")
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise ConfigError(f"missing sidecar {sidecar_path}")
    try:
        meta = json.loads(sidecar_path.read_text())
        year = _as_type(meta["year"], int)
        coefficients = _as_type(meta["geotransform"], tuple[(float,) * 6])
        transform = AffineGeoTransform(*map(float, coefficients))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptScene(f"{sidecar_path}: needs an integer 'year' and six 'geotransform' "
                           f"numbers ({type(exc).__name__}: {exc})") from exc
    return Scene(pixels=stack[0], year=year, transform=transform)


def read_scenes_dir(directory) -> list[Scene]:
    """All *.tcs scenes under directory, in temporal order."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.tcs"))
    if not paths:
        raise ConfigError(f"no .tcs scenes in {directory}")
    scenes = [read_scene(p) for p in paths]
    scenes.sort(key=lambda s: s.year)
    return scenes


def _ring_coords(ring) -> list[list[float]]:
    pts = [[float(x), float(y)] for x, y in ring]
    pts.append(pts[0])
    return pts


def write_polygons_geojson(path, polygons: Sequence[Polygon]) -> None:
    features = []
    for poly in polygons:
        props = {"id": poly.id}
        if poly.label_year is not None:
            props["label_year"] = int(poly.label_year)
        features.append({
            "type": "Feature",
            "properties": props,
            "geometry": {
                "type": "Polygon",
                "coordinates": [_ring_coords(poly.exterior)]
                + [_ring_coords(h) for h in poly.holes],
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _is_finite_number(v) -> bool:
    """A JSON number a float holds finitely: not a bool, the literal NaN or Infinity
    (json.loads reads both as floats), nor an integer past the float range."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _as_type(value, hint):
    """value, as json.loads returned it, checked against the type hint: int (not a
    bool), float (finite; an integer stays as written), str, dict, a Literal of
    strings, Union, Optional, list[...] and tuple[...], which turns the JSON list
    into a tuple. ValueError when the value has another type."""
    if (hint is int and type(value) is int or hint is float and _is_finite_number(value)
            or hint in (str, dict, type(None)) and isinstance(value, hint)):
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        for arg in args:
            with contextlib.suppress(ValueError):
                return _as_type(value, arg)
    elif origin is typing.Literal and isinstance(value, str) and value in args:
        return value
    elif origin in (list, tuple) and isinstance(value, list):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            items = [_as_type(v, a) for v, a in zip(value, args)]
            return items if origin is list else tuple(items)
    raise ValueError(f"{value!r:.80} is not {inspect.formatannotation(hint)}")


def _is_ring(ring) -> bool:
    """A list of [x, y] pairs of finite JSON numbers. Polygons files are the
    largest JSON input, so their vertices skip _as_type's generic dispatch."""
    return isinstance(ring, list) and all(
        isinstance(pt, list) and len(pt) == 2 and all(map(_is_finite_number, pt))
        for pt in ring)


def read_polygons_geojson(path) -> list[Polygon]:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise MalformedPolygons(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise MalformedPolygons(f"{path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not (isinstance(features, list) and all(isinstance(f, dict) for f in features)):
        raise MalformedPolygons(f"{path}: 'features' must be a list of objects, "
                                f"got {features!r:.80}")
    if not features:
        raise MalformedPolygons(f"{path}: the FeatureCollection holds no features")
    polygons = []
    for feat in features:
        props = feat.get("properties") or {}
        if not isinstance(props, dict):
            raise MalformedPolygons(f"{path}: a feature's 'properties' must be an object, "
                                    f"got {props!r:.80}")
        fid = props.get("id")
        if type(fid) not in (str, int):  # nor a bool; cheaper than _as_type
            raise MalformedPolygons(f"{path}: every feature needs an 'id' property, a string "
                                    f"or an integer, got {fid!r:.80}")
        fid = str(fid)
        geom = feat.get("geometry")
        if not (isinstance(geom, dict) and geom.get("type") == "Polygon"):
            raise MalformedPolygons(f"{path}: feature {fid!r} needs a Polygon 'geometry', "
                                    f"got {geom!r:.80}")
        rings = geom.get("coordinates")
        if not (isinstance(rings, list) and rings and all(map(_is_ring, rings))):
            raise MalformedPolygons(f"{path}: feature {fid!r} needs 'coordinates' "
                                    f"as a list of rings of finite [x, y] numbers, "
                                    f"got {rings!r:.80}")
        label_year = props.get("label_year")
        if not (label_year is None or type(label_year) is int):  # JSON true/false are not years
            raise MalformedPolygons(f"{path}: feature {fid!r} needs an integer "
                                    f"'label_year', got {label_year!r:.80}")
        polygons.append(Polygon(id=fid, exterior=rings[0], holes=rings[1:],
                                label_year=label_year))
    return polygons


def write_labels_csv(path, labels: dict[str, tuple[int, int]]) -> None:
    """labels maps footprint id -> (first_index 1-based, first_year)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["footprint_id", "first_index", "first_year"])
        for fid in sorted(labels):
            idx, year = labels[fid]
            writer.writerow([fid, int(idx), int(year)])


def _decimal(text) -> int:
    """An integer written in ASCII digits alone: no sign, space or underscore."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not written in decimal digits")
    return int(text)


def read_labels_csv(path) -> dict[str, tuple[int, int]]:
    labels, lines = {}, {}
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            try:
                fid = row["footprint_id"]
                label = (_decimal(row["first_index"]), _decimal(row["first_year"]))
            except (KeyError, ValueError) as exc:
                raise MalformedLabels(f"{path}:{line}: needs integer 'first_index' and "
                                      f"'first_year' ({type(exc).__name__}: {exc})") from exc
            if fid in labels:
                raise MalformedLabels(f"{path}:{line}: footprint_id {fid!r} is labelled "
                                      f"again, after line {lines[fid]}")
            labels[fid], lines[fid] = label, line
    return labels


def write_detections_csv(path, results: Sequence) -> None:
    """One row per footprint, sorted by id: index, year, crossed flag, d_1..d_T."""
    results = sorted(results, key=lambda r: r.footprint_id)
    if not results:
        raise ValueError("no detection results to write")
    n_layers = len(results[0].values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["footprint_id", "predicted_index", "predicted_year", "crossed"]
                        + [f"d_{i}" for i in range(1, n_layers + 1)])
        for res in results:
            writer.writerow([res.footprint_id, res.index, res.year,
                             str(bool(res.crossed)).lower()]
                            + [repr(float(v)) for v in res.values])


def histogram_to_dict(hist) -> dict:
    return {"edges": [float(e) for e in hist.edges],
            "masses": [float(m) for m in hist.masses]}


def calibration_report_to_dict(report) -> dict:
    return {
        "chosen": {"k": report.chosen_k, "r": report.chosen_r, "theta": report.chosen_theta},
        "seed": report.seed,
        "n_random": report.n_random,
        "percentile": report.percentile,
        "cells": [
            {
                "k": cell.k,
                "r": cell.r,
                "bc": cell.bc,
                "theta": cell.theta,
                "hist_p": histogram_to_dict(cell.hist_p),
                "hist_q": histogram_to_dict(cell.hist_q),
            }
            for cell in report.cells
        ],
    }


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
