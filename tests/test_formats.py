import json
import struct

import numpy as np
import pytest

from tcm.core import DetectionResult
from tcm.errors import ConfigError, CorruptScene, MalformedPolygons
from tcm.formats import (
    read_labels_csv,
    read_polygons_geojson,
    read_scene,
    read_scenes_dir,
    read_tcs,
    write_detections_csv,
    write_labels_csv,
    write_polygons_geojson,
    write_scene,
    write_tcs,
)
from tcm.geometry import AffineGeoTransform, Polygon, Scene


class TestTCS:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
    def test_roundtrip(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        stack = rng.uniform(0, 200, (3, 5, 7, 2)).astype(dtype)
        path = tmp_path / "x.tcs"
        write_tcs(path, stack)
        back = read_tcs(path)
        assert back.dtype == dtype
        assert np.array_equal(back, stack)

    def test_golden_byte_layout(self, tmp_path):
        # 1 layer, 2x2, 2 channels: samples stored [t][channel][row][col].
        stack = np.array([[[[1, 5], [2, 6]],
                           [[3, 7], [4, 8]]]], dtype=np.uint8)
        path = tmp_path / "g.tcs"
        write_tcs(path, stack)
        blob = path.read_bytes()
        expect = b"TCS1" + struct.pack("<IIIIB", 1, 2, 2, 2, 1) + bytes([1, 2, 3, 4, 5, 6, 7, 8])
        assert blob == expect

    def test_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_tcs(tmp_path / "bad.tcs", np.zeros((1, 2, 2, 1), dtype=np.int64))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tcs"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            read_tcs(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        # The second tail is H*W bytes long, as a footprint mask after the samples would be.
        path = tmp_path / "x.tcs"
        for tail in (b"zz", bytes(4)):
            write_tcs(path, np.zeros((1, 2, 2, 1), dtype=np.uint8))
            path.write_bytes(path.read_bytes() + tail)
            with pytest.raises(CorruptScene):
                read_tcs(path)


class TestSceneIO:
    def test_scene_roundtrip_with_sidecar(self, tmp_path):
        scene = Scene(
            pixels=np.arange(24, dtype=np.uint8).reshape(2, 4, 3),
            year=2017,
            transform=AffineGeoTransform(10, 0, 3.5, 0, -10, 99.5),
        )
        path = tmp_path / "scene_2017.tcs"
        write_scene(path, scene)
        sidecar = json.loads((tmp_path / "scene_2017.json").read_text())
        assert sidecar == {"year": 2017, "geotransform": [10, 0, 3.5, 0, -10, 99.5]}
        back = read_scene(path)
        assert back.year == 2017
        assert back.transform == scene.transform
        assert np.array_equal(back.pixels, scene.pixels)

    def test_missing_sidecar(self, tmp_path):
        write_tcs(tmp_path / "s.tcs", np.zeros((1, 2, 2, 1), dtype=np.uint8))
        with pytest.raises(ConfigError):
            read_scene(tmp_path / "s.tcs")

    def test_scenes_dir_sorted_by_year(self, tmp_path):
        t = AffineGeoTransform(1, 0, 0, 0, 1, 0)
        for year in (2019, 2015, 2017):
            write_scene(tmp_path / f"scene_{year}.tcs",
                        Scene(np.zeros((2, 2, 1), dtype=np.uint8), year, t))
        years = [s.year for s in read_scenes_dir(tmp_path)]
        assert years == [2015, 2017, 2019]

    def test_empty_dir_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_scenes_dir(tmp_path)


class TestGeoJSON:
    def test_roundtrip_with_holes_and_labels(self, tmp_path):
        polys = [
            Polygon("a", [(0, 0), (4, 0), (4, 4), (0, 4)],
                    holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]], label_year=2013),
            Polygon("b", [(10, 10), (12, 10), (12, 12)], label_year=None),
        ]
        path = tmp_path / "polys.geojson"
        write_polygons_geojson(path, polys)
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]  # closed per RFC 7946
        back = read_polygons_geojson(path)
        assert [p.id for p in back] == ["a", "b"]
        assert back[0].holes == polys[0].holes
        assert back[0].label_year == 2013
        assert back[1].label_year is None

    def test_id_required(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
        }]}
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedPolygons):
            read_polygons_geojson(path)

    def test_non_polygon_rejected(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"id": "x"},
            "geometry": {"type": "Point", "coordinates": [0, 0]},
        }]}
        path = tmp_path / "pt.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedPolygons):
            read_polygons_geojson(path)


class TestCSV:
    def test_labels_roundtrip(self, tmp_path):
        labels = {"b": (2, 2013), "a": (1, 2011)}
        path = tmp_path / "labels.csv"
        write_labels_csv(path, labels)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "footprint_id,first_index,first_year"
        assert lines[1].startswith("a,")  # sorted by id
        assert read_labels_csv(path) == labels

    def test_detections_csv_layout(self, tmp_path):
        res_b = DetectionResult("b", 2, 2013, np.array([0.25, 1.5]), True)
        res_a = DetectionResult("a", 2, 2013, np.array([0.1, 0.2]), False)
        path = tmp_path / "det.csv"
        write_detections_csv(path, [res_b, res_a])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "footprint_id,predicted_index,predicted_year,crossed,d_1,d_2"
        assert lines[1] == "a,2,2013,false,0.1,0.2"
        assert lines[2] == "b,2,2013,true,0.25,1.5"
