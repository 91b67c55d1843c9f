"""Behaviour lock: the criterion-6 CLI outputs must not change across code versions.

The acceptance suite checks that outputs are identical across worker counts;
this test checks that they are identical to the outputs pinned below. A change
that alters outputs on purpose re-pins these digests and names the changed
files in CHANGES.md. The digests were checked to be the same under the
generic (Prescott), Sandybridge, Haswell and SkylakeX OpenBLAS kernels.
"""

import hashlib

import pytest
from test_acceptance import _run_cli_outputs

from tcm import clustering
from tcm.cli import main as cli_main
from tcm.synthgen import SynthConfig, generate

GOLDEN = {
    "data/labels.csv": "b57629e6f9df346eed350559d53c691b425b1874f7f0e2fb072eb5d1b0437f82",
    "data/polygons.geojson": "f20dc391b886915b17af000d4ae7bb281d527ef279edea95892705920661b27b",
    "data/scenes/scene_2015.json": "6a36bb5763d6e83706bd85b99a433a09b4e62084ec935927ddffa5c9281c9257",
    "data/scenes/scene_2015.tcs": "e9cb9f9c7d2a728afb7c50c5350e853dd3d4ee8505fa5cacd06292ce547d1c16",
    "data/scenes/scene_2016.json": "3543ab8d82dd501342ece687d98909730ed7b9f43e828cddd439564976008b3f",
    "data/scenes/scene_2016.tcs": "5abe7de93c7a790268359e4a781a2279441ccb0dfc8de9c162ea6e100482d9ce",
    "data/scenes/scene_2017.json": "06d6f2f41986f8b66c31d157fcbf84acffdc3c24d573be92e35d0286118be4bc",
    "data/scenes/scene_2017.tcs": "76acd1fe9f6fac17d62221b6e5f691846179d195c7cd0797d4cca1ee62c98925",
    "out/calibration.json": "99fad8a68a8a801ceb856b17a3c06bc666c0c3c1564fe52740f7df979d3daa4b",
    "out/calibration_cells.csv": "dc3985abd1b9cb75d7b6580c9f8b9b1d5993e70646842f3c175420d9e8cb91f9",
    "out/detections.csv": "b8782080dbb2af1d9f577463bb67130b1b82bb96e44b137f15d92aa04b81684e",
    "out/metrics.json": "a0e8515b9b1db4c41233df1b431075b36de2bbe2a6f5b4bb7d9a9950b32ef720",
    "out/repeats.csv": "e345217803bc4d785441542da0476520cf01876572c11715f9a6f948dd541b13",
}

# `evaluate` on the same data and run config for the methods the run above
# leaves out (it evaluates tcm_supervised only).
METHODS = ("tcm_semi", "tcm_lr", "avgcolor_threshold", "avgcolor_lr", "color_over_time",
           "mode")
METHOD_GOLDEN = {
    "avgcolor_lr/metrics.json": "67e26a81e3fadcd9dc839a5bfe72dd73db6c7b49f603ca86f7f9f81add0b7a29",
    "avgcolor_lr/repeats.csv": "e748f7f267abf6469b124b4117f909ed8b87d0f26b88435bcbbf5903a397b704",
    "avgcolor_threshold/metrics.json": "17b4bba1b123a8617752d2030b5e0f534e63828f17712b996c2d203e370b0113",
    "avgcolor_threshold/repeats.csv": "e345217803bc4d785441542da0476520cf01876572c11715f9a6f948dd541b13",
    "color_over_time/metrics.json": "8e2c0daecc8b1acfb92915cf7f6cb628d9166b66e53435fdc834905bbaa63996",
    "color_over_time/repeats.csv": "e748f7f267abf6469b124b4117f909ed8b87d0f26b88435bcbbf5903a397b704",
    "mode/metrics.json": "46ea46ad5e8cdcc13cd7f633edc25832d3132872e5ba64ceeb7fff9b029bd99a",
    "mode/repeats.csv": "905b3f0ba2d16e40fe3ab60763103f00dc29753be6e3f737750ce741059b24f8",
    "tcm_lr/metrics.json": "6a623e6d002f1124b73c69be259eb8be52e7b448cd6d2737eeacd015340aef48",
    "tcm_lr/repeats.csv": "35e8e9e4a0b7f39d45f55aa28a951c90bfc16bdea31e266cd07d95569e38669b",
    "tcm_semi/metrics.json": "2541cb0c21b42e5b80ab21c24dee88c94a925663a01ea1f85b27b4becb95b914",
    "tcm_semi/repeats.csv": "8b097c122dbee3bfceaf15414f0ec6eb8cb8fb521146d41e1f7caf7e8c6a29b4",
}


def _method_outputs(base):
    digests = {}
    for method in METHODS:
        out = base / f"eval-{method}"
        assert cli_main(["evaluate", "--config", str(base / "run.json"), "--method", method,
                         "--out", str(out)]) == 0
        for name in ("metrics.json", "repeats.csv"):
            digests[f"{method}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("TCM_LOG", "error")
    digests = _run_cli_outputs(tmp_path, "golden", 1)
    digests.update(_method_outputs(tmp_path / "golden-w1"))
    pinned = {**GOLDEN, **METHOD_GOLDEN}
    changed = sorted(k for k in set(pinned) | set(digests) if pinned.get(k) != digests.get(k))
    assert not changed, f"outputs differ from the pinned digests: {changed}"


def test_cli_outputs_match_pinned_digests_on_numpy_path(tmp_path, monkeypatch):
    """The same digests when every k-means fit takes the numpy fallback."""
    monkeypatch.setattr(clustering, "_lib", None)
    test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch)


# `synthgen.generate` of the stock study area and of the 768x768 area with
# 1,800 footprints: a sha256 of every scene's pixels in year order, of the
# polygon ids and rings, and of the labels.
GENERATE_GOLDEN = {
    ("stock", 1): (
        "559ad9827d868f6f5e62f6a5319a1a2c3b069baff29f24f5037e253e032ddca0",
        "d11e3a27722721e30f297beb055fa4f3ed6ee709b0af1f330c87a590fa87ab1d",
        "beea66766a01b443338c57f178dee807a9308a9a90f0537491338ea39f0d5f7a"),
    ("stock", 4242): (
        "cb8eb9baf00416e9424e0946a67b0d50b45ff6edf3db756190283d82d52d93cb",
        "fb7c518dc8dd1781196f3997d54d8d55ebfe9d7b1d673e28b8481f32b0a09226",
        "0fd2405fd8ca31259588e01e456653690a931bfa0eb4858191ee30adbc33585a"),
    ("large", 1): (
        "079b642152dfd1598735d394091e1653c735b03c3d6e4c1662214cdc10eb16ec",
        "f801c635a560788a47eeae79e58d594c931b16717c57e7934d3fdaef1f1452c4",
        "9b7aaa4acdab58c4db7391837d7479dd183266765abd2bada912ee48bef0c8d6"),
}
AREAS = {"stock": {}, "large": {"height": 768, "width": 768, "footprints": 1800}}


@pytest.mark.parametrize("area, seed", list(GENERATE_GOLDEN), ids=lambda v: str(v))
def test_generated_area_matches_pinned_digests(area, seed):
    ds = generate(SynthConfig(**AREAS[area], seed=seed))
    pixels = hashlib.sha256()
    for scene in ds.scenes:
        pixels.update(scene.pixels.tobytes())
    rings = repr([(p.id, p.exterior) for p in ds.polygons]).encode()
    labels = repr(sorted(ds.labels.items())).encode()
    assert (pixels.hexdigest(), hashlib.sha256(rings).hexdigest(),
            hashlib.sha256(labels).hexdigest()) == GENERATE_GOLDEN[area, seed]
