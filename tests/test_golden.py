"""Behaviour lock: the criterion-6 CLI outputs must not change across code versions.

The acceptance suite checks that outputs are identical across worker counts;
this test checks that they are identical to the outputs pinned below. A change
that alters outputs on purpose re-pins these digests and names the changed
files in CHANGES.md. The digests were checked to be the same under the
generic (Prescott), Sandybridge, Haswell and SkylakeX OpenBLAS kernels.
"""

from test_acceptance import _run_cli_outputs

from tcm import clustering

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


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("TCM_LOG", "error")
    digests = _run_cli_outputs(tmp_path, "golden", 1)
    changed = sorted(k for k in set(GOLDEN) | set(digests) if GOLDEN.get(k) != digests.get(k))
    assert not changed, f"outputs differ from the pinned digests: {changed}"


def test_cli_outputs_match_pinned_digests_on_numpy_path(tmp_path, monkeypatch):
    """The same digests when every k-means fit takes the numpy fallback."""
    monkeypatch.setattr(clustering, "_lib", None)
    test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch)
