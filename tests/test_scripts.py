import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--footprints", "14", "--n-random", "20", "--k-grid", "2", "--r-grid", "3"]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


# (script, extra arguments, output file, lines its table must print)
SCRIPTS = [
    ("grid_diagnostics.py", [], "cells.csv",
     ["   k      r       BC    theta      ACC", "<- chosen", "spearman(BC, ACC) ="]),
    ("run_synthetic_benchmark.py", ["--repeats", "2"], "table.json",
     ["method                    ACC", "tcm_semi", "tcm_supervised", "color_over_time",
      "mode"]),
]


@pytest.mark.parametrize("script, extra, out, expected", SCRIPTS,
                         ids=[case[0] for case in SCRIPTS])
def test_script_runs_and_prints_its_table(tmp_path, script, extra, out, expected):
    done = run_script(script, TINY + extra + ["--out", str(tmp_path / out)], tmp_path)
    assert done.returncode == 0, done.stderr
    for text in expected:
        assert text in done.stdout
    assert (tmp_path / out).stat().st_size > 0


def test_bench_pairs_writes_medians_and_pair_wins(tmp_path):
    out = tmp_path / "BENCH.json"
    done = run_script("bench_pairs.py", [str(ROOT), str(ROOT), "--pairs", "1", "--workloads",
                                         "detect_large", "--seeds", "13", "--seconds", "1",
                                         "--size", "tiny", "--out", str(out)], ROOT)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["failed_runs"] == []
    run = report["trace0"]["detect_large"]["13"]
    assert run["pairs"] == 1
    expected = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(run["metrics"]) == {m["name"] for m in expected}
    wall = run["metrics"]["wall_s"]
    assert wall["parent"]["n"] == wall["change"]["n"] == 1
    assert wall["parent"]["q1"] == wall["parent"]["median"] == wall["parent"]["q3"] > 0
    assert wall["ratio"] > 0 and wall["change_better_pairs"] in ("0/1", "1/1")
