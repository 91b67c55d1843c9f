import json
import os
import subprocess
import sys
from pathlib import Path

from tcm.evaluation import (METHODS, DivergenceCache, evaluate_semi_supervised,
                            grid_cell_accuracies)
from tcm.synthgen import SynthConfig, generate

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--footprints", "14", "--n-random", "20", "--k-grid", "2", "--r-grid", "3"]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_synthetic_benchmark_prints_every_claim_from_one_store(tmp_path):
    out = tmp_path / "report.json"
    done = run_script("run_synthetic_benchmark.py", TINY + ["--repeats", "2", "--out", str(out)],
                      tmp_path)
    assert done.returncode == 0, done.stderr
    for text in ["method                    ACC    +/-      MAE    +/-",
                 "   k      r       BC    theta      ACC", "<- chosen",
                 "spearman(BC, ACC) = undefined", *METHODS]:  # one cell has no correlation
        assert text in done.stdout
    report = json.loads(out.read_text())
    assert list(report["methods"]) == list(METHODS)
    assert report["spearman_bc_acc"] is None

    dataset = generate(SynthConfig(footprints=14, seed=0))
    semi, calib, _ = evaluate_semi_supervised(dataset, [2], [3.0], n_random=20, seed=0,
                                              cache=DivergenceCache(dataset, seed=0))
    assert report["chosen"] == {"k": calib.chosen_k, "r": calib.chosen_r,
                                "theta": calib.chosen_theta}
    assert report["cells"] == grid_cell_accuracies(dataset, calib,
                                                    DivergenceCache(dataset, seed=0))
    assert report["methods"]["tcm_semi"]["acc_mean"] == semi.accuracy
    assert report["methods"]["tcm_semi"]["mae_index_std"] == 0.0


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
