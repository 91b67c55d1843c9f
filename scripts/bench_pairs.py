#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --out BENCH_11.json

PARENT_DIR and CHANGE_DIR are two checkouts, for example made with
`git worktree add`. For each workload and seed, the script runs
`perfbench/run.py --trace 0` once in each checkout per pair, the parent
first in odd pairs and the change first in even pairs, so that a drift in
the machine's speed does not favour one side. Both checkouts first import
`tcm` once, so that no timed run pays for building the k-means kernel.

The output holds, per workload, seed and end-to-end metric, each side's
median and quartiles over its runs, the ratio of the change's median to the
parent's, and in how many pairs the change was better (ties count for
neither side), in the shape of `BENCH_6.json`'s `trace0` section. Runs that
failed or reported failed operations are listed under `failed_runs` and left
out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 4242])
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="perfbench/run.py --seconds of every run")
    parser.add_argument("--size", choices=("stock", "tiny"), default="stock")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_once(checkout: Path, workload: str, seed: int, args) -> tuple[dict, dict]:
    """(metric values, machine facts) of one perfbench run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} operations failed")
    machine = json.loads(lines[-2].removeprefix("machine "))
    return {name: m["value"] for name, m in result["metrics"].items()}, machine


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(values)}


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, both sides' summaries, the ratio of medians and the pair wins."""
    out = {}
    for name, direction in better.items():
        done = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not done:
            continue
        parent = [p["parent"][name] for p in done]
        change = [p["change"][name] for p in done]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        base = statistics.median(parent)
        out[name] = {"parent": summary(parent), "change": summary(change),
                     "ratio": round(statistics.median(change) / base, 4) if base else None,
                     "change_better_pairs": f"{wins}/{len(done)}"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import tcm.clustering"], cwd=checkout, check=True, timeout=600)

    report = {"what": f"perfbench/run.py --trace 0 in {sides['parent'].name} (parent) and "
                      f"{sides['change'].name} (change)",
              "method": {"trace0": f"perfbench/run.py --workload W --seed S --seconds "
                                   f"{args.seconds:g} --trace 0 --size {args.size}; "
                                   f"{args.pairs} pairs per workload and seed, the parent "
                                   f"first in odd pairs and the change first in even pairs; "
                                   f"quartiles by statistics.quantiles(method='inclusive')"},
               "machine": None, "trace0": {}, "failed_runs": []}
    for workload in args.workloads:
        for seed in args.seeds:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    try:
                        pair[side], report["machine"] = run_once(sides[side], workload, seed,
                                                                 args)
                    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                        report["failed_runs"].append({"workload": workload, "seed": seed,
                                                      "pair": i + 1, "side": side,
                                                      "error": str(exc)})
                        pair[side] = {}
                pairs.append(pair)
                wall = {side: pair[side].get("wall_s") for side in order}
                print(f"{workload} seed {seed} pair {i + 1}: wall_s {wall}", file=sys.stderr)
            report["trace0"].setdefault(workload, {})[str(seed)] = {
                "pairs": args.pairs, "metrics": compare(pairs, better)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if report["failed_runs"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
