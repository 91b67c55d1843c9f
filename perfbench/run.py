#!/usr/bin/env python3
"""Benchmark of the `tcm` pipeline; run from the repository root.

    python3 perfbench/run.py --workload label_free --seed 1 --seconds 40 --trace 0

`--trace 0` sets the workload up, repeats its timed pass, then sets it up
again until it has been set up at least three times and for at least 3 s;
the passes (at least two) stop so that the whole run fits in `--seconds`.
It reports the end-to-end metrics as medians. `--trace 1` sets up once, runs
one untraced pass and then the traced pass(es), prints the self-time share of
every module, and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
machine facts are printed on the line before it.

The timed passes are checked: every operation must succeed, the detections
must be byte-identical across passes (and, for label_free, between the
untraced workers=2 pass and the traced workers=1 pass), and accuracy, scored
from the generator's labels that the program never sees, must reach a floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HOLDOUT_SEED = 4242  # later claims are confirmed on this seed, never tuned on it
SETUP_REPS = 3  # set-ups per measured run: at least this many ...
SETUP_SECONDS = 3.0  # ... and until this much set-up time has passed
MIN_PASSES = 2
# The stock workloads score >= 0.99 at this commit (the tiny smoke dataset
# >= 0.9) and the constant-year baseline ~0.3: below the floor the outputs
# are wrong, not merely worse.
ACCURACY_FLOOR = 0.8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("label_free", "detect_large", "method_table"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("stock", "tiny"), default="stock",
                        help="input size; tiny is the smoke-test dataset")
    return parser.parse_args(argv)


def _cpu() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def machine_facts() -> dict:
    import numpy

    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if cpu_max == "unavailable":  # cgroup v1
        cpu_max = (f"{_read('/sys/fs/cgroup/cpu/cpu.cfs_quota_us')} "
                   f"{_read('/sys/fs/cgroup/cpu/cpu.cfs_period_us')}")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas = "unknown"
    thread_env = {k: os.environ.get(k, "unset") for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "cgroup_cpu_max": cpu_max,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_thread_env": thread_env, "blas_threads_pinned": False,
            "holdout_seed": HOLDOUT_SEED}


def _scored(workload, outcome, tally) -> tuple[float, float]:
    """(accuracy, mae_index) of a pass; an unscorable or implausible output fails."""
    try:
        accuracy, mae = workload.score(outcome)
    except Exception as exc:
        tally.op(False, f"scoring raised {exc!r}")
        return 0.0, 0.0
    tally.op(accuracy >= ACCURACY_FLOOR, f"accuracy {accuracy:.4f} below {ACCURACY_FLOOR}")
    return accuracy, mae


def measure(workload, work: Path, seed: int, seconds: float, tally) -> dict:
    """End-to-end metrics: medians over set-ups and over timed passes."""
    setups = []

    def set_up():
        start = time.perf_counter()
        workload.setup(work, seed)
        setups.append(time.perf_counter() - start)

    began = time.perf_counter()
    set_up()
    # `seconds` covers the whole run: the later set-ups, estimated from the
    # first (which includes cold-start costs), are reserved before the passes.
    later_setups = max((SETUP_REPS - 1) * setups[0], SETUP_SECONDS - setups[0])
    walls, cpus, outcomes = [], [], []
    # Stop before a pass that would overrun, but run MIN_PASSES.
    while len(walls) < MIN_PASSES or (time.perf_counter() - began + statistics.median(walls)
                                      + later_setups <= seconds):
        cpu0, start = _cpu(), time.perf_counter()
        outcomes.append(workload.run())
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu() - cpu0)
    # Read before the extra set-ups: after a set-up is repeated, the allocator's
    # reuse of freed scene buffers makes the peak vary from run to run.
    peak_rss = _peak_rss_mib()
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        set_up()

    for out in outcomes:
        tally.merge(out)
        tally.op(out.output == outcomes[0].output, "output differs between passes of one run")
    accuracy, _ = _scored(workload, outcomes[0], tally)

    wall = statistics.median(walls)
    print(f"{len(walls)} passes, wall s: {' '.join(f'{w:.3f}' for w in walls)}; "
          f"{len(setups)} set-ups", file=sys.stderr)
    return {
        "wall_s": (wall, "s"),
        "throughput": (workload.units / wall, "items/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "accuracy": (accuracy, "fraction"),
        "setup_s": (statistics.median(setups), "s"),
    }


def trace(workload, work: Path, seed: int, tally) -> dict:
    """Per-layer metrics from a traced set-up and traced timed pass(es)."""
    import layers
    from tracing import NAME, PARENT, Tracer, layer_shares, share_table, subtree

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            workload.setup(work, seed)

    start = time.perf_counter()
    plain = workload.run()
    plain_s = time.perf_counter() - start
    tally.merge(plain)

    traced = []
    with tracer.installed():
        start = time.perf_counter()
        with tracer.span("bench.timed"):
            traced.append(workload.run(span=tracer.span))
        traced_s = time.perf_counter() - start
        if workload.pooled_pass:
            # Spans inside pool workers are lost: trace the per-chip layers serially.
            with tracer.span("bench.timed_w1"):
                traced.append(workload.run(workers=1, span=tracer.span))
    for out in traced:
        tally.merge(out)
        tally.op(out.output == plain.output, "traced output differs from the untraced pass")
    _, mae = _scored(workload, plain, tally)

    spans = tracer.spans
    roots = {s[NAME]: i for i, s in enumerate(spans) if s[PARENT] == -1}
    setup_idx = subtree(spans, roots["bench.setup"])
    pool_idx = subtree(spans, roots["bench.timed"])
    main_idx = subtree(spans, roots.get("bench.timed_w1", roots["bench.timed"]))
    print("self-time share, timed pass"
          + (" at workers=1" if workload.pooled_pass else "") + ":")
    print(share_table(layer_shares(spans, main_idx)))
    print("self-time share, set-up:")
    print(share_table(layer_shares(spans, setup_idx)))

    metrics = layers.per_layer(spans, main_idx, pool_idx, setup_idx)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["mae_index"] = (mae, "layers")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tcm" / "__init__.py").is_file():
        print("error: no tcm sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ["TCM_LOG"] = "error"  # read by tcm.cli.main on every call
    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size])
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tally = workloads.Outcome()
    try:
        if args.trace:
            metrics = trace(workload, work, args.seed, tally)
            metrics["error_rate"] = (tally.failed / tally.attempted, "fraction")
        else:
            metrics = measure(workload, work, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for what in tally.errors:
        print(f"check failed: {what}", file=sys.stderr)

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
