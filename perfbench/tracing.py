"""In-memory spans around the public functions of every `tcm` module.

Nothing here edits `src/`: inside `Tracer.installed()` each listed function
is replaced by a wrapper in every `tcm` module (and class) that binds it, and
the originals are put back on exit. A span records its name, start, end,
parent and a few attributes taken from the call's arguments and result;
spans stay in memory until the run ends. Self time is a span's duration
minus the time its child spans cover.

Wrappers called inside a pool worker (a forked copy of this process) record
nothing, because those spans could not be collected from outside the program.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span layout: [name, start, end, parent index (-1 for a root), attrs dict].
NAME, START, END, PARENT, ATTRS = range(5)


def _fit_attrs(b, model):
    x = b.arguments["features"]
    return {"n": x.shape[0], "d": x.shape[1], "k": model.k, "n_iter": model.n_iter,
            "max_iter": b.arguments["max_iter"]}


def _layer_attrs(b, _):
    chips = b.arguments["chips"]
    return {"key": (chips.footprint_id, chips.buffer_radius, b.arguments["k"],
                    b.arguments["layer"])}


def _run_tasks_attrs(b, _):
    items = b.arguments["items"]
    return {"workers": b.arguments["workers"],
            "items": len(items) if hasattr(items, "__len__") else -1}


def _chip_attrs(_, chips):
    return {"px": chips.imagery.shape[1] * chips.imagery.shape[2]}


def _lr_attrs(_, model):
    return {"n_iter": model.n_iter, "final_loss": model.final_loss}


def _read_attrs(b, _):
    return {"bytes": os.path.getsize(b.arguments["path"])}


def _scene_attrs(b, _):
    return {"bytes": os.path.getsize(Path(b.arguments["path"]).with_suffix(".json"))}


# module -> {function name: attrs hook or None}. The span is named
# "<module>.<function>"; the module prefix is the layer it is charged to.
TARGETS = {
    "formats": {
        "read_tcs": _read_attrs, "read_scene": _scene_attrs, "read_scenes_dir": None,
        "read_polygons_geojson": _read_attrs, "read_labels_csv": _read_attrs,
        "write_tcs": None, "write_scene": None, "write_polygons_geojson": None,
        "write_labels_csv": None, "write_detections_csv": None, "write_json": None,
    },
    "geometry": {"extract_chip_stack": _chip_attrs},
    "clustering": {"extract_features": None, "fit_kmeans": _fit_attrs,
                   "assign_features": None},
    "core": {"detect": None, "divergence_series": None,
             "layer_divergence": _layer_attrs, "first_crossing": None},
    "calibration": {"calibrate": None, "sample_random_polygons": None, "build_pq": None,
                    "make_histogram": None, "bhattacharyya": None,
                    "percentile_threshold": None},
    "util": {"run_tasks": _run_tasks_attrs},
    "evaluation": {"repeated_splits": None, "score": None, "detect_all": None,
                   "grid_cell_accuracies": None, "evaluate_semi_supervised": None},
    "supervised": {"fit_lr": _lr_attrs, "predict_lr": None, "fit_threshold": None,
                   "avg_color_series": None, "color_over_time_features": None,
                   "mode_predictor": None},
    "synthgen": {"generate": None},
}
# Memo lookups of the per-dataset divergence cache; a lookup that records no
# child span was answered from the memo.
CACHE_METHODS = ("chips", "series", "avg_color", "color_deltas")


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


class Tracer:
    """Span recorder for one process; only the creating process records."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None
        child_cpu = name == "util.run_tasks"  # also record reaped pool workers' CPU
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            cpu0 = _children_cpu() if child_cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            attrs = tracer.spans[idx][ATTRS]
            if child_cpu:
                attrs["child_cpu"] = _children_cpu() - cpu0
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(hook(bound, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded `tcm` module that binds it, for the block."""
        restore = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tcm" or n.startswith("tcm."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"tcm.{layer}"]
            for fname, hook in names.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cache_cls = sys.modules["tcm.evaluation"].DivergenceCache
        for meth in CACHE_METHODS:
            original = cache_cls.__dict__[meth]
            restore.append((cache_cls, meth, original))
            setattr(cache_cls, meth, self._wrap(f"evaluation.cache.{meth}", original, None))
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def child_counts(spans) -> list[int]:
    counts = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            counts[s[PARENT]] += 1
    return counts


def subtree(spans, root: int) -> list[int]:
    """Indices of `root` and its descendants (children follow their parent)."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
            out.append(i)
    return out


def layer_shares(spans, idx: list[int]) -> dict[str, float]:
    """Self time per layer (span-name prefix) over the given spans, in seconds."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i in idx:
        out[spans[i][NAME].split(".", 1)[0]] += own[i]
    return dict(out)


def share_table(shares: dict[str, float]) -> str:
    total = sum(shares.values()) or 1.0
    rows = [f"{'layer':<12s} {'self_s':>9s} {'share':>7s}"]
    for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        rows.append(f"{layer:<12s} {secs:9.3f} {secs / total:7.1%}")
    return "\n".join(rows)
