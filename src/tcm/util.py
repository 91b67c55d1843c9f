"""Seeding and batch-execution helpers shared across modules."""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterable, TypeVar

S = TypeVar("S")
T = TypeVar("T")
R = TypeVar("R")


def stable_seed(*parts) -> int:
    """Derive a 64-bit RNG seed from arbitrary parts.

    Python's builtin hash() is salted per process, so anything that must be
    reproducible across runs or worker counts derives its seed here instead.
    """
    token = "\x1f".join(map(str, parts))
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_tasks(fn: Callable[[S, T], R], items: Iterable[T], workers: int = 1,
              shared: S = None) -> list[R]:
    """Apply fn(shared, item) over items, in a process pool when workers > 1,
    preserving input order.

    Each task must be a pure function of `shared` and its picklable item
    (deriving any randomness via stable_seed), so the result list is
    independent of the worker count. `shared` reaches each worker once,
    through the pool's initializer, not once per task. ctypes releases the
    GIL while the compiled k-means kernel runs, so threads would overlap the
    kernel too; processes also run the Python around it (chip cutting,
    features, KL) in parallel. The pool lives only inside this call.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(shared, item) for item in items]
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers, initializer=_receive,
                             initargs=(shared,)) as pool:
        return list(pool.map(partial(_apply, fn), items, chunksize=chunksize))


_shared = None  # a pool worker's copy of run_tasks' `shared`, set once as it starts


def _receive(shared) -> None:
    global _shared
    _shared = shared


def _apply(fn, item):
    return fn(_shared, item)
