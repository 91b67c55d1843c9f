"""Seeding and batch-execution helpers shared across modules."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

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


def run_tasks(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Apply fn over items, in a pool of `workers` threads when workers > 1,
    preserving input order.

    Each task must be a pure function of its item (deriving any randomness
    via stable_seed), so the result list is independent of the worker count.
    Threads suffice: a task's time goes mostly to the compiled k-means
    kernel, which runs without the GIL (ctypes releases it around the call),
    and the rest is numpy array passes. Tasks read the caller's arrays in
    place, so nothing is copied or pickled. The pool lives only inside this
    call.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
