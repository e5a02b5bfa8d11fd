"""Worker threads: how many to use, and the one order-preserving map that runs them.

Sweeps and concentration grids map over cells; Haar sampling and the
unitarity check map over fixed-size tiles of a stack. A map called from
inside a worker of another map runs serially, so pools never nest: a sweep
cell that samples a channel draws its tiles on the cell's own thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameter

_worker = threading.local()


def resolve_threads(requested: int | None = None) -> int:
    """--threads flag, RANDOMIZER_THREADS fallback, else the cores this process may run on."""
    if requested is not None:
        if requested < 1:
            raise InvalidParameter(f"threads must be positive, got {requested}")
        return int(requested)
    env = os.environ.get("RANDOMIZER_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise InvalidParameter(f"RANDOMIZER_THREADS is not an integer: {env!r}") from exc
        if value < 1:
            raise InvalidParameter(f"RANDOMIZER_THREADS must be positive, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_worker(fn, item):
    _worker.active = True
    try:
        return fn(item)
    finally:
        _worker.active = False


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving item order; the reduction order never depends on scheduling.

    Runs inline for one thread, at most one item, or a call made from inside
    another ``parallel_map`` worker.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda item: _in_worker(fn, item), items))
