"""Worker threads: how many to use, and the one order-preserving map that runs them.

``RANDOMIZER_THREADS`` is the package's only thread setting; without it the
cores this process may run on decide. Only maps whose items pay for a thread
use one: sweep and concentration cells, Haar sampling tiles and the channel's
Gram blocks, each of which samples its tiles and runs its unitarity check on
its own worker thread. The Gaussian draws of pure states run on the calling
thread. A map called from inside a worker of another map runs serially, so
pools never nest: a Gram block, or a sweep cell that samples a channel, draws
its tiles on its own thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameter

_worker = threading.local()


def resolve_threads() -> int:
    """RANDOMIZER_THREADS if set, else the cores this process may run on."""
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


def parallel_map(fn, items):
    """Yield ``fn(item)`` in item order on ``resolve_threads()`` workers.

    Results are yielded as the map reaches them, so a caller that reduces
    them in order holds only the few that finished ahead of it; consume the
    whole iterator even when ``fn`` works only by side effect. Runs on the
    calling thread for one thread, at most one item, or a call made from
    inside another ``parallel_map`` worker.
    """
    items = list(items)
    threads = resolve_threads()
    if threads <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda item: _in_worker(fn, item), items)


def map_tiles(fn, count: int, per_tile: int):
    """``parallel_map`` of ``fn`` over consecutive slices of ``per_tile`` items out of ``count``.

    The last slice may end past ``count``.
    """
    return parallel_map(fn, [slice(start, start + per_tile) for start in range(0, count, per_tile)])
