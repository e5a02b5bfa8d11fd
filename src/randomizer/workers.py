"""Worker threads: how many to use, and the order-preserving maps that run them.

``RANDOMIZER_THREADS`` is the package's only thread setting; without it the
cores this process may run on decide. Only maps whose items pay for a thread
use one: sweep and concentration cells, Haar sampling tiles and the channel's
Gram blocks, each of which samples its tiles and runs its unitarity check on
its own worker thread. The Gaussian draws of pure states run on the calling
thread: NumPy's ``standard_normal`` holds the GIL, so two threads drawing them
gain next to nothing. A map called from inside a worker of another map runs
serially, so pools never nest: a Gram block, or a sweep cell that samples a
channel, draws its tiles on its own thread.
"""

from __future__ import annotations

import os
import threading
from collections import deque
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


def _pool_threads(items: list) -> int:
    """Worker threads for a map over ``items``; 1 means the calling thread runs it.

    One thread, at most one item, or a call made from inside another map's
    worker runs on the calling thread, so pools never nest.
    """
    threads = resolve_threads()
    return 1 if len(items) <= 1 or getattr(_worker, "active", False) else threads


def parallel_map(fn, items):
    """Yield ``fn(item)`` in item order on ``resolve_threads()`` workers.

    Every item is submitted at once, so no worker waits on a slow earlier
    item: for cells of uneven cost and small results. Results are yielded as
    the map reaches them; consume the whole iterator even when ``fn`` works
    only by side effect.
    """
    items = list(items)
    threads = _pool_threads(items)
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda item: _in_worker(fn, item), items)


def map_tiles(fn, count: int, per_tile: int):
    """Yield ``fn(tile)`` in order for consecutive slices of ``per_tile`` items out of ``count``.

    The last slice may end past ``count``. Tiles cost alike, so at most
    threads + 1 of them are submitted ahead of the caller: a caller that
    reduces large results in order holds at most that many, and no worker
    idles for long. Consume the whole iterator, as for ``parallel_map``.
    """
    tiles = [slice(start, start + per_tile) for start in range(0, count, per_tile)]
    threads = _pool_threads(tiles)
    if threads == 1:
        yield from map(fn, tiles)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for tile in tiles:
            pending.append(pool.submit(_in_worker, fn, tile))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
