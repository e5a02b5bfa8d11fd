"""Worker threads: how many to use, and the one order-preserving map that runs them.

``RANDOMIZER_THREADS`` is the package's only thread setting; without it the
cores this process may run on decide. Only items that pay for a thread use
one: sweep and concentration cells, Haar sampling tiles and the channel's Gram
blocks, each of which samples its tiles and runs its unitarity check on its
own worker thread. The Gaussian draws of pure states run on the calling
thread: NumPy's ``standard_normal`` holds the GIL, so two threads drawing them
gain next to nothing. Cells and tiles go through one map that yields results
in item order; it submits all cells at once, and tiles at most threads + 1
ahead of the consumer. Each pool thread marks itself as it starts, and a map
called on a marked thread runs inline, so pools never nest: a Gram block, or a
sweep cell that samples a channel, draws its tiles on its own thread.
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


def _ordered_map(fn, items: list, bounded: bool):
    """Yield ``fn(item)`` in item order; inline for one thread, one item or a pool thread.

    A bounded map submits at most threads + 1 items ahead of the consumer. Items
    not yet started are cancelled when the consumer stops or an item raises.
    """
    threads = resolve_threads()
    if threads == 1 or len(items) <= 1 or getattr(_worker, "active", False):
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=threads, initializer=setattr,
                              initargs=(_worker, "active", True))
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if bounded and len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def parallel_map(fn, items):
    """Yield ``fn(item)`` in item order, every item submitted at once.

    For cells of uneven cost and small results: no worker waits on a slow
    earlier item. Consume the whole iterator even when ``fn`` works only by
    side effect.
    """
    return _ordered_map(fn, list(items), bounded=False)


def map_tiles(fn, count: int, per_tile: int):
    """Yield ``fn(tile)`` in order for consecutive slices of ``per_tile`` items out of ``count``.

    The last slice may end past ``count``. Tiles cost alike, so at most
    threads + 1 of them are submitted ahead of the caller: a caller that
    reduces large results in order holds at most that many, and no worker
    idles for long. Consume the whole iterator, as for ``parallel_map``.
    """
    tiles = [slice(start, start + per_tile) for start in range(0, count, per_tile)]
    return _ordered_map(fn, tiles, bounded=True)
