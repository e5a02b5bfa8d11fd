"""Reproducible Haar sampling on the unitary group via Ginibre matrices and phase-fixed QR.

A stack is sampled over tiles of ``_TILE_ENTRIES`` stack entries on the
package's worker threads (``workers.parallel_map``). Tile k draws its Ginibre
matrices from its own child stream ``rng.child(k)`` through
``complex_standard_normal``, the package's one Gaussian path, and writes their
phase-fixed QR factors into its slice of the one preallocated output. A tile
holding a degenerate draw is redrawn whole from the same generator: iid draws
conditioned on a product event stay iid, each conditioned on its own event.
Tile boundaries depend only on the shape of the stack, never on the thread
count, so stacks are bit for bit the same for every thread count. A stack of
one tile runs inline with no pool, and a call from inside another map's
worker runs its tiles serially. A call may start at any whole tile
(``first``), and tile k of a seed's stack is the same whichever call draws
it, so the channel's Gram fold samples each block on its own.

The unitarity check loops over the same tiles in order on the thread that
calls it (a Gram block's worker thread when a channel is built), which keeps
its temporaries cache-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidParameter, NumericalFailure
from .linalg import qr_positive_stacked
from .workers import map_tiles

_MASK64 = (1 << 64) - 1
_MAX_RESAMPLES = 10
# Stack entries per tile: 256 KB of complex128, so each tile's temporaries
# (Gram block, R factors, rank scale) stay in L2 instead of spanning the stack.
_TILE_ENTRIES = 1 << 14


def _mix64(a: int, b: int) -> int:
    # splitmix64-style finalizer; collisions across derivation paths are
    # astronomically unlikely and only reproducibility within a build matters.
    x = (a * 0x9E3779B97F4A7C15 + b + 1) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Named position in the global randomness space: (seed, stream_id).

    Identical (seed, stream_id) always reproduces the same sample sequence
    within one build. Streams are backed by the counter-based Philox
    generator, so derived streams are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngStream":
        """Independent substream keyed by a tuple of indices (cell, trial, ...)."""
        sid = self.stream_id
        for ix in indices:
            sid = _mix64(sid, ix)
        return RngStream(self.seed, sid)


def as_stream(rng) -> RngStream:
    """Accept an RngStream or an int seed; anything else (a Generator, a float) raises TypeError."""
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    raise TypeError(f"expected RngStream or int seed, got {type(rng).__name__}")


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a ready Generator, or a bare seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (RngStream, int, np.integer)):
        return as_stream(rng).generator()
    raise TypeError(f"expected RngStream, Generator or int, got {type(rng).__name__}")


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with mean 0 and variance 1/2 per real component.

    Complex Box-Muller: radius sqrt(-ln u1) and uniform phase give
    E|z|^2 = 1 exactly. u1 is shifted into (0, 1] to keep the log finite.
    Both uniform arrays are drawn first, then transformed in place, bit for
    bit equal to ``np.sqrt(-np.log(1.0 - u1)) * np.exp(2j * np.pi * u2)``
    with u1 drawn first.
    """
    radius = gen.random(shape)
    z = np.empty(shape, dtype=complex)
    np.multiply(gen.random(shape), 2.0 * np.pi, out=z.imag)
    z.real = 0.0
    np.exp(z, out=z)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    z *= radius
    return z


def require_positive_int(value, name: str) -> int:
    """``value`` (a dimension or a count) as an int; not a positive integer: InvalidDimension."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidDimension(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def tile_rows(d: int) -> int:
    """Unitaries per sampling tile on U(d): ``_TILE_ENTRIES // d^2``, at least 1."""
    return max(1, _TILE_ENTRIES // (d * d))


def sample_haar_unitaries(d: int, count: int, rng, first: int = 0) -> np.ndarray:
    """``count`` independent Haar unitaries, shape ``(count, d, d)``, from row ``first`` on.

    Tile k of the seed's stack draws from ``rng.child(k)`` whichever call
    draws it, so whole tiles agree across calls. ``rng`` is an RngStream or an
    int seed; a ``Generator`` raises TypeError, because each tile derives its
    own child stream. ``first`` must be a whole number of tiles
    (``tile_rows(d)``), else InvalidParameter. A tile with a degenerate draw
    is redrawn whole, at most 10 times, then NumericalFailure.
    """
    d, count = require_positive_int(d, "dimension"), require_positive_int(count, "count")
    per_tile = tile_rows(d)
    if not isinstance(first, (int, np.integer)) or first < 0 or first % per_tile:
        raise InvalidParameter(f"first row must be a non-negative multiple of the "
                               f"{per_tile} unitaries in a tile, got {first!r}")
    rng = as_stream(rng)
    q = np.empty((count, d, d), dtype=complex)

    def tile(rows):
        gen = rng.child((first + rows.start) // per_tile).generator()
        for _ in range(1 + _MAX_RESAMPLES):
            q[rows], degenerate = qr_positive_stacked(complex_standard_normal(gen, q[rows].shape))
            if not np.any(degenerate):
                return
        raise NumericalFailure("persistent degenerate Ginibre samples in a Haar tile")

    for _ in map_tiles(tile, count, per_tile):
        pass  # the tiles write into q
    return q


def unitarity_defect(u: np.ndarray) -> float:
    """max|U†U - I|, possibly over a stack of unitaries; 0.0 for an empty stack.

    Batched ``matmul`` over tiles of at most ``_TILE_ENTRIES`` stack entries,
    in order on the calling thread, with the maximum reduced per tile; a NaN
    entry makes the result NaN.
    """
    u = np.asarray(u, dtype=complex)
    rows, d = u.shape[-2:]
    stack = u.reshape(-1, rows, d)
    if stack.size == 0:
        return 0.0

    def peak(start):
        block = stack[start:start + per_tile]
        gram = np.matmul(np.conj(block.transpose(0, 2, 1)), block)
        gram.reshape(len(block), d * d)[:, ::d + 1] -= 1.0
        return np.max(np.abs(gram))

    per_tile = max(1, _TILE_ENTRIES // (rows * d))
    return float(np.max([peak(start) for start in range(0, stack.shape[0], per_tile)]))
