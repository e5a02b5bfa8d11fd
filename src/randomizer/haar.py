"""Reproducible Haar sampling on the unitary group via Ginibre matrices and phase-fixed QR.

Every Gaussian in the package comes from ``complex_standard_normal``: NumPy's
ziggurat normals (Marsaglia and Tsang 2000) on the keyed Philox stream, read as
interleaved (Re, Im) pairs and scaled by sqrt(1/2) in place. The Haar law of
QR-of-Ginibre depends only on the Gaussian law (Mezzadri 2007), not on how the
normals are made. The ziggurat keeps no state between calls, so draws are
prefix-stable: one draw of n + m values equals a draw of n followed by a draw
of m from the same generator.

A stack is sampled over tiles of ``_TILE_ENTRIES`` stack entries on the
package's worker threads (``workers.parallel_map``). Tile k draws its Ginibre
matrices from its own child stream ``rng.child(k)`` straight into its slice of
the one preallocated output, and overwrites them there with their phase-fixed
QR factors, so no tile allocates an array of normals. A tile holding a
degenerate draw is redrawn whole into the same slice from the same generator:
iid draws conditioned on a product event stay iid, each conditioned on its own
event. Tile boundaries depend only on the shape of the stack, never on the
thread count, so stacks are bit for bit the same for every thread count. A
stack of one tile runs inline with no pool, and a call from inside another
map's worker runs its tiles serially. A call may start at any whole tile
(``first``), and tile k of a seed's stack is the same whichever call draws it,
so the channel's Gram fold samples each block on its own.

The unitarity check loops over the same tiles in order on the thread that
calls it (a Gram block's worker thread when a channel is built), which keeps
its temporaries cache-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameter, NumericalFailure, require_nonnegative_int,
                     require_positive_int)
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
    generator, so derived streams are statistically independent. Both
    numbers key Philox as they are, so no two recorded (seed, stream_id)
    draw the same stream: each must be an int (else TypeError; a bool is
    refused) in [0, 2^64) (else InvalidParameter).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream id", self.stream_id)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if not 0 <= value <= _MASK64:
                raise InvalidParameter(f"{name} must lie in [0, 2^64), got {value}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngStream":
        """Independent substream keyed by a tuple of indices (cell, trial, ...)."""
        sid = self.stream_id
        for ix in indices:
            sid = _mix64(sid, ix)
        return RngStream(self.seed, sid)


def as_stream(rng) -> RngStream:
    """Accept an RngStream or an int seed; anything else raises TypeError.

    A Generator, a float and a bool are refused: 2.7 is not seed 2, nor True seed 1.
    """
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return RngStream(int(rng))
    raise TypeError(f"expected RngStream or int seed, got {type(rng).__name__}")


def complex_standard_normal(gen: np.random.Generator, shape=None, out=None) -> np.ndarray:
    """Standard complex Gaussians: a new array of ``shape``, or written into ``out`` and returned.

    ``out`` must be a C-contiguous complex128 array; ``shape`` is used only
    without it. Mean 0 and variance 1/2 per real component, so E|z|^2 = 1.
    The entries are ``gen.standard_normal`` ziggurat draws, read as
    interleaved (Re, Im) pairs and scaled by sqrt(1/2) in place: bit for bit
    ``(gen.standard_normal(2 * size) * np.sqrt(0.5)).view(complex)``. Draws
    are prefix-stable, so n entries and then m entries from one generator
    equal n + m entries drawn at once.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    reals = out.view(np.float64)
    gen.standard_normal(out=reals)
    reals *= np.sqrt(0.5)
    return out


def tile_rows(d: int) -> int:
    """Unitaries per sampling tile on U(d): ``_TILE_ENTRIES // d^2``, at least 1."""
    return max(1, _TILE_ENTRIES // (d * d))


def sample_haar_unitaries(d: int, count: int, rng, first: int = 0) -> np.ndarray:
    """``count`` independent Haar unitaries, shape ``(count, d, d)``, from row ``first`` on.

    Tile k of the seed's stack draws from ``rng.child(k)`` whichever call
    draws it, so whole tiles agree across calls. ``rng`` is an RngStream or an
    int seed; a ``Generator`` raises TypeError, because each tile derives its
    own child stream. ``count`` must be a positive integer, else
    InvalidDimension; ``first`` must be a whole number of tiles
    (``tile_rows(d)``), else InvalidParameter. A tile with a degenerate draw
    is redrawn whole, at most 10 times, then NumericalFailure.
    """
    d, count = require_positive_int(d, "dimension"), require_positive_int(count, "count")
    per_tile = tile_rows(d)
    first = require_nonnegative_int(first, "first row")
    if first % per_tile:
        raise InvalidParameter(f"first row must be a multiple of the {per_tile} unitaries "
                               f"in a tile, got {first}")
    rng = as_stream(rng)
    q = np.empty((count, d, d), dtype=complex)

    def tile(rows):
        gen = rng.child((first + rows.start) // per_tile).generator()
        block = q[rows]
        for _ in range(1 + _MAX_RESAMPLES):
            factors, degenerate = qr_positive_stacked(complex_standard_normal(gen, out=block))
            if not np.any(degenerate):
                block[...] = factors
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
