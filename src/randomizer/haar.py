"""Reproducible Haar sampling on the unitary group via Ginibre matrices and phase-fixed QR.

A stack of T = count * d^2 entries is sampled over tiles of ``_TILE_ENTRIES``
stack entries on the package's worker threads (``workers.parallel_map``).
Entry e takes its radius uniform from position e of the stream and its phase
uniform from position T + e, the layout of one sequential draw of all radius
uniforms followed by all phase uniforms. Philox is counter-based, so each
tile positions its own generator there and draws only its own uniforms: no
uniform is drawn serially on the calling thread, and no whole-stack uniform
or Ginibre array exists. A tile writes its Box-Muller Gaussians straight into
its slice of the one preallocated output, then replaces them in place with
their phase-fixed QR factors. Degenerate draws are refilled serially from
position 2T onward. Tile boundaries depend only on the shape of the stack,
never on the thread count, and a tile computes for its entries exactly what
the whole-stack operation computes, so stacks are bit for bit the same for
every thread count. A stack of one tile runs inline with no pool, and a call
from inside another map's worker runs its tiles serially.

The unitarity check and ``complex_standard_normal`` run on the calling
thread: the check loops over the same tiles in order, which keeps its
temporaries cache-sized, and the Box-Muller transform is one in-place pass;
neither gains from worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NumericalFailure
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


def _box_muller(radius: np.ndarray, angle: np.ndarray, out: np.ndarray) -> None:
    """``out = sqrt(-ln(1 - radius)) * exp(2 pi i angle)`` on flat arrays; overwrites ``radius``."""
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    out.real = 0.0
    np.multiply(angle, 2.0 * np.pi, out=out.imag)
    np.exp(out, out=out)
    out *= radius


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with mean 0 and variance 1/2 per real component.

    Complex Box-Muller: radius sqrt(-ln u1) and uniform phase give
    E|z|^2 = 1 exactly. u1 is shifted into (0, 1] to keep the log finite.
    Both uniform arrays are drawn first, then transformed in one in-place
    pass, bit for bit equal to
    ``np.sqrt(-np.log(1.0 - u1)) * np.exp(2j * np.pi * u2)`` with u1 drawn first.
    """
    u1 = gen.random(shape)
    u2 = gen.random(shape)
    z = np.empty(shape, dtype=complex)
    _box_muller(u1.reshape(-1), u2.reshape(-1), z.reshape(-1))
    return z


def _uniforms_at(stream: RngStream, position: int, size: int) -> np.ndarray:
    """``size`` uniforms from absolute ``position`` of the stream's one sequential draw.

    Each Philox counter step yields 4 uint64 values and ``random()`` uses one
    per double, so a fresh generator advanced ``position // 4`` steps, with
    ``position % 4`` doubles discarded, stands at ``position``.
    """
    gen = stream.generator()
    gen.bit_generator.advance(position // 4)
    gen.random(position % 4)
    return gen.random(size)


def _ginibre_at(stream: RngStream, radius_at: int, phase_at: int, out: np.ndarray) -> None:
    """Fill flat complex ``out`` with Gaussians drawn from the uniforms at the two positions."""
    size = out.size
    _box_muller(_uniforms_at(stream, radius_at, size), _uniforms_at(stream, phase_at, size), out)


def sample_haar_unitaries(d: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Haar unitaries, shape ``(count, d, d)``.

    ``rng`` is an RngStream or an int seed; a ``Generator`` cannot be
    positioned and raises TypeError. Each tile draws its Ginibre entries at
    their stream positions and factors them in place; degenerate draws are
    redrawn serially (at most 10 times, then NumericalFailure).
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDimension(f"dimension must be a positive integer, got {d!r}")
    if count < 1:
        raise InvalidDimension(f"count must be a positive integer, got {count!r}")
    d, count = int(d), int(count)
    rng = as_stream(rng)
    total = count * d * d
    q = np.empty((count, d, d), dtype=complex)
    flat = q.reshape(-1)
    degenerate = np.empty(count, dtype=bool)

    def tile(rows):
        start, stop = rows.start * d * d, min(rows.stop, count) * d * d
        _ginibre_at(rng, start, total + start, flat[start:stop])
        q[rows], degenerate[rows] = qr_positive_stacked(q[rows])

    for _ in map_tiles(tile, count, max(1, _TILE_ENTRIES // (d * d))):
        pass  # the tiles write into q and degenerate
    position = 2 * total
    for _ in range(_MAX_RESAMPLES):
        if not np.any(degenerate):
            break
        idx = np.flatnonzero(degenerate)
        refill = np.empty((len(idx), d, d), dtype=complex)
        _ginibre_at(rng, position, position + refill.size, refill.reshape(-1))
        position += 2 * refill.size
        q[idx], degenerate[idx] = qr_positive_stacked(refill)
    else:
        raise NumericalFailure("persistent degenerate Ginibre samples in batch draw")
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
