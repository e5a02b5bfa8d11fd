"""Reproducible Haar sampling on the unitary group via Ginibre matrices and phase-fixed QR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NumericalFailure
from .linalg import qr_positive_stacked

_MASK64 = (1 << 64) - 1
_MAX_RESAMPLES = 10
# Entries of the unitary stack per unitarity-check tile: 256 KB of complex128,
# so each tile's Gram block stays in L2 instead of a full-stack temporary.
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


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a ready Generator, or a bare seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"expected RngStream, Generator or int, got {type(rng).__name__}")


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with mean 0 and variance 1/2 per real component.

    Complex Box-Muller: radius sqrt(-ln u1) and uniform phase give
    E|z|^2 = 1 exactly. u1 is shifted into (0, 1] to keep the log finite.
    Computed in place, bit for bit equal to
    ``np.sqrt(-np.log(1.0 - u1)) * np.exp(2j * np.pi * u2)`` with u1 drawn first.
    """
    radius = gen.random(shape)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    z = np.zeros(shape, dtype=complex)
    np.multiply(gen.random(shape), 2.0 * np.pi, out=z.imag)
    np.exp(z, out=z)
    z *= radius
    return z


def _require_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDimension(f"dimension must be a positive integer, got {d!r}")
    return int(d)


def sample_ginibre(d: int, rng, count: int) -> np.ndarray:
    """Draw ``count`` matrices of iid complex standard Gaussians, shape ``(count, d, d)``."""
    d = _require_dim(d)
    return complex_standard_normal(as_generator(rng), (int(count), d, d))


def sample_haar_unitaries(d: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Haar unitaries, shape ``(count, d, d)``.

    Uses one batched Ginibre draw plus batched QR; degenerate draws are
    redrawn (at most 10 times, then NumericalFailure).
    """
    d = _require_dim(d)
    if count < 1:
        raise InvalidDimension(f"count must be a positive integer, got {count!r}")
    gen = as_generator(rng)
    mats = sample_ginibre(d, gen, count=count)
    q, degenerate = qr_positive_stacked(mats)
    for _ in range(_MAX_RESAMPLES):
        if not np.any(degenerate):
            break
        refill = sample_ginibre(d, gen, count=int(np.sum(degenerate)))
        q_new, degenerate_new = qr_positive_stacked(refill)
        idx = np.flatnonzero(degenerate)
        q[idx] = q_new
        degenerate[idx] = degenerate_new
    else:
        raise NumericalFailure("persistent degenerate Ginibre samples in batch draw")
    return q


def unitarity_defect(u: np.ndarray) -> float:
    """max|U†U - I|, possibly over a stack of unitaries; 0.0 for an empty stack.

    Batched ``matmul`` over tiles of at most ``_TILE_ENTRIES`` stack entries,
    with the maximum reduced per tile; a NaN entry makes the result NaN.
    """
    u = np.asarray(u, dtype=complex)
    rows, d = u.shape[-2:]
    stack = u.reshape(-1, rows, d)
    if stack.size == 0:
        return 0.0
    per_tile = max(1, _TILE_ENTRIES // (rows * d))
    peaks = []
    for start in range(0, stack.shape[0], per_tile):
        tile = stack[start:start + per_tile]
        gram = np.matmul(np.conj(tile.transpose(0, 2, 1)), tile)
        gram.reshape(len(tile), d * d)[:, ::d + 1] -= 1.0
        peaks.append(np.max(np.abs(gram)))
    return float(np.max(peaks))

