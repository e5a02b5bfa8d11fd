"""Shared helpers for the test suite: random instances and small statistics."""

from __future__ import annotations

import numpy as np

from randomizer import RngStream, apply_channel, pure_projector
from randomizer.haar import complex_standard_normal


def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    gen = rng.generator()
    a = complex_standard_normal(gen, (d, d)) * scale
    return (a + np.conj(a.T)) / 2.0


def random_density(d: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state G G† / tr(G G†) with G Ginibre of the given rank."""
    gen = rng.generator()
    g = complex_standard_normal(gen, (d, rank if rank is not None else d))
    rho = g @ np.conj(g.T)
    return rho / np.trace(rho).real


def random_unit_vector(d: int, rng) -> np.ndarray:
    gen = rng.generator()
    v = complex_standard_normal(gen, (d,))
    return v / np.linalg.norm(v)


def trace_norm(h: np.ndarray) -> float:
    """Oracle: sum_i |lambda_i| for Hermitian H."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def output_deviation(ch, phi: np.ndarray) -> float:
    """Oracle: ||R(|phi><phi|) - I/d||_op, numpy's matrix 2-norm of the channel's output."""
    d = ch.dim
    return float(np.linalg.norm(apply_channel(ch, pure_projector(phi)) - np.eye(d) / d, 2))


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def stream(seed: int, *children: int) -> RngStream:
    s = RngStream(seed)
    return s.child(*children) if children else s
