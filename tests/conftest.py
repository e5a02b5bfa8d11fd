"""Shared helpers for the test suite: random instances and small statistics."""

from __future__ import annotations

import numpy as np

import randomizer.certify
from randomizer import RngStream, pair_statistic
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


def projector(x: np.ndarray) -> np.ndarray:
    """Oracle: |x><x| of a vector, or of each vector of a stack ``(..., d)``."""
    return x[..., :, None] * np.conj(x)[..., None, :]


def superoperator(ch) -> np.ndarray:
    """Oracle: the row-major superoperator S = (1/N) sum_i U_i ⊗ conj(U_i), C regrouped.

    S[(i, k), (j, l)] = C[(i, j), (k, l)], so S vec(rho) is the row-major vec of R(rho).
    """
    d = ch.dim
    return ch.gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def channel_image(ch, rho: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Oracle: R(rho), or R†(rho) = (1/N) sum_i U_i† rho U_i, through S (or S†) on vec(rho).

    ``rho`` may be a stack ``(..., d, d)``.
    """
    d = ch.dim
    sup = superoperator(ch)
    vecs = rho.reshape(*rho.shape[:-2], d * d)
    return (vecs @ (np.conj(sup) if adjoint else sup.T)).reshape(rho.shape)


def output_deviation(ch, phi: np.ndarray) -> float:
    """Oracle: ||R(|phi><phi|) - I/d||_op, numpy's matrix 2-norm of the channel's output."""
    d = ch.dim
    return float(np.linalg.norm(channel_image(ch, projector(phi)) - np.eye(d) / d, 2))


def hermitian_basis(d: int) -> np.ndarray:
    """Oracle: the orthonormal basis B_a of ``linalg`` as explicit matrices, shape (d^2, d, d).

    E_jj for each j, then (E_jk + E_kj)/sqrt(2) and i(E_jk - E_kj)/sqrt(2) for j < k.
    """
    pairs = list(zip(*np.triu_indices(d, 1)))
    basis = np.zeros((d * d, d, d), dtype=complex)
    for j in range(d):
        basis[j, j, j] = 1.0
    for p, (j, k) in enumerate(pairs):
        basis[d + p, j, k] = basis[d + p, k, j] = np.sqrt(0.5)
        basis[d + len(pairs) + p, j, k] = 1j * np.sqrt(0.5)
        basis[d + len(pairs) + p, k, j] = -1j * np.sqrt(0.5)
    return basis


def basis_coordinates(a: np.ndarray) -> np.ndarray:
    """Oracle: Re tr(B_a A) for each matrix of ``a``, the coordinates of its Hermitian part."""
    return np.einsum("bij,...ji->...b", hermitian_basis(a.shape[-1]), a).real


def complex_scan_B(ch, net):
    """Oracle: the net scan through complex GEMMs on S, in ``_SCAN_BUDGET`` chunks of phi rows.

    With P the rows vec|x><x|, the statistics of all ordered pairs are P S^T P†; returns
    (B, phi index, psi index), B re-evaluated through ``pair_statistic`` at the first maximum.
    """
    states = net.states
    m, d = states.shape
    vecs = projector(states).reshape(m, d * d)
    chunk = max(1, randomizer.certify._SCAN_BUDGET // max(m, d * d))
    best, best_i, best_j = -1.0, 0, 0
    for start in range(0, m, chunk):
        dev = np.abs(((vecs[start:start + chunk] @ superoperator(ch).T) @ np.conj(vecs.T)).real
                     - 1.0 / d)
        k, j = divmod(int(np.argmax(dev)), m)
        if dev[k, j] > best:
            best, best_i, best_j = float(dev[k, j]), start + k, j
    value = abs(pair_statistic(ch, states[best_i], states[best_j]) - 1.0 / d)
    return value, best_i, best_j


def complex_spectral_bound(ch) -> float:
    """Oracle: the spectral bound from a complex SVD of D = S - |I>><<I|/d, with its margin."""
    d = ch.dim
    eps = np.finfo(float).eps
    ident = np.eye(d).reshape(-1)
    dev = superoperator(ch) - np.outer(ident, ident) / d
    sigma = float(np.linalg.svd(dev, compute_uv=False)[0])
    leak = np.linalg.norm(dev @ ident) + np.linalg.norm(ident @ dev)
    return (1.0 - 1.0 / d) * sigma + 8.0 * eps * d * d * (d + sigma) + 2.0 * float(leak) / d


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
