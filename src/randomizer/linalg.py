"""Dense linear algebra: tolerances, finiteness, phase-fixed QR, and one orthonormal basis of the
Hermitian matrices.

Inputs are plain ``numpy`` arrays with ``complex128`` entries. Matrices may
be stacked along leading axes where noted.

The basis B_a of the d x d Hermitian matrices, orthonormal under the
Hilbert-Schmidt inner product, lists E_jj for each j, then
(E_jk + E_kj)/sqrt(2) and then i(E_jk - E_kj)/sqrt(2) for each pair j < k in
``np.triu_indices`` order. ``hermitian_coordinates`` gives the real
coordinates tr(B_a |x><x|) of pure states, so the dot product of two rows is
the squared overlap of their states, and ``hermitian_matrix``, its one
inverse, maps any real coordinates back to their Hermitian matrix.
``hermitian_transfer`` gives the real d^2 x d^2 matrix T[a, b] =
tr(B_a R(B_b)) of a random unitary channel R from its matrix C.
Then tr(R(|phi><phi|) |psi><psi|) = F(psi) . T F(phi), and the coordinates of
the identity are ones on the d diagonal entries, zeros elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for the numerical tolerances used by contracts and tests."""

    hermiticity: float = 1e-12
    unitarity: float = 1e-10
    rank_deficiency: float = 1e-12
    state_norm: float = 1e-12


TOL = Tolerances()


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for empty input."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise InvalidMatrix(f"{what} has non-finite entries")
    return arr


def qr_positive_stacked(mats: np.ndarray):
    """Phase-fixed QR of stacked square matrices ``(..., d, d)``.

    Returns ``(q, degenerate)`` where ``q`` is the unitary factor of the unique
    QR factorization with strictly positive real diagonal of R, and
    ``degenerate`` flags matrices whose R diagonal falls below
    ``TOL.rank_deficiency * max|M|`` (those q slices are not trustworthy).
    """
    mats = np.asarray(mats, dtype=complex)
    q, r = np.linalg.qr(mats)
    diag = np.einsum("...ii->...i", r)
    mag = np.abs(diag)
    scale = np.max(np.abs(mats), axis=(-2, -1))
    degenerate = np.any(mag <= TOL.rank_deficiency * scale[..., None], axis=-1)
    # Naive QR leaves an arbitrary phase per column; dividing it out is what
    # makes the factor exactly Haar-distributed for Gaussian input.
    safe = np.where(mag > 0.0, mag, 1.0)
    phases = diag / safe
    q *= phases[..., None, :]
    return q, degenerate


@functools.cache
def _pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs j < k of a dimension, read-only and shared by every caller."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def hermitian_coordinates(states: np.ndarray) -> np.ndarray:
    """Real rows F(x) of length d^2 with F(x) . F(y) = |<x|y>|^2 for every pair of rows.

    F(x) lists |x_j|^2, then sqrt(2) Re(x_j conj(x_k)) and sqrt(2) Im(x_j conj(x_k))
    for j < k: the coordinates tr(B_a |x><x|) of |x><x| in the module's basis.
    """
    rows, cols = _pair_indices(states.shape[1])
    cross = math.sqrt(2.0) * (states[:, rows] * np.conj(states[:, cols]))
    return np.concatenate([states.real ** 2 + states.imag ** 2, cross.real, cross.imag], axis=1)


def hermitian_matrix(coords: np.ndarray) -> np.ndarray:
    """The matrices sum_a coords[..., a] B_a, shape ``(..., d, d)``, of real coordinates.

    The inverse of the coordinates: ``hermitian_matrix(hermitian_coordinates(x))``
    holds the projectors |x><x|. The result is exactly Hermitian: its diagonal is real and each entry below it is the
    conjugate of its mirror.
    """
    d = math.isqrt(coords.shape[-1])
    rows, cols = _pair_indices(d)
    pairs, root = rows.size, math.sqrt(0.5)
    out = np.empty(coords.shape, dtype=complex)
    out[..., ::d + 1] = coords[..., :d]
    upper = coords[..., d:d + pairs] * root + 1j * (coords[..., d + pairs:] * root)
    out[..., rows * d + cols] = upper
    out[..., cols * d + rows] = np.conj(upper)
    return out.reshape(*coords.shape[:-1], d, d)


def hermitian_transfer(gram: np.ndarray) -> np.ndarray:
    """The real matrix T[a, b] = tr(B_a R(B_b)) of the channel R whose matrix C is ``gram``.

    R(X)[i, k] = sum over (j, l) of C[(i, j), (k, l)] X[j, l], so the entries
    of C regrouped to rows (i, k) and columns (j, l), a local copy, map the
    row-major vec of X to that of R(X). T is an index gather from them, no
    product, one block of basis columns at a time: the images R(B_b) are read
    first, then their coordinates, each from the diagonal entries, x + y and
    i(x - y) at the pair entries x = (j, k), y = (k, j), and the 1/sqrt(2)
    factors are applied once per block at the end, so the identity map gives
    T = I exactly. Returns the real part, which is all of T when R preserves
    Hermiticity exactly (C exactly Hermitian). Beside T and the regrouped
    copy, the largest temporaries are the real and imaginary parts of one
    column block's images, two real d^2 x d(d - 1)/2 arrays.
    """
    d = math.isqrt(gram.shape[0])
    rows, cols = _pair_indices(d)
    diag, jk, kj = np.arange(d) * (d + 1), rows * d + cols, cols * d + rows
    n = d * d
    sym, anti = slice(d, d + rows.size), slice(d + rows.size, n)
    regrouped = gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)
    a, b = regrouped.real, regrouped.imag
    t = np.empty((n, n))
    for block in (slice(0, d), sym, anti):
        # R(B_b) for the b of this block, unscaled, as its real and imaginary parts
        if block is sym:
            re, im = a[:, jk], b[:, jk]
            re += a[:, kj]
            im += b[:, kj]
        elif block is anti:  # i(x - y)
            re, im = b[:, kj], a[:, jk]
            re -= b[:, jk]
            im -= a[:, kj]
        else:
            re, im = a[:, diag], b[:, diag]
        # Re tr(B_a Y) at a pair row: Re(x + y) for the symmetric element, Im(x - y) for the other
        t[:d, block] = re[diag]
        np.add(re[jk], re[kj], out=t[sym, block])
        np.subtract(im[jk], im[kj], out=t[anti, block])
    scale = math.sqrt(0.5)
    t[:d, d:] *= scale
    t[d:, :d] *= scale
    t[d:, d:] *= 0.5
    return t
