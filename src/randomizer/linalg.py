"""Dense complex linear algebra: tolerances, finiteness, the Hermitian part, phase-fixed QR.

Everything operates on plain ``numpy`` arrays with ``complex128`` entries.
Matrices may be stacked along leading axes where noted.
"""

from __future__ import annotations

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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    a = np.asarray(a, dtype=complex)
    return (a + np.conj(np.swapaxes(a, -2, -1))) / 2.0


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
