"""Random unitary mixing channels R(rho) = (1/N) sum_i U_i rho U_i†.

A channel is computed through its d^2 x d^2 superoperator
S = (1/N) sum_i U_i ⊗ conj(U_i), which maps the row-major vec of rho to the
vec of R(rho). Forming S costs O(N d^4) once; afterwards every output costs
O(d^4) instead of O(N d^2). That pays because the randomizing regime needs
N >= C d / eps^2 ln(1/eps), far above d^2 at desk scale, while S itself has at
most 65536 entries at d = 16. The raw ``(N, d, d)`` unitaries are kept too:
``pair_statistic`` re-evaluates witnesses from them and persistence writes them.

S is formed from one real product ``x.T @ x``, where ``x`` views the
``(N, d^2)`` complex stack as ``(N, 2 d^2)`` interleaved (Re, Im) reals.
NumPy sends that product to a symmetric rank-k update, so no conjugated copy
of the stack is made, and the Gram matrix sum_n vec(U_n) vec(U_n)† read off
from it is exactly Hermitian. The constructor's unitarity check runs in tiles
of ``_TILE_ENTRIES`` stack entries on the worker threads
(``haar.unitarity_defect``): a single batched product over the whole stack
would build a Gram stack as large as the stack itself, 64 MB at d = 16,
N = 16000, only to take its maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, InvalidMatrix, InvalidParameter
from .haar import RngStream, as_generator, complex_standard_normal, sample_haar_unitaries, unitarity_defect
from .linalg import TOL, hermitian_part, operator_norm, require_finite


def maximally_mixed(d: int) -> np.ndarray:
    """The state I/d."""
    return np.eye(d, dtype=complex) / d


def require_pure_state(x: np.ndarray, tol: float = TOL.state_norm) -> np.ndarray:
    """Validate a unit vector in C^d and return it as complex128."""
    vec = require_finite(np.asarray(x, dtype=complex), "state vector")
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidParameter(f"pure state must be a nonempty vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > tol:
        raise InvalidParameter(f"state vector norm {norm} deviates from 1 beyond {tol:.1e}")
    return vec


def pure_projector(x: np.ndarray) -> np.ndarray:
    """Rank-1 projector |x><x|."""
    vec = np.asarray(x, dtype=complex)
    return np.outer(vec, np.conj(vec))


def random_pure_state(d: int, rng) -> np.ndarray:
    """Uniform (Haar) random pure state: normalized iid complex Gaussian vector."""
    if d < 1:
        raise InvalidDimension(f"dimension must be positive, got {d}")
    gen = as_generator(rng)
    vec = complex_standard_normal(gen, (d,))
    norm = float(np.linalg.norm(vec))
    while norm == 0.0:  # probability zero, but the contract demands a unit vector
        vec = complex_standard_normal(gen, (d,))
        norm = float(np.linalg.norm(vec))
    return vec / norm


def random_pure_states(d: int, count: int, rng) -> np.ndarray:
    """Batch of uniform pure states, shape ``(count, d)``."""
    gen = as_generator(rng)
    vecs = complex_standard_normal(gen, (int(count), d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vecs / norms


@dataclass(frozen=True, eq=False)
class RandomUnitaryChannel:
    """Uniform mixture of unitary conjugations: raw unitaries (N, d, d) plus the superoperator.

    Equality is identity: comparing the unitary stacks elementwise has no truth value.
    """

    unitaries: np.ndarray
    provenance: dict = field(default_factory=dict)
    superoperator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = require_finite(np.asarray(self.unitaries, dtype=complex), "unitary stack")
        if u.ndim != 3 or u.shape[1] != u.shape[2] or u.shape[0] < 1 or u.shape[1] < 1:
            raise InvalidDimension(f"expected a nonempty stack (N, d, d), got shape {u.shape}")
        defect = unitarity_defect(u)
        if defect > TOL.unitarity:
            raise InvalidMatrix(f"stack contains a non-unitary matrix: max|U†U - I| = {defect:.3e}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitaries", u)
        n, d = u.shape[0], u.shape[1]
        # gram[(i, j), (k, l)] = sum_n U_n[i, j] conj(U_n[k, l]); S regroups it as [(i, k), (j, l)].
        # x interleaves (Re, Im) columns, so g = x^T x holds every real cross product.
        x = u.reshape(n, d * d).view(np.float64)
        g = x.T @ x
        gram = (g[0::2, 0::2] + g[1::2, 1::2]) + 1j * (g[1::2, 0::2] - g[0::2, 1::2])
        gram /= n
        sup = gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        sup.setflags(write=False)
        object.__setattr__(self, "superoperator", sup)

    @property
    def dim(self) -> int:
        return int(self.unitaries.shape[1])

    @property
    def count(self) -> int:
        return int(self.unitaries.shape[0])


def build_random_channel(d: int, n: int, seed: RngStream) -> RandomUnitaryChannel:
    """Channel from ``n`` independent Haar unitaries on U(d), reproducible per stream."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDimension(f"dimension must be a positive integer, got {d!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimension(f"count must be a positive integer, got {n!r}")
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    us = sample_haar_unitaries(int(d), int(n), stream)
    prov = {"kind": "haar", "seed": stream.seed, "stream_id": stream.stream_id,
            "dim": int(d), "count": int(n)}
    return RandomUnitaryChannel(us, prov)


def build_weyl_channel(d: int) -> RandomUnitaryChannel:
    """The d^2 discrete Weyl operators X^j Z^k; conjugating by all of them is exactly randomizing.

    X is the cyclic shift, Z = diag(1, w, ..., w^{d-1}) with w = exp(2 pi i / d).
    Global phases are not normalized; they cancel under conjugation.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDimension(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    shift = np.zeros((d, d), dtype=complex)
    shift[np.arange(d), (np.arange(d) - 1) % d] = 1.0  # X|j> = |j+1 mod d>
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    xj = np.eye(d, dtype=complex)
    for _ in range(d):
        zk = np.eye(d, dtype=complex)
        for _ in range(d):
            ops.append(xj @ zk)
            zk = zk @ clock
        xj = xj @ shift
    return RandomUnitaryChannel(np.stack(ops), {"kind": "weyl", "dim": d, "count": d * d})


def _check_dim(ch: RandomUnitaryChannel, dim: int):
    if dim != ch.dim:
        raise DimensionMismatch(f"channel acts on C^{ch.dim}, operand lives in C^{dim}")


def _require_square(ch: RandomUnitaryChannel, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    _check_dim(ch, a.shape[0])
    return a


def apply_channel(ch: RandomUnitaryChannel, rho: np.ndarray) -> np.ndarray:
    """(1/N) sum_i U_i rho U_i† as S vec(rho), symmetrized to kill Hermiticity drift."""
    rho = _require_square(ch, rho)
    return hermitian_part((ch.superoperator @ rho.reshape(-1)).reshape(rho.shape))


def apply_adjoint(ch: RandomUnitaryChannel, sigma: np.ndarray) -> np.ndarray:
    """Adjoint map (1/N) sum_i U_i† sigma U_i as S† vec(sigma)."""
    sigma = _require_square(ch, sigma)
    out = np.conj(np.conj(sigma.reshape(-1)) @ ch.superoperator)  # conj(S^T conj(v)) = S† v
    return hermitian_part(out.reshape(sigma.shape))


def pair_statistic(ch: RandomUnitaryChannel, phi: np.ndarray, psi: np.ndarray) -> float:
    """(1/N) sum_i |<psi|U_i|phi>|^2, via inner products only.

    It equals tr(R(|phi><phi|) |psi><psi|) but reads the raw unitaries, not S,
    so it is the independent path on which certified values are re-evaluated
    at their witness pair.
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape:
        raise DimensionMismatch(f"state shapes differ: {phi.shape} vs {psi.shape}")
    _check_dim(ch, phi.shape[0])
    amps = (ch.unitaries @ phi) @ np.conj(psi)
    return float(np.mean(np.abs(amps) ** 2))


def deviation(ch: RandomUnitaryChannel, phi: np.ndarray) -> float:
    """Operator-norm distance of R(|phi><phi|) from the maximally mixed state."""
    return operator_norm(apply_channel(ch, pure_projector(phi)) - maximally_mixed(ch.dim))
