"""Random unitary mixing channels R(rho) = (1/N) sum_i U_i rho U_i†, held as one d^2 x d^2 matrix.

A channel is its matrix C = (1/N) sum_i vec(U_i) vec(U_i)†, indexed by
row-major pairs (i, j): R depends on nothing else, and at the N >= d / eps^2
the randomizing regime needs, C (65536 entries at d = 16) is far smaller than
the stack (N d^2). Regrouping its pairs (i, j), (k, l) to (i, k), (j, l) gives
the superoperator S = (1/N) sum_i U_i ⊗ conj(U_i), which maps the row-major
vec of rho to the vec of R(rho) and drives ``apply_*``, the net scan and the
ascent. The pair statistic is the form x†Cx with x = psi ⊗ conj(phi).

A unitary stack lives only inside ``channel_from_unitaries``, which folds it
in fixed blocks of ``_GRAM_BLOCK_ENTRIES`` stack entries (whole rows) on the
package's worker threads. Each block runs the tiled unitarity check
(``haar.unitarity_defect``) and its real product ``x.T @ x`` over the block
viewed as ``(rows, 2 d^2)`` interleaved (Re, Im) reals; NumPy sends that to a
symmetric rank-k update, with no copy of the stack. The partial products are
summed in block order, and block boundaries depend only on the stack's shape,
so C is bit for bit the same for every thread count. C is exactly Hermitian
whatever the number of blocks. The constructor validates C on every path,
fresh or loaded: shape d^2 x d^2, finite, Hermitian, positive semidefinite,
and both partial traces the identity (R preserves the trace and is unital).
That is all any bound uses; it does not prove that C is a mixture of
unitaries, which at d >= 3 a unital channel need not be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, InvalidMatrix, InvalidParameter
from .haar import RngStream, as_generator, complex_standard_normal, sample_haar_unitaries, unitarity_defect
from .linalg import TOL, hermitian_eigenvalues, hermitian_part, max_abs, operator_norm, require_finite
from .workers import map_tiles

# Stack entries per Gram block: 2^19 (2048 unitaries at d = 16, 8 MB). Each
# block's partial product is (2 d^2)^2 reals (2 MB at d = 16), held until all
# are summed, so blocks are large; a 16000-unitary stack at d = 16 still gives
# the worker threads eight blocks.
_GRAM_BLOCK_ENTRIES = 1 << 19


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
    """A channel given by its matrix C = (1/N) sum_i vec(U_i) vec(U_i)†, shape ``(d^2, d^2)``.

    ``gram`` is C, validated and stored read-only; ``superoperator`` is S, the
    same entries regrouped. ``provenance`` records where C came from and must
    hold ``count``, the number N of unitaries. Build a channel from a unitary
    stack with ``channel_from_unitaries``. Equality is identity.
    """

    gram: np.ndarray
    provenance: dict = field(default_factory=dict)
    superoperator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = require_finite(np.array(self.gram, dtype=complex), "channel matrix C")
        d = math.isqrt(c.shape[0]) if c.ndim == 2 else 0
        if d < 1 or c.shape != (d * d, d * d):
            raise InvalidDimension(f"channel matrix C must be d^2 x d^2, got shape {c.shape}")
        count = self.provenance.get("count")
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise InvalidParameter(f"provenance must record a positive count N, got {count!r}")
        lowest = hermitian_eigenvalues(c)[-1]  # also checks Hermiticity within TOL.hermiticity
        if lowest < -TOL.unitarity:
            raise InvalidMatrix(f"channel matrix C is not positive semidefinite: "
                                f"smallest eigenvalue {lowest:.3e}")
        blocks = c.reshape(d, d, d, d)
        eye = np.eye(d)
        for factor, partial in (("first", np.einsum("ijil->jl", blocks)),
                                ("second", np.einsum("ijkj->ik", blocks))):
            defect = max_abs(partial - eye)
            if defect > TOL.unitarity:
                raise InvalidMatrix(f"partial trace of C over its {factor} factor is not the "
                                    f"identity: max deviation {defect:.3e}")
        c.setflags(write=False)
        object.__setattr__(self, "gram", c)
        sup = blocks.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        sup.setflags(write=False)
        object.__setattr__(self, "superoperator", sup)

    @property
    def dim(self) -> int:
        return math.isqrt(self.gram.shape[0])

    @property
    def count(self) -> int:
        return int(self.provenance["count"])


def channel_from_unitaries(unitaries: np.ndarray, provenance: dict | None = None
                           ) -> RandomUnitaryChannel:
    """The channel of a stack ``(N, d, d)`` of unitaries; the stack is read, never copied or kept.

    A non-finite entry or max|U†U - I| above ``TOL.unitarity`` raises InvalidMatrix.
    """
    u = np.asarray(unitaries, dtype=complex)
    if u.ndim != 3 or u.shape[1] != u.shape[2] or u.shape[0] < 1 or u.shape[1] < 1:
        raise InvalidDimension(f"expected a nonempty stack (N, d, d), got shape {u.shape}")
    n, d = u.shape[0], u.shape[1]
    # gram[(i, j), (k, l)] = sum_n U_n[i, j] conj(U_n[k, l]).
    # x interleaves (Re, Im) columns, so g = x^T x holds every real cross product.
    x = u.reshape(n, d * d).view(np.float64)

    def fold(rows):
        return unitarity_defect(u[rows]), x[rows].T @ x[rows]

    parts = map_tiles(fold, n, max(1, _GRAM_BLOCK_ENTRIES // (d * d)))
    defect = float(np.max([block_defect for block_defect, _ in parts]))
    if not defect <= TOL.unitarity:  # a non-finite entry makes the defect NaN
        raise InvalidMatrix(f"stack contains a non-unitary matrix: max|U†U - I| = {defect:.3e}")
    g = parts[0][1]
    for _, partial in parts[1:]:
        g += partial
    gram = (g[0::2, 0::2] + g[1::2, 1::2]) + 1j * (g[1::2, 0::2] - g[0::2, 1::2])
    gram /= n
    return RandomUnitaryChannel(gram, {**(provenance or {}), "dim": d, "count": n})


def build_random_channel(d: int, n: int, seed: RngStream) -> RandomUnitaryChannel:
    """Channel from ``n`` independent Haar unitaries on U(d), reproducible per stream."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimension(f"count must be a positive integer, got {n!r}")
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    us = sample_haar_unitaries(d, int(n), stream)  # validates d
    return channel_from_unitaries(us, {"kind": "haar", "seed": stream.seed,
                                       "stream_id": stream.stream_id})


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
    return channel_from_unitaries(np.stack(ops), {"kind": "weyl"})


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
    """(1/N) sum_i |<psi|U_i|phi>|^2 = tr(R(|phi><phi|) |psi><psi|), as x†Cx with x = psi ⊗ conj(phi).

    One d^2 x d^2 matrix-vector product, whatever N is. Certificates report
    their values through it at the witness pair, so a value can be checked
    again from the pair and the channel alone.
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape:
        raise DimensionMismatch(f"state shapes differ: {phi.shape} vs {psi.shape}")
    _check_dim(ch, phi.shape[0])
    x = np.outer(psi, np.conj(phi)).reshape(-1)
    return float(np.vdot(x, ch.gram @ x).real)


def deviation(ch: RandomUnitaryChannel, phi: np.ndarray) -> float:
    """Operator-norm distance of R(|phi><phi|) from the maximally mixed state."""
    return operator_norm(apply_channel(ch, pure_projector(phi)) - maximally_mixed(ch.dim))
