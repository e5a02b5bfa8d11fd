"""Random unitary mixing channels R(rho) = (1/N) sum_i U_i rho U_i†, held as one matrix.

A channel is its d^2 x d^2 matrix C = (1/N) sum_i vec(U_i) vec(U_i)†, indexed
by row-major pairs (i, j): R depends on nothing else, and at the N >= d / eps^2
the randomizing regime needs, C (65536 entries at d = 16) is far smaller than
the stack (N d^2). C is exactly Hermitian once constructed, and the real
matrix T of R on Hermitian inputs, in the orthonormal basis of ``linalg``, is
one change of basis of it: the one form of R that every layer of ``certify``
reads. C serves the pair statistic x†Cx, validation and files.

C is folded in fixed blocks of ``_GRAM_BLOCK_TILES`` sampling tiles (whole
rows, ``haar.tile_rows``) on the package's worker threads, by one reducer for
both sources of unitaries: ``build_random_channel`` samples each block's own
tiles (``sample_haar_unitaries`` from the block's first row), so no
``(N, d, d)`` stack is ever allocated, and ``channel_from_unitaries`` reads the
blocks of a given stack. Each block runs the tiled unitarity check
(``haar.unitarity_defect``) and its real product ``x.T @ x`` over the block
viewed as ``(rows, 2 d^2)`` interleaved (Re, Im) reals, a symmetric rank-k
update with no copy, on its own thread. The partials are summed in block order
as the map yields them, and the map runs at most one block more than it has
threads ahead of the sum. Block boundaries depend only on d and N, so C is bit
for bit the same for every thread count and for both sources. The constructor
validates C on every path, fresh or loaded: shape d^2 x d^2, finite, within
``TOL.hermiticity`` of Hermitian, positive semidefinite, and both partial
traces the identity (R preserves the trace and is unital), all that any bound
uses; it does not prove that C is a mixture of unitaries, which at d >= 3 a
unital channel need not be. It then stores the Hermitian part (C + C†)/2, which
is C bit for bit when C is exactly Hermitian, as a built C is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, InvalidDimension, InvalidMatrix, NumericalFailure,
                     require_positive_int)
from .haar import (as_stream, complex_standard_normal, sample_haar_unitaries, tile_rows,
                   unitarity_defect)
from .linalg import TOL, hermitian_transfer, max_abs, require_finite
from .workers import map_tiles

# Sampling tiles per Gram block: 2^18 stack entries at d = 1, 2, 4, 8 and 16
# (1024 unitaries, 4 MB, at d = 16). One block is live per worker thread, so
# the block size sets the build's working set; a 16000-unitary stack at d = 16
# gives the worker threads sixteen. Each block's partial product is (2 d^2)^2
# reals (2 MB at d = 16). Not 8 tiles: the symmetric rank-k update x.T @ x
# costs 15-20% more BLAS time per row over 512 rows than over 1024 or 2048.
_GRAM_BLOCK_TILES = 16


def random_pure_states(d: int, count: int, rng) -> np.ndarray:
    """Batch of uniform (Haar) pure states, shape ``(count, d)``: complex Gaussian rows, normalized.

    ``rng`` is an RngStream, an int seed, or a ``Generator`` that a loop
    draws batch after batch from. Row k depends only on the draws before it,
    so ``count`` states from one generator equal ``count`` successive
    single-state calls on it, bit for bit.
    """
    d, count = require_positive_int(d, "dimension"), require_positive_int(count, "count")
    gen = rng if isinstance(rng, np.random.Generator) else as_stream(rng).generator()
    vecs = complex_standard_normal(gen, (count, d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    vecs /= norms
    return vecs


@dataclass(frozen=True, eq=False)
class RandomUnitaryChannel:
    """A channel given by its matrix C = (1/N) sum_i vec(U_i) vec(U_i)†, shape ``(d^2, d^2)``.

    ``gram`` is C, validated and stored read-only as its exactly Hermitian
    part; ``transfer`` is the real matrix T[a, b] = tr(B_a R(B_b)) of R on
    Hermitian inputs, in the orthonormal Hermitian basis of ``linalg``, also
    read-only. ``provenance`` records where C came from and must hold
    ``count``, the number N of unitaries. Build a channel from a unitary stack
    with ``channel_from_unitaries``. Equality is identity.
    """

    gram: np.ndarray
    provenance: dict = field(default_factory=dict)
    transfer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = require_finite(np.array(self.gram, dtype=complex), "channel matrix C")
        d = math.isqrt(c.shape[0]) if c.ndim == 2 else 0
        if d < 1 or c.shape != (d * d, d * d):
            raise InvalidDimension(f"channel matrix C must be d^2 x d^2, got shape {c.shape}")
        require_positive_int(self.provenance.get("count"), "provenance count N")
        drift = max_abs(c - np.conj(c.T))
        if drift > TOL.hermiticity:
            raise InvalidMatrix(f"matrix is not Hermitian: max|H - H^dag| = {drift:.3e} "
                                f"> {TOL.hermiticity:.1e}")
        # (C + C†)/2 is exactly Hermitian; C - (C - C†)/2 is not where C[i, j] ~ -conj(C[j, i])
        c += np.conj(c.T)
        c *= 0.5
        try:
            lowest = np.linalg.eigvalsh(c)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
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
        transfer = hermitian_transfer(c)
        transfer.setflags(write=False)
        object.__setattr__(self, "transfer", transfer)

    @property
    def dim(self) -> int:
        return math.isqrt(self.gram.shape[0])

    @property
    def count(self) -> int:
        return int(self.provenance["count"])


def _fold_channel(d: int, n: int, block, provenance: dict) -> RandomUnitaryChannel:
    """The channel of ``n`` unitaries on U(d); ``block(start, rows)`` gives ``start:start + rows``.

    Blocks hold ``_GRAM_BLOCK_TILES`` sampling tiles and are folded on the
    worker threads; a non-finite entry or max|U†U - I| above
    ``TOL.unitarity`` in any block raises InvalidMatrix.
    """

    def fold(rows):
        u = block(rows.start, min(rows.stop, n) - rows.start)
        # gram[(i, j), (k, l)] = sum_n U_n[i, j] conj(U_n[k, l]).
        # x interleaves (Re, Im) columns, so g = x^T x holds every real cross product.
        x = u.reshape(len(u), d * d).view(np.float64)
        return unitarity_defect(u), x.T @ x

    blocks = map_tiles(fold, n, _GRAM_BLOCK_TILES * tile_rows(d))
    defect, g = next(blocks)
    for block_defect, partial in blocks:
        defect = np.maximum(defect, block_defect)  # keeps a NaN
        g += partial
    if not defect <= TOL.unitarity:  # a non-finite entry makes the defect NaN
        raise InvalidMatrix(f"stack contains a non-unitary matrix: max|U†U - I| = {defect:.3e}")
    # C replaces the real product before the constructor's temporaries are made
    g = (g[0::2, 0::2] + g[1::2, 1::2]) + 1j * (g[1::2, 0::2] - g[0::2, 1::2])
    g /= n
    return RandomUnitaryChannel(g, {**provenance, "dim": d, "count": n})


def channel_from_unitaries(unitaries: np.ndarray, provenance: dict | None = None
                           ) -> RandomUnitaryChannel:
    """The channel of a stack ``(N, d, d)`` of unitaries; the stack is read, never kept.

    A strided stack is copied one Gram block at a time, a contiguous one not
    at all. A non-finite entry or max|U†U - I| above ``TOL.unitarity`` raises
    InvalidMatrix.
    """
    u = np.asarray(unitaries, dtype=complex)
    if u.ndim != 3 or u.shape[1] != u.shape[2] or u.shape[0] < 1 or u.shape[1] < 1:
        raise InvalidDimension(f"expected a nonempty stack (N, d, d), got shape {u.shape}")
    return _fold_channel(u.shape[1], u.shape[0],
                         lambda start, rows: np.ascontiguousarray(u[start:start + rows]),
                         provenance or {})


def build_random_channel(d: int, n: int, seed) -> RandomUnitaryChannel:
    """Channel from ``n`` independent Haar unitaries on U(d), reproducible per stream or int seed.

    Each Gram block samples only its own rows, so the stack is never held:
    C equals ``channel_from_unitaries(sample_haar_unitaries(d, n, seed)).gram``
    bit for bit.
    """
    d, n = require_positive_int(d, "dimension"), require_positive_int(n, "count")
    stream = as_stream(seed)

    def block(start, rows):
        return sample_haar_unitaries(d, rows, stream, first=start)

    return _fold_channel(d, n, block, {"kind": "haar", "seed": stream.seed,
                                       "stream_id": stream.stream_id})


def build_weyl_channel(d: int) -> RandomUnitaryChannel:
    """The d^2 discrete Weyl operators X^j Z^k; conjugating by all of them is exactly randomizing.

    X is the cyclic shift, Z = diag(1, w, ..., w^{d-1}) with w = exp(2 pi i / d).
    Global phases are not normalized; they cancel under conjugation.
    """
    d = require_positive_int(d, "dimension")
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


def pair_statistic(ch: RandomUnitaryChannel, phi: np.ndarray, psi: np.ndarray) -> float:
    """(1/N) sum_i |<psi|U_i|phi>|^2 = tr(R(|phi><phi|) |psi><psi|), as x†Cx.

    Here x = psi ⊗ conj(phi), and the form is one d^2 x d^2 matrix-vector
    product, whatever N is. Certificates report their values through it at the
    witness pair, so a value can be checked again from the pair and the
    channel alone.
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape:
        raise DimensionMismatch(f"state shapes differ: {phi.shape} vs {psi.shape}")
    if phi.shape[0] != ch.dim:
        raise DimensionMismatch(f"channel acts on C^{ch.dim}, states live in C^{phi.shape[0]}")
    x = np.outer(psi, np.conj(phi)).reshape(-1)
    return float(np.vdot(x, ch.gram @ x).real)
