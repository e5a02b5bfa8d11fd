import numpy as np
import pytest

import randomizer.haar
from conftest import (basis_coordinates, hermitian_basis, projector, random_hermitian,
                      random_unit_vector, stream, trace_norm)
from randomizer import (
    InvalidMatrix,
    NumericalFailure,
    RandomUnitaryChannel,
    channel_from_unitaries,
    sample_haar_unitaries,
)
from randomizer.certify import _extreme_eigvecs
from randomizer.linalg import hermitian_coordinates, hermitian_matrix, qr_positive_stacked


def operator_norm(h):
    """Oracle: numpy's matrix 2-norm."""
    return float(np.linalg.norm(h, 2))


def test_pauli_x_eigensystem():
    # by hand: characteristic polynomial lambda^2 - 1, eigenvectors (1, +-1)/sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    # +-1 tie exactly in magnitude: the extreme eigenpair takes the positive branch
    (value,), (vector,) = _extreme_eigvecs(x[None])
    plus = np.array([1, 1]) / np.sqrt(2)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert abs(abs(np.vdot(plus, vector)) - 1.0) < 1e-12


def test_eigensystem_deterministic():
    h = random_hermitian(6, stream(3))
    first, second = _extreme_eigvecs(h[None]), _extreme_eigvecs(h[None])
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


def test_trace_norm_examples():
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert trace_norm(proj) == pytest.approx(1.0, abs=1e-14)
    assert trace_norm(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.diag([1.0, -2.0]).astype(complex)) == pytest.approx(3.0, abs=1e-14)


def test_trace_norm_dominates_operator_norm():
    gen = stream(11)
    for d in (2, 3, 5, 8):
        h = random_hermitian(d, gen.child(d))
        assert trace_norm(h) >= operator_norm(h) - 1e-12


def test_norm_equality_iff_rank_one():
    v = random_unit_vector(5, stream(12))
    rank1 = 1.7 * np.outer(v, np.conj(v))
    assert trace_norm(rank1) == pytest.approx(operator_norm(rank1), abs=1e-10)
    w = random_unit_vector(5, stream(13))
    w = w - np.vdot(v, w) * v
    w = w / np.linalg.norm(w)
    rank2 = np.outer(v, np.conj(v)) + 0.5 * np.outer(w, np.conj(w))
    assert trace_norm(rank2) > operator_norm(rank2) + 0.4


@pytest.mark.parametrize("d", [2, 5, 11, 16])
def test_reconstruction_random_hermitian(d):
    gen = stream(20, d)
    for trial in range(50):
        h = random_hermitian(d, gen.child(trial), scale=1.0 + trial % 3)
        values, vectors = np.linalg.eigh(h)
        recon = (vectors * values) @ np.conj(vectors.T)
        scale = max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(h - recon)) <= 1e-10 * scale
        # the ascent's extreme eigenpair: largest magnitude, and an eigenpair of h
        (value,), (vector,) = _extreme_eigvecs(h[None])
        assert abs(value) == pytest.approx(operator_norm(h), abs=1e-12 * scale)
        assert np.max(np.abs(h @ vector - value * vector)) <= 1e-10 * scale


def test_unitary_invariance_of_spectrum():
    h = random_hermitian(6, stream(30))
    w = sample_haar_unitaries(6, 1, stream(31))[0]
    rotated = w @ h @ np.conj(w.T)
    lam = np.linalg.eigvalsh(h)
    lam_rot = np.linalg.eigvalsh((rotated + np.conj(rotated.T)) / 2)
    assert np.max(np.abs(lam - lam_rot)) <= 1e-9
    assert trace_norm(h) == pytest.approx(trace_norm(rotated), abs=1e-9)
    assert operator_norm(h) == pytest.approx(operator_norm(rotated), abs=1e-9)


def test_qr_identity_and_positive_diagonal():
    for m in (np.eye(4, dtype=complex), np.diag([2.0, 3.0]).astype(complex)):
        q, degenerate = qr_positive_stacked(m)
        assert np.allclose(q, np.eye(m.shape[0]))
        assert not degenerate


def test_qr_fixes_unitaries():
    # positive-diagonal QR is unique, so a unitary input returns itself
    us = sample_haar_unitaries(5, 5, stream(40))
    q, degenerate = qr_positive_stacked(us)
    assert np.max(np.abs(q - us)) <= 1e-9
    assert not np.any(degenerate)


def test_qr_residual_and_unitarity():
    gen = stream(41).generator()
    for d in (2, 4, 9):
        m = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
        q, _ = qr_positive_stacked(m)
        assert np.max(np.abs(np.conj(q.T) @ q - np.eye(d))) <= 1e-10
        r = np.conj(q.T) @ m
        diag = np.diagonal(r)
        assert np.all(diag.real > 0)
        assert np.max(np.abs(diag.imag)) <= 1e-10 * np.max(np.abs(m))


def test_qr_rank_deficient_raises(monkeypatch):
    singular = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    _, degenerate = qr_positive_stacked(singular)
    assert degenerate

    def singular_draw(gen, shape=None, out=None):
        out[...] = singular
        return out

    # the sampler redraws a tile holding a flagged matrix and gives up on persistent degeneracy
    monkeypatch.setattr(randomizer.haar, "complex_standard_normal", singular_draw)
    for threads in ("1", "2"):
        monkeypatch.setenv("RANDOMIZER_THREADS", threads)
        with pytest.raises(NumericalFailure):
            sample_haar_unitaries(2, 3 * randomizer.haar._TILE_ENTRIES // 4 + 1, stream(42))


def test_non_finite_rejected():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(InvalidMatrix, match="non-finite"):
        RandomUnitaryChannel(np.kron(bad, bad), {"count": 1})
    with pytest.raises(InvalidMatrix):
        channel_from_unitaries(bad[None, :, :])


def test_non_hermitian_rejected():
    # the identity channel's C plus a skew-Hermitian perturbation far above TOL.hermiticity
    c = np.outer(np.eye(2).reshape(-1), np.eye(2).reshape(-1)).astype(complex)
    c[0, 1], c[1, 0] = 1e-6, -1e-6
    with pytest.raises(InvalidMatrix, match="not Hermitian"):
        RandomUnitaryChannel(c, {"count": 1})


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_hermitian_matrix_inverts_the_coordinates(d):
    gen = stream(150, d)
    stack = np.stack([random_hermitian(d, gen.child(k)) for k in range(6)]).reshape(2, 3, d, d)
    coords = basis_coordinates(stack)  # tr(B_a H) in an explicit basis
    assert coords.shape == (2, 3, d * d) and coords.dtype == np.float64
    back = hermitian_matrix(coords)
    assert back.shape == stack.shape
    assert np.max(np.abs(back - stack)) <= 1e-15
    assert np.array_equal(back, np.conj(np.swapaxes(back, -2, -1)))  # exactly Hermitian
    # the basis is orthonormal: coordinates keep the Hilbert-Schmidt inner product
    gram = np.einsum("...ij,...ij->...", stack, np.conj(stack)).real
    assert np.max(np.abs(np.sum(coords ** 2, axis=-1) - gram)) <= 1e-12
    basis = hermitian_basis(d)
    assert np.max(np.abs(np.einsum("aij,bji->ab", basis, basis) - np.eye(d * d))) <= 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_matrix_coordinates_read_the_hermitian_part(d):
    gen = stream(151, d).generator()
    a = gen.standard_normal((4, d, d)) + 1j * gen.standard_normal((4, d, d))
    part = (a + np.conj(np.swapaxes(a, -2, -1))) / 2.0
    assert np.max(np.abs(hermitian_matrix(basis_coordinates(a)) - part)) <= 1e-15
    # on projectors they are the coordinates of the states themselves, and the round trip
    # through hermitian_matrix gives the projectors back
    states = a[:, 0] / np.linalg.norm(a[:, 0], axis=1, keepdims=True)
    feats = hermitian_coordinates(states)
    assert np.max(np.abs(basis_coordinates(projector(states)) - feats)) <= 1e-15
    assert np.max(np.abs(hermitian_matrix(feats) - projector(states))) <= 1e-15
