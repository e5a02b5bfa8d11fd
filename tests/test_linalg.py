import numpy as np
import pytest

import randomizer.haar
from conftest import random_hermitian, random_unit_vector, stream, trace_norm
from randomizer import (
    InvalidMatrix,
    NumericalFailure,
    channel_from_unitaries,
    operator_norm,
    sample_haar_unitaries,
)
from randomizer.certify import _extreme_eigvec
from randomizer.linalg import hermitian_eigenvalues, qr_positive_stacked


def test_identity_eigensystem():
    assert np.allclose(hermitian_eigenvalues(np.eye(3, dtype=complex)), [1.0, 1.0, 1.0])


def test_diagonal_eigensystem_sorted_descending():
    assert hermitian_eigenvalues(np.diag([3.0, -1.0]).astype(complex)).tolist() == [3.0, -1.0]


def test_pauli_x_eigensystem():
    # by hand: characteristic polynomial lambda^2 - 1, eigenvectors (1, +-1)/sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(x), [1.0, -1.0], atol=1e-12)
    # +-1 tie exactly in magnitude: the extreme eigenpair takes the positive branch
    value, vector = _extreme_eigvec(x)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert abs(abs(np.vdot(plus, vector)) - 1.0) < 1e-12


def test_eigensystem_deterministic():
    h = random_hermitian(6, stream(3))
    assert np.array_equal(hermitian_eigenvalues(h), hermitian_eigenvalues(h))
    first, second = _extreme_eigvec(h), _extreme_eigvec(h)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    assert operator_norm(pauli_z) == pytest.approx(1.0, abs=1e-14)
    proj_minus_half = np.diag([0.5, -0.5]).astype(complex)
    assert operator_norm(proj_minus_half) == pytest.approx(0.5, abs=1e-14)


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
        scale = max(1.0, operator_norm(h))
        assert np.max(np.abs(h - recon)) <= 1e-10 * scale
        descending = hermitian_eigenvalues(h)
        assert np.all(np.diff(descending) <= 1e-12)
        assert np.max(np.abs(descending - values[::-1])) <= 1e-12 * scale


def test_unitary_invariance_of_spectrum():
    h = random_hermitian(6, stream(30))
    w = sample_haar_unitaries(6, 1, stream(31))[0]
    rotated = w @ h @ np.conj(w.T)
    lam = hermitian_eigenvalues(h)
    lam_rot = hermitian_eigenvalues((rotated + np.conj(rotated.T)) / 2)
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

    def singular_draw(stream, radius_at, phase_at, out):
        out.reshape(-1, 2, 2)[:] = singular

    # the batched sampler redraws flagged matrices and gives up on persistent degeneracy
    monkeypatch.setattr(randomizer.haar, "_ginibre_at", singular_draw)
    with pytest.raises(NumericalFailure):
        sample_haar_unitaries(2, 3, stream(42))


def test_non_finite_rejected():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(InvalidMatrix):
        operator_norm(bad)
    with pytest.raises(InvalidMatrix):
        channel_from_unitaries(bad[None, :, :])


def test_non_hermitian_rejected():
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)
    with pytest.raises(InvalidMatrix):
        operator_norm(skew)
