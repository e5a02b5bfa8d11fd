import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, stream
from randomizer import (
    DimensionMismatch,
    InvalidDimension,
    InvalidMatrix,
    InvalidParameter,
    RandomUnitaryChannel,
    RngStream,
    apply_adjoint,
    apply_channel,
    build_random_channel,
    build_weyl_channel,
    channel_from_unitaries,
    deviation,
    maximally_mixed,
    operator_norm,
    pair_statistic,
    pure_projector,
    random_pure_state,
    sample_haar_unitaries,
)
from randomizer import channel, haar


def haar_stack(d, n, seed):
    """Oracle stack: the unitaries build_random_channel(d, n, RngStream(seed)) samples."""
    return sample_haar_unitaries(d, n, RngStream(seed))


def stack_gram(unitaries):
    """Oracle C: (1/N) sum_n vec(U_n) vec(U_n)† as a sum of outer products."""
    vecs = [u.reshape(-1) for u in unitaries]
    return sum(np.outer(v, np.conj(v)) for v in vecs) / len(vecs)


def naive_apply(unitaries, rho):
    """Independent oracle: direct sum of conjugations, plain matrix products."""
    total = np.zeros_like(rho)
    for u in unitaries:
        total = total + u @ rho @ np.conj(u.T)
    return total / len(unitaries)


def naive_adjoint(unitaries, sigma):
    """Independent oracle for the adjoint: direct sum of U† sigma U."""
    total = np.zeros_like(sigma)
    for u in unitaries:
        total = total + np.conj(u.T) @ sigma @ u
    return total / len(unitaries)


def basis_state(d, k=0):
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    return e


def test_build_reproducible():
    a = build_random_channel(2, 3, RngStream(5))
    b = build_random_channel(2, 3, RngStream(5))
    assert np.array_equal(a.gram, b.gram)
    assert np.array_equal(a.superoperator, b.superoperator)
    assert a.provenance["seed"] == 5


@pytest.mark.parametrize("d, n", [(1, 5), (2, 40), (3, 17), (16, 30)])
def test_superoperator_matches_kron_sum(d, n):
    ch = build_random_channel(d, n, RngStream(60 + d))
    us = haar_stack(d, n, 60 + d)
    want = sum(np.kron(u, np.conj(u)) for u in us) / n
    assert np.max(np.abs(ch.superoperator - want)) <= 1e-14
    assert np.max(np.abs(ch.gram - stack_gram(us))) <= 1e-14
    # regrouped to [(i, j), (k, l)], S is C, the Gram matrix of the vec(U_n): exactly Hermitian
    gram = ch.superoperator.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    assert np.array_equal(gram, ch.gram)
    assert np.array_equal(gram, np.conj(gram.T))


@pytest.mark.parametrize("d", [1, 2, 16])
def test_channel_does_not_depend_on_thread_count(d, monkeypatch):
    per_tile = haar._TILE_ENTRIES // (d * d)
    for n in (min(7, per_tile), 3 * per_tile, 2 * per_tile + 7):
        channels = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANDOMIZER_THREADS", threads)
            channels.append(build_random_channel(d, n, RngStream(80 + d)))
        for ch in channels[1:]:
            assert np.array_equal(ch.gram, channels[0].gram)
            assert np.array_equal(ch.superoperator, channels[0].superoperator)


@pytest.mark.parametrize("d", [3, 16])
def test_gram_blocks_do_not_depend_on_thread_count(d, monkeypatch):
    per_block = channel._GRAM_BLOCK_ENTRIES // (d * d)
    us = haar_stack(d, 3 * per_block + 5, 90 + d)  # three full Gram blocks and a partial one
    grams = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("RANDOMIZER_THREADS", threads)
        grams.append(channel_from_unitaries(us).gram)
    assert all(np.array_equal(g, grams[0]) for g in grams[1:])
    x = us.reshape(len(us), d * d)
    assert np.max(np.abs(grams[0] - x.T @ np.conj(x) / len(us))) <= 1e-14  # one unblocked product
    # the unitarity check still covers the last, partial block
    for planted in (1.001, np.nan):
        bad = us.copy()
        bad[-1, 0, 0] *= planted
        with pytest.raises(InvalidMatrix, match="non-unitary"):
            channel_from_unitaries(bad)


def test_peak_memory_is_the_stack(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    d, n = 16, 4096
    stack_bytes = n * d * d * 16
    build_random_channel(d, 8, RngStream(1))  # warm every code path outside the trace
    peaks = {}
    tracemalloc.start()
    try:
        for fn in (sample_haar_unitaries, build_random_channel):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(d, n, RngStream(2))
            peaks[fn.__name__] = (tracemalloc.get_traced_memory()[1] - before) / stack_bytes
            del result
    finally:
        tracemalloc.stop()
    # no whole-stack uniform, Ginibre or second stack array lives next to the result
    assert peaks["sample_haar_unitaries"] <= 1.25, peaks
    assert peaks["build_random_channel"] <= 1.6, peaks


def test_build_dim_one():
    # every U(1) element is a phase, so C = mean |u|^2 = 1
    ch = build_random_channel(1, 5, RngStream(6))
    assert ch.count == 5
    assert np.allclose(ch.gram, [[1.0]], atol=1e-12)


def test_build_contract_and_errors():
    ch = build_random_channel(4, 16, RngStream(7))
    from randomizer import unitarity_defect
    assert unitarity_defect(haar_stack(4, 16, 7)) <= 1e-10
    assert ch.dim == 4 and ch.count == 16 and ch.gram.shape == (16, 16)
    assert ch.provenance == {"kind": "haar", "seed": 7, "stream_id": 0, "dim": 4, "count": 16}
    assert not ch.gram.flags.writeable and not ch.superoperator.flags.writeable
    with pytest.raises(InvalidDimension):
        build_random_channel(0, 3, RngStream(0))
    with pytest.raises(InvalidDimension):
        build_random_channel(3, 0, RngStream(0))


def test_weyl_dim_one_and_two():
    w1 = build_weyl_channel(1)
    assert w1.count == 1
    assert np.allclose(w1.gram, [[1.0]])

    w2 = build_weyl_channel(2)
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    expected = [eye, z, x, x @ z]
    assert w2.count == 4
    assert np.max(np.abs(w2.gram - stack_gram(expected))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_randomizes_exactly(d):
    w = build_weyl_channel(d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = [np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
           for j in range(d) for k in range(d)]
    assert np.max(np.abs(w.gram - stack_gram(ops))) <= 1e-12
    out = naive_apply(ops, pure_projector(basis_state(d)))
    assert np.max(np.abs(out - np.eye(d) / d)) <= 1e-12
    out2 = apply_channel(w, random_density(d, stream(50, d)))
    assert np.max(np.abs(out2 - np.eye(d) / d)) <= 1e-12
    # the whole channel is the trace-and-replace map: S = |I>><<I| / d
    vec_eye = np.eye(d).reshape(-1)
    assert np.max(np.abs(w.superoperator - np.outer(vec_eye, vec_eye) / d)) <= 1e-12


def test_apply_identity_channel():
    ch = channel_from_unitaries(np.eye(3, dtype=complex)[None, :, :])
    rho = random_density(3, stream(51))
    assert np.max(np.abs(apply_channel(ch, rho) - rho)) <= 1e-14
    assert np.max(np.abs(apply_adjoint(ch, rho) - rho)) <= 1e-14


def test_apply_matches_naive_oracle():
    ch = build_random_channel(4, 7, RngStream(52))
    rho = random_density(4, stream(53))
    assert np.max(np.abs(apply_channel(ch, rho) - naive_apply(haar_stack(4, 7, 52), rho))) <= 1e-13


def test_apply_adjoint_matches_naive_oracle():
    ch = build_random_channel(4, 7, RngStream(78))
    sigma = random_density(4, stream(79))
    want = naive_adjoint(haar_stack(4, 7, 78), sigma)
    assert np.max(np.abs(apply_adjoint(ch, sigma) - want)) <= 1e-13


def test_apply_preserves_trace_and_positivity():
    gen = stream(54)
    for trial in range(1000):
        d = 2 + trial % 7  # dimensions 2..8
        ch = build_random_channel(d, 3, gen.child(trial, 0))
        rho = random_density(d, gen.child(trial, 1), rank=1 + trial % d)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-11
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_adjoint_duality():
    ch = build_random_channel(3, 5, RngStream(55))
    for trial in range(20):
        rho = random_density(3, stream(56, trial))
        sigma = random_density(3, stream(57, trial))
        lhs = np.trace(apply_channel(ch, rho) @ sigma).real
        rhs = np.trace(rho @ apply_adjoint(ch, sigma)).real
        assert abs(lhs - rhs) <= 1e-11


def test_pair_statistic_trivia():
    ch = channel_from_unitaries(np.eye(2, dtype=complex)[None, :, :])
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    assert pair_statistic(ch, e0, e0) == pytest.approx(1.0, abs=1e-15)
    assert pair_statistic(ch, e0, e1) == pytest.approx(0.0, abs=1e-15)


def test_pair_statistic_weyl_is_flat():
    w = build_weyl_channel(2)
    for trial in range(10):
        phi = random_pure_state(2, stream(58, trial))
        psi = random_pure_state(2, stream(59, trial))
        assert abs(pair_statistic(w, phi, psi) - 0.5) <= 1e-12


def test_pair_statistic_equals_trace_path():
    ch = build_random_channel(4, 6, RngStream(60))
    for trial in range(50):
        phi = random_pure_state(4, stream(61, trial))
        psi = random_pure_state(4, stream(62, trial))
        via_trace = np.trace(apply_channel(ch, pure_projector(phi)) @ pure_projector(psi)).real
        assert abs(pair_statistic(ch, phi, psi) - via_trace) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 16]), n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_pair_statistic_matches_stack_oracle(d, n, seed):
    # x†Cx with x = psi ⊗ conj(phi) against the mean of |<psi|U_i|phi>|^2 over the stack
    ch = build_random_channel(d, n, RngStream(seed))
    us = haar_stack(d, n, seed)
    for trial in range(3):
        phi = random_pure_state(d, stream(seed, 1, trial))
        psi = random_pure_state(d, stream(seed, 2, trial))
        want = float(np.mean(np.abs((us @ phi) @ np.conj(psi)) ** 2))
        assert abs(pair_statistic(ch, phi, psi) - want) <= 1e-13


def test_channel_matrix_contract():
    ch = build_random_channel(3, 5, RngStream(81))
    c = np.array(ch.gram)
    again = RandomUnitaryChannel(c, ch.provenance)
    assert np.array_equal(again.superoperator, ch.superoperator)
    c[0, 0] = 7.0  # the channel keeps its own validated copy of C
    assert np.array_equal(again.gram, ch.gram)
    for provenance in ({}, {"count": 0}, {"count": "5"}):
        with pytest.raises(InvalidParameter):
            RandomUnitaryChannel(ch.gram, provenance)
    for bad in (np.ones(9), np.ones((9, 8)), np.eye(8)):  # C must be d^2 x d^2
        with pytest.raises(InvalidDimension):
            RandomUnitaryChannel(bad, {"count": 1})
    with pytest.raises(InvalidMatrix):
        channel_from_unitaries(np.ones((2, 2, 2)))


def test_pure_output_matches_apply():
    # on a pure input R(|phi><phi|) is (1/N) sum_i |U_i phi><U_i phi|
    ch = build_random_channel(5, 4, RngStream(63))
    phi = random_pure_state(5, stream(64))
    w = haar_stack(5, 4, 63) @ phi
    via_vectors = w.T @ np.conj(w) / ch.count
    assert np.max(np.abs(via_vectors - apply_channel(ch, pure_projector(phi)))) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_deviation_vanishes(d):
    w = build_weyl_channel(d)
    for trial in range(10):
        assert deviation(w, random_pure_state(d, stream(65, d, trial))) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 6])
def test_single_unitary_deviation(d):
    # R(phi) stays pure, so the spectrum of R(phi) - I/d is {1 - 1/d, -1/d, ...}
    ch = build_random_channel(d, 1, RngStream(66 + d))
    phi = random_pure_state(d, stream(67, d))
    assert abs(deviation(ch, phi) - (1.0 - 1.0 / d)) <= 1e-12


def test_deviation_dim_one():
    ch = build_random_channel(1, 3, RngStream(68))
    assert deviation(ch, np.array([1.0 + 0j])) <= 1e-15


def test_variational_identity():
    # sup over psi of |statistic - 1/d| is the extreme eigenvalue magnitude
    ch = build_random_channel(3, 8, RngStream(69))
    phi = random_pure_state(3, stream(70))
    dev = deviation(ch, phi)
    values, vectors = np.linalg.eigh(apply_channel(ch, pure_projector(phi)) - maximally_mixed(3))
    psi_star = vectors[:, int(np.argmax(np.abs(values)))]
    assert abs(abs(pair_statistic(ch, phi, psi_star) - 1.0 / 3.0) - dev) <= 1e-9
    for trial in range(100):
        psi = random_pure_state(3, stream(71, trial))
        assert abs(pair_statistic(ch, phi, psi) - 1.0 / 3.0) <= dev + 1e-9


def test_convexity_restriction():
    # channel deviation on mixed states never beats the worst eigenvector
    ch = build_random_channel(3, 5, RngStream(72))
    eye = maximally_mixed(3)
    for trial in range(200):
        rho = random_density(3, stream(73, trial))
        mixed_dev = operator_norm(apply_channel(ch, rho) - eye)
        _, vectors = np.linalg.eigh(rho)
        pure_best = max(deviation(ch, vectors[:, k]) for k in range(3))
        assert mixed_dev <= pure_best + 1e-9


def test_haar_one_design():
    # E over single-unitary channels of the statistic is 1/d
    d, m = 4, 10_000
    us = sample_haar_unitaries(d, m, RngStream(74))
    phi = random_pure_state(d, stream(75))
    psi = random_pure_state(d, stream(76))
    amps = np.einsum("nij,j,i->n", us, phi, np.conj(psi), optimize=True)
    values = np.abs(amps) ** 2
    sigma = float(np.std(values))
    assert abs(float(np.mean(values)) - 1.0 / d) <= 3.0 * sigma / np.sqrt(m)
    # spot-check the batch against the per-channel statistic path
    for k in range(25):
        ch = channel_from_unitaries(us[k:k + 1])
        assert abs(pair_statistic(ch, phi, psi) - values[k]) <= 1e-13


def test_dimension_mismatch():
    ch = build_random_channel(3, 2, RngStream(77))
    with pytest.raises(DimensionMismatch):
        apply_channel(ch, np.eye(2, dtype=complex) / 2)
    with pytest.raises(DimensionMismatch):
        apply_adjoint(ch, np.ones(3, dtype=complex))
    with pytest.raises(DimensionMismatch):
        pair_statistic(ch, basis_state(3), basis_state(2))
    with pytest.raises(DimensionMismatch):
        deviation(ch, basis_state(4))


def test_channel_equality_is_identity():
    a = build_random_channel(2, 3, RngStream(5))
    b = build_random_channel(2, 3, RngStream(5))
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2
