import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (basis_coordinates, channel_image, output_deviation, projector,
                      random_density, stream, superoperator)
from randomizer import (
    DimensionMismatch,
    InvalidDimension,
    InvalidMatrix,
    InvalidParameter,
    RandomUnitaryChannel,
    RngStream,
    build_random_channel,
    build_weyl_channel,
    channel_from_unitaries,
    pair_statistic,
    random_pure_states,
    sample_haar_unitaries,
)
from randomizer import channel, haar
from randomizer.certify import _half_step
from randomizer.linalg import TOL, hermitian_coordinates, hermitian_matrix


def haar_stack(d, n, seed):
    """Oracle stack: the unitaries build_random_channel(d, n, RngStream(seed)) samples."""
    return sample_haar_unitaries(d, n, RngStream(seed))


def stack_gram(unitaries):
    """Oracle C: (1/N) sum_n vec(U_n) vec(U_n)† as a sum of outer products."""
    vecs = [u.reshape(-1) for u in unitaries]
    return sum(np.outer(v, np.conj(v)) for v in vecs) / len(vecs)


def transfer_image(ch, rho, adjoint=False):
    """R(rho), or R†(rho), for the Hermitian part of ``rho``: T (or T^T) on its oracle coordinates."""
    t = ch.transfer.T if adjoint else ch.transfer
    return hermitian_matrix(basis_coordinates(rho) @ t.T)


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
    assert np.array_equal(superoperator(a), superoperator(b))
    assert a.provenance["seed"] == 5


@pytest.mark.parametrize("d, n", [(1, 5), (2, 40), (3, 17), (16, 30)])
def test_superoperator_matches_kron_sum(d, n):
    ch = build_random_channel(d, n, RngStream(60 + d))
    us = haar_stack(d, n, 60 + d)
    want = sum(np.kron(u, np.conj(u)) for u in us) / n
    assert np.max(np.abs(superoperator(ch) - want)) <= 1e-14
    assert np.max(np.abs(ch.gram - stack_gram(us))) <= 1e-14
    # regrouped to [(i, j), (k, l)], S is C, the Gram matrix of the vec(U_n): exactly Hermitian
    gram = superoperator(ch).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
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
            assert np.array_equal(superoperator(ch), superoperator(channels[0]))


@pytest.mark.parametrize("d", [3, 16])
def test_gram_blocks_do_not_depend_on_thread_count(d, monkeypatch):
    per_block = channel._GRAM_BLOCK_TILES * haar.tile_rows(d)
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


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_sampled_blocks_fold_to_the_stack_channel(d, monkeypatch):
    # three full Gram blocks and a partial one, each sampled on its own from its first row
    n = 3 * channel._GRAM_BLOCK_TILES * haar.tile_rows(d) + 5
    want = channel_from_unitaries(haar_stack(d, n, 40 + d)).gram
    for threads in ("1", "2", "3") if d in (3, 16) else ("2",):
        monkeypatch.setenv("RANDOMIZER_THREADS", threads)
        assert np.array_equal(build_random_channel(d, n, RngStream(40 + d)).gram, want), threads


def traced_peak(fn, *args):
    """Peak traced bytes allocated by ``fn(*args)`` beyond what was live before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, result


def test_peak_memory_is_the_stack(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    d, n = 16, 4096
    stack_bytes = n * d * d * 16
    build_random_channel(d, 8, RngStream(1))  # warm every code path outside the trace
    peaks = {fn.__name__: traced_peak(fn, d, n, RngStream(2))[0] / stack_bytes
             for fn in (sample_haar_unitaries, build_random_channel)}
    # no whole-stack uniform, Ginibre or second stack array lives next to the result
    assert peaks["sample_haar_unitaries"] <= 1.25, peaks
    assert peaks["build_random_channel"] <= 1.1, peaks


def test_channel_build_never_holds_the_stack(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    d, n = 16, 16000
    stack_bytes = n * d * d * 16
    build_random_channel(d, 8, RngStream(1))  # warm every code path outside the trace
    peak = traced_peak(build_random_channel, d, n, RngStream(2))[0] / stack_bytes
    # two 4 MB block buffers with their QR temporaries, the 2 MB partials and C: about 0.27x;
    # the stack alone would be 1x
    assert peak <= 0.32, peak


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gram_partials_are_summed_as_they_arrive(threads, monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", threads)
    d, n = 16, 4096
    stack_bytes = n * d * d * 16
    monkeypatch.setattr(channel, "_GRAM_BLOCK_TILES", 4)  # 16 blocks of 4 tiles
    build_random_channel(d, 8, RngStream(1))  # warm every code path outside the trace
    peak, ch = traced_peak(build_random_channel, d, n, RngStream(2))
    # each 2 MB partial is 1/8 of the stack: holding all 16 of them until the end gives 2.06x
    assert peak / stack_bytes <= 2.0, peak / stack_bytes
    monkeypatch.setattr(channel, "_GRAM_BLOCK_TILES", 32)  # two blocks
    assert np.max(np.abs(ch.gram - build_random_channel(d, n, RngStream(2)).gram)) <= 1e-14


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
    assert not ch.gram.flags.writeable and not ch.transfer.flags.writeable
    # C and T are the only arrays a channel holds
    assert [f.name for f in dataclasses.fields(ch)] == ["gram", "provenance", "transfer"]
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
    out = naive_apply(ops, projector(basis_state(d)))
    assert np.max(np.abs(out - np.eye(d) / d)) <= 1e-12
    out2 = transfer_image(w, random_density(d, stream(50, d)))
    assert np.max(np.abs(out2 - np.eye(d) / d)) <= 1e-12
    # the whole channel is the trace-and-replace map: S = |I>><<I| / d
    vec_eye = np.eye(d).reshape(-1)
    assert np.max(np.abs(superoperator(w) - np.outer(vec_eye, vec_eye) / d)) <= 1e-12


def test_apply_identity_channel():
    ch = channel_from_unitaries(np.eye(3, dtype=complex)[None, :, :])
    rho = random_density(3, stream(51))
    assert np.max(np.abs(transfer_image(ch, rho) - rho)) <= 1e-14
    assert np.max(np.abs(transfer_image(ch, rho, adjoint=True) - rho)) <= 1e-14


def test_apply_matches_naive_oracle():
    ch = build_random_channel(4, 7, RngStream(52))
    rho = random_density(4, stream(53))
    assert np.max(np.abs(transfer_image(ch, rho) - naive_apply(haar_stack(4, 7, 52), rho))) <= 1e-13


def test_apply_adjoint_matches_naive_oracle():
    ch = build_random_channel(4, 7, RngStream(78))
    sigma = random_density(4, stream(79))
    want = naive_adjoint(haar_stack(4, 7, 78), sigma)
    assert np.max(np.abs(transfer_image(ch, sigma, adjoint=True) - want)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 5])
def test_apply_reads_the_hermitian_part_of_any_input(d):
    ch = build_random_channel(d, 7, RngStream(56 + d))
    gen = stream(57, d).generator()
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    part = (a + np.conj(a.T)) / 2.0
    us = haar_stack(d, 7, 56 + d)
    assert np.max(np.abs(transfer_image(ch, a) - naive_apply(us, part))) <= 1e-13
    assert np.max(np.abs(transfer_image(ch, a, adjoint=True) - naive_adjoint(us, part))) <= 1e-13


def test_apply_preserves_trace_and_positivity():
    gen = stream(54)
    for trial in range(1000):
        d = 2 + trial % 7  # dimensions 2..8
        ch = build_random_channel(d, 3, gen.child(trial, 0))
        rho = random_density(d, gen.child(trial, 1), rank=1 + trial % d)
        out = transfer_image(ch, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-11
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_adjoint_duality():
    ch = build_random_channel(3, 5, RngStream(55))
    for trial in range(20):
        rho = random_density(3, stream(56, trial))
        sigma = random_density(3, stream(57, trial))
        lhs = np.trace(transfer_image(ch, rho) @ sigma).real
        rhs = np.trace(rho @ transfer_image(ch, sigma, adjoint=True)).real
        assert abs(lhs - rhs) <= 1e-11


def test_pair_statistic_trivia():
    ch = channel_from_unitaries(np.eye(2, dtype=complex)[None, :, :])
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    assert pair_statistic(ch, e0, e0) == pytest.approx(1.0, abs=1e-15)
    assert pair_statistic(ch, e0, e1) == pytest.approx(0.0, abs=1e-15)


def test_pair_statistic_weyl_is_flat():
    w = build_weyl_channel(2)
    for trial in range(10):
        phi = random_pure_states(2, 1, stream(58, trial))[0]
        psi = random_pure_states(2, 1, stream(59, trial))[0]
        assert abs(pair_statistic(w, phi, psi) - 0.5) <= 1e-12


def test_pair_statistic_equals_trace_path():
    ch = build_random_channel(4, 6, RngStream(60))
    for trial in range(50):
        phi = random_pure_states(4, 1, stream(61, trial))[0]
        psi = random_pure_states(4, 1, stream(62, trial))[0]
        via_trace = np.trace(channel_image(ch, projector(phi)) @ projector(psi)).real
        assert abs(pair_statistic(ch, phi, psi) - via_trace) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 16]), n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_pair_statistic_matches_stack_oracle(d, n, seed):
    # x†Cx with x = psi ⊗ conj(phi) against the mean of |<psi|U_i|phi>|^2 over the stack
    ch = build_random_channel(d, n, RngStream(seed))
    us = haar_stack(d, n, seed)
    for trial in range(3):
        phi = random_pure_states(d, 1, stream(seed, 1, trial))[0]
        psi = random_pure_states(d, 1, stream(seed, 2, trial))[0]
        want = float(np.mean(np.abs((us @ phi) @ np.conj(psi)) ** 2))
        assert abs(pair_statistic(ch, phi, psi) - want) <= 1e-13


def test_channel_matrix_contract():
    ch = build_random_channel(3, 5, RngStream(81))
    c = np.array(ch.gram)
    again = RandomUnitaryChannel(c, ch.provenance)
    assert np.array_equal(superoperator(again), superoperator(ch))
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
    # a strided view of a stack folds to the channel of its contiguous copy
    wide = np.zeros((5, 3, 6), dtype=complex)
    wide[:, :, ::2] = haar_stack(3, 5, 81)
    assert np.array_equal(channel_from_unitaries(wide[:, :, ::2]).gram, ch.gram)


def _coordinate_of_identity(d):
    return np.concatenate([np.ones(d), np.zeros(d * d - d)])


@pytest.mark.parametrize("d, n", [(1, 3), (2, 7), (3, 20), (5, 40), (16, 40)])
def test_transfer_has_the_singular_values_of_s(d, n):
    # T is S in an orthonormal basis, a unitary change of basis
    ch = build_random_channel(d, n, RngStream(90 + d))
    assert ch.transfer.dtype == np.float64 and ch.transfer.shape == (d * d, d * d)
    assert not ch.transfer.flags.writeable
    want = np.linalg.svd(superoperator(ch), compute_uv=False)
    assert np.max(np.abs(np.linalg.svd(ch.transfer, compute_uv=False) - want)) <= 1e-12


def transfer_from_superoperator(sup):
    """Oracle: T gathered by index from the row-major superoperator S.

    The columns S vec(B_b) block by block, then their coordinates, the 1/sqrt(2)
    factors applied once per block at the end.
    """
    d = math.isqrt(sup.shape[0])
    rows, cols = np.triu_indices(d, 1)
    diag, jk, kj = np.arange(d) * (d + 1), rows * d + cols, cols * d + rows
    n = d * d
    sym, anti = slice(d, d + rows.size), slice(d + rows.size, n)
    a, b = sup.real, sup.imag
    t = np.empty((n, n))
    for block in (slice(0, d), sym, anti):
        if block is sym:
            re, im = a[:, jk], b[:, jk]
            re += a[:, kj]
            im += b[:, kj]
        elif block is anti:
            re, im = b[:, kj], a[:, jk]
            re -= b[:, jk]
            im -= a[:, kj]
        else:
            re, im = a[:, diag], b[:, diag]
        t[:d, block] = re[diag]
        np.add(re[jk], re[kj], out=t[sym, block])
        np.subtract(im[jk], im[kj], out=t[anti, block])
    scale = math.sqrt(0.5)
    t[:d, d:] *= scale
    t[d:, :d] *= scale
    t[d:, d:] *= 0.5
    return t


@pytest.mark.parametrize("d, n", [(1, 3), (2, 7), (3, 20), (4, 9), (16, 40)])
def test_transfer_from_c_equals_the_gather_from_s_bitwise(d, n):
    ch = build_random_channel(d, n, RngStream(160 + d))
    assert ch.transfer.tobytes() == transfer_from_superoperator(superoperator(ch)).tobytes()
    w = build_weyl_channel(3)
    assert w.transfer.tobytes() == transfer_from_superoperator(superoperator(w)).tobytes()
    # tobytes() reads a strided T in C order too; the ascent's products need it contiguous
    assert ch.transfer.flags.c_contiguous and w.transfer.flags.c_contiguous


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_transfer_reads_the_pair_statistic(d):
    # tr(R(|phi><phi|) |psi><psi|) = F(psi) . T F(phi), the form the net scan evaluates
    ch = build_random_channel(d, 6, RngStream(95 + d))
    states = random_pure_states(d, 12, RngStream(96 + d))
    feats = hermitian_coordinates(states)
    stats = feats @ ch.transfer @ feats.T  # row psi, column phi
    want = [[pair_statistic(ch, phi, psi) for phi in states] for psi in states]
    assert np.max(np.abs(stats - np.array(want))) <= 1e-14
    # the identity has coordinates c, and a unital, trace-preserving R fixes it both ways
    c = _coordinate_of_identity(d)
    assert np.max(np.abs(ch.transfer @ c - c)) <= 1e-14
    assert np.max(np.abs(c @ ch.transfer - c)) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_transfer_of_weyl_and_identity_channels(d):
    c = _coordinate_of_identity(d)
    assert np.max(np.abs(build_weyl_channel(d).transfer - np.outer(c, c) / d)) <= 1e-16
    identity = channel_from_unitaries(np.eye(d, dtype=complex)[None])
    assert np.array_equal(identity.transfer, np.eye(d * d))


def _zz_channel(t):
    """C = I/2 + t (Z ⊗ Z)/2 at d = 2: partial traces I, lowest eigenvalue (1 - t)/2."""
    z = np.diag([1.0, -1.0])
    return (np.eye(4) + t * np.kron(z, z)) / 2.0


def test_positivity_check_keeps_its_tolerance():
    tol = TOL.unitarity
    RandomUnitaryChannel(_zz_channel(1.0 + tol), {"count": 1})  # lowest eigenvalue -tol/2
    with pytest.raises(InvalidMatrix, match="not positive semidefinite: smallest eigenvalue "
                                            "-2.000e-10"):
        RandomUnitaryChannel(_zz_channel(1.0 + 4.0 * tol), {"count": 1})


def test_pure_output_matches_apply():
    # on a pure input R(|phi><phi|) is (1/N) sum_i |U_i phi><U_i phi|, and the ascent's half
    # step reads it, less I/d, from T on the state's coordinates
    ch = build_random_channel(5, 4, RngStream(63))
    phi = random_pure_states(5, 1, stream(64))[0]
    w = haar_stack(5, 4, 63) @ phi
    via_vectors = w.T @ np.conj(w) / ch.count
    half_step = _half_step(ch.transfer, phi[None])[0]
    assert np.max(np.abs(via_vectors - np.eye(5) / 5 - half_step)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_deviation_vanishes(d):
    w = build_weyl_channel(d)
    for trial in range(10):
        assert output_deviation(w, random_pure_states(d, 1, stream(65, d, trial))[0]) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 6])
def test_single_unitary_deviation(d):
    # R(phi) stays pure, so the spectrum of R(phi) - I/d is {1 - 1/d, -1/d, ...}
    ch = build_random_channel(d, 1, RngStream(66 + d))
    phi = random_pure_states(d, 1, stream(67, d))[0]
    assert abs(output_deviation(ch, phi) - (1.0 - 1.0 / d)) <= 1e-12


def test_deviation_dim_one():
    ch = build_random_channel(1, 3, RngStream(68))
    assert output_deviation(ch, np.array([1.0 + 0j])) <= 1e-15


def test_variational_identity():
    # sup over psi of |statistic - 1/d| is the extreme eigenvalue magnitude
    ch = build_random_channel(3, 8, RngStream(69))
    phi = random_pure_states(3, 1, stream(70))[0]
    dev = output_deviation(ch, phi)
    values, vectors = np.linalg.eigh(_half_step(ch.transfer, phi[None])[0])
    psi_star = vectors[:, int(np.argmax(np.abs(values)))]
    assert abs(abs(pair_statistic(ch, phi, psi_star) - 1.0 / 3.0) - dev) <= 1e-9
    for trial in range(100):
        psi = random_pure_states(3, 1, stream(71, trial))[0]
        assert abs(pair_statistic(ch, phi, psi) - 1.0 / 3.0) <= dev + 1e-9


def test_convexity_restriction():
    # channel deviation on mixed states never beats the worst eigenvector
    ch = build_random_channel(3, 5, RngStream(72))
    eye = np.eye(3) / 3
    for trial in range(200):
        rho = random_density(3, stream(73, trial))
        mixed_dev = float(np.linalg.norm(transfer_image(ch, rho) - eye, 2))
        _, vectors = np.linalg.eigh(rho)
        pure_best = max(output_deviation(ch, vectors[:, k]) for k in range(3))
        assert mixed_dev <= pure_best + 1e-9


def test_haar_one_design():
    # E over single-unitary channels of the statistic is 1/d
    d, m = 4, 10_000
    us = sample_haar_unitaries(d, m, RngStream(74))
    phi = random_pure_states(d, 1, stream(75))[0]
    psi = random_pure_states(d, 1, stream(76))[0]
    amps = np.einsum("nij,j,i->n", us, phi, np.conj(psi), optimize=True)
    values = np.abs(amps) ** 2
    sigma = float(np.std(values))
    assert abs(float(np.mean(values)) - 1.0 / d) <= 3.0 * sigma / np.sqrt(m)
    # spot-check the batch against the per-channel statistic path
    for k in range(25):
        ch = channel_from_unitaries(us[k:k + 1])
        assert abs(pair_statistic(ch, phi, psi) - values[k]) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 16])
def test_stacked_channel_action_equals_per_item_calls_bitwise(d):
    ch = build_random_channel(d, 40, stream(58, d))
    # the ascent's half step: each row of a stack gets the bits of its own call
    states = random_pure_states(d, 6, stream(59, d))
    images, adjoints = _half_step(ch.transfer, states), _half_step(ch.transfer.T, states)
    assert images.shape == adjoints.shape == (6, d, d)
    for k in range(6):
        assert images[k].tobytes() == _half_step(ch.transfer, states[k:k + 1])[0].tobytes()
        assert adjoints[k].tobytes() == _half_step(ch.transfer.T, states[k:k + 1])[0].tobytes()


def test_dimension_mismatch():
    ch = build_random_channel(3, 2, RngStream(77))
    with pytest.raises(DimensionMismatch):
        pair_statistic(ch, basis_state(3), basis_state(2))
    with pytest.raises(DimensionMismatch):
        pair_statistic(ch, basis_state(4), basis_state(4))


def test_channel_equality_is_identity():
    a = build_random_channel(2, 3, RngStream(5))
    b = build_random_channel(2, 3, RngStream(5))
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2
