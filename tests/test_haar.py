import numpy as np
import pytest

from conftest import two_sample_ks
from randomizer import (
    InvalidDimension,
    InvalidMatrix,
    RngStream,
    channel_from_unitaries,
    sample_ginibre,
    sample_haar_unitaries,
    unitarity_defect,
)
from randomizer import as_generator, haar, workers
from randomizer.channel import random_pure_states
from randomizer.linalg import qr_positive_stacked
from randomizer.workers import parallel_map


def einsum_defect(u):
    """Oracle: one untiled Gram stack, max|U†U - I|."""
    gram = np.einsum("...ki,...kj->...ij", np.conj(u), u)
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def whole_stack_haar(d, count, rng, plant=None):
    """Oracle: the untiled sampler, one Box-Muller formula and one QR call over the whole stack.

    ``plant`` may edit the first Ginibre draw in place before it is factored.
    """
    gen = as_generator(rng)

    def ginibre(k):
        u1 = 1.0 - gen.random((k, d, d))
        u2 = gen.random((k, d, d))
        return np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)

    mats = ginibre(count)
    if plant is not None:
        plant(mats)
    q, degenerate = qr_positive_stacked(mats)
    for _ in range(10):
        if not np.any(degenerate):
            return q
        idx = np.flatnonzero(degenerate)
        q[idx], degenerate[idx] = qr_positive_stacked(ginibre(len(idx)))
    raise AssertionError("oracle kept drawing degenerate matrices")


def tiled_counts(d):
    """Stack sizes of one tile, of exactly three tiles, and of two tiles plus a partial one."""
    per_tile = haar._TILE_ENTRIES // (d * d)
    return (min(7, per_tile), 3 * per_tile, 2 * per_tile + 7)


def test_ginibre_shape_and_finiteness():
    z = sample_ginibre(1, RngStream(1), count=1)
    assert z.shape == (1, 1, 1)
    assert np.isfinite(z).all()


def test_ginibre_moments():
    # Monte Carlo against the Gaussian law: zero mean, E|z|^2 = 1
    zs = sample_ginibre(4, RngStream(2), count=100_000)
    mean = zs.mean()
    assert abs(mean) <= 0.02
    second = np.mean(np.abs(zs) ** 2)
    assert abs(second - 1.0) <= 0.02
    # real and imaginary parts carry half the variance each
    assert abs(np.var(zs.real) - 0.5) <= 0.02
    assert abs(np.var(zs.imag) - 0.5) <= 0.02


def test_invalid_dimension():
    with pytest.raises(InvalidDimension):
        sample_ginibre(0, RngStream(0), count=1)
    with pytest.raises(InvalidDimension):
        sample_haar_unitaries(0, 1, RngStream(0))
    with pytest.raises(InvalidDimension):
        sample_haar_unitaries(2, 0, RngStream(0))


def test_haar_dim_one_is_phase():
    u = sample_haar_unitaries(1, 1, RngStream(3))[0]
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitarity_contract():
    for d in (2, 3, 7):
        u = sample_haar_unitaries(d, 1, RngStream(100 + d))
        assert unitarity_defect(u) <= 1e-10
    batch = sample_haar_unitaries(4, 64, RngStream(5))
    assert batch.shape == (64, 4, 4)
    assert unitarity_defect(batch) <= 1e-10


def test_reproducibility_bitwise():
    a = sample_haar_unitaries(3, 10, RngStream(9, stream_id=4))
    b = sample_haar_unitaries(3, 10, RngStream(9, stream_id=4))
    assert np.array_equal(a, b)
    c = sample_haar_unitaries(3, 10, RngStream(9, stream_id=5))
    assert not np.array_equal(a, c)


def test_stream_derivation():
    base = RngStream(42)
    assert base.child(1, 2) == base.child(1, 2)
    assert base.child(1, 2) != base.child(2, 1)


def test_first_moment_and_column_uniformity():
    us = sample_haar_unitaries(4, 100_000, RngStream(6))
    first_col_sq = np.abs(us[:, :, 0]) ** 2
    for k in range(4):
        assert abs(np.mean(first_col_sq[:, k]) - 0.25) <= 0.01
    # cross-check against directly sampled uniform unit vectors
    vecs = random_pure_states(4, 100_000, RngStream(7))
    assert abs(np.mean(np.abs(vecs[:, 0]) ** 2) - 0.25) <= 0.01


def test_left_invariance_smoke():
    # |(WU)_11|^2 must be distributed like |U_11|^2 for any fixed unitary W
    n = 20_000
    us = sample_haar_unitaries(4, n, RngStream(8))
    w = sample_haar_unitaries(4, 1, RngStream(88))[0]
    rotated = np.einsum("ij,njk->nik", w, us)
    stat = two_sample_ks(np.abs(us[:, 0, 0]) ** 2, np.abs(rotated[:, 0, 0]) ** 2)
    critical_1pct = 1.628 * np.sqrt(2.0 / n)
    assert stat < critical_1pct


@pytest.mark.parametrize("d", [1, 2, 16])
def test_unitarity_defect_matches_untiled_oracle(d):
    per_tile = haar._TILE_ENTRIES // (d * d)
    us = sample_haar_unitaries(d, 4 * per_tile + 3, RngStream(20 + d))
    assert unitarity_defect(us) == pytest.approx(einsum_defect(us), abs=1e-15)
    assert unitarity_defect(us[5]) == pytest.approx(einsum_defect(us[5]), abs=1e-15)
    # one non-unitary matrix in the first, a middle and the last tile; the last tile is partial
    for index in (1, 2 * per_tile + 1, len(us) - 1):
        bad = us.copy()
        bad[index] *= 1.001
        want = einsum_defect(bad)
        assert want > 1e-3
        assert unitarity_defect(bad) == pytest.approx(want, rel=1e-12)
        nan_stack = us.copy()
        nan_stack[index, 0, 0] = np.nan
        assert np.isnan(unitarity_defect(nan_stack))
        with pytest.raises(InvalidMatrix):
            channel_from_unitaries(nan_stack)
        with pytest.raises(InvalidMatrix):
            channel_from_unitaries(bad)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (40, 4, 4), (2, 3, 1)])
def test_complex_standard_normal_matches_one_line_formula(shape):
    for seed in (0, 1, 99):
        gen, oracle = RngStream(seed).generator(), RngStream(seed).generator()
        u1 = 1.0 - oracle.random(shape)
        u2 = oracle.random(shape)
        want = np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)
        assert np.array_equal(haar.complex_standard_normal(gen, shape), want)
        assert np.array_equal(gen.random(3), oracle.random(3))  # same draws consumed


@pytest.mark.parametrize("d", [1, 2, 16])
def test_stacks_do_not_depend_on_thread_count(d, monkeypatch):
    for count in tiled_counts(d):
        want = whole_stack_haar(d, count, RngStream(30 + d, 4))
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANDOMIZER_THREADS", threads)
            got = sample_haar_unitaries(d, count, RngStream(30 + d, 4))
            assert np.array_equal(got, want), (count, threads)


def test_planted_degenerate_draw_refills_alike(monkeypatch):
    d = 16
    per_tile = haar._TILE_ENTRIES // (d * d)
    count, index = 2 * per_tile + 7, per_tile + 5  # the singular matrix sits in the middle tile
    total = count * d * d

    def make_singular(mats, i=index):
        mats[i, :, 1] = mats[i, :, 0]

    want = whole_stack_haar(d, count, RngStream(35), plant=make_singular)
    clean = whole_stack_haar(d, count, RngStream(35))
    real = haar._ginibre_at
    draws = []

    def planted(stream, radius_at, phase_at, out):
        real(stream, radius_at, phase_at, out)
        if radius_at <= index * d * d < min(radius_at + out.size, total):  # the tile holding it
            make_singular(out.reshape(-1, d, d), index - radius_at // (d * d))
        draws.append((radius_at, phase_at, out.size))

    monkeypatch.setattr(haar, "_ginibre_at", planted)
    for threads in ("1", "2"):
        draws.clear()
        monkeypatch.setenv("RANDOMIZER_THREADS", threads)
        got = sample_haar_unitaries(d, count, RngStream(35))
        *tiles, refill = sorted(draws)
        # each tile draws its radii at its entries and its phases T entries later
        assert [t[0] for t in tiles] == list(range(0, total, per_tile * d * d))
        assert all(phase == total + radius for radius, phase, _ in tiles)
        assert sum(size for _, _, size in tiles) == total
        # one refill, of the planted matrix only, continuing the stream at 2T
        assert refill == (2 * total, 2 * total + d * d, d * d)
        assert np.array_equal(got, want)
    assert not np.array_equal(want[index], clean[index])
    assert np.array_equal(np.delete(want, index, axis=0), np.delete(clean, index, axis=0))
    assert unitarity_defect(want) <= 1e-10


@pytest.mark.parametrize("d, count", [(2, 1100), (3, 455)])
def test_positioned_draws_equal_slices_of_one_sequential_draw(d, count):
    stream = RngStream(36, 2)
    total = count * d * d  # 4400 and 4095: the boundary T at both residues mod 4
    gen = stream.generator()
    # the parent layout: all radius uniforms in one call, then all phase uniforms in another
    sequential = np.concatenate([gen.random(total), gen.random(total)])
    for position, size in ((0, 7), (1, 7), (3, 1), (4, 9), (4097, 100), (total - 5, 11),
                           (total - 1, 2), (2 * total - 3, 3)):
        got = haar._uniforms_at(stream, position, size)
        assert np.array_equal(got, sequential[position:position + size]), position
    with pytest.raises(TypeError):
        sample_haar_unitaries(d, count, stream.generator())  # a Generator cannot be positioned
    assert np.array_equal(sample_haar_unitaries(d, 3, 36),
                          sample_haar_unitaries(d, 3, RngStream(36)))


def test_sampling_inside_a_worker_starts_no_pool(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    count = 3 * haar._TILE_ENTRIES // 256
    want = [sample_haar_unitaries(16, count, RngStream(s)) for s in (1, 2, 3)]
    real = workers.ThreadPoolExecutor
    pools = []

    def single_pool(*args, **kwargs):
        if pools:
            raise AssertionError("a second thread pool was started")
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(workers, "ThreadPoolExecutor", single_pool)
    got = parallel_map(lambda s: sample_haar_unitaries(16, count, RngStream(s)), (1, 2, 3),
                       threads=2)
    assert len(pools) == 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # outside a worker the same stack does start a pool, so the check above is not vacuous
    with pytest.raises(AssertionError, match="second thread pool"):
        sample_haar_unitaries(16, count, RngStream(1))
