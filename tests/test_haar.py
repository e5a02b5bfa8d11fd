import threading

import numpy as np
import pytest

from conftest import two_sample_ks
from randomizer import (
    InvalidDimension,
    InvalidMatrix,
    InvalidParameter,
    RngStream,
    SweepConfig,
    build_random_channel,
    channel_from_unitaries,
    run_concentration_trial,
    run_randomizing_sweep,
    sample_haar_unitaries,
    unitarity_defect,
)
from randomizer import haar, workers
from randomizer.channel import random_pure_states
from randomizer.linalg import qr_positive_stacked
from randomizer.workers import parallel_map


def einsum_defect(u):
    """Oracle: one untiled Gram stack, max|U†U - I|."""
    gram = np.einsum("...ki,...kj->...ij", np.conj(u), u)
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def per_tile_haar(d, count, rng):
    """Oracle: tile k factors one Gaussian draw from ``rng.child(k)`` with one QR call."""
    per_tile = haar._TILE_ENTRIES // (d * d)
    tiles = []
    for k, start in enumerate(range(0, count, per_tile)):
        shape = (min(per_tile, count - start), d, d)
        draw = haar.complex_standard_normal(rng.child(k).generator(), shape)
        q, degenerate = qr_positive_stacked(draw)
        assert not np.any(degenerate)
        tiles.append(q)
    return np.concatenate(tiles)


def tiled_counts(d):
    """Stack sizes of one tile, of exactly three tiles, and of two tiles plus a partial one."""
    per_tile = haar._TILE_ENTRIES // (d * d)
    return (min(7, per_tile), 3 * per_tile, 2 * per_tile + 7)


def test_ginibre_shape_and_finiteness():
    z = haar.complex_standard_normal(RngStream(1).generator(), (1, 1, 1))
    assert z.shape == (1, 1, 1)
    assert np.isfinite(z).all()


def test_ginibre_moments():
    # Monte Carlo against the Gaussian law: zero mean, E|z|^2 = 1
    zs = haar.complex_standard_normal(RngStream(2).generator(), (100_000, 4, 4))
    mean = zs.mean()
    assert abs(mean) <= 0.02
    second = np.mean(np.abs(zs) ** 2)
    assert abs(second - 1.0) <= 0.02
    # real and imaginary parts carry half the variance each
    assert abs(np.var(zs.real) - 0.5) <= 0.02
    assert abs(np.var(zs.imag) - 0.5) <= 0.02


def test_invalid_dimension():
    with pytest.raises(InvalidDimension):
        sample_haar_unitaries(2.0, 1, RngStream(0))
    with pytest.raises(InvalidDimension):
        sample_haar_unitaries(0, 1, RngStream(0))
    with pytest.raises(InvalidDimension):
        sample_haar_unitaries(2, 0, RngStream(0))
    for count in (2.5, 2.0, np.float64(3.0), "3"):  # a fractional count is not truncated
        with pytest.raises(InvalidDimension):
            sample_haar_unitaries(2, count, RngStream(0))
    with pytest.raises(InvalidDimension):
        random_pure_states(0, 1, RngStream(0))


def test_seeds_are_streams_or_ints():
    assert haar.as_stream(RngStream(4, 2)) == RngStream(4, 2)
    assert haar.as_stream(np.int64(4)) == haar.as_stream(4) == RngStream(4)
    grid = SweepConfig(dims=(1,), epsilons=(0.5,), counts=(1,), channels_per_cell=1)
    for call in (lambda seed: sample_haar_unitaries(2, 1, seed),
                 lambda seed: build_random_channel(2, 1, seed),
                 lambda seed: run_concentration_trial(2, 1, 0.5, 1, seed),
                 lambda seed: run_randomizing_sweep(grid, seed)):
        with pytest.raises(TypeError):
            call(2.7)  # not truncated to seed 2
        with pytest.raises(TypeError):
            call(RngStream(2).generator())  # each tile derives a child stream
    assert np.array_equal(sample_haar_unitaries(3, 3, 36),
                          sample_haar_unitaries(3, 3, RngStream(36)))


def test_seeds_alias_no_other_seed():
    # Philox is keyed with the seed as it is, so a seed outside [0, 2^64) or a bool would draw
    # the stream of another seed (-1 that of 2^64 - 1, 2^64 + 5 that of 5, True that of 1)
    # while its own value is recorded
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(InvalidParameter):
            build_random_channel(2, 50, seed)
        with pytest.raises(InvalidParameter):
            RngStream(seed)
        with pytest.raises(InvalidParameter):
            RngStream(0, seed)
    for bad in (True, False):
        with pytest.raises(TypeError):
            build_random_channel(2, 50, bad)
        with pytest.raises(TypeError):
            RngStream(bad)
    with pytest.raises(TypeError):
        RngStream(2.0)  # not truncated to seed 2 either
    top = build_random_channel(2, 50, RngStream((1 << 64) - 1, (1 << 64) - 1)).gram
    assert not np.array_equal(top, build_random_channel(2, 50, 0).gram)


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


def ziggurat_formula(gen, shape):
    """Oracle: interleaved (Re, Im) ziggurat normals scaled by sqrt(1/2)."""
    size = int(np.prod(shape))
    return (gen.standard_normal(2 * size) * np.sqrt(0.5)).view(complex).reshape(shape)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (40, 4, 4), (2, 3, 1)])
def test_complex_standard_normal_matches_one_line_formula(shape):
    for seed in (0, 1, 99):
        gen, oracle = RngStream(seed).generator(), RngStream(seed).generator()
        want = ziggurat_formula(oracle, shape)
        assert np.array_equal(haar.complex_standard_normal(gen, shape), want)
        assert np.array_equal(gen.random(3), oracle.random(3))  # same draws consumed
        # drawn in place into a slice of a larger array: the same values, the same array back
        gen = RngStream(seed).generator()
        host = np.zeros((3, *shape), dtype=complex)
        middle = host[1]
        assert haar.complex_standard_normal(gen, out=middle) is middle
        assert np.array_equal(middle, want)
        assert not np.any(host[0]) and not np.any(host[2])


@pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (1000, 7), (4096, 4096)])
def test_gaussian_draws_are_prefix_stable(n, m):
    whole = haar.complex_standard_normal(RngStream(38).generator(), (n + m,))
    gen = RngStream(38).generator()
    first = haar.complex_standard_normal(gen, (n,))
    assert np.array_equal(np.concatenate([first, haar.complex_standard_normal(gen, (m,))]), whole)


@pytest.mark.parametrize("d", [1, 2, 16])
def test_state_batches_equal_single_draws_in_a_row(d):
    # the ascent draws all its starts at once and must get the starts of one draw per restart
    gen = RngStream(39, d).generator()
    one_by_one = np.stack([random_pure_states(d, 1, gen)[0] for _ in range(5)])
    assert np.array_equal(random_pure_states(d, 5, RngStream(39, d)), one_by_one)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_second_moments(d):
    # stream-free law checks: E|U_ij|^2 = 1/d and E|tr U|^2 = 1 for Haar U on U(d)
    n = 40_000
    us = sample_haar_unitaries(d, n, RngStream(40, d))
    entry_sq = np.abs(us) ** 2
    # |U_ij|^2 is Beta(1, d - 1): variance (d - 1) / (d^2 (d + 1))
    entry_se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert np.max(np.abs(entry_sq.mean(axis=0) - 1.0 / d)) <= 5.0 * entry_se
    trace_sq = np.abs(np.trace(us, axis1=1, axis2=2)) ** 2
    # |tr U|^2 has mean 1 and variance at most 1 (exactly 1 for d >= 2)
    assert abs(trace_sq.mean() - 1.0) <= 5.0 / np.sqrt(n)


@pytest.mark.parametrize("d", [1, 2, 16])
def test_stacks_do_not_depend_on_thread_count(d, monkeypatch):
    for count in tiled_counts(d):
        want = per_tile_haar(d, count, RngStream(30 + d, 4))
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANDOMIZER_THREADS", threads)
            got = sample_haar_unitaries(d, count, RngStream(30 + d, 4))
            assert np.array_equal(got, want), (count, threads)


@pytest.mark.parametrize("d", [1, 2, 16])
def test_whole_tiles_are_prefixes_of_longer_stacks(d):
    per_tile = haar._TILE_ENTRIES // (d * d)
    longer = sample_haar_unitaries(d, 3 * per_tile + 5, RngStream(34, d))
    for count in (per_tile, 2 * per_tile + 7):
        whole = count // per_tile * per_tile
        shorter = sample_haar_unitaries(d, count, RngStream(34, d))
        assert np.array_equal(shorter[:whole], longer[:whole]), count


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_first_row_offsets_draw_later_rows_of_the_same_stack(d):
    per_tile = haar.tile_rows(d)
    longer = sample_haar_unitaries(d, 3 * per_tile + 5, RngStream(36, d))
    for k in (1, 2, 3):  # the rest of the stack from tile k on, the last tile partial
        later = sample_haar_unitaries(d, len(longer) - k * per_tile, RngStream(36, d),
                                      first=k * per_tile)
        assert np.array_equal(later, longer[k * per_tile:]), k
    middle = sample_haar_unitaries(d, per_tile, RngStream(36, d), first=per_tile)
    assert np.array_equal(middle, longer[per_tile:2 * per_tile])  # one whole tile
    for first in (-per_tile, per_tile // 2, 1.0 * per_tile, None):
        with pytest.raises(InvalidParameter):
            sample_haar_unitaries(d, 1, RngStream(36, d), first=first)


def tile_index(gen, rng, tiles):
    """The k < tiles whose child stream ``rng.child(k)`` seeded ``gen``."""
    key = gen.bit_generator.state["state"]["key"]
    keys = [rng.child(k).generator().bit_generator.state["state"]["key"] for k in range(tiles)]
    return next(k for k in range(tiles) if np.array_equal(keys[k], key))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_planted_degenerate_tile_is_redrawn_whole(threads, monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", threads)
    d, rng = 16, RngStream(35)
    per_tile = haar._TILE_ENTRIES // (d * d)
    count, index = 2 * per_tile + 7, per_tile + 5  # the singular matrix sits in the middle tile
    real = haar.complex_standard_normal
    draws = []

    def planted(gen, shape=None, out=None):
        z = real(gen, shape, out)
        k = tile_index(gen, rng, 3)
        if k == 1 and k not in [tile for tile, _ in draws]:  # the middle tile's first draw
            z[index - per_tile, :, 1] = z[index - per_tile, :, 0]
        draws.append((k, z.shape))
        return z

    monkeypatch.setattr(haar, "complex_standard_normal", planted)
    got = sample_haar_unitaries(d, count, rng)
    # every tile draws once at its full shape; the middle one draws a second time, whole
    assert sorted(draws) == [(0, (per_tile, d, d)), (1, (per_tile, d, d)), (1, (per_tile, d, d)),
                             (2, (7, d, d))]
    clean = per_tile_haar(d, count, rng)
    middle = slice(per_tile, 2 * per_tile)
    assert np.array_equal(np.delete(got, middle, axis=0), np.delete(clean, middle, axis=0))
    gen = rng.child(1).generator()
    real(gen, (per_tile, d, d))  # the degenerate first draw
    redraw, degenerate = qr_positive_stacked(real(gen, (per_tile, d, d)))
    assert not np.any(degenerate)
    assert np.array_equal(got[middle], redraw)
    assert not np.array_equal(got[middle], clean[middle])
    assert unitarity_defect(got) <= 1e-10


def test_tiles_are_keyed_by_index_not_finishing_order(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    d, rng = 16, RngStream(37)
    per_tile = haar._TILE_ENTRIES // (d * d)
    count = 3 * per_tile
    real = haar.complex_standard_normal
    last_tile_started = threading.Event()

    def first_tile_last(gen, shape=None, out=None):
        # tile 0 holds one of the two workers until tile 2 starts, so tile 1 finishes first
        k = tile_index(gen, rng, 3)
        if k == 0:
            assert last_tile_started.wait(timeout=30)
        elif k == 2:
            last_tile_started.set()
        return real(gen, shape, out)

    monkeypatch.setattr(haar, "complex_standard_normal", first_tile_last)
    got = sample_haar_unitaries(d, count, rng)
    assert np.array_equal(got, per_tile_haar(d, count, rng))


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
    got = list(parallel_map(lambda s: sample_haar_unitaries(16, count, RngStream(s)), (1, 2, 3)))
    assert len(pools) == 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # outside a worker the same stack does start a pool, so the check above is not vacuous
    with pytest.raises(AssertionError, match="second thread pool"):
        sample_haar_unitaries(16, count, RngStream(1))


def test_defect_and_gaussians_start_no_pool(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "2")
    us = sample_haar_unitaries(16, 3 * haar._TILE_ENTRIES // 256 + 5, RngStream(4))
    monkeypatch.setattr(workers, "ThreadPoolExecutor", None)  # starting a pool raises TypeError
    assert unitarity_defect(us) == pytest.approx(einsum_defect(us), abs=1e-15)
    gen, oracle = RngStream(5).generator(), RngStream(5).generator()
    shape = (3 * haar._TILE_ENTRIES + 5,)
    assert np.array_equal(haar.complex_standard_normal(gen, shape), ziggurat_formula(oracle, shape))
