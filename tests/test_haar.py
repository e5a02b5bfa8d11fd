import numpy as np
import pytest

from conftest import two_sample_ks
from randomizer import (
    InvalidDimension,
    InvalidMatrix,
    RandomUnitaryChannel,
    RngStream,
    sample_ginibre,
    sample_haar_unitaries,
    unitarity_defect,
)
from randomizer import haar
from randomizer.channel import random_pure_states


def einsum_defect(u):
    """Oracle: one untiled Gram stack, max|U†U - I|."""
    gram = np.einsum("...ki,...kj->...ij", np.conj(u), u)
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


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
            RandomUnitaryChannel(nan_stack)
        with pytest.raises(InvalidMatrix):
            RandomUnitaryChannel(bad)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (40, 4, 4), (2, 3, 1)])
def test_complex_standard_normal_matches_one_line_formula(shape):
    for seed in (0, 1, 99):
        gen, oracle = RngStream(seed).generator(), RngStream(seed).generator()
        u1 = 1.0 - oracle.random(shape)
        u2 = oracle.random(shape)
        want = np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)
        assert np.array_equal(haar.complex_standard_normal(gen, shape), want)
        assert np.array_equal(gen.random(3), oracle.random(3))  # same draws consumed
