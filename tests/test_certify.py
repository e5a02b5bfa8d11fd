import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randomizer.certify
from conftest import stream
from randomizer import (
    DeviationCertificate,
    DimensionMismatch,
    InvalidParameter,
    PureStateNet,
    RngStream,
    Verdict,
    alternating_max_lower_bound,
    build_delta_net,
    build_random_channel,
    build_weyl_channel,
    certified_upper_bound_A,
    channel_from_unitaries,
    default_net_delta,
    net_supremum_B,
    pair_statistic,
    random_pure_states,
    sample_haar_unitaries,
    spectral_upper_bound_A,
    verdict,
)
from randomizer.certify import _ASCENT_TOL, _TIE_TOL, _ascend, _canonical_phase
from randomizer.channel import apply_adjoint, apply_channel, pure_projector
from randomizer.netcover import _require_separated


def small_net(d, delta, seed, size=32):
    """Well-separated random states carrying a claimed radius; cheap test scaffold."""
    states = []
    gen = RngStream(seed).generator()
    while len(states) < size:
        cand = random_pure_states(d, 4 * size, gen)
        for v in cand:
            ok = all(
                abs(np.vdot(v, s)) ** 2 <= 1.0 - (delta * delta) / 16.0 for s in states
            )
            if ok:
                states.append(v)
            if len(states) == size:
                break
    return PureStateNet(d, delta, np.asarray(states))


def test_default_net_delta_values():
    assert default_net_delta(0.5) == pytest.approx(0.125, abs=1e-15)
    assert default_net_delta(0.1) == pytest.approx(0.03125, abs=1e-15)
    for eps in np.linspace(0.01, 0.99, 25):
        assert default_net_delta(eps) >= eps / 5.0 - 1e-15
    with pytest.raises(InvalidParameter):
        default_net_delta(1.0)
    with pytest.raises(InvalidParameter):
        default_net_delta(0.0)


def test_certified_upper_bound_arithmetic():
    assert certified_upper_bound_A(0.0, 0.125, 2) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert certified_upper_bound_A(0.3, 0.0, 4) == 0.3
    with pytest.raises(InvalidParameter):
        certified_upper_bound_A(0.1, 0.5, 2)
    with pytest.raises(InvalidParameter):
        certified_upper_bound_A(-0.1, 0.1, 2)


@pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_lift_tight_at_default_delta(epsilon, d):
    # B = delta/d makes the lifted bound exactly epsilon/d
    delta = default_net_delta(epsilon)
    assert certified_upper_bound_A(delta / d, delta, d) == pytest.approx(
        epsilon / d, abs=1e-12
    )


def test_lift_consistency_fixed_point():
    # solving A <= B + 2 delta (A + 1/d) by iteration reproduces the closed form
    for b_value, delta, d in [(0.2, 0.1, 2), (0.05, 0.2, 4), (0.0, 0.125, 2)]:
        a = 0.0
        for _ in range(400):
            a = b_value + 2.0 * delta * (a + 1.0 / d)
        assert a == pytest.approx(certified_upper_bound_A(b_value, delta, d), abs=1e-12)


def test_net_supremum_singleton():
    ch = build_random_channel(3, 4, RngStream(1))
    phi = random_pure_states(3, 1, stream(2))[0]
    net = PureStateNet(3, 0.4, phi[None, :])
    result = net_supremum_B(ch, net)
    assert result.value == pytest.approx(abs(pair_statistic(ch, phi, phi) - 1.0 / 3.0), abs=1e-14)


def test_net_supremum_weyl_vanishes():
    w = build_weyl_channel(2)
    net = small_net(2, 0.3, seed=3)
    assert net_supremum_B(w, net).value <= 1e-10


def test_net_supremum_dim_one():
    ch = build_random_channel(1, 3, RngStream(4))
    net = PureStateNet(1, 0.3, np.array([[1.0 + 0j]]))
    assert net_supremum_B(ch, net).value <= 1e-15


def _bruteforce_B(ch, net):
    return max(
        abs(pair_statistic(ch, phi, psi) - 1.0 / ch.dim)
        for phi in net.states
        for psi in net.states
    )


def test_net_supremum_matches_bruteforce():
    for d in (2, 3, 5):
        ch = build_random_channel(d, 6, RngStream(5).child(d))
        net = small_net(d, 0.35, seed=6 + d, size=25)
        result = net_supremum_B(ch, net)
        assert result.value == pytest.approx(_bruteforce_B(ch, net), abs=1e-12)
        assert abs(pair_statistic(ch, result.phi, result.psi) - 1.0 / d) == pytest.approx(
            result.value, abs=1e-15
        )


def test_net_supremum_spans_chunks(monkeypatch):
    # a budget of 50 statistics per step splits the 25-state net into chunks of 2 phi rows
    monkeypatch.setattr(randomizer.certify, "_SCAN_BUDGET", 50)
    ch = build_random_channel(3, 8, RngStream(44))
    net = small_net(3, 0.35, seed=45, size=25)
    result = net_supremum_B(ch, net)
    assert result.value == pytest.approx(_bruteforce_B(ch, net), abs=1e-12)
    assert result.phi_index >= 2  # the winning row lies outside the first chunk


def test_net_supremum_dimension_mismatch():
    ch = build_random_channel(3, 2, RngStream(7))
    net = small_net(2, 0.3, seed=8, size=4)
    with pytest.raises(DimensionMismatch):
        net_supremum_B(ch, net)


def test_alternating_weyl_vanishes():
    w = build_weyl_channel(2)
    result = alternating_max_lower_bound(w, restarts=4, rng=RngStream(9))
    assert result.value <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_alternating_single_unitary(d):
    ch = build_random_channel(d, 1, RngStream(10 + d))
    result = alternating_max_lower_bound(ch, restarts=4, rng=RngStream(20 + d))
    assert result.value == pytest.approx(1.0 - 1.0 / d, abs=1e-9)
    # the witness pair is aligned: psi = U phi up to phase
    transported = sample_haar_unitaries(d, 1, RngStream(10 + d))[0] @ result.phi
    assert abs(abs(np.vdot(result.psi, transported)) - 1.0) <= 1e-9


def sequential_extreme_eigvec(h):
    """Oracle: the eigenpair of largest magnitude of one matrix; ties go to the positive branch."""
    values, vectors = np.linalg.eigh(h)
    if values[-1] >= -values[0] - _TIE_TOL:
        return float(values[-1]), vectors[:, -1]
    return float(values[0]), vectors[:, 0]


def sequential_ascend(ch, phi0, tol, max_iters):
    """Oracle: the alternating ascent from one start, one half step after another.

    Returns the best (value, phi, psi) triple, replaced on a strict gain, and
    the list of half-step objectives.
    """
    shift = np.eye(ch.dim, dtype=complex) / ch.dim
    phi = phi0
    best = (-1.0, phi0, phi0)
    objectives = []
    previous = -np.inf
    for _ in range(max_iters):
        lam_psi, psi = sequential_extreme_eigvec(apply_channel(ch, pure_projector(phi)) - shift)
        obj = abs(lam_psi)
        objectives.append(obj)
        if obj > best[0]:
            best = (obj, phi, psi)
        lam_phi, phi = sequential_extreme_eigvec(apply_adjoint(ch, pure_projector(psi)) - shift)
        obj = abs(lam_phi)
        objectives.append(obj)
        if obj > best[0]:
            best = (obj, phi, psi)
        if obj - previous < tol:
            break
        previous = obj
    return best, objectives


def sequential_lower_bound(ch, restarts, max_iters, rng):
    """Oracle: one start drawn and ascended per restart in turn; the first strict best wins."""
    gen = rng.generator()
    best = None
    for _ in range(restarts):
        candidate, _ = sequential_ascend(ch, random_pure_states(ch.dim, 1, gen)[0], _ASCENT_TOL,
                                         max_iters)
        if best is None or candidate[0] > best[0]:
            best = candidate
    phi, psi = _canonical_phase(best[1]), _canonical_phase(best[2])
    return abs(pair_statistic(ch, phi, psi) - 1.0 / ch.dim), phi, psi


def restart_histories(history):
    """Per restart, its half-step objectives: the column of ``history`` up to its first NaN."""
    return [column[~np.isnan(column)] for column in history.T]


def test_alternating_monotone_half_steps():
    ch = build_random_channel(4, 8, RngStream(12))
    starts = random_pure_states(4, 6, stream(13))
    _, _, _, history = _ascend(ch, starts, tol=1e-12, max_iters=200)
    for values in restart_histories(history):
        assert len(values) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # a restart's objectives stop for good once it stops: no NaN is followed by a value
    assert all(np.all(np.isnan(column[np.argmax(np.isnan(column)):]))
               for column in history.T if np.isnan(column).any())


@pytest.mark.parametrize("d, n, restarts, max_iters", [
    (2, 2000, 32, 20),   # the CLI flow's ascent
    (2, 2000, 32, 5),    # some restarts stop early, the rest at the cap of 5 steps
    (2, 40, 32, 500),    # every restart stops early, at different steps
    (3, 60, 8, 500),
    (3, 60, 1, 500),     # a single restart
    (3, 60, 5, 1),       # one step each: every restart stops at the cap
    (16, 300, 3, 25),
    (16, 4000, 1, 2),
    (2, 1, 4, 500),      # one unitary: the optimum 1 - 1/d is reached by every restart
])
def test_stacked_ascent_matches_sequential_oracle(d, n, restarts, max_iters):
    ch = build_random_channel(d, n, stream(98, d, n))
    rng = stream(99, d, restarts)
    got = alternating_max_lower_bound(ch, restarts=restarts, max_iters=max_iters, rng=rng)
    value, phi, psi = sequential_lower_bound(ch, restarts, max_iters, rng)
    assert got.value == value
    assert got.phi.tobytes() == phi.tobytes() and got.psi.tobytes() == psi.tobytes()
    # and restart by restart: the same best triple and the same half-step objectives
    starts = random_pure_states(d, restarts, rng)
    values, phis, psis, history = _ascend(ch, starts, _ASCENT_TOL, max_iters)
    stopped_early = 0
    for r, objectives in enumerate(restart_histories(history)):
        (want, want_phi, want_psi), want_objectives = sequential_ascend(
            ch, starts[r], _ASCENT_TOL, max_iters)
        assert values[r] == want
        assert np.array_equal(phis[r], want_phi) and np.array_equal(psis[r], want_psi)
        assert np.array_equal(objectives, want_objectives)
        stopped_early += len(objectives) < 2 * max_iters
    if (d, n, max_iters) == (2, 2000, 5):
        assert 0 < stopped_early < restarts  # both stop rules fire in one stacked run
    if max_iters == 1:
        assert stopped_early == 0


def test_stacked_ascent_matches_sequential_oracle_on_weyl_ties():
    # every image is I/d, so every eigenvalue ties at 0 and the positive branch is taken
    w = build_weyl_channel(3)
    got = alternating_max_lower_bound(w, restarts=4, max_iters=500, rng=RngStream(9))
    value, phi, psi = sequential_lower_bound(w, 4, 500, RngStream(9))
    assert got.value == value <= 1e-12
    assert got.phi.tobytes() == phi.tobytes() and got.psi.tobytes() == psi.tobytes()


def test_ascent_takes_a_stream_or_an_int_seed():
    ch = build_random_channel(2, 16, RngStream(20))
    by_int = alternating_max_lower_bound(ch, restarts=3, rng=5)
    by_stream = alternating_max_lower_bound(ch, restarts=3, rng=RngStream(5))
    assert by_int.value == by_stream.value and by_int.phi.tobytes() == by_stream.phi.tobytes()
    default = alternating_max_lower_bound(ch, restarts=3)  # no rng: RngStream(0)
    zero = alternating_max_lower_bound(ch, restarts=3, rng=RngStream(0))
    assert default.value == zero.value and default.phi.tobytes() == zero.phi.tobytes()
    with pytest.raises(TypeError):
        alternating_max_lower_bound(ch, restarts=3, rng=RngStream(5).generator())


def test_witness_reproduces_value():
    ch = build_random_channel(3, 16, RngStream(14))
    result = alternating_max_lower_bound(ch, restarts=8, rng=RngStream(15))
    reproduced = abs(pair_statistic(ch, result.phi, result.psi) - 1.0 / 3.0)
    assert reproduced == pytest.approx(result.value, abs=1e-10)


def first_large_entry(x):
    return x[np.argmax(np.abs(x) > randomizer.certify._PHASE_FLOOR)]


@pytest.mark.parametrize("d, n", [(2, 40), (3, 60), (8, 200)])
def test_witness_phase_ignores_eigensolver_phase(d, n, monkeypatch):
    ch = build_random_channel(d, n, RngStream(90 + d))
    want = alternating_max_lower_bound(ch, restarts=3, rng=RngStream(91))
    for w in (want.phi, want.psi):
        assert first_large_entry(w).imag == 0.0 and first_large_entry(w).real > 0.0
    eigh = np.linalg.eigh
    for phase, exact in ((-1.0, True), (1j, False), (np.exp(0.7j), False)):
        def rotated_eigh(h, phase=phase):
            values, vectors = eigh(h)
            return values, vectors * phase

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", rotated_eigh)
            got = alternating_max_lower_bound(ch, restarts=3, rng=RngStream(91))
        if exact:  # a sign flip is exact arithmetic, so the witness bytes are identical
            assert got.phi.tobytes() == want.phi.tobytes()
            assert got.psi.tobytes() == want.psi.tobytes()
            assert got.value == want.value
        assert np.max(np.abs(got.phi - want.phi)) <= 1e-13
        assert np.max(np.abs(got.psi - want.psi)) <= 1e-13
        assert abs(got.value - want.value) <= 1e-15


@pytest.mark.parametrize("d, n", [(2, 40), (4, 100), (16, 300)])
def test_witnesses_ignore_phases_of_the_unitaries(d, n):
    ch = build_random_channel(d, n, RngStream(95 + d))
    theta = 2.0 * np.pi * RngStream(96).generator().random(n)
    us = sample_haar_unitaries(d, n, RngStream(95 + d))
    rotated = channel_from_unitaries(us * np.exp(1j * theta)[:, None, None])
    # the same channel: S agrees up to roundoff, so the ascent ends at the same pair
    assert np.max(np.abs(rotated.superoperator - ch.superoperator)) <= 1e-15
    want = alternating_max_lower_bound(ch, restarts=3, rng=RngStream(97))
    got = alternating_max_lower_bound(rotated, restarts=3, rng=RngStream(97))
    assert np.max(np.abs(got.phi - want.phi)) <= 1e-13
    assert np.max(np.abs(got.psi - want.psi)) <= 1e-13
    assert abs(got.value - want.value) <= 1e-15


def test_sandwich_against_covering_net():
    net = build_delta_net(2, 0.3, RngStream(16))
    for trial, n in enumerate([16, 64]):
        ch = build_random_channel(2, n, RngStream(17).child(trial))
        cert = verdict(ch, 0.5, net, restarts=16, rng=RngStream(18).child(trial))
        assert cert.A_lower <= cert.A_upper + 1e-9
        assert cert.B <= cert.A_upper


def test_verdict_weyl_certified():
    net = build_delta_net(2, default_net_delta(0.5), RngStream(19), max_states=400)
    cert = verdict(build_weyl_channel(2), 0.5, net, rng=RngStream(20))
    assert cert.verdict is Verdict.CERTIFIED_RANDOMIZING
    assert cert.A_upper <= 1e-12  # the spectral bound, not the lift's 1/6
    assert cert.epsilon == 0.5
    assert cert.delta == 0.125 and cert.net_size == net.size and cert.B <= cert.A_upper
    bare = verdict(build_weyl_channel(2), 0.5, rng=RngStream(20))
    assert bare.verdict is Verdict.CERTIFIED_RANDOMIZING
    assert bare.delta is None and bare.B is None and bare.net_size is None
    assert (bare.A_upper, bare.A_lower) == (cert.A_upper, cert.A_lower)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_spectral_bound_on_weyl_is_its_margin(d):
    # S - |I>><<I|/d vanishes for the exact randomizer, so only the rounding margin is left
    margin = 8.0 * np.finfo(float).eps * d ** 3
    assert margin <= spectral_upper_bound_A(build_weyl_channel(d)) <= 2.0 * margin


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(1, 60), seed=st.integers(0, 2**32))
def test_witness_never_exceeds_spectral_bound(d, n, seed):
    ch = build_random_channel(d, n, RngStream(seed))
    lower = alternating_max_lower_bound(ch, restarts=4, rng=stream(seed, 1))
    assert lower.value <= spectral_upper_bound_A(ch)


@pytest.mark.parametrize("n", [1, 2, 5, 50, 2000])
def test_spectral_bound_is_exact_at_d2(n):
    for trial in range(3):
        ch = build_random_channel(2, n, stream(37, n, trial))
        lower = alternating_max_lower_bound(ch, rng=stream(38, n, trial))
        assert 0.0 <= spectral_upper_bound_A(ch) - lower.value <= 1e-9


def test_verdict_single_unitary_not_randomizing():
    net = small_net(2, 0.125, seed=21)
    ch = build_random_channel(2, 1, RngStream(22))
    cert = verdict(ch, 0.5, net, rng=RngStream(23))
    assert cert.verdict is Verdict.CERTIFIED_NOT_RANDOMIZING
    assert cert.A_lower == pytest.approx(0.5, abs=1e-9)


def test_verdict_dim_one_certified():
    ch = build_random_channel(1, 2, RngStream(24))
    net = PureStateNet(1, 0.2, np.array([[1.0 + 0j]]))
    cert = verdict(ch, 0.7, net, rng=RngStream(25))
    assert cert.verdict is Verdict.CERTIFIED_RANDOMIZING


def test_verdict_witness_beats_undercovering_net():
    # shift channel with a single net state whose statistic sits exactly at 1/d:
    # the lift of B alone would certify, but neither side of the verdict reads the lift
    shift = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = channel_from_unitaries(shift[None, :, :])
    t = np.pi / 8.0
    x = np.array([np.cos(t), np.sin(t)], dtype=complex)  # |<x|X|x>|^2 = 1/2
    net = PureStateNet(2, default_net_delta(0.5), x[None, :])
    cert = verdict(ch, 0.5, net, rng=RngStream(26))
    assert cert.B <= 1e-12
    assert certified_upper_bound_A(cert.B, net.delta, 2) < 0.5 / 2
    assert cert.A_upper == pytest.approx(0.5, abs=1e-9)
    assert cert.A_lower == pytest.approx(0.5, abs=1e-9)
    assert cert.verdict is Verdict.CERTIFIED_NOT_RANDOMIZING


def test_budget_net_never_certifies_d16():
    # the lift of this 4-state budget net's B reads d A_upper = 0.67 < 0.9, although the net
    # cannot cover; the spectral bound reads 0.915 and the witness 0.413
    ch = build_random_channel(16, 1024, RngStream(1))
    net = build_delta_net(16, default_net_delta(0.9), RngStream(101), max_states=4)
    assert net.provenance["stopped_by"] == "budget"
    cert = verdict(ch, 0.9, net)
    assert certified_upper_bound_A(cert.B, net.delta, 16) <= 0.9 / 16
    assert cert.A_lower <= 0.9 / 16 < cert.A_upper
    assert cert.verdict is Verdict.UNDETERMINED


def test_verdict_undetermined_band():
    # at d = 2 the spectral bound is A itself, so the band opens from d = 3 on:
    # here d A_lower = 0.373 and d A_upper = 0.426
    ch = build_random_channel(3, 64, RngStream(27))
    cert = verdict(ch, 0.4, rng=RngStream(29))
    assert cert.A_lower <= 0.4 / 3 < cert.A_upper
    assert cert.verdict is Verdict.UNDETERMINED


def test_certificate_refuses_bounds_above_upper():
    cert = verdict(build_random_channel(2, 8, RngStream(39)), 0.5, rng=RngStream(40))
    fields = {name: getattr(cert, name) for name in DeviationCertificate.__dataclass_fields__}
    DeviationCertificate(**fields)
    for name, value in (("A_lower", cert.A_upper * 1.001), ("B", cert.A_upper * 1.001)):
        with pytest.raises(InvalidParameter, match=f"{name}=.* exceeds A_upper"):
            DeviationCertificate(**{**fields, name: value})


def test_verdict_parameter_validation():
    ch = build_random_channel(2, 2, RngStream(30))
    net = small_net(2, 0.125, seed=31, size=4)
    with pytest.raises(InvalidParameter):
        verdict(ch, 1.0, net, rng=RngStream(32))
    # no lift, so a net of any radius only reports its B
    coarse = small_net(2, 0.6, seed=33, size=4)
    assert verdict(ch, 0.5, coarse, rng=RngStream(34)).delta == 0.6
    with pytest.raises(DimensionMismatch, match="net dimension 3 != channel dimension 2"):
        verdict(ch, 0.5, small_net(3, 0.125, seed=35, size=4), rng=RngStream(36))


def test_separation_helper_used_by_small_net():
    net = small_net(2, 0.35, seed=43, size=12)
    _require_separated(net.states, net.delta)
