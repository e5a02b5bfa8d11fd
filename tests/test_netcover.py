import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import projector, stream, trace_norm
from randomizer import (
    DimensionMismatch,
    InvalidParameter,
    NetInfeasible,
    PureStateNet,
    RngStream,
    audit_covering,
    build_delta_net,
    log_cardinality_bound,
    random_pure_states,
)
import randomizer.netcover as netcover
from randomizer.linalg import hermitian_coordinates
from randomizer.netcover import (
    _BLOCK_ENTRIES,
    _CANDIDATE_BATCH,
    _nearest_overlap,
    _overlap_threshold,
    _sorted_by_key,
    _window_max,
    _window_reach,
)


def trace_distance_pure(x: np.ndarray, y: np.ndarray) -> float:
    """Oracle: trace-norm distance between rank-1 projectors, 2 sqrt(1 - |<x|y>|^2).

    Evaluated through the component of y orthogonal to x, which keeps full
    precision near coincident states where 1 - |<x|y>|^2 cancels.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"state shapes differ: {x.shape} vs {y.shape}")
    overlap = np.vdot(x, y)
    perp = float(np.linalg.norm(y - overlap * x))  # |y_perp|^2 = 1 - |<x|y>|^2 for unit x, y
    return 2.0 * min(1.0, perp)


def test_trace_distance_trivia():
    x = random_pure_states(3, 1, stream(1))[0]
    assert trace_distance_pure(x, x) <= 1e-12
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert trace_distance_pure(e0, e1) == pytest.approx(2.0, abs=1e-14)


def test_trace_distance_superposition():
    # eigenvalues of the 2x2 difference worked by hand: +-1/sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert trace_distance_pure(e0, plus) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert trace_norm(projector(e0) - projector(plus)) == pytest.approx(
        np.sqrt(2), abs=1e-12
    )


def test_closed_form_matches_trace_norm():
    gen = stream(2)
    for trial in range(1000):
        d = 2 + trial % 4
        x = random_pure_states(d, 1, gen.child(trial, 0))[0]
        y = random_pure_states(d, 1, gen.child(trial, 1))[0]
        direct = trace_norm(projector(x) - projector(y))
        assert abs(trace_distance_pure(x, y) - direct) <= 1e-10


def test_phase_invariance():
    x = random_pure_states(4, 1, stream(3))[0]
    y = random_pure_states(4, 1, stream(4))[0]
    base = trace_distance_pure(x, y)
    for theta in (0.1, 1.0, 2.5, np.pi):
        assert abs(trace_distance_pure(x, np.exp(1j * theta) * y) - base) <= 1e-12


def test_log_cardinality_bound_values():
    assert log_cardinality_bound(2, 0.5) == pytest.approx(4 * math.log(10), abs=1e-12)
    assert log_cardinality_bound(2, 0.5) == pytest.approx(9.2103, abs=5e-4)
    assert log_cardinality_bound(1, 0.2) == pytest.approx(2 * math.log(25), abs=1e-12)
    assert log_cardinality_bound(1, 0.2) == pytest.approx(6.4378, abs=5e-4)
    with pytest.raises(InvalidParameter):
        log_cardinality_bound(2, 1.0)
    with pytest.raises(InvalidParameter):
        log_cardinality_bound(2, 0.0)


def test_build_dim_one_single_state():
    net = build_delta_net(1, 0.5, RngStream(5))
    assert net.size == 1


def test_build_degenerate_radius():
    # very coarse radius: a handful of spread-out states still audits clean
    net = build_delta_net(2, 1.9, RngStream(6))
    assert net.size >= 1
    report = audit_covering(net, 10_000, RngStream(7))
    assert report.failures == 0


def test_build_separation_certificate():
    net = build_delta_net(2, 0.5, RngStream(8))
    states = net.states
    for i in range(net.size):
        for j in range(i + 1, net.size):
            assert trace_distance_pure(states[i], states[j]) >= net.delta / 2
    # reconstructing the net re-runs the certificate
    PureStateNet(net.dim, net.delta, net.states, net.provenance)


def test_separation_certificate_rejects_close_pair():
    x = np.array([1, 0], dtype=complex)
    y = np.array([np.sqrt(1 - 1e-6), np.sqrt(1e-6)], dtype=complex)
    with pytest.raises(InvalidParameter):
        PureStateNet(2, 0.5, np.stack([x, y]))


@pytest.mark.parametrize("group", [1, netcover._WINDOW_ROWS])
@pytest.mark.parametrize("d, count", [(2, 30), (2, 600), (3, 300), (4, 40), (5, 100)])
def test_separation_certificate_agrees_with_full_scan_near_threshold(d, count, group,
                                                                     monkeypatch):
    # the certificate scans F_0 windows only; a radius whose delta/2 sits just above or just
    # below the closest pair's trace distance must get the verdict of the all-pairs scan.
    # Groups of one state scan each state's own window alone, so the reach is tested too.
    monkeypatch.setattr(netcover, "_WINDOW_ROWS", group)
    gen = RngStream(60 + d).generator()
    for _ in range(5):
        states = random_pure_states(d, count, gen)
        ov2 = np.abs(states @ np.conj(states.T)) ** 2
        np.fill_diagonal(ov2, 0.0)
        closest = 2.0 * math.sqrt(1.0 - float(np.max(ov2)))
        PureStateNet(d, 2.0 * closest * (1.0 - 1e-6), states)
        with pytest.raises(InvalidParameter, match="separation certificate failed: pair at"):
            PureStateNet(d, 2.0 * closest * (1.0 + 1e-6), states)


def test_build_respects_cardinality_bound():
    net = build_delta_net(2, 0.5, RngStream(9))
    assert net.size <= 10_000  # (5/0.5)^(2*2)
    assert math.log(net.size) <= log_cardinality_bound(2, 0.5)


def test_audit_passes_on_built_net():
    net = build_delta_net(2, 0.5, RngStream(10))
    report = audit_covering(net, 100_000, RngStream(11))
    assert report.failures == 0
    assert report.max_gap <= net.delta


def test_audit_takes_a_stream_or_an_int_seed():
    net = build_delta_net(2, 0.5, RngStream(10))
    assert audit_covering(net, 5000, 11) == audit_covering(net, 5000, RngStream(11))
    with pytest.raises(TypeError):
        audit_covering(net, 5000, RngStream(11).generator())


def test_audit_catches_undersized_net():
    single = PureStateNet(2, 0.1, random_pure_states(2, 1, RngStream(12)))
    report = audit_covering(single, 10_000, RngStream(13))
    assert report.failures > 0
    assert report.max_gap > 0.1


def test_audit_orthonormal_basis_coarse_radius():
    basis = np.eye(2, dtype=complex)
    net = PureStateNet(2, 1.99, basis)
    report = audit_covering(net, 10_000, RngStream(14))
    assert report.failures == 0


def test_feasibility_guard():
    with pytest.raises(NetInfeasible):
        build_delta_net(5, 0.3, RngStream(15))
    budgeted = build_delta_net(5, 0.3, RngStream(15), max_states=50)
    assert budgeted.size == 50
    assert budgeted.provenance["stopped_by"] == "budget"


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        build_delta_net(2, 0.0, RngStream(16))
    with pytest.raises(InvalidParameter):
        build_delta_net(2, 2.0, RngStream(16))
    # a bool is no radius, though True lies in (0, 2)
    for flag in (True, np.True_):
        with pytest.raises(InvalidParameter, match=r"delta must lie in \(0, 2\), got True"):
            PureStateNet(2, flag, np.array([[1, 0j]]))
    with pytest.raises(InvalidParameter):
        build_delta_net(2, True, RngStream(16))


def test_uniform_sampling_first_component():
    vecs = random_pure_states(4, 100_000, RngStream(17))
    assert abs(float(np.mean(np.abs(vecs[:, 0]) ** 2)) - 0.25) <= 0.01


def test_builder_reproducible():
    a = build_delta_net(2, 0.6, RngStream(18))
    b = build_delta_net(2, 0.6, RngStream(18))
    assert np.array_equal(a.states, b.states)
    assert a.provenance["candidates"] == b.provenance["candidates"]


def test_net_equality_is_identity():
    a = build_delta_net(2, 0.6, RngStream(18))
    b = build_delta_net(2, 0.6, RngStream(18))
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2


# ---------------------------------------------------------------------------
# the real overlap kernel against the candidate-by-candidate complex oracle
# ---------------------------------------------------------------------------

def _reference_build(d, delta, rng, max_states=None):
    """The builder as a plain sequential loop over candidates with complex overlaps.

    Returns the kept states, the provenance counters, and where the loop
    stopped: the batch and the position in it of the last candidate counted,
    and, after a rejection stop, how many later candidates of that batch a
    greedy pass over the whole batch would still accept. Draws prefix-stable
    batches from the same stream as ``build_delta_net``, so it sees the same
    candidates as the builder's blocks.
    """
    gen = rng.generator()
    threshold = _overlap_threshold(delta)
    ceiling = math.inf if max_states is None else max_states
    kept = np.zeros((0, d), dtype=complex)
    consecutive = candidates = rejections = 0
    stopped_by = "rejections"

    def accepts(states, x):
        return not len(states) or float(np.max(np.abs(states @ np.conj(x)) ** 2)) <= threshold

    for batch_index in itertools.count():
        batch = random_pure_states(d, _CANDIDATE_BATCH, gen)
        for pos, x in enumerate(batch):
            candidates += 1
            if accepts(kept, x):
                kept = np.vstack([kept, x])
                consecutive = 0
                if len(kept) >= ceiling:
                    stopped_by = "budget"
                    break
            else:
                rejections += 1
                consecutive += 1
                if consecutive >= max(1000, 20 * len(kept)):
                    break
        else:
            continue
        break
    later = kept
    for x in batch[pos + 1:] if stopped_by == "rejections" else ():
        if accepts(later, x):
            later = np.vstack([later, x])
    prov = {"candidates": candidates, "rejections": rejections, "stopped_by": stopped_by}
    stop = {"batch": batch_index, "position": pos, "later_accepts": len(later) - len(kept)}
    return kept, prov, stop


# (d, delta, seed, max_states) -> the stop branch the case exercises
BUILDER_CASES = {
    # one state, then the stop rule
    (1, 0.5, 26, None): {"size": 1, "stopped_by": "rejections"},
    # the stop rule tracks the growing net: the stopping run is 20 * size > 1000
    (2, 0.5, 25, None): {"stopped_by": "rejections", "growing": True},
    # coarse radius, a handful of states
    (2, 1.9, 28, None): {"stopped_by": "rejections", "handful": True},
    (3, 1.5, 21, None): {"stopped_by": "rejections"},
    # stops at candidate 351 (counting from 0) of its batch, with no accept after it
    (2, 0.3, 24, None): {"stopped_by": "rejections", "position": 351, "later_accepts": 0},
    # stops at candidate 75 of a batch that accepts a later candidate
    (2, 1.0, 67, None): {"stopped_by": "rejections", "position": 75, "later_accepts": 1},
    # stops at candidate 81 of a batch that accepts two later ones
    (2, 1.0, 50, None): {"stopped_by": "rejections", "position": 81, "later_accepts": 2},
    # budget reached inside the first batch
    (5, 0.3, 23, 300): {"stopped_by": "budget", "batch": 0},
    # budget reached partway through the third batch
    (3, 0.6, 22, 1000): {"stopped_by": "budget", "batch": 2},
    # the 64-state budgeted net at the top of desk scale
    (16, 0.5, 27, 64): {"size": 64, "stopped_by": "budget"},
    # the README flow's radius: hundreds of states, screened in blocks of thousands of candidates
    (2, 0.25, 38, None): {"stopped_by": "rejections", "growing": True, "batch": 154},
    # hundreds of states at d=3, whose late blocks fill to the 7281-candidate cap
    (3, 1.2, 29, None): {"stopped_by": "rejections", "growing": True},
}


@pytest.mark.parametrize("d, delta, seed, max_states", list(BUILDER_CASES))
def test_builder_matches_sequential_reference(d, delta, seed, max_states):
    branch = BUILDER_CASES[d, delta, seed, max_states]
    net = build_delta_net(d, delta, RngStream(seed), max_states=max_states)
    states, prov, stop = _reference_build(d, delta, RngStream(seed), max_states=max_states)
    assert np.array_equal(net.states, states)
    assert {key: net.provenance[key] for key in prov} == prov
    assert net.provenance["max_states"] == max_states
    assert all(type(net.provenance[key]) is int for key in ("candidates", "rejections"))
    json.dumps(net.provenance)
    # the case exercises the branch its comment names
    facts = {"size": net.size, "stopped_by": prov["stopped_by"], **stop,
             "growing": 20 * net.size > 1000, "handful": net.size <= 10}
    assert {key: facts[key] for key in branch} == branch, facts
    if "position" in branch or "batch" in branch:
        assert 0 < stop["position"] < _CANDIDATE_BATCH - 1  # inside the batch, not at an edge


@pytest.mark.parametrize("d, delta, seed, max_states", list(BUILDER_CASES))
def test_builder_screens_small_chunks_like_the_reference(d, delta, seed, max_states, monkeypatch):
    # chunks of 1 and 7 survivors decide each block in many chunks, each screened in F_0
    # windows against the states accepted earlier in its block; the reference keeps its
    # own batches of 512 candidates
    states, prov, _ = _reference_build(d, delta, RngStream(seed), max_states=max_states)
    for batch in (1, 7):
        monkeypatch.setattr(netcover, "_CANDIDATE_BATCH", batch)
        net = build_delta_net(d, delta, RngStream(seed), max_states=max_states)
        assert np.array_equal(net.states, states), batch
        assert {key: net.provenance[key] for key in prov} == prov, batch


def full_scan(feats, net_feats):
    """Oracle: each row's largest squared overlap with the net, from one untiled product."""
    return np.max(feats @ net_feats.T, axis=1)


def _reference_audit(net, trials, rng, chunk=4096):
    gen = rng.generator()
    gaps = []
    remaining = trials
    while remaining > 0:
        k = min(chunk, remaining)
        sample = random_pure_states(net.dim, k, gen)
        best = np.max(np.abs(sample @ np.conj(net.states.T)) ** 2, axis=1)
        gaps.append(2.0 * np.sqrt(np.maximum(0.0, 1.0 - best)))
        remaining -= k
    gaps = np.concatenate(gaps)
    return float(np.max(gaps)), int(np.sum(gaps > net.delta))


def _counting_draws(monkeypatch) -> list[int]:
    """The counts of every candidate draw the builder makes from now on, in order."""
    drawn = []

    def counting(d, count, rng):
        drawn.append(count)
        return random_pure_states(d, count, rng)

    monkeypatch.setattr(netcover, "random_pure_states", counting)
    return drawn


def test_budgeted_d16_net_draws_one_batch(monkeypatch):
    # the budget ends the first block: 64 candidates, all of them accepted
    drawn = _counting_draws(monkeypatch)
    net = build_delta_net(16, 0.5, RngStream(27), max_states=64)
    assert net.size == 64
    assert drawn == [64]


def test_late_d3_blocks_fill_to_the_block_length(monkeypatch):
    drawn = _counting_draws(monkeypatch)
    build_delta_net(3, 1.2, RngStream(29))
    longest = _BLOCK_ENTRIES // 9
    assert longest == 7281
    assert all(count <= longest for count in drawn)
    assert max(drawn) == longest


@pytest.mark.parametrize("d, delta, seed, max_states", list(BUILDER_CASES))
def test_builder_counts_every_candidate_it_draws(d, delta, seed, max_states, monkeypatch):
    # a stop fires only at a block's last candidate, so no drawn candidate goes uncounted
    drawn = _counting_draws(monkeypatch)
    net = build_delta_net(d, delta, RngStream(seed), max_states=max_states)
    assert sum(drawn) == net.provenance["candidates"]
    assert net.provenance["rejections"] == net.provenance["candidates"] - net.size


@pytest.mark.parametrize("d, delta", [(16, 1.0), (16, 1.5), (6, 1.9)])
def test_feasibility_guard_covers_coarse_radii(d, delta, monkeypatch):
    # from delta = 1 on the guard takes the bound's limit 2 d ln 5; with a small ceiling an
    # unguarded build fails fast instead of filling memory
    monkeypatch.setattr(netcover, "_SIZE_CEILING", 5000)
    drawn = _counting_draws(monkeypatch)
    with pytest.raises(NetInfeasible, match="covering bound"):
        build_delta_net(d, delta, RngStream(35))
    assert drawn == []
    budgeted = build_delta_net(d, delta, RngStream(35), max_states=8)
    assert budgeted.size == 8 and budgeted.provenance["stopped_by"] == "budget"


@pytest.mark.parametrize("d, delta", [(5, 1.0), (5, 1.9), (1, 1.5)])
def test_feasibility_guard_passes_coarse_radii_up_to_d5(d, delta, monkeypatch):
    # 2 * 5 * ln 5 = 16.09 stays below ln 1e7 = 16.12, so the guard lets these builds draw
    class Drawn(Exception):
        pass

    def drawing(d, count, rng):
        raise Drawn

    monkeypatch.setattr(netcover, "random_pure_states", drawing)
    with pytest.raises(Drawn):
        build_delta_net(d, delta, RngStream(36))


@pytest.mark.parametrize("make_net, trials", [
    (lambda: PureStateNet(1, 0.5, np.ones((1, 1), dtype=complex)), 10_001),
    (lambda: PureStateNet(2, 0.1, random_pure_states(2, 1, RngStream(12))), 10_001),
    (lambda: build_delta_net(2, 0.25, RngStream(31)), 10_001),
    # two full audit blocks at d=2 and a partial one
    (lambda: build_delta_net(2, 0.25, RngStream(31)), 2 * _BLOCK_ENTRIES // 4 + 1),
    (lambda: build_delta_net(3, 0.6, RngStream(32), max_states=400), 10_001),
    (lambda: build_delta_net(16, 0.5, RngStream(33), max_states=64), 10_001),
], ids=["d1", "d2-single", "d2-net", "d2-net-chunks", "d3-budget", "d16-budget"])
def test_audit_matches_complex_reference(make_net, trials):
    net = make_net()
    report = audit_covering(net, trials, RngStream(34))
    max_gap, failures = _reference_audit(net, trials, RngStream(34))
    assert report.failures == failures
    # at d=1 the gap is sqrt(roundoff), about 1e-8; elsewhere the two agree to 1e-15
    assert abs(report.max_gap - max_gap) <= 1e-7


@pytest.fixture(scope="module")
def net531():
    net = build_delta_net(2, 0.25, RngStream(3655785490956674035))
    assert net.size == 531
    return net


def test_audit_max_gap_does_not_depend_on_the_block_size(net531, monkeypatch):
    # the window products' last bits follow the block shape; max_gap is re-evaluated at the
    # worst sample against the whole net, so it reads the same for every block size
    def audit():
        return audit_covering(net531, 100_000, RngStream(2255741908637261349))

    reports = [audit()]
    for entries in (1 << 12, 1 << 14, 1 << 16):
        monkeypatch.setattr(netcover, "_BLOCK_ENTRIES", entries)
        reports.append(audit())
    assert len({(r.max_gap, r.failures) for r in reports}) == 1
    # 2 sqrt(1 - |<y|x>|^2) at the worst sample, evaluated to 40 digits, is 0.12940489465488507
    assert abs(reports[0].max_gap - 0.12940489465488507) <= 4e-16


def test_audit_peak_memory_is_one_block(net531):
    # a 2^14-sample block at d=2: 512 KB of features, the complex states and a 512 KB tile
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        audit_covering(net531, 100_000, RngStream(2255741908637261349))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 8), data=st.data())
def test_first_feature_moves_at_most_the_half_trace_distance(d, data):
    # | |x_0|^2 - |y_0|^2 | = |tr(P(rho - sigma))| <= ||rho - sigma||_1 / 2 for P = |0><0|
    parts = data.draw(hnp.arrays(np.float64, (2, d, 2),
                                 elements=st.floats(-1.0, 1.0, allow_nan=False)))
    states = parts[..., 0] + 1j * parts[..., 1]
    norms = np.linalg.norm(states, axis=1)
    assume(np.all(norms > 1e-3))
    x, y = states / norms[:, None]
    half_distance = trace_distance_pure(x, y) / 2.0
    assert abs(abs(x[0]) ** 2 - abs(y[0]) ** 2) <= half_distance + 1e-14


@pytest.mark.parametrize("d, net_size, radius", [
    (1, 3, 0.1), (2, 20, 0.5), (2, 200, 0.2), (3, 50, 0.6), (4, 100, 0.7), (16, 40, 0.99),
])
def test_window_max_equals_full_scan_within_reach(d, net_size, radius):
    gen = RngStream(40 + d).generator()
    net_feats = hermitian_coordinates(random_pure_states(d, net_size, gen))
    feats = hermitian_coordinates(random_pure_states(d, 20_000, gen))
    net_sorted = _sorted_by_key(net_feats)
    assert np.all(np.diff(net_sorted[:, 0]) >= 0.0)
    full = full_scan(feats, net_feats)
    window = _window_max(feats, net_sorted, _window_reach(radius * radius))
    # the window is part of the net, and holds the nearest state of every row within reach
    assert np.all(window <= full + 1e-15)
    within = full >= 1.0 - radius * radius
    assert np.count_nonzero(within) > 100
    assert np.max(np.abs(window[within] - full[within])) <= 1e-15


@pytest.mark.parametrize("d, net_size, delta", [(2, 200, 0.25), (2, 40, 0.6), (3, 100, 0.9)])
def test_audit_overlap_equals_full_scan_on_every_row(d, net_size, delta, monkeypatch):
    gen = RngStream(50 + d).generator()
    net_feats = hermitian_coordinates(random_pure_states(d, net_size, gen))
    feats = hermitian_coordinates(random_pure_states(d, 20_000, gen))
    full = full_scan(feats, net_feats)
    # rows lie beyond delta (failures), between delta/2 and delta, and within delta/2; only the
    # last are final in their window of reach delta/4, the others are rescanned in one that
    # holds the whole net
    tiers = np.digitize(full, [1.0 - delta * delta / 4.0, 1.0 - delta * delta / 16.0])
    assert np.all(np.bincount(tiers, minlength=3) > 0)
    # groups of one row scan each row's own window alone, so the delta/4 reach is tested too
    for group in (1, netcover._WINDOW_ROWS):
        monkeypatch.setattr(netcover, "_WINDOW_ROWS", group)
        best = _nearest_overlap(feats, _sorted_by_key(net_feats), delta)
        assert np.max(np.abs(best - full)) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 8), data=st.data())
def test_bloch_features_give_squared_overlaps(d, data):
    parts = data.draw(hnp.arrays(np.float64, (2, d, 2),
                                 elements=st.floats(-1.0, 1.0, allow_nan=False)))
    states = parts[..., 0] + 1j * parts[..., 1]
    norms = np.linalg.norm(states, axis=1)
    assume(np.all(norms > 1e-3))
    x, y = states / norms[:, None]
    feats = hermitian_coordinates(np.stack([x, y]))
    assert feats.shape == (2, d * d) and feats.dtype == np.float64
    assert abs(feats[0] @ feats[1] - abs(np.vdot(x, y)) ** 2) <= 1e-14
    assert abs(feats[0] @ feats[0] - 1.0) <= 1e-14


def test_builder_work_is_bounded(monkeypatch):
    # a d=2, delta=0.25 build counts about 1.8e7 feature entries of windowed candidate-state
    # pairs before its stop rule fires
    want = build_delta_net(2, 0.25, RngStream(31))
    small = build_delta_net(2, 0.5, RngStream(9))  # about 5e5 entries
    monkeypatch.setattr(netcover, "_WORK_CEILING", 10 ** 6)
    with pytest.raises(NetInfeasible, match="work ceiling"):
        build_delta_net(2, 0.25, RngStream(31))
    with pytest.raises(NetInfeasible, match="work ceiling"):
        build_delta_net(2, 0.25, RngStream(31), max_states=10 ** 6)
    # a build that stops below the ceiling is the same net
    again = build_delta_net(2, 0.5, RngStream(9))
    assert again.states.tobytes() == small.states.tobytes()
    assert again.provenance == small.provenance
    monkeypatch.setattr(netcover, "_WORK_CEILING", 10 ** 8)
    assert build_delta_net(2, 0.25, RngStream(31)).states.tobytes() == want.states.tobytes()


def test_work_counts_the_feature_entries_of_windowed_pairs(monkeypatch):
    # the second block's work is its candidates times the states the first block kept, times
    # the share 2 r of F_0's range that a window spans, times the d^2 entries of a pair: a
    # ceiling at exactly that count refuses the build after the second block, one just above
    # it only later
    d, delta, seed = 3, 0.9, 1
    real, blocks = netcover.random_pure_states, []

    def recording(d, n, gen):
        blocks.append(n)
        return real(d, n, gen)

    monkeypatch.setattr(netcover, "random_pure_states", recording)
    first = real(d, 1000, RngStream(seed).generator())  # the first block: the stop run of 1000
    threshold = netcover._overlap_threshold(delta)
    kept = []
    for x in first:  # oracle: the greedy pass, candidate by candidate
        if all(abs(np.vdot(y, x)) ** 2 <= threshold for y in kept):
            kept.append(x)
    share = 2.0 * netcover._window_reach(1.0 - threshold)
    monkeypatch.setattr(netcover, "_WORK_CEILING", 1)
    with pytest.raises(NetInfeasible):
        build_delta_net(d, delta, RngStream(seed))
    assert blocks[0] == 1000 and len(blocks) == 2
    entries = blocks[1] * len(kept) * share * d * d
    monkeypatch.setattr(netcover, "_WORK_CEILING", entries)
    with pytest.raises(NetInfeasible, match=f"{1000 + blocks[1]} candidates"):
        build_delta_net(d, delta, RngStream(seed))
    blocks.clear()
    monkeypatch.setattr(netcover, "_WORK_CEILING", np.nextafter(entries, math.inf))
    with pytest.raises(NetInfeasible, match="work ceiling"):
        build_delta_net(d, delta, RngStream(seed))
    assert len(blocks) == 3


def test_finest_d3_net_under_the_work_ceiling():
    # at seed 1 the d=3 nets build down to delta = 0.81; delta = 0.8, which a ceiling of 2^31
    # pairs let through, passes 2^33 feature entries (9.5e8 pairs at d = 3) before its stop rule
    net = build_delta_net(3, 0.81, RngStream(1))
    assert net.provenance["stopped_by"] == "rejections" and net.size == 1977
    with pytest.raises(NetInfeasible, match="work ceiling"):
        build_delta_net(3, 0.8, RngStream(1))
