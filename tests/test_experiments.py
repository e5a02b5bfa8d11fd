import csv
import json
import os

import numpy as np
import pytest

from randomizer import (
    InvalidDimension,
    InvalidMatrix,
    InvalidParameter,
    ParseError,
    RngStream,
    SweepConfig,
    alternating_max_lower_bound,
    audit_covering,
    build_delta_net,
    build_random_channel,
    build_weyl_channel,
    certificate_to_dict,
    load_channel,
    load_net,
    random_pure_states,
    run_concentration_trial,
    run_randomizing_sweep,
    save_certificate,
    save_channel,
    sample_haar_unitaries,
    save_net,
    verdict,
    write_concentration_csv,
    write_sweep_csv,
)
import randomizer.experiments as experiments
import randomizer.netcover as netcover
from randomizer.experiments import parallel_map, resolve_threads


# ---------------------------------------------------------------------------
# concentration harness
# ---------------------------------------------------------------------------

def exact_law_terms(d, uniforms):
    """X = -expm1(log1p(-V) / (d - 1)), the Beta(1, d - 1) inversion; X = 1 at d = 1."""
    if d == 1:
        return np.ones_like(uniforms)
    return -np.expm1(np.log1p(-uniforms) / (d - 1))


def oracle_stats(d, n, trials, seed):
    """Per-trial statistics from the same uniforms the harness draws from ``seed``."""
    uniforms = RngStream(seed).generator().random(trials * n)
    return np.mean(exact_law_terms(d, uniforms).reshape(trials, n), axis=1)


def ks_two_sample(a, b):
    """Largest gap between the empirical CDFs of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


def test_concentration_dim_one_never_exceeds():
    with np.errstate(all="raise"):
        rep = run_concentration_trial(1, 3, 0.5, 200, RngStream(1))
    assert rep.empirical_tail == 0.0
    assert rep.stat_mean == 1.0


def test_concentration_vacuous_flag():
    rep = run_concentration_trial(4, 5, 0.05, 1000, RngStream(2))
    assert rep.bound >= 1.99
    assert rep.vacuous


@pytest.mark.parametrize("d", [2, 4, 16])
def test_exact_law_matches_first_amplitudes(d):
    # |<e_1|U e_1>|^2 for Haar U is |x_0|^2 of a uniform pure state; 0.0073 is the
    # two-sample KS critical value at 1% for 10^5 draws per sample
    law = exact_law_terms(d, RngStream(40, d).generator().random(100_000))
    amps = np.abs(random_pure_states(d, 100_000, RngStream(41, d))[:, 0]) ** 2
    assert ks_two_sample(law, amps) < 0.0073


def test_concentration_mean_is_one_over_d():
    # E X = 1/4 for Beta(1, 3), with variance 3/80 per term
    d, n, trials = 4, 10, 10_000
    rep = run_concentration_trial(d, n, 0.3, trials, RngStream(42))
    sigma = np.sqrt(3 / 80 / (n * trials))
    assert abs(rep.stat_mean - 1 / d) <= 4 * sigma


def test_concentration_matches_per_channel_statistic():
    d, n, trials = 3, 4, 50
    rep = run_concentration_trial(d, n, 0.3, trials, RngStream(3))
    stats = oracle_stats(d, n, trials, 3)
    assert rep.stat_mean == pytest.approx(float(np.mean(stats)), abs=1e-12)
    expected_tail = float(np.mean(np.abs(stats - 1 / d) >= 0.3 / d))
    assert rep.empirical_tail == pytest.approx(expected_tail, abs=1e-12)


def test_concentration_reproducible():
    a = run_concentration_trial(2, 8, 0.4, 300, RngStream(4))
    b = run_concentration_trial(2, 8, 0.4, 300, RngStream(4))
    assert a == b


COUNT_CALLS = {
    "trials": lambda k: run_concentration_trial(2, 8, 0.4, k, RngStream(5)),
    "concentration N": lambda k: run_concentration_trial(2, k, 0.4, 3, RngStream(5)),
    "audit trials": lambda k: audit_covering(build_delta_net(2, 1.0, RngStream(6)), k,
                                             RngStream(7)),
    "max_states": lambda k: build_delta_net(2, 0.5, RngStream(8), max_states=k),
    "pure states": lambda k: random_pure_states(2, k, RngStream(9)),
    "unitaries": lambda k: sample_haar_unitaries(2, k, 1),
    "restarts": lambda k: alternating_max_lower_bound(build_weyl_channel(2), restarts=k,
                                                      rng=RngStream(10)),
    "max_iters": lambda k: alternating_max_lower_bound(build_weyl_channel(2), max_iters=k,
                                                       rng=RngStream(10)),
    "channels per cell": lambda k: run_randomizing_sweep(
        SweepConfig(dims=(1,), epsilons=(0.5,), counts=(1,), channels_per_cell=k), 11),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
@pytest.mark.parametrize("count", [2.5, 2.0, 1.5, True, np.True_, "2", 0, -1])
def test_counts_are_positive_integers_never_truncated(name, count):
    # a fractional or boolean count is refused, never truncated to 2 or read as 1
    with pytest.raises(InvalidDimension):
        COUNT_CALLS[name](count)


def test_whole_counts_of_any_integer_type_run():
    for name, call in COUNT_CALLS.items():
        call(np.int64(2))
        call(2)


def test_concentration_divides_by_the_trials_it_ran():
    report = run_concentration_trial(2, 8, 0.4, 3, RngStream(12))
    stats = oracle_stats(2, 8, 3, 12)
    assert report.trials == 3 and type(report.trials) is int
    assert report.stat_mean == pytest.approx(np.mean(stats), abs=1e-15)
    assert report.empirical_tail == np.mean(np.abs(stats - 0.5) >= 0.2)


def test_concentration_chunks_by_drawn_states(monkeypatch):
    whole = run_concentration_trial(2, 8, 0.4, 50, RngStream(13))
    # chunks of 12 trials (96 uniforms): draws are prefix-stable, so the counts agree
    monkeypatch.setattr(experiments, "_DRAW_ENTRIES", 100)
    chunked = run_concentration_trial(2, 8, 0.4, 50, RngStream(13))
    assert chunked.empirical_tail == whole.empirical_tail
    assert chunked.stat_mean == pytest.approx(whole.stat_mean, abs=1e-15)
    # the ceiling bounds N alone, at every d
    for d in (1, 2, 16):
        with pytest.raises(InvalidParameter, match="ceiling"):
            run_concentration_trial(d, 101, 0.4, 1, RngStream(13))
    run_concentration_trial(16, 100, 0.4, 1, RngStream(13))


def test_concentration_validation():
    with pytest.raises(InvalidParameter, match="ceiling"):
        run_concentration_trial(2, 10 ** 20, 0.4, 1, RngStream(5))
    with pytest.raises(InvalidParameter):
        run_concentration_trial(2, 8, 1.5, 10, RngStream(5))
    with pytest.raises(InvalidParameter):
        run_concentration_trial(2, 8, 0.4, 0, RngStream(5))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_trivial_cells():
    # the N=1 refutation only needs the witness side
    config = SweepConfig(dims=(1, 2), epsilons=(0.5,), counts=(1,),
                         channels_per_cell=3, restarts=4)
    report = run_randomizing_sweep(config, RngStream(6))
    by_dim = {cell.dim: cell for cell in report.cells}
    assert by_dim[1].frac_certified == 1.0  # d=1 is always exactly randomized
    assert by_dim[2].frac_not == 1.0  # single unitary: A = 1 - 1/d = 0.5 > 0.25
    for cell in report.cells:
        assert cell.frac_certified + cell.frac_not + cell.frac_undetermined == pytest.approx(1.0)


def test_sweep_cell_at_d6_reports_verdicts(monkeypatch):
    # a cell builds no net, so no dimension is out of reach for the feasibility guard
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep cell built a net")

    monkeypatch.setattr(experiments, "build_delta_net", refuse)
    monkeypatch.setattr(netcover, "build_delta_net", refuse)
    config = SweepConfig(dims=(6,), epsilons=(0.5,), counts=(4, 400), channels_per_cell=2,
                         restarts=4)
    report = run_randomizing_sweep(config, RngStream(7))
    for cell in report.cells:
        assert cell.channels == 2
        assert cell.frac_certified + cell.frac_not + cell.frac_undetermined == pytest.approx(1.0)
        assert 0.0 <= cell.mean_A_lower <= cell.mean_A_upper
    assert report.cells[0].frac_not == 1.0  # 4 unitaries on C^6 are far from randomizing


def test_sweep_reproducible_and_thread_invariant(monkeypatch):
    config = SweepConfig(dims=(2, 3), epsilons=(0.5, 0.9), counts=(4, 16),
                         channels_per_cell=2, restarts=4)
    monkeypatch.setenv("RANDOMIZER_THREADS", "1")
    a = run_randomizing_sweep(config, RngStream(8))
    monkeypatch.setenv("RANDOMIZER_THREADS", "4")
    b = run_randomizing_sweep(config, RngStream(8))
    assert a.cells == b.cells


def test_parallel_map_orders_results(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "4")
    items = list(range(20))
    assert list(parallel_map(lambda x: x * x, items)) == [x * x for x in items]


def test_resolve_threads(monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "5")
    assert resolve_threads() == 5
    for bad in ("zero", "0"):
        monkeypatch.setenv("RANDOMIZER_THREADS", bad)
        with pytest.raises(InvalidParameter):
            resolve_threads()
    monkeypatch.delenv("RANDOMIZER_THREADS")
    assert resolve_threads() >= 1
    # the default counts the cores this process may run on, not the machine's
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert resolve_threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert resolve_threads() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # platforms without affinity
    assert resolve_threads() == 64


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_channel_round_trip(tmp_path):
    ch = build_random_channel(3, 4, RngStream(9))
    path = tmp_path / "ch.json"
    save_channel(path, ch)
    loaded = load_channel(path)
    assert np.array_equal(loaded.gram, ch.gram)
    assert np.array_equal(loaded.superoperator, ch.superoperator)
    assert loaded.gram.tobytes() == ch.gram.tobytes()
    assert loaded.dim == 3 and loaded.count == 4
    assert loaded.provenance == ch.provenance
    assert set(json.loads(path.read_text())) == {"schema", "dim", "count", "seed", "stream_id",
                                                 "kind", "gram"}


def test_verify_on_reloaded_channel_matches_in_memory(tmp_path):
    ch = build_random_channel(2, 64, RngStream(20))
    path = tmp_path / "ch.json"
    save_channel(path, ch)
    net = build_delta_net(2, 0.3, RngStream(21))
    certs = [certificate_to_dict(verdict(c, 0.5, net, restarts=4, rng=RngStream(22)))
             for c in (ch, load_channel(path))]
    for cert in certs:
        cert.pop("timings")
    assert certs[0] == certs[1]


def test_channel_truncated_file(tmp_path):
    ch = build_random_channel(2, 2, RngStream(10))
    path = tmp_path / "ch.json"
    save_channel(path, ch)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(ParseError):
        load_channel(path)


def test_channel_wrong_schema(tmp_path):
    path = tmp_path / "ch.json"
    for schema in ("ruc-1", "ruc-3", None):
        path.write_text(json.dumps({"schema": schema, "dim": 1, "count": 1,
                                    "unitaries": [[[[1.0, 0.0]]]], "gram": [[[1.0, 0.0]]]}))
        with pytest.raises(ParseError, match="unsupported schema"):
            load_channel(path)


def _pairs(c):
    return np.stack([c.real, c.imag], axis=-1).tolist()


def _kraus_gram(ops):
    """sum_k vec(K_k) vec(K_k)†, the matrix C of the map rho -> sum_k K_k rho K_k†."""
    return sum(np.outer(k.reshape(-1), np.conj(k.reshape(-1))) for k in ops)


def test_channel_tampered_gram_rejected(tmp_path):
    ch = build_random_channel(2, 2, RngStream(11))
    path = tmp_path / "ch.json"
    save_channel(path, ch)
    saved = json.loads(path.read_text())
    reset = [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)]

    def entry(row, col, pair):
        def tamper(gram):
            gram[row][col] = pair
            return gram
        return tamper

    cases = [
        # one entry of a conjugate pair moved: C is not Hermitian
        (entry(0, 1, [saved["gram"][0][1][0] + 1e-6, saved["gram"][0][1][1]]), "not Hermitian"),
        # a diagonal entry moved: trace no longer d, both partial traces broken
        (entry(0, 0, [saved["gram"][0][0][0] + 0.1, 0.0]), "partial trace"),
        # the transpose map: Hermitian, trace preserving and unital, eigenvalue -1
        (lambda gram: _pairs(np.eye(4, dtype=complex)[[0, 2, 1, 3]]), "positive semidefinite"),
        # reset to |0>: trace preserving, not unital; its adjoint: unital, not trace preserving
        (lambda gram: _pairs(_kraus_gram(reset)), "partial trace of C over its second"),
        (lambda gram: _pairs(_kraus_gram([np.conj(k.T) for k in reset])),
         "partial trace of C over its first"),
        (entry(1, 2, [float("nan"), 0.0]), "non-finite"),
    ]
    for tamper, message in cases:
        payload = json.loads(json.dumps(saved))
        payload["gram"] = tamper(payload["gram"])
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidMatrix, match=message):
            load_channel(path)
    for gram in (saved["gram"][:3], [row[:3] for row in saved["gram"][:3]]):  # not 4 x 4
        path.write_text(json.dumps({**saved, "gram": gram}))
        with pytest.raises(ParseError, match="gram shape"):
            load_channel(path)


def test_net_round_trip(tmp_path):
    net = build_delta_net(2, 0.8, RngStream(12))
    path = tmp_path / "net.json"
    save_net(path, net)
    loaded = load_net(path)
    assert np.array_equal(loaded.states, net.states)
    assert loaded.delta == net.delta
    assert loaded.provenance == net.provenance
    payload = json.loads(path.read_text())
    assert set(payload) == {"dim", "delta", "states", "seed", "stream_id", "max_states",
                            "candidates", "rejections", "stopped_by"}
    path.write_text(json.dumps({**payload, "stop_k": 200}))  # written when stop_k was settable
    legacy = load_net(path)
    assert np.array_equal(legacy.states, net.states)
    assert legacy.provenance == net.provenance
    budgeted = build_delta_net(2, 0.3, RngStream(15), max_states=7)
    save_net(path, budgeted)
    assert load_net(path).provenance == budgeted.provenance


def test_int_seeded_net_records_its_stream(tmp_path):
    net = build_delta_net(2, 0.8, 7)
    assert (net.provenance["seed"], net.provenance["stream_id"]) == (7, 0)
    streamed = build_delta_net(2, 0.8, RngStream(7))
    assert np.array_equal(net.states, streamed.states)
    assert net.provenance == streamed.provenance
    path = tmp_path / "net.json"
    save_net(path, net)
    loaded = load_net(path)
    assert (loaded.provenance["seed"], loaded.provenance["stream_id"]) == (7, 0)
    with pytest.raises(TypeError):  # a Generator would name no stream
        build_delta_net(2, 0.8, RngStream(7).generator())


def test_certificate_schema(tmp_path):
    net = build_delta_net(2, 0.125, RngStream(13), max_states=300)
    cert = verdict(build_weyl_channel(2), 0.5, net, restarts=4, rng=RngStream(14))
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    payload = json.loads(path.read_text())
    assert set(payload) == {"delta", "B", "A_upper", "A_lower", "epsilon",
                            "verdict", "witnesses", "timings"}
    assert payload["verdict"] == "CertifiedRandomizing"
    assert set(payload["witnesses"]) == {"phi", "psi"}


def test_saved_bytes_match_streaming_encoder(tmp_path):
    # json.dump streams the same payload through the pure-Python encoder: the oracle
    net = build_delta_net(2, 0.3, RngStream(16), max_states=20)
    ch = build_random_channel(3, 6, RngStream(17))
    cert = verdict(ch, 0.5, build_delta_net(3, 0.4, RngStream(18), max_states=30),
                   restarts=2, rng=RngStream(19))
    for name, save, obj in (("ch.json", save_channel, ch), ("net.json", save_net, net),
                            ("cert.json", save_certificate, cert)):
        path = tmp_path / name
        save(path, obj)
        with open(tmp_path / "oracle.json", "w", encoding="utf-8") as handle:
            json.dump(json.loads(path.read_text()), handle, separators=(",", ":"),
                      sort_keys=True)
            handle.write("\n")
        assert path.read_bytes() == (tmp_path / "oracle.json").read_bytes()


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_concentration_csv(tmp_path):
    reports = [
        run_concentration_trial(2, 4, 0.4, 50, RngStream(15).child(i))
        for i in range(2)
    ]
    path = tmp_path / "conc.csv"
    write_concentration_csv(path, reports)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["d", "N", "delta", "trials", "empirical_tail", "bound", "vacuous", "seed"]
    assert len(rows) == 3
    assert float(rows[1][5]) == pytest.approx(reports[0].bound, rel=1e-12)
    assert rows[1][6] in ("true", "false")


def test_sweep_csv(tmp_path):
    config = SweepConfig(dims=(1, 6), epsilons=(0.2,), counts=(2,), channels_per_cell=2)
    report = run_randomizing_sweep(config, RngStream(16))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, report)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["d", "epsilon", "N", "channels", "frac_certified", "frac_not",
                       "frac_undetermined", "mean_A_upper", "mean_A_lower", "seed"]
    assert len(rows) == 3
    for row, cell in zip(rows[1:], report.cells):  # the d=6 row too: no cell is skipped
        assert row[3] == "2"
        assert [float(v) for v in row[4:9]] == [cell.frac_certified, cell.frac_not,
                                                cell.frac_undetermined, cell.mean_A_upper,
                                                cell.mean_A_lower]
