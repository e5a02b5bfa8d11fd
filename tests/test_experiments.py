import csv
import json
import os

import numpy as np
import pytest

from randomizer import (
    InvalidMatrix,
    InvalidParameter,
    ParseError,
    RngStream,
    SweepConfig,
    build_delta_net,
    build_random_channel,
    build_weyl_channel,
    certificate_to_dict,
    channel_from_unitaries,
    load_channel,
    load_net,
    pair_statistic,
    random_pure_states,
    run_concentration_trial,
    run_randomizing_sweep,
    save_certificate,
    save_channel,
    save_net,
    verdict,
    write_concentration_csv,
    write_sweep_csv,
)
from randomizer.experiments import parallel_map, resolve_threads


def e_k(d, k=0):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# concentration harness
# ---------------------------------------------------------------------------

def test_concentration_dim_one_never_exceeds():
    rep = run_concentration_trial(1, 3, 0.5, 200, e_k(1), e_k(1), RngStream(1))
    assert rep.empirical_tail == 0.0
    assert rep.stat_mean == pytest.approx(1.0, abs=1e-12)


def test_concentration_vacuous_flag():
    rep = run_concentration_trial(4, 5, 0.05, 1000, e_k(4), e_k(4), RngStream(2))
    assert rep.bound >= 1.99
    assert rep.vacuous


def test_concentration_matches_per_channel_statistic():
    d, n, trials = 3, 4, 50
    rep = run_concentration_trial(d, n, 0.3, trials, e_k(d), e_k(d), RngStream(3))
    # same stream, same batched draw: one chunk covers all trials, and only the
    # states U_i e_0 enter, so any unitary with a drawn state as its first column will do
    states = random_pure_states(d, trials * n, RngStream(3)).reshape(trials, n, d)
    stats = []
    for k in range(trials):
        us = []
        for v in states[k]:
            q, _ = np.linalg.qr(np.column_stack([v, np.eye(d, dtype=complex)[:, 1:]]))
            assert abs(abs(np.vdot(q[:, 0], v)) - 1.0) <= 1e-12  # q[:, 0] is v up to a phase
            us.append(q)
        ch = channel_from_unitaries(np.stack(us))
        stats.append(pair_statistic(ch, e_k(d), e_k(d)))
    stats = np.asarray(stats)
    assert rep.stat_mean == pytest.approx(float(np.mean(stats)), abs=1e-12)
    expected_tail = float(np.mean(np.abs(stats - 1 / d) >= 0.3 / d))
    assert rep.empirical_tail == pytest.approx(expected_tail, abs=1e-12)


def test_concentration_reproducible():
    a = run_concentration_trial(2, 8, 0.4, 300, e_k(2), e_k(2), RngStream(4))
    b = run_concentration_trial(2, 8, 0.4, 300, e_k(2), e_k(2), RngStream(4))
    assert a == b


def test_concentration_random_pair_behaves_like_basis_pair():
    # the tail does not depend on the probe pair (unitary invariance)
    from randomizer import random_pure_state
    d, n, delta, trials = 4, 50, 0.3, 2000
    basis = run_concentration_trial(d, n, delta, trials, e_k(d), e_k(d), RngStream(70))
    phi = random_pure_state(d, RngStream(71))
    psi = random_pure_state(d, RngStream(72))
    randomized = run_concentration_trial(d, n, delta, trials, phi, psi, RngStream(73))
    assert basis.empirical_tail <= basis.bound
    assert randomized.empirical_tail <= randomized.bound
    assert abs(basis.stat_mean - randomized.stat_mean) <= 0.01


def test_concentration_validation():
    with pytest.raises(InvalidParameter):
        run_concentration_trial(2, 8, 1.5, 10, e_k(2), e_k(2), RngStream(5))
    with pytest.raises(InvalidParameter):
        run_concentration_trial(2, 8, 0.4, 0, e_k(2), e_k(2), RngStream(5))
    with pytest.raises(InvalidParameter):
        run_concentration_trial(3, 8, 0.4, 10, e_k(2), e_k(2), RngStream(5))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_trivial_cells():
    # default delta at epsilon=0.1 is guard-infeasible at d=2, so the cell
    # runs on a budgeted net; the N=1 refutation only needs the witness side
    config = SweepConfig(dims=(1, 2), epsilons=(0.1,), counts=(1,),
                         channels_per_cell=3, restarts=4, max_net_states=200)
    report = run_randomizing_sweep(config, RngStream(6))
    by_dim = {cell.dim: cell for cell in report.cells}
    assert by_dim[1].frac_certified == 1.0  # d=1 is always exactly randomized
    assert by_dim[2].frac_not == 1.0  # single unitary: A = 1 - 1/d = 0.5 > 0.05
    for cell in report.cells:
        assert cell.frac_certified + cell.frac_not + cell.frac_undetermined == pytest.approx(1.0)


def test_sweep_skips_infeasible_cells():
    config = SweepConfig(dims=(6,), epsilons=(0.5,), counts=(4,), channels_per_cell=2)
    report = run_randomizing_sweep(config, RngStream(7))
    cell = report.cells[0]
    assert cell.skipped
    assert "ceiling" in cell.reason or "max_states" in cell.reason


def test_sweep_reproducible_and_thread_invariant():
    config = SweepConfig(dims=(2,), epsilons=(0.3, 0.7), counts=(4, 16),
                         channels_per_cell=2, delta=0.35, restarts=4)
    a = run_randomizing_sweep(config, RngStream(8), threads=1)
    b = run_randomizing_sweep(config, RngStream(8), threads=4)
    assert a.cells == b.cells


def test_parallel_map_orders_results():
    items = list(range(20))
    assert parallel_map(lambda x: x * x, items, threads=4) == [x * x for x in items]


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("RANDOMIZER_THREADS", "5")
    assert resolve_threads() == 5
    monkeypatch.setenv("RANDOMIZER_THREADS", "zero")
    with pytest.raises(InvalidParameter):
        resolve_threads()
    monkeypatch.delenv("RANDOMIZER_THREADS")
    assert resolve_threads() >= 1
    with pytest.raises(InvalidParameter):
        resolve_threads(0)
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
    assert set(payload) >= {"dim", "delta", "states", "seed", "stop_k", "max_states",
                            "candidates", "rejections", "stopped_by"}
    budgeted = build_delta_net(2, 0.3, RngStream(15), max_states=7)
    save_net(path, budgeted)
    assert load_net(path).provenance == budgeted.provenance


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
        run_concentration_trial(2, 4, 0.4, 50, e_k(2), e_k(2), RngStream(15).child(i))
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
    skipped_row = [r for r in rows[1:] if r[0] == "6"][0]
    assert skipped_row[3] == "0" and skipped_row[4] == ""
