"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite asserts every stated tolerance and runtime budget.
"""

import math
import statistics
import time

import numpy as np

from conftest import random_hermitian
from randomizer import (
    CONCENTRATION_EXPONENT,
    RngStream,
    SweepConfig,
    Verdict,
    alternating_max_lower_bound,
    audit_covering,
    build_delta_net,
    build_random_channel,
    build_weyl_channel,
    certified_upper_bound_A,
    default_net_delta,
    deviation,
    failure_log_bound,
    min_N_for_success,
    operator_norm,
    random_pure_states,
    required_N,
    run_concentration_trial,
    run_randomizing_sweep,
    sample_haar_unitaries,
    verdict,
)


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_exact_randomizer_oracle():
    start = time.perf_counter()
    epsilon = 0.1
    delta = default_net_delta(epsilon)
    worst_dev = 0.0
    verdicts = {}
    for d in (2, 3, 4, 5):
        ch = build_weyl_channel(d)
        for trial in range(100):
            phi = random_pure_states(d, 1, RngStream(100).child(d, trial))[0]
            worst_dev = max(worst_dev, deviation(ch, phi))
        net = build_delta_net(d, delta, RngStream(101).child(d), max_states=96)
        cert = verdict(ch, epsilon, net, restarts=8, rng=RngStream(102).child(d))
        verdicts[d] = cert.verdict
    elapsed = time.perf_counter() - start
    ok = (worst_dev <= 1e-10
          and all(v is Verdict.CERTIFIED_RANDOMIZING for v in verdicts.values())
          and elapsed < 30.0)
    _line(1, ok, f"max deviation {worst_dev:.2e}, verdicts "
                 f"{[v.value for v in verdicts.values()]}, {elapsed:.1f}s (< 30s)")


def test_criterion_2_single_unitary_analytic_case():
    start = time.perf_counter()
    epsilon = 0.5
    worst_err = 0.0
    all_refuted = True
    for d in range(2, 9):
        ch = build_random_channel(d, 1, RngStream(200).child(d))
        lower = alternating_max_lower_bound(ch, restarts=4, rng=RngStream(201).child(d))
        worst_err = max(worst_err, abs(lower.value - (1.0 - 1.0 / d)))
        net = build_delta_net(d, default_net_delta(epsilon), RngStream(202).child(d),
                              max_states=48)
        cert = verdict(ch, epsilon, net, restarts=4, rng=RngStream(203).child(d))
        all_refuted = all_refuted and cert.verdict is Verdict.CERTIFIED_NOT_RANDOMIZING
    elapsed = time.perf_counter() - start
    ok = worst_err <= 1e-9 and all_refuted and elapsed < 10.0
    _line(2, ok, f"max |A_lower - (1 - 1/d)| = {worst_err:.2e}, all refuted: "
                 f"{all_refuted}, {elapsed:.1f}s (< 10s)")


def test_criterion_3_concentration_grid():
    start = time.perf_counter()
    d, trials = 4, 10_000
    rows = []
    ok = True
    for index, (n, delta) in enumerate((n, dl) for n in (50, 100, 200) for dl in (0.3, 0.5)):
        rep = run_concentration_trial(d, n, delta, trials, RngStream(300).child(index))
        slack = 3.0 * math.sqrt(max(rep.empirical_tail * (1 - rep.empirical_tail), 1e-12) / trials)
        cell_ok = rep.vacuous or rep.empirical_tail <= rep.bound + slack
        ok = ok and cell_ok
        rows.append(f"N={n} delta={delta}: tail={rep.empirical_tail:.4f} "
                    f"bound={rep.bound:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _line(3, ok, "; ".join(rows) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_4_lift_tightness_identity():
    worst = 0.0
    for epsilon in (0.1, 0.3, 0.5, 0.7, 0.9):
        for d in (1, 2, 3, 5, 16):
            delta = default_net_delta(epsilon)
            lifted = certified_upper_bound_A(delta / d, delta, d)
            worst = max(worst, abs(lifted - epsilon / d))
    _line(4, worst <= 1e-12, f"max |lift(delta/d) - epsilon/d| = {worst:.2e} (<= 1e-12)")


def test_criterion_5_sandwich_and_gap_shrinkage():
    start = time.perf_counter()
    net = build_delta_net(2, 0.125, RngStream(500))
    assert net.size <= 10_000
    gaps = {16: [], 64: [], 256: []}
    sandwich_ok = True
    for n in (16, 64, 256):
        for trial in range(50):
            ch = build_random_channel(2, n, RngStream(501).child(n, trial))
            cert = verdict(ch, 0.5, net, restarts=16, rng=RngStream(502).child(n, trial))
            sandwich_ok = sandwich_ok and cert.A_lower <= cert.A_upper + 1e-9
            # at d=2 the spectral A_upper is A itself, so the gap that shrinks is the lift's
            gaps[n].append(certified_upper_bound_A(cert.B, net.delta, 2) - cert.A_lower)
    median_16 = statistics.median(gaps[16])
    median_256 = statistics.median(gaps[256])
    elapsed = time.perf_counter() - start
    ok = sandwich_ok and median_256 < median_16 and elapsed < 600.0
    _line(5, ok, f"net size {net.size}, sandwich holds on 150 certificates: {sandwich_ok}, "
                 f"median lift gap N=16: {median_16:.4f} > N=256: {median_256:.4f}, "
                 f"{elapsed:.0f}s (< 600s)")


def test_criterion_6_bound_calculators():
    # independent re-derivation of both reference numbers from the formulas
    c = CONCENTRATION_EXPONENT
    required_oracle = math.ceil(150.0 * 2 / 0.25 * math.log(2.0))
    threshold = 25.0 * (math.log(2.0) + 8.0 * math.log(50.0)) / (c * 0.25)
    minimal_oracle = math.floor(threshold) + 1
    while failure_log_bound(2, 0.5, minimal_oracle) >= 0.0:
        minimal_oracle += 1

    required = required_N(2, 0.5)
    minimal = min_N_for_success(2, 0.5)

    minimality_ok = True
    for d in range(1, 101):
        for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            n = min_N_for_success(d, eps)
            if not (failure_log_bound(d, eps, n) < 0.0 <= failure_log_bound(d, eps, n - 1)):
                minimality_ok = False

    ok = (required == 832 == required_oracle
          and minimal == minimal_oracle == 13304
          and minimality_ok
          and failure_log_bound(2, 0.5, 13308) < 0.0)
    _line(6, ok, f"required_N(2,0.5)={required} (re-derived {required_oracle}); "
                 f"min_N_for_success(2,0.5)={minimal} (re-derived {minimal_oracle}; "
                 f"the quoted 13308 gives log-bound "
                 f"{failure_log_bound(2, 0.5, 13308):.4f} < 0 but is not minimal); "
                 f"minimality contract d<=100: {minimality_ok}")


def test_criterion_7_desk_scale_success_rate():
    start = time.perf_counter()
    config = SweepConfig(dims=(2,), epsilons=(0.9,), counts=(2000,),
                         channels_per_cell=20, restarts=16)
    report = run_randomizing_sweep(config, RngStream(700))
    cell = report.cells[0]
    elapsed = time.perf_counter() - start
    ok = cell.frac_certified >= 0.5 and elapsed < 900.0
    _line(7, ok, f"d=2 epsilon=0.9 N=2000: certified fraction "
                 f"{cell.frac_certified:.2f} (>= 0.5), undetermined "
                 f"{cell.frac_undetermined:.2f}, {elapsed:.0f}s (< 900s)")


def test_criterion_8_net_audit():
    net = build_delta_net(2, 0.5, RngStream(800))
    report = audit_covering(net, 100_000, RngStream(801))
    ok = report.failures == 0 and net.size <= 10_000
    _line(8, ok, f"net size {net.size} (<= 1e4), audit over 1e5 trials: "
                 f"{report.failures} failures, max gap {report.max_gap:.4f}")


def test_criterion_9_numerical_substrate():
    worst = 0.0
    for trial in range(1000):
        d = 1 + trial % 16
        h = random_hermitian(d, RngStream(900).child(trial), scale=1.0 + trial % 4)
        values, vectors = np.linalg.eigh(h)
        recon = (vectors * values) @ np.conj(vectors.T)
        scale = max(1.0, operator_norm(h))
        worst = max(worst, float(np.max(np.abs(h - recon))) / scale)
    us = sample_haar_unitaries(4, 100_000, RngStream(901))
    moment = float(np.mean(np.abs(us[:, 0, 0]) ** 2))
    ok = worst <= 1e-10 and abs(moment - 0.25) <= 0.01
    _line(9, ok, f"worst scaled reconstruction error {worst:.2e} (<= 1e-10); "
                 f"E|U_11|^2 = {moment:.4f} (0.25 +- 0.01)")
