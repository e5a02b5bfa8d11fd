"""The benchmark workloads: input generation, the timed calls, and output checks.

Each workload has three steps. ``prepare`` turns the seed into a list of
instances, the inputs the package receives; it belongs to set-up. ``run`` makes
the timed calls for one instance, always through module attributes
(``randomizer.cli.run``, ``randomizer.certify.verdict``, ...) so that the
tracing wrappers see them. ``check`` verifies one instance's
outputs afterwards, untimed, records every operation and check in a
``Ledger`` and returns the quality figures of its certificates.

Sizes are chosen so that one pass over the instances takes four to seven
seconds on one core with BLAS pinned to one thread. The CLI flow runs six
sessions per pass, and caps the ascent's iterations, because the net builder's
rejection-run stop rule and the ascent's convergence make the cost of one
session depend strongly on its seed; six sessions average that out.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import randomizer.certify
import randomizer.channel
import randomizer.cli
import randomizer.experiments
import randomizer.haar
import randomizer.netcover

# Sizes per workload; "tiny" exists for the self-tests and finishes in about a second.
SIZES = {
    "cli-verify-d2": {
        "full": {"sessions": 6, "dim": 2, "count": 2000, "epsilon": 0.9, "delta": 0.25,
                 "audit_trials": 100_000, "max_iters": 20},
        "tiny": {"sessions": 1, "dim": 2, "count": 50, "epsilon": 0.9, "delta": 0.45,
                 "audit_trials": 1000, "max_iters": 5},
    },
    "verify-d16": {
        "full": {"dim": 16, "count": 16000, "epsilon": 0.5, "net_states": 64, "restarts": 2,
                 "max_iters": 25},
        "tiny": {"dim": 4, "count": 200, "epsilon": 0.5, "net_states": 16, "restarts": 1,
                 "max_iters": 5},
    },
}

# The README's `bounds` example and its reference values from the paper's closed forms.
BOUNDS_ARGV = ["bounds", "--dim", "2", "--epsilon", "0.5"]
BOUNDS_EXPECTED = {"required_N": 832, "min_N_for_success": 13304}


@dataclass
class Ledger:
    """Operations and checks attempted, and the names of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def derive_seeds(count: int, seed: int, *keys: int) -> list[int]:
    """``count`` independent non-negative 63-bit seeds from the workload seed and ``keys``."""
    entropy = [int(seed) % (1 << 64), *keys]
    state = np.random.SeedSequence(entropy).generate_state(count, dtype=np.uint64)
    return [int(s) & ((1 << 63) - 1) for s in state]


def net_delta(epsilon: float) -> float:
    """The README's default net radius epsilon/(3 + 2 epsilon)."""
    return epsilon / (3.0 + 2.0 * epsilon)


def _pairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_certificate(ledger: Ledger, cert: dict, ch, covering: bool, tag: str) -> dict:
    """Check one certificate in ``certificate_to_dict`` form; returns its quality figures.

    ``covering`` says whether the net behind ``A_upper`` covers at its radius;
    only then must the sandwich ``A_lower <= A_upper`` hold.
    """
    d = ch.dim
    a_lower, a_upper, b = cert["A_lower"], cert["A_upper"], cert["B"]
    ledger.check(f"{tag}: B <= A_upper", b <= a_upper)
    if covering:
        ledger.check(f"{tag}: A_lower <= A_upper + 1e-9", a_lower <= a_upper + 1e-9)
    ledger.check(f"{tag}: 0 <= A_lower <= 1 - 1/d", 0.0 <= a_lower <= 1.0 - 1.0 / d)
    phi = _pairs(cert["witnesses"]["phi"])
    psi = _pairs(cert["witnesses"]["psi"])
    again = abs(randomizer.channel.pair_statistic(ch, phi, psi) - 1.0 / d)
    ledger.check(f"{tag}: witnesses reproduce A_lower", abs(again - a_lower) <= 1e-12)
    threshold = cert["epsilon"] / d
    if a_lower > threshold:
        expected = "CertifiedNotRandomizing"
    elif a_upper <= threshold:
        expected = "CertifiedRandomizing"
    else:
        expected = "Undetermined"
    ledger.check(f"{tag}: verdict consistent with epsilon/d", cert["verdict"] == expected)
    return {"gap_ratio": a_upper / a_lower if covering and a_lower > 0 else None,
            "witness_dA": d * a_lower,
            "decided": cert["verdict"] != "Undetermined"}


def summarize_quality(per_cert: list[dict]) -> dict:
    """Medians over certificates; a figure with no certificate behind it reads 0."""
    gaps = [q["gap_ratio"] for q in per_cert if q["gap_ratio"] is not None]
    return {
        "gap_ratio": statistics.median(gaps) if gaps else 0.0,
        "witness_dA": statistics.median(q["witness_dA"] for q in per_cert) if per_cert else 0.0,
        "decided_frac": (sum(q["decided"] for q in per_cert) / len(per_cert)) if per_cert else 0.0,
    }


# ---------------------------------------------------------------------------
# cli-verify-d2: the README flow through randomizer.cli.run
# ---------------------------------------------------------------------------

def _prepare_cli(seed, size, workdir):
    instances = []
    for s in range(size["sessions"]):
        s_channel, s_net, s_audit, s_verify = derive_seeds(4, seed, s)
        paths = {k: os.path.join(workdir, f"{k}{s}.json")
                 for k in ("channel", "net", "audit", "cert")}
        argvs = [
            ["sample-channel", "--dim", str(size["dim"]), "--count", str(size["count"]),
             "--seed", str(s_channel), "--out", paths["channel"]],
            ["net", "--dim", str(size["dim"]), "--delta", repr(size["delta"]), "--seed", str(s_net),
             "--out", paths["net"]],
            ["audit-net", "--net", paths["net"], "--trials", str(size["audit_trials"]),
             "--seed", str(s_audit), "--report", paths["audit"]],
            ["verify", "--channel", paths["channel"], "--epsilon", repr(size["epsilon"]),
             "--net", paths["net"], "--max-iters", str(size["max_iters"]),
             "--seed", str(s_verify), "--report", paths["cert"]],
            list(BOUNDS_ARGV),
        ]
        instances.append({"session": s, "argvs": argvs, "paths": paths, "work": 1})
    return instances


def _cli_call(argv):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = randomizer.cli.run(argv)
    except Exception:  # an uncaught exception is a failed operation, not a crash
        traceback.print_exc()
        code = None
    return {"command": argv[0], "code": code, "stdout": out.getvalue()}


def _run_cli(session):
    return [_cli_call(argv) for argv in session["argvs"]]


def _check_cli(session, calls, ledger):
    s, paths = session["session"], session["paths"]
    codes = {}
    for call in calls:
        codes[call["command"]] = call["code"]
        ledger.check(f"session {s}: {call['command']} exits 0", call["code"] == 0)
    quality = []
    if codes.get("audit-net") == 0:
        with open(paths["audit"], encoding="utf-8") as handle:
            audit = json.load(handle)
        ledger.check(f"session {s}: audit reports 0 failures", audit["failures"] == 0)
    if codes.get("verify") == 0 and codes.get("sample-channel") == 0:
        with open(paths["cert"], encoding="utf-8") as handle:
            cert = json.load(handle)
        ch = randomizer.experiments.load_channel(paths["channel"])
        quality.append(check_certificate(ledger, cert, ch, True, f"session {s}"))
    if codes.get("bounds") == 0:
        printed = json.loads(calls[-1]["stdout"].strip().splitlines()[-1])
        for key, value in BOUNDS_EXPECTED.items():
            ledger.check(f"session {s}: bounds prints {key}={value}", printed.get(key) == value)
    return quality


# ---------------------------------------------------------------------------
# verify-d16: the library verdict at the top of desk scale
# ---------------------------------------------------------------------------

def _prepare_d16(seed, size, workdir):
    s_channel, s_net, s_ascent = derive_seeds(3, seed)
    return [{**size, "delta": net_delta(size["epsilon"]), "s_channel": s_channel,
             "s_net": s_net, "s_ascent": s_ascent,
             "cert": os.path.join(workdir, "cert.json"), "work": 1}]


def _run_d16(inputs):
    stream = randomizer.haar.RngStream
    ch = randomizer.channel.build_random_channel(inputs["dim"], inputs["count"],
                                                 stream(inputs["s_channel"]))
    net = randomizer.netcover.build_delta_net(inputs["dim"], inputs["delta"],
                                              stream(inputs["s_net"]),
                                              max_states=inputs["net_states"])
    cert = randomizer.certify.verdict(ch, inputs["epsilon"], net, restarts=inputs["restarts"],
                                      max_iters=inputs["max_iters"],
                                      rng=stream(inputs["s_ascent"]))
    randomizer.experiments.save_certificate(inputs["cert"], cert)
    return ch, cert


def _check_d16(inputs, results, ledger):
    ch, cert = results
    ledger.attempted += 1  # the certificate
    # a size-budgeted net knowingly undercovers, so A_upper carries no guarantee here
    return [check_certificate(ledger, randomizer.experiments.certificate_to_dict(cert), ch,
                              False, "d16")]


WORKLOADS = {
    "cli-verify-d2": (_prepare_cli, _run_cli, _check_cli),
    "verify-d16": (_prepare_d16, _run_d16, _check_d16),
}
