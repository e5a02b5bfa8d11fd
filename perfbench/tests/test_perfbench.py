"""Self-tests of the benchmark: span arithmetic, failure accounting, and a tiny-size smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import randomizer.certify  # noqa: E402
import randomizer.experiments  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from randomizer.channel import build_random_channel  # noqa: E402
from randomizer.haar import RngStream  # noqa: E402
from randomizer.netcover import build_delta_net  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(id, name, start, end, parent):
    return tracing.Span(id, name, start, end, parent, "run", 1)


def test_self_times_subtract_children_and_sum_to_the_root():
    spans = [
        _span(1, "workload", 0.0, 10.0, None),
        _span(2, "certify.verdict", 1.0, 4.0, 1),
        _span(3, "certify.scan", 2.0, 3.0, 2),
        _span(4, "netcover.build", 5.0, 9.0, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    summary = tracing.summarize(spans)
    layers = tracing.layer_self_times(summary)
    assert layers == pytest.approx({"workload": 3.0, "certify": 3.0, "netcover": 4.0})
    assert sum(layers.values()) == pytest.approx(spans[0].duration)


def test_tracer_nests_spans_per_thread_and_sums_counts():
    tracer = tracing.Tracer("run")
    with tracer.span("outer"):
        for _ in range(2):
            with tracer.span("inner") as counts:
                counts["items"] = 3
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert all(s.parent == by_name["outer"].id for s in tracer.spans if s.name == "inner")
    assert tracing.summarize(tracer.spans)["inner"]["counts"] == {"items": 6}


def test_instrument_wraps_call_sites_and_restores_them():
    original = randomizer.experiments.verdict
    tracer = tracing.Tracer("run")
    with tracing.instrument(tracer):
        assert randomizer.experiments.verdict is not original
        net = randomizer.netcover.build_delta_net(2, 0.45, RngStream(1))
        ch = randomizer.channel.build_random_channel(2, 20, RngStream(2))
        randomizer.experiments.verdict(ch, 0.9, net, restarts=1, rng=RngStream(3))
    assert randomizer.experiments.verdict is original
    names = [s.name for s in tracer.spans]
    for name in ("netcover.build", "channel.build", "haar.sample", "certify.verdict",
                 "certify.scan", "certify.ascent"):
        assert name in names
    verdict_span = next(s for s in tracer.spans if s.name == "certify.verdict")
    scan = next(s for s in tracer.spans if s.name == "certify.scan")
    assert scan.parent == verdict_span.id


def test_wall_time_sums_each_instance_fastest_time_across_passes():
    assert run.fastest_pass_s([[3.0, 5.0], [2.0, 6.0], [4.0, 4.5]]) == pytest.approx(6.5)


def _certificate():
    ch = build_random_channel(2, 50, RngStream(10))
    net = build_delta_net(2, 0.45, RngStream(11))
    cert = randomizer.certify.verdict(ch, 0.9, net, restarts=2, rng=RngStream(12))
    return ch, randomizer.experiments.certificate_to_dict(cert)


def test_consistent_certificate_passes_every_check():
    ch, cert = _certificate()
    ledger = workloads.Ledger()
    workloads.check_certificate(ledger, cert, ch, True, "ok")
    assert ledger.attempted > 0 and ledger.failed == 0


def test_broken_certificate_is_counted_as_failed():
    ch, cert = _certificate()
    cert["A_upper"] = cert["A_lower"] / 2.0  # A_lower > A_upper breaks the sandwich
    cert["B"] = 0.0
    ledger = workloads.Ledger()
    workloads.check_certificate(ledger, cert, ch, True, "broken")
    assert "broken: A_lower <= A_upper + 1e-9" in ledger.failures
    assert ledger.failed / ledger.attempted > 0.0


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") for line in lines[:-1])


def test_traced_self_times_sum_to_traced_wall():
    proc = _run(ROOT, "cli-verify-d2", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    parts = [metrics[f"{layer}.self_s"] for layer in ("haar", "channel", "netcover", "certify",
                                                      "experiments", "cli")]
    assert sum(parts) + metrics["trace.outside_s"] == pytest.approx(metrics["trace.wall_s"],
                                                                     rel=1e-9)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "verify-d16", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
