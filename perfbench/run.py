"""Benchmark of the randomizer workbench: one workload per invocation.

    python3 perfbench/run.py --workload verify-d16 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
A run starts five fresh processes (``worker.py``) one after another, each
with BLAS pinned to one thread and the package's worker-thread default left
alone, and each owning a fifth of ``--seconds``. A process sets up once, then
repeats passes over the same seed-derived instances until its share of the
time has passed. With ``--trace 0`` the end-to-end metrics are: ``wall_s``,
the sum over instances of each one's fastest time; ``setup_s`` and
``peak_rss_mb``, medians over the processes; and ``work_per_s``, the work of
one pass over ``wall_s``. With ``--trace 1`` passes alternate untraced and
traced, and the per-layer metrics come from the traced pass with the median
wall time. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans, a per-layer
summary and a run-environment record are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (benchmark module next to this file)

WORKLOADS = ("cli-verify-d2", "verify-d16")
PROCESSES = 5         # fresh processes per run, each one set-up sample
DEADLINE_S = 170.0    # every run, all its processes included, ends before this

# The span or layer whose self time should dominate each workload.
PREDICTED_DOMINANT = {
    "cli-verify-d2": "netcover",
    "verify-d16": "certify.ascent",
}

CLI_COMMANDS = ("sample-channel", "net", "audit-net", "verify", "bounds")
LAYERS = ("haar", "channel", "netcover", "certify", "experiments", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _summary(record: dict) -> dict:
    return tracing.summarize([tracing.Span(**s) for s in record["spans"]])


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced repetition, from its spans and quality figures."""
    summary = _summary(record)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def count(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0)

    states, candidates = count("netcover.build", "states"), count("netcover.build", "candidates")
    m = {
        "netcover.build_s": total("netcover.build"),
        "netcover.states": states,
        "netcover.candidates": candidates,
        "netcover.accept_ratio": _ratio(states, candidates),
        "netcover.audit_s": total("netcover.audit"),
        "netcover.audit_trials_per_s": _ratio(count("netcover.audit", "trials"),
                                              total("netcover.audit")),
        "certify.scan_s": total("certify.scan"),
        "certify.scan_pairs_per_s": _ratio(count("certify.scan", "pairs"), total("certify.scan")),
        "certify.ascent_s": total("certify.ascent"),
        "certify.ascent_restarts": count("certify.ascent", "restarts"),
        "certify.verdict_s": total("certify.verdict"),
        "certify.verdict_self_s": self_s("certify.verdict"),
        "certify.gap_ratio": record["quality"]["gap_ratio"],
        "certify.witness_dA": record["quality"]["witness_dA"],
        "certify.decided_frac": record["quality"]["decided_frac"],
        "haar.sample_s": total("haar.sample"),
        "haar.unitaries": count("haar.sample", "unitaries"),
        "haar.unitaries_per_s": _ratio(count("haar.sample", "unitaries"), total("haar.sample")),
        "channel.build_s": total("channel.build"),
        "channel.validate_self_s": self_s("channel.build"),
        "experiments.io_s": total("experiments.io"),
        "experiments.io_bytes": count("experiments.io", "bytes"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    layers = tracing.layer_self_times(summary)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    m["trace.outside_s"] = self_s("workload")
    m["trace.wall_s"] = total("workload")
    return m


def dominant(record: dict) -> dict:
    """Largest self time among span names and among layers, excluding the root span."""
    summary = _summary(record)
    summary.pop("workload", None)
    spans = {name: e["self_s"] for name, e in summary.items()}
    layers = tracing.layer_self_times(summary)
    return {"span": max(spans, key=spans.get) if spans else None,
            "layer": max(layers, key=layers.get) if layers else None}


def fastest_pass_s(passes: list[list[float]]) -> float:
    """Sum over instances of each instance's fastest time across passes.

    Other tenants of a shared host slow stretches of seconds to minutes by up
    to 1.7x, and they can only add time; the fastest of several passes is the
    best estimate of the program's own cost, as in ``timeit``.
    """
    return sum(min(times) for times in zip(*passes))


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def _spawn(args, index: int, until: float, trace: int, deadline: float,
           results_dir: str) -> dict | None:
    run_id = f"{args.workload}-seed{args.seed}-proc{index}"
    env = dict(os.environ)
    env.pop("RANDOMIZER_THREADS", None)  # worker threads follow the library default
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    spawned_at = time.perf_counter()
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--trace", str(trace),
               "--spawned-at", repr(spawned_at), "--until", repr(until),
               # one traced pass per run is enough: only the first process must reach it
               "--min-passes", str(2 if trace and index == 0 else 1), "--run-id", run_id,
               "--workdir", os.path.join(results_dir, "work", run_id)]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        print(f"process {index}: timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"process {index}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    if not os.path.isdir(".git"):  # a plain source tree; never report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs for the benchmark's self-tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "randomizer", "__init__.py")):
        print("error: run from the root of a randomizer source checkout (src/randomizer missing)",
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    results_dir = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(results_dir, exist_ok=True)

    records = []
    attempted = failed = 0
    for index in range(PROCESSES):
        elapsed = time.perf_counter() - started
        if records and deadline - time.perf_counter() < 2.0 * elapsed / index:
            break  # a further process would likely not end before the deadline
        until = started + args.seconds * (index + 1) / PROCESSES
        record = _spawn(args, index, until, args.trace, deadline, results_dir)
        if record is None:
            attempted += 1
            failed += 1
            continue
        attempted += record["attempted"]
        failed += record["failed"]
        for name in record["failures"]:
            print(f"check failed: {name}", file=sys.stderr)
        records.append(record)

    # one entry per pass: its instance times, spans, and the quality figures of its process
    passes = [{**p, "wall_s": sum(p["times"]), "quality": r["quality"]}
              for r in records for p in r["passes"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        # all layer figures come from one pass, the median traced one, so that they add up
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(chosen)
        metrics["trace.overhead_s"] = (chosen["wall_s"]
                                       - statistics.median([p["wall_s"] for p in plain]))
        with open(os.path.join(results_dir, "spans.jsonl"), "w", encoding="utf-8") as handle:
            for p in traced:
                for s in p["spans"]:
                    handle.write(json.dumps(s) + "\n")
        found = dominant(chosen)
        predicted = PREDICTED_DOMINANT[args.workload]
        summary = {"per_pass": [layer_metrics(p) for p in traced],
                   "spans": _summary(chosen), "dominant": found,
                   "predicted_dominant": predicted,
                   "matches_prediction": predicted in (found["span"], found["layer"])}
        with open(os.path.join(results_dir, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
        print(f"dominant self time: span {found['span']}, layer {found['layer']} "
              f"(predicted {predicted})")
    else:
        wall = fastest_pass_s([p["times"] for p in plain])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median([r["setup_s"] for r in records]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in records]),
            "work_per_s": records[0]["work"] / wall,
        }

    if set(metrics) != set(units):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "processes": len(records),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "untraced_pass_times_s": [p["times"] for p in plain],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        **records[0]["env"],
    }
    with open(os.path.join(results_dir, "env.json"), "w", encoding="utf-8") as handle:
        json.dump(env_record, handle, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(records)} processes, {len(plain)} untraced "
          f"and {len(traced)} traced passes; fail_frac = {failed / attempted:.4g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
