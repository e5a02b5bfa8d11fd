"""One process of one benchmark run: set-up, then timed passes; prints one JSON line.

Started by ``run.py`` with BLAS pinned to one thread. Set-up runs from process
start (``--spawned-at``, a ``time.perf_counter`` reading of the parent, which
shares the system-wide monotonic clock) to the first timed call: interpreter
start, imports and input generation. A pass runs every instance of the
workload once, each timed on its own. Passes repeat until at least
``--min-passes`` are done and one more would likely end more than half a pass
past ``--until`` (a ``time.perf_counter`` reading). With ``--trace 1`` every
second pass runs under the call-site wrappers of ``tracing``, each instance
inside one root ``workload`` span. The first result of every instance is
checked, untimed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--min-passes", dest="min_passes", type=int, default=1)
    parser.add_argument("--run-id", dest="run_id", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import numpy as np
    import randomizer

    source = os.path.realpath(os.path.join(os.getcwd(), "src", "randomizer"))
    if os.path.dirname(os.path.realpath(randomizer.__file__)) != source:
        print(f"error: imported randomizer from {randomizer.__file__}, not {source}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    prepare, run, check = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    instances = prepare(args.seed, workloads.SIZES[args.workload][args.size], args.workdir)
    ledger = workloads.Ledger()
    quality: list = []
    checked: set = set()
    passes = []

    first_call = time.perf_counter()
    # stop once a further pass would likely end more than half a pass past --until
    while len(passes) < args.min_passes or (
            time.perf_counter() + 0.5 * sum(passes[-1]["times"]) < args.until):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer(f"{args.run_id}-pass{len(passes)}") if traced else None
        times = []
        with tracing.instrument(tracer) if traced else nullcontext():
            for k, inputs in enumerate(instances):
                start = time.perf_counter()
                try:
                    with tracer.span("workload") if traced else nullcontext():
                        result = run(inputs)
                except Exception:  # a failed instance is counted, not a crash
                    traceback.print_exc()
                    result = None
                times.append(time.perf_counter() - start)
                if k not in checked:
                    checked.add(k)
                    if result is None:
                        ledger.check(f"instance {k} raised", False)
                    else:
                        quality.extend(check(inputs, result, ledger))
                result = None  # so peak memory does not depend on the number of passes
        passes.append({"traced": traced, "times": times,
                       "spans": [dataclasses.asdict(s) for s in tracer.spans] if traced else []})
    shutil.rmtree(args.workdir, ignore_errors=True)

    record = {
        "setup_s": first_call - args.spawned_at,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": sum(inputs["work"] for inputs in instances),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "quality": workloads.summarize_quality(quality),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "randomizer": randomizer.__version__,
            "worker_threads": randomizer.experiments.resolve_threads(),
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas": _blas_name(np),
            "instances": len(instances),
        },
    }
    print(json.dumps(record))
    return 0


def _blas_name(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


if __name__ == "__main__":
    sys.exit(main())
