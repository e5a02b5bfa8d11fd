"""Paired benchmark runs of a parent revision and a change revision.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workloads cli-verify-d2,verify-d16 --seeds 41,42,43,44,45 --out BENCH_14.json

Both sides are git revisions of the repository that holds this script. Each
is exported with ``git archive`` into its own temporary directory, so neither
side runs in the working tree and both run from the same kind of tree. To
measure uncommitted work, pass the commit that ``git stash create`` prints.
For every workload and every seed, the script runs ``perfbench/run.py`` once
in each tree and a second time in the parent tree (the A/A arm, side
``parent_again``), one after the other: parent, change, parent again, and
the reverse order at every other seed. It parses the JSON object on the last line of each run's standard
output. The run length is ``run_seconds`` from ``BENCHMARK.json`` in the
change tree, the same on every side.

The output file records every run (side, seed, order, end-to-end metrics and
the ``correct`` / ``attempted`` / ``failed`` fields), and for each workload,
each side's median and quartiles of every end-to-end metric, the change's wins
per metric over the pairs (ties count for neither side), and whether the
change's median is better than the parent's by more than the distance between
the parent's quartiles (``gain_beyond_parent_iqr``). The A/A arm gives the
same two numbers for a side that changes nothing: ``aa_shift``, how much
better the second parent runs' median reads than the first's, and
``aa_wins``, the pairs in which the second run reads better.
``gain_accepted`` applies the whole rule a claimed gain must meet: that
median test, a median shift larger than the A/A shift's magnitude, wins in
at least nine of every ten pairs, and no more failed operations than the
parent. After the pairs of a workload, one traced run per side at the first
seed records the per-layer metrics, the time of each layer and CLI command.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(revision: str, dest: str) -> str:
    """Write the files of ``revision`` into the new directory ``dest``; returns ``dest``."""
    os.mkdir(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=REPO,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``; the parsed result object of its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs of one side."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


SIDES = ("parent", "change", "parent_again")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-side spreads, pair wins, the A/A arm and the gain rules for every end-to-end metric."""
    out = {}
    seeds = sorted({r["seed"] for r in runs})
    failed = {side: sum(r["failed"] for r in runs if r["side"] == side)
              for side in ("parent", "change")}
    for m in metrics:
        name, sign = m["name"], -1.0 if m["better"] == "lower" else 1.0
        stats = {side: spread([r["metrics"][name] for r in runs if r["side"] == side])
                 for side in SIDES}

        def wins(side):
            """Pairs in which ``side`` reads better than the parent; ties count for neither."""
            count = 0
            for seed in seeds:
                pair = {r["side"]: r["metrics"][name] for r in runs if r["seed"] == seed}
                count += sign * (pair[side] - pair["parent"]) > 0
            return count

        def shift(side):
            """How much better ``side``'s median reads than the parent's."""
            return sign * (stats[side]["median"] - stats["parent"]["median"])

        parent, change = stats["parent"], stats["change"]
        gain, aa_shift, change_wins = shift("change"), shift("parent_again"), wins("change")
        beyond = gain > parent["q3"] - parent["q1"]
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **stats, "change_wins": change_wins, "pairs": len(seeds),
            "relative_change": (change["median"] - parent["median"]) / parent["median"]
            if parent["median"] else 0.0,
            "gain_beyond_parent_iqr": beyond,
            "aa_shift": aa_shift, "aa_wins": wins("parent_again"),
            "gain_accepted": (beyond and gain > abs(aa_shift)
                              and 10 * change_wins >= 9 * len(seeds)
                              and failed["change"] <= failed["parent"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent git revision")
    parser.add_argument("--change", required=True, help="change git revision")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: export(getattr(args, side), os.path.join(tmp, side))
                     for side in ("parent", "change")}
        return run_pairs(checkouts, args.workloads.split(","),
                         [int(s) for s in args.seeds.split(",")], args.out)


def run_pairs(checkouts: dict, workloads: list[str], seeds: list[int], out: str) -> int:
    """The paired, A/A and traced runs of every workload in the ``parent`` and ``change`` trees."""
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = float(bench["run_seconds"])
    names = [m["name"] for m in bench["end_to_end"]]

    result = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                tree = checkouts["change" if side == "change" else "parent"]
                res = run_once(tree, workload, seed, seconds, 0)
                runs.append({"side": side, "seed": seed, "position": position,
                             "correct": res["correct"], "attempted": res["attempted"],
                             "failed": res["failed"],
                             "metrics": {n: res["metrics"][n]["value"] for n in names}})
                print(f"{workload} seed={seed} {side}: "
                      + " ".join(f"{n}={runs[-1]['metrics'][n]:.4g}" for n in names)
                      + f" failed={res['failed']}/{res['attempted']}", flush=True)
        traced = {}
        for side in ("parent", "change"):
            res = run_once(checkouts[side], workload, seeds[0], seconds, 1)
            traced[side] = {"seed": seeds[0], "failed": res["failed"],
                            "metrics": {n: v["value"] for n, v in res["metrics"].items()}}
        result["workloads"][workload] = {"runs": runs,
                                         "summary": summarize(runs, bench["end_to_end"]),
                                         "traced": traced}
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
