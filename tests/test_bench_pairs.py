"""The paired-run summarizer of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]


def paired_runs(parent, change, failed=(0, 0), again=None):
    """One parent, one change and one A/A run per seed, with the given metric values and failures.

    The A/A runs repeat the parent's values unless ``again`` gives their own.
    """
    runs = []
    again = parent if again is None else again
    for seed, (p, c, a) in enumerate(zip(parent, change, again)):
        for position, (side, value, bad) in enumerate((("parent", p, failed[0]),
                                                       ("change", c, failed[1]),
                                                       ("parent_again", a, failed[0]))):
            runs.append({"side": side, "seed": seed, "position": position,
                         "correct": bad == 0, "attempted": 100, "failed": bad,
                         "metrics": {"peak_rss_mb": value}})
    return runs


PARENT = [46.70, 46.72, 46.74, 46.76, 46.71, 46.73, 46.75, 46.72, 46.74, 46.73]


def summary(runs):
    return bench_pairs.summarize(runs, METRICS)["peak_rss_mb"]


def test_nine_wins_of_ten_are_accepted():
    change = [44.0] * 9 + [46.80]
    s = summary(paired_runs(PARENT, change))
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["gain_beyond_parent_iqr"] and s["gain_accepted"]


def test_eight_wins_of_ten_are_not():
    change = [44.0] * 8 + [46.80, 46.80]
    s = summary(paired_runs(PARENT, change))
    assert s["change_wins"] == 8
    # the medians still lie far apart; only the pair count refuses the claim
    assert s["gain_beyond_parent_iqr"] and not s["gain_accepted"]


def test_ties_count_for_neither_side():
    change = [44.0] * 8 + [PARENT[8], PARENT[9]]
    s = summary(paired_runs(PARENT, change))
    assert s["change_wins"] == 8 and not s["gain_accepted"]


def test_a_gain_with_one_more_failed_operation_is_not_accepted():
    change = [44.0] * 10
    assert summary(paired_runs(PARENT, change, failed=(0, 0)))["gain_accepted"]
    runs = paired_runs(PARENT, change)
    last_change = [r for r in runs if r["side"] == "change"][-1]
    last_change["failed"], last_change["correct"] = 1, False
    s = summary(runs)
    assert s["change_wins"] == 10 and s["gain_beyond_parent_iqr"]
    assert not s["gain_accepted"]


def test_a_median_within_the_parent_spread_is_not_accepted():
    # the change wins every pair by less than the parent's quartile spread
    change = [v - 0.001 for v in PARENT]
    s = summary(paired_runs(PARENT, change))
    assert s["change_wins"] == 10
    assert not s["gain_beyond_parent_iqr"] and not s["gain_accepted"]


@pytest.mark.parametrize("better, parent, change", [("higher", 17.0, 18.0), ("lower", 0.40, 0.36)])
def test_the_rule_follows_the_metric_direction(better, parent, change):
    metrics = [{"name": "m", "unit": "", "better": better, "bound": 0.25}]
    runs = paired_runs([parent + 0.001 * k for k in range(10)], [change] * 10)
    for r in runs:
        r["metrics"] = {"m": r["metrics"]["peak_rss_mb"]}
    assert bench_pairs.summarize(runs, metrics)["m"]["gain_accepted"]


def test_no_claim_when_the_aa_shift_is_as_large_as_the_change():
    # the change wins every pair by 2.7 MB, far beyond the parent's spread, but a second run
    # of the parent itself reads as much better: the pairs cannot tell the change from noise
    change = [44.0] * 10
    s = summary(paired_runs(PARENT, change))
    assert s["aa_shift"] == 0.0 and s["aa_wins"] == 0 and s["gain_accepted"]
    again = [v - 2.73 for v in PARENT]
    s = summary(paired_runs(PARENT, change, again=again))
    assert s["change_wins"] == 10 and s["gain_beyond_parent_iqr"]
    assert s["aa_wins"] == 10 and s["aa_shift"] >= 2.7 - 1e-9
    assert not s["gain_accepted"]
    # the A/A shift's sign does not matter: a second run as much worse refuses the claim too
    s = summary(paired_runs(PARENT, change, again=[v + 2.73 for v in PARENT]))
    assert s["aa_wins"] == 0 and s["aa_shift"] <= -2.7 + 1e-9 and not s["gain_accepted"]
    # an A/A shift below the change's leaves the claim standing
    s = summary(paired_runs(PARENT, change, again=[v - 1.0 for v in PARENT]))
    assert s["aa_wins"] == 10 and s["gain_accepted"]
