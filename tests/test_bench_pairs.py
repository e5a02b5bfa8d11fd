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


def paired_runs(parent, change, failed=(0, 0)):
    """One parent and one change run per seed, with the given metric values and failures."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value, bad in (("parent", p, failed[0]), ("change", c, failed[1])):
            runs.append({"side": side, "seed": seed, "first": side == "parent",
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
    runs[-1]["failed"], runs[-1]["correct"] = 1, False
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
