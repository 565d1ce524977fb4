"""The benchmark comparison tool's arithmetic, checked on two committed records."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_compare(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_compare")


def test_compare_reads_the_two_thread_scan_records(bench_compare):
    parent, change = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("182589c", "bd22fb2"))
    rows = {
        (workload, name): bench_compare.compare_metric(
            bench_compare.untraced(parent, workload), bench_compare.untraced(change, workload), name, better, 0.2
        )
        for workload, name, better in [
            ("paper-eval", "samples_per_s", "higher"),
            ("paper-eval", "peak_rss_mb", "lower"),
            ("desk-train", "samples_per_s", "higher"),
        ]
    }
    eval_speed = rows["paper-eval", "samples_per_s"]
    assert [seed for seed, *_ in eval_speed["pairs"]] == list(range(1, 11))
    assert (eval_speed["wins"], eval_speed["losses"]) == (10, 0)
    assert round(eval_speed["parent_median"], 1) == 35.7 and round(eval_speed["change_median"], 1) == 62.0
    assert round(eval_speed["parent_iqr"], 2) == 2.66
    assert eval_speed["gain"] and not eval_speed["beyond_bound"]
    assert rows["paper-eval", "peak_rss_mb"]["wins"] == 10 and rows["paper-eval", "peak_rss_mb"]["gain"]
    desk = rows["desk-train", "samples_per_s"]
    assert (desk["wins"], desk["losses"]) == (3, 7)
    assert not desk["gain"] and not desk["beyond_bound"]
    few = bench_compare.compare_metric(
        *([r for r in bench_compare.untraced(rec, "paper-eval") if r["seed"] <= 3] for rec in (parent, change)),
        "samples_per_s", "higher", 0.2,
    )
    assert few["wins"] == 3 and not few["gain"]  # fewer than ten pairs claim nothing
