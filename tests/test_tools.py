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


def test_spread_wider_than_the_bound_is_unresolved(bench_compare):
    """Set-up times spread wider than a 25% bound (desk-train 27% and 35%, paper-eval's change 44%)
    are unresolved; every other metric of the same records is not."""
    parent, change = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("pr18", "pr19"))
    unresolved = set()
    for workload in ("desk-train", "paper-train", "paper-eval"):
        for name, better in [("samples_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower")]:
            row = bench_compare.compare_metric(
                bench_compare.untraced(parent, workload), bench_compare.untraced(change, workload), name, better, 0.25
            )
            if row["unresolved"]:
                unresolved.add((workload, name, *(round(s, 2) for s in row["spreads"])))
    assert unresolved == {("desk-train", "setup_s", 0.27, 0.35), ("paper-eval", "setup_s", 0.07, 0.44)}
    scan_parent, scan_change = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("182589c", "bd22fb2"))
    for before, after, resolved in [(parent, change, False), (scan_parent, scan_change, True)]:
        # Against a 1% bound both spreads are too wide; only the two-thread scan read faster in every run.
        row = bench_compare.compare_metric(
            *(bench_compare.untraced(rec, "paper-eval") for rec in (before, after)), "samples_per_s", "higher", 0.01
        )
        assert min(row["spreads"]) > 0.01 and row["unresolved"] is not resolved


def test_compare_prints_both_records_src_lines(bench_compare, monkeypatch, capsys):
    records = [str(ROOT / f"BENCH_{label}.json") for label in ("61ea309", "1b65f0d")]
    monkeypatch.setattr("sys.argv", ["bench_compare.py", *records])
    assert bench_compare.main() == 0
    assert capsys.readouterr().out.splitlines()[1] == "src lines: 2771 -> 2792"


def test_compare_prints_the_per_layer_medians(bench_compare, monkeypatch, capsys):
    """Each traced metric both records hold is printed as `name: parent -> change`;
    the untraced pr18/pr19 records hold none."""
    labels = ("61ea309", "1b65f0d")
    parent, change = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in labels)
    layers = {name: (p, c) for name, p, c in bench_compare.layer_medians(parent, change, "paper-train")}
    assert set(layers) == set(parent["layers"]["paper-train"])
    assert [round(v, 4) for v in layers["tensor.backward_s"]] == [0.2896, 0.2779]
    assert layers["tensor.graph_nodes"] == (60.0, 60.0)
    untraced = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("pr18", "pr19"))
    assert bench_compare.layer_medians(*untraced, "paper-train") == []
    monkeypatch.setattr("sys.argv", ["bench_compare.py", *(str(ROOT / f"BENCH_{label}.json") for label in labels)])
    assert bench_compare.main() == 0
    out = capsys.readouterr().out
    paper_train = out[out.index("\npaper-train:") : out.index("\npaper-eval:")]
    assert "\n    tensor.backward_s: 0.289579 -> 0.277936\n" in paper_train


def test_compare_reads_the_no_grad_scan_records(bench_compare):
    """The scan without a gradient keeps no state history and no gathered input:
    paper-eval's peak falls by a claimable margin, a training step's graph loses
    its two `gather_rows` nodes, and no end-to-end metric is worse beyond its bound."""
    parent, change = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("3de651b", "7410c06"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    peak = bench_compare.compare_metric(
        *(bench_compare.untraced(rec, "paper-eval") for rec in (parent, change)), "peak_rss_mb", "lower", 0.1
    )
    assert (peak["wins"], peak["losses"]) == (10, 0) and peak["gain"]
    assert round(peak["parent_median"], 1) == 343.0 and round(peak["change_median"], 1) == 306.2
    for workload, nodes in [("desk-train", 58), ("paper-train", 60)]:
        layers = {name: (p, c) for name, p, c in bench_compare.layer_medians(parent, change, workload)}
        assert layers["tensor.graph_nodes"] == (nodes, nodes - 2)
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            row = bench_compare.compare_metric(
                *(bench_compare.untraced(rec, workload) for rec in (parent, change)),
                metric["name"], metric["better"], metric["bound"],
            )
            assert not row["beyond_bound"] and not row["unresolved"], (workload, metric["name"])
