"""Compare two benchmark records, a parent's and a change's, metric by metric.

    python tools/bench_compare.py PARENT.json CHANGE.json

Both files are `BENCH_<LABEL>.json` records written by `tools/bench_record.py`.
For each workload and end-to-end metric that `BENCHMARK.json` (beside this
script's directory) declares, the script pairs the two records' `--trace 0`
runs by seed and prints:

- each pair, with whether the change read better, worse or the same;
- how many pairs the change won, the better direction taken from
  `BENCHMARK.json`;
- both medians and the parent's interquartile range (IQR);
- whether a gain could be claimed: there are at least ten pairs, the change
  wins at least nine tenths of them, ties counting for neither, and its
  median is better than the parent's by more than the parent's IQR;
- whether the change's median is worse than the parent's by more than the
  metric's relative bound;
- each record's spread, its IQR over its median, and whether the metric is
  unresolved: either spread exceeds the bound, so a move inside the bound
  cannot be told from noise, unless every run of the change reads better
  than every run of the parent.

It also prints, per workload, how many runs of each record were not
`correct` or had a failed call. Medians and quartiles are those
`bench_record.summarise` writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import ok, summarise

REPO = Path(__file__).resolve().parent.parent
GAIN_PAIRS = 10
GAIN_SHARE = 0.9


def untraced(record: dict, workload: str) -> list[dict]:
    """The record's `--trace 0` runs of `workload` that returned metrics (older records have no `trace`)."""
    return [r for r in record["runs"] if r["workload"] == workload and not r.get("trace", 0) and "metrics" in r]


def compare_metric(parent_runs: list[dict], change_runs: list[dict], name: str, better: str, bound: float) -> dict:
    """Pairs by seed, wins, medians, the parent's IQR, both spreads and the three verdicts for one metric."""
    sign = 1 if better == "higher" else -1
    change_by_seed = {r["seed"]: r["metrics"][name] for r in change_runs}
    pairs = []
    for run in parent_runs:
        if run["seed"] in change_by_seed:
            p, c = run["metrics"][name], change_by_seed[run["seed"]]
            pairs.append((run["seed"], p, c, "better" if sign * (c - p) > 0 else "worse" if c != p else "same"))
    wins = sum(verdict == "better" for *_, verdict in pairs)
    losses = sum(verdict == "worse" for *_, verdict in pairs)
    before, after = summarise(parent_runs)[name], summarise(change_runs)[name]
    gain = sign * (after["median"] - before["median"])
    spreads = [s["iqr"] / s["median"] for s in (before, after)]
    all_better = min(sign * r["metrics"][name] for r in change_runs) > max(sign * r["metrics"][name] for r in parent_runs)
    return {
        "pairs": pairs, "wins": wins, "losses": losses,
        "parent_median": before["median"], "change_median": after["median"], "parent_iqr": before["iqr"],
        "spreads": spreads,
        "gain": len(pairs) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(pairs) and gain > before["iqr"],
        "beyond_bound": -gain > bound * before["median"],
        "unresolved": max(spreads) > bound and not all_better,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's BENCH_<LABEL>.json")
    ap.add_argument("change", type=Path, help="the change's BENCH_<LABEL>.json")
    args = ap.parse_args()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = (json.loads(p.read_text(encoding="utf-8")) for p in (args.parent, args.change))
    print(f"parent {parent.get('label')} ({parent.get('commit')}), change {change.get('label')} ({change.get('commit')})")
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent_runs, change_runs = untraced(parent, workload), untraced(change, workload)
        bad = [sum(not ok(r) for r in rec["runs"] if r["workload"] == workload) for rec in (parent, change)]
        print(f"\n{workload}: runs not correct or with failed calls: parent {bad[0]}, change {bad[1]}")
        if not parent_runs or not change_runs:
            print("  no untraced runs in one of the records")
            continue
        for metric in benchmark["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            row = compare_metric(parent_runs, change_runs, name, better, bound)
            print(f"  {name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
            for seed, p, c, verdict in row["pairs"]:
                print(f"    seed {seed}: {p:.6g} -> {c:.6g} {verdict}")
            n = len(row["pairs"])
            print(f"    change better in {row['wins']} of {n} pairs, worse in {row['losses']}")
            print(f"    median {row['parent_median']:.6g} -> {row['change_median']:.6g}, "
                  f"parent IQR {row['parent_iqr']:.6g}")
            print(f"    gain claimable: {'yes' if row['gain'] else 'no'}; "
                  f"worse beyond bound: {'yes' if row['beyond_bound'] else 'no'}")
            print(f"    spread (IQR/median) parent {row['spreads'][0]:.0%}, change {row['spreads'][1]:.0%}; "
                  f"unresolved: {'yes' if row['unresolved'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
