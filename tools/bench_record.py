"""Record the benchmark for several checkouts, interleaved, and write one
`BENCH_<LABEL>.json` per checkout into the current directory.

    python tools/bench_record.py --seeds 1,2,3,4,5 --seconds 25 [--trace-seeds 1,2] LABEL=CHECKOUT [...]

CHECKOUT is a source checkout directory, or a revision of the git repository
this script belongs to, which is exported with `git archive` into a temporary
directory for the recording. For each seed and each workload of
`perfbench/run.py`, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

in every checkout in turn, one run at a time, rotating which checkout goes
first from one seed to the next, so slow drift on the machine falls on all
of them alike. For the seeds named by `--trace-seeds` (each one of the
seeds), the same round then runs again with `--trace 1`, which reports
per-layer metrics in place of the end-to-end ones. Only the last two lines a
run prints are read: the report (for the environment and `src_lines`) and
the result.

Each file holds every run's `trace` flag, `correct`, `attempted`, `failed`,
metric values, perfbench's speed scale and its place in that seed's order;
the median and quartiles of each end-to-end metric per workload, from the
`--trace 0` runs only, under `summary`; those of each per-layer metric per
workload, from the `--trace 1` runs, under `layers`; the seeds,
`src_lines`, the environment and the checkout's commit. The files are
rewritten after every seed, so an interrupted recording keeps what it has.
The script exits 1 when any run fails, is not `correct` or has a failed
call.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-train", "paper-train", "paper-eval")
RUN_TIMEOUT_S = 300


def git(*args: str, cwd: Path = REPO) -> str | None:
    run = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def resolve(checkout: str, scratch: Path) -> tuple[Path, str | None]:
    """(directory to run in, commit) for a directory or a revision."""
    path = Path(checkout)
    if path.is_dir():
        path = path.resolve()
        if git("rev-parse", "--show-toplevel", cwd=path) != str(path):
            return path, None  # an exported tree carries no commit
        commit = git("rev-parse", "HEAD", cwd=path)
        return path, f"{commit}-dirty" if git("status", "--porcelain", "--untracked-files=no", cwd=path) else commit
    commit = git("rev-parse", "--verify", f"{checkout}^{{commit}}")
    if commit is None:
        sys.exit(f"bench_record: {checkout!r} is neither a directory nor a revision of {REPO}")
    tree = scratch / commit
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree, commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """(run record, report) for one benchmark run."""
    record: dict = {"workload": workload, "seed": seed, "trace": trace}
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"no result within {RUN_TIMEOUT_S} s"
        return record, None
    try:
        report_line, result_line = proc.stdout.splitlines()[-2:]
        report = json.loads(report_line)["report"]
        result = json.loads(result_line)
    except (ValueError, KeyError, TypeError):
        record.update(error=f"exit code {proc.returncode}, no result", stderr_tail=proc.stderr[-2000:])
        return record, None
    record.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
        speed_scale=report.get("speed_scale"),
    )
    return record, report


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the runs that returned one."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run.get("metrics", {}).items():
            values.setdefault(name, []).append(value)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
        summary[name] = {"n": len(vals), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return summary


def ok(run: dict) -> bool:
    return run.get("correct") is True and run.get("failed") == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated benchmark seeds, e.g. 1,2,3,4,5")
    ap.add_argument("--seconds", required=True, type=float, help="timed phase of each run")
    ap.add_argument("--trace-seeds", default="", help="comma-separated seeds also run with --trace 1")
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    trace_seeds = {int(s) for s in args.trace_seeds.split(",") if s}
    if not trace_seeds <= set(seeds):
        ap.error("every --trace-seeds seed must be one of --seeds")
    pairs = [arg.partition("=")[::2] for arg in args.checkouts]
    if any(not label or not where for label, where in pairs) or len({label for label, _ in pairs}) != len(pairs):
        ap.error("each checkout must be LABEL=CHECKOUT with a distinct, non-empty LABEL")

    with tempfile.TemporaryDirectory(prefix="bench_record_") as scratch:
        books = {}
        for label, where in pairs:
            tree, commit = resolve(where, Path(scratch))
            books[label] = {"tree": tree, "record": {
                "label": label, "checkout": where, "commit": commit, "seeds": seeds, "seconds": args.seconds,
                "src_lines": None, "environment": None, "runs": [], "summary": {}, "layers": {},
            }}
        labels = list(books)
        for k, seed in enumerate(seeds):
            order = labels[k % len(labels):] + labels[:k % len(labels)]
            for workload in WORKLOADS:
                for trace in (0, 1) if seed in trace_seeds else (0,):
                    for label in order:
                        record = books[label]["record"]
                        run, report = run_once(books[label]["tree"], workload, seed, args.seconds, trace)
                        run["order"] = order.index(label)
                        record["runs"].append(run)
                        if report is not None:
                            record["src_lines"] = report.get("src_lines")
                            record["environment"] = record["environment"] or report.get("environment")
                        status = "ok" if ok(run) else "FAILED"
                        print(f"{label} {workload} seed {seed} trace {trace}: {status} "
                              f"{run.get('metrics', run.get('error'))}", file=sys.stderr, flush=True)
            for label, book in books.items():
                record = book["record"]
                for key, trace in (("summary", 0), ("layers", 1)):
                    record[key] = {
                        w: summarise([r for r in record["runs"] if r["workload"] == w and r["trace"] == trace])
                        for w in WORKLOADS
                    }
                Path(f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(ok(run) for book in books.values() for run in book["record"]["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
