"""casreader benchmark launcher.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. It runs two child processes, one at
a time and each pinned to one BLAS/OpenMP thread: `inputs.py` writes the
workload's inputs and reference answers from the seed, then `measure.py`
sets up and times the program from `src/`. The second-to-last line of
standard output is a report (environment, per-call times, checks); the last
is the result: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-train", "paper-train", "paper-eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], deadline: float) -> None:
    """Run one child to completion; its stdout goes to our stderr."""
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited with code {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description="casreader benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "casreader" / "__init__.py").is_file():
        print(f"perfbench: no casreader sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = root / ".perfbench_traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_child([str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--src", str(src), "--out", str(work / "inputs")], deadline)
        measure = [str(HERE / "measure.py"), "--inputs", str(work / "inputs"), "--src", str(src),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(work / "result.json")]
        if args.trace:
            traces.mkdir(exist_ok=True)
            measure += ["--spans", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
        run_child(measure, deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"perfbench: {args.workload} seed {args.seed}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    report = result.pop("report")
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
