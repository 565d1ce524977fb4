"""The measured process: set up one workload, time it, check its outputs.

    python3 perfbench/measure.py --inputs DIR --src src --seconds 25 --trace 0 --out result.json

Set-up runs SETUP_REPS times and `setup_s` is their median. The timed
phase then calls the program's public entry point (`train.train` or
`evaluate.evaluate`) until another call would overrun `--seconds`; every
call is checked against the reference in the manifest. Times are reported
at a reference machine speed measured by a fixed probe. With `--trace 1`
set-up runs under the tracer, the timed phase alternates untraced and
traced calls, and the result carries the per-layer split instead of the
end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import reference
from run import THREAD_VARS

SETUP_REPS = 3
# Re-associating the arithmetic (a split or fused matmul, another summation
# order) leaves the final loss and the trained parameters equal to ~1e-16
# relative. A wrong gradient moves the loss by >=1e-9 relative and flips
# Adam's first update (+-lr) on whole parameter entries.
LOSS_RTOL = 1e-11
PARAM_RTOL = 1e-10
# On a shared 2-vCPU VM the speed shifts between regimes lasting minutes (the same work
# takes up to 1.6x as long from one run to the next, while calls within a
# run agree to a few percent), so times are reported at a reference speed:
# the one at which `speed_probe` takes REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 0.08
PROBES_PER_INTERVAL = 3
MODULES = ("tensor", "nn", "reader", "train", "evaluate", "datagen", "data", "vocab", "synthetic")


def import_program(src: str) -> SimpleNamespace:
    """Import casreader from `src` only, never from an installed copy."""
    src_dir = Path(src).resolve()
    if not (src_dir / "casreader" / "__init__.py").is_file():
        raise SystemExit(f"no casreader package under {src_dir}")
    sys.path.insert(0, str(src_dir))
    modules = {name: importlib.import_module(f"casreader.{name}") for name in MODULES}
    if Path(modules["train"].__file__).resolve().parent.parent != src_dir:
        raise SystemExit(f"casreader imported from {modules['train'].__file__}, not {src_dir}")
    return SimpleNamespace(**modules)


def _tokens(samples):
    for s in samples:
        yield from s.document
        yield from s.query
        yield s.answer


class Workload:
    """One workload's set-up, timed call and output checks, over the program `cr`."""

    def __init__(self, cr, manifest, work: Path):
        self.cr, self.m, self.work = cr, manifest, work


class DeskTrain(Workload):
    """README desk recipe: synthetic corpus -> full vocabulary -> train.train."""

    def setup(self):
        cr = self.cr
        splits = cr.synthetic.generate_synthetic_corpus(cr.synthetic.SyntheticConfig(**self.m["synthetic"]))
        vocab = cr.vocab.build_vocab(_tokens(splits["train"]), shortlist_size=None)
        train_set = [cr.vocab.encode_sample(vocab, s) for s in splits["train"]]
        valid_set = [cr.vocab.encode_sample(vocab, s) for s in splits["valid"]]
        return vocab, train_set, valid_set

    def check_setup(self, prepared) -> list[str]:
        vocab = prepared[0]
        want = self.m["reference"]["vocab_size"]
        return [] if vocab.total_size == want else [f"vocabulary has {vocab.total_size} ids, want {want}"]

    def call(self, prepared):
        vocab, train_set, valid_set = prepared
        config = self.cr.train.TrainConfig(**self.m["train_config"])
        result = self.cr.train.train(config, train_set, valid_set, vocab_size=vocab.total_size)
        return result, len(train_set) * config.epochs

    def check(self, result) -> str | None:
        if result.aborted:
            return "training aborted"
        loss = result.history[-1].mean_loss
        want = self.m["reference"]["final_loss"]
        if not math.isfinite(loss) or abs(loss - want) > LOSS_RTOL * abs(want):
            return f"final loss {loss!r} differs from reference {want!r}"
        got = reference.fingerprint({name: t.data for name, t in result.params.named().items()})
        for name, (value, scale) in self.m["reference"]["fingerprint"].items():
            if abs(got[name][0] - value) > PARAM_RTOL * scale:
                return f"trained {name} differs from reference ({got[name][0]!r} vs {value!r})"
        return None


class PaperTrain(DeskTrain):
    """news-full preset on a Zipf tagged corpus: parse -> generate -> save/load -> vocab -> encode."""

    def setup(self):
        cr, m = self.cr, self.m
        docs = cr.datagen.parse_tagged_corpus(self.work / m["corpus"])
        samples, _ = cr.datagen.generate_corpus(docs, seed=m["generate_seed"])
        del docs
        cr.data.save_dataset(samples, self.work / m["dataset"])
        del samples
        samples, _ = cr.data.load_dataset(self.work / m["dataset"])
        vocab = cr.vocab.build_vocab(_tokens(samples), shortlist_size=m["shortlist"])
        used = samples[: m["train_count"] + m["valid_count"]]
        encoded = [cr.vocab.encode_sample(vocab, s) for s in used]
        return vocab, encoded[: m["train_count"]], encoded[m["train_count"]:]

    def check_setup(self, prepared) -> list[str]:
        problems = super().check_setup(prepared)
        vocab, train_set, valid_set = prepared
        shapes = {(len(s.doc_ids), len(s.query_ids)) for s in train_set + valid_set}
        if shapes != {(400, 25)}:
            problems.append(f"document/query lengths {sorted(shapes)}, want 400/25")
        oov = sum(int(((s.doc_ids >= 2) & (s.doc_ids < 12)).sum()) for s in train_set)
        if oov == 0:
            problems.append("no OOV-bucket traffic in the training set")
        return problems


class PaperEval(Workload):
    """Random-init news-full checkpoint: load_checkpoint + load_dataset -> evaluate."""

    def setup(self):
        ckpt = self.cr.train.load_checkpoint(self.work / self.m["checkpoint"])
        samples, _ = self.cr.data.load_dataset(self.work / self.m["data"])
        return ckpt, samples

    def check_setup(self, prepared) -> list[str]:
        ckpt, samples = prepared
        want = self.m["reference"]["vocab_size"]
        problems = []
        if ckpt.vocab is None or ckpt.vocab.total_size != want:
            problems.append(f"checkpoint vocabulary is not {want} ids")
        if len(samples) != self.m["reference"]["total"]:
            problems.append(f"{len(samples)} eval samples, want {self.m['reference']['total']}")
        return problems

    def call(self, prepared):
        ckpt, samples = prepared
        report = self.cr.evaluate.evaluate(
            ckpt.params, ckpt.vocab, samples, mode=self.m["mode"],
            dataset_name=self.m["data"], batch_size=self.m["batch_size"],
        )
        return report, len(samples)

    def check(self, report) -> str | None:
        ref = self.m["reference"]
        if report.total != ref["total"] or abs(report.correct - ref["correct"]) > ref["ambiguous"]:
            return (f"total/correct {report.total}/{report.correct}, "
                    f"reference {ref['total']}/{ref['correct']} (+-{ref['ambiguous']} near-ties)")
        return None


WORKLOADS = {"desk-train": DeskTrain, "paper-train": PaperTrain, "paper-eval": PaperEval}


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and BLAS work (~0.08 s here)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((256, 256)) * 0.05, rng.standard_normal((16, 256))
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * 7) % 13
    for _ in range(750):
        x = np.tanh(x @ a)
    return time.perf_counter() - start


class Clock:
    """Times program work and, around every interval, a few speed probes.

    The machine's speed over the run is the median probe; `scale()` turns
    a time measured in this run into the time at the reference speed.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._probe()

    def _probe(self):
        self.probes += [speed_probe() for _ in range(PROBES_PER_INTERVAL)]

    def timed(self, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall = time.perf_counter() - start
            self._probe()

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def run_setups(workload, clock: Clock, tracer=None):
    """SETUP_REPS set-ups; returns the last one's output and every duration."""
    times, prepared = [], None
    for _ in range(SETUP_REPS):
        prepared = None
        gc.collect()
        if tracer is None:
            prepared = clock.timed(workload.setup)
        else:
            with tracer.span("perfbench.setup"):
                prepared = clock.timed(workload.setup)
        times.append(clock.wall)
    return prepared, times


def timed_phase(workload, prepared, seconds: float, clock: Clock, tracer=None):
    """Call the workload until another call would overrun `seconds` of program time.

    With a tracer, calls alternate untraced/traced over twice the time, so
    the tracing overhead is measured on interleaved calls that share any
    drift in machine speed.
    """
    calls, failures = [], []
    budget, at_least = (seconds * 2, 2) if tracer else (seconds, 1)
    elapsed = 0.0
    while len(calls) < at_least or elapsed + statistics.median(c["wall_s"] for c in calls) <= budget:
        traced = tracer is not None and len(calls) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            if traced:
                with tracer.span("perfbench.timed"):
                    result, samples = clock.timed(lambda: workload.call(prepared))
            else:
                result, samples = clock.timed(lambda: workload.call(prepared))
            problem = workload.check(result)
            del result  # the next call must not overlap this one's memory
        except Exception as err:  # a raising call is a failed operation, not a crash
            samples, problem = 0, f"{type(err).__name__}: {err}"
        finally:
            if traced:
                tracer.uninstall()
        calls.append({"wall_s": clock.wall, "samples": samples, "ok": problem is None, "traced": traced})
        if problem:
            failures.append(problem)
        elapsed += clock.wall
    return calls, failures


def samples_per_s(calls) -> float:
    rates = [c["samples"] / c["wall_s"] for c in calls if c["ok"]]
    return statistics.median(rates) if rates else 0.0


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
    }


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((src / "casreader").glob("*.py")))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans (JSON lines)")
    args = ap.parse_args()

    cr = import_program(args.src)
    work = Path(args.inputs)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[manifest["workload"]](cr, manifest, work)
    tracer = None
    if args.trace:
        from tracer import LAYER_UNITS, Tracer

        tracer = Tracer(vars(cr))
        tracer.install()
    clock = Clock()
    try:
        prepared, setup_times = run_setups(workload, clock, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    problems = workload.check_setup(prepared)
    calls, failures = timed_phase(workload, prepared, args.seconds, clock, tracer)
    plain = [c for c in calls if not c["traced"]]
    raw = {"samples_per_s": samples_per_s(plain), "setup_s": statistics.median(setup_times)}
    scale = clock.scale()
    metrics = {
        "samples_per_s": {"value": raw["samples_per_s"] / scale, "unit": "1/s"},
        "setup_s": {"value": raw["setup_s"] * scale, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    report = {
        "raw": raw,
        "speed_scale": scale,
        "setup_s_reps": setup_times,
        "calls": calls,
        "probes_s": clock.probes,
        "failures": failures + problems,
        "reference": {k: v for k, v in manifest["reference"].items() if k != "fingerprint"},
        "src_lines": src_lines(Path(args.src)),
        "environment": environment(),
    }
    if tracer:
        layers, counts = tracer.layer_metrics(SETUP_REPS)
        traced_rate = samples_per_s([c for c in calls if c["traced"]])
        layers["trace.samples_per_s"] = traced_rate
        layers["trace.overhead"] = raw["samples_per_s"] / traced_rate - 1 if traced_rate else None
        layers["trace.coverage"] = counts["coverage"]
        layers["src.lines"] = report["src_lines"]
        report.update(counts=counts, untraced=metrics)
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in layers.items() if value is not None
        }
        if args.spans:
            tracer.write(args.spans)
    result = {
        "correct": not failures and not problems,
        "attempted": len(calls),
        "failed": sum(not c["ok"] for c in calls),
        "metrics": metrics,
        "report": report,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
