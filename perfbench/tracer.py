"""Spans around casreader's public functions, recorded from outside the program.

`Tracer.install` replaces each target attribute with a wrapper that records
(name, start, end, parent) in memory; `uninstall` puts the originals back,
so an untraced run executes the program exactly as shipped. A target that
no longer exists is skipped, and every metric that depends on it is then
reported as absent rather than zero.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

SETUP = "perfbench.setup"
TIMED = "perfbench.timed"
WALK = "perfbench.graph_walk"

LAYER_UNITS = {
    "tensor.backward_s": "s", "nn.encode_doc_s": "s", "nn.encode_query_s": "s",
    "tensor.graph_nodes": "count", "reader.forward_s": "s", "reader.head_s": "s",
    "reader.attention_s": "s", "reader.merge_s": "s", "reader.attention_sum_s": "s",
    "nn.pad_fraction": "ratio", "train.clip_s": "s", "train.adam_s": "s", "train.clip_rate": "ratio",
    "train.batching_s": "s", "train.loss_s": "s", "train.init_s": "s", "train.validation_s": "s",
    "train.step_p50_s": "s", "train.step_p90_s": "s", "train.checkpoint_load_s": "s",
    "vocab.io_s": "s", "data.load_s": "s", "datagen.parse_s": "s", "datagen.generate_s": "s",
    "data.save_s": "s", "vocab.build_s": "s", "vocab.encode_s": "s", "synthetic.generate_s": "s",
    "evaluate.evaluate_s": "s", "evaluate.postprocess_s": "s",
    "trace.samples_per_s": "1/s", "trace.overhead": "ratio", "trace.coverage": "ratio", "src.lines": "count",
}

# (span name, module, attribute path). Later entries with an already-seen
# span name are extra bindings of the same function in another module.
TARGETS = [
    ("train.train", "train", "train"),
    ("train.make_batches", "train", "make_batches"),
    ("train.nll_loss", "train", "nll_loss"),
    ("train.clip_gradients", "train", "clip_gradients"),
    ("train.adam_step", "train", "adam_step"),
    ("train.adam_init", "train", "AdamState.init"),
    ("train.validation", "train", "_validation_accuracy"),
    ("train.load_checkpoint", "train", "load_checkpoint"),
    ("reader.init_model_params", "reader", "init_model_params"),
    ("reader.forward", "reader", "forward"),
    ("reader.attention_per_step", "reader", "attention_per_step"),
    ("reader.merge_attention", "reader", "merge_attention"),
    ("reader.attention_sum", "reader", "attention_sum"),
    ("nn.encode_batch", "nn", "encode_batch"),
    ("tensor.backward", "tensor", "Tensor.backward"),
    ("evaluate.evaluate", "evaluate", "evaluate"),
    ("vocab.encode_sample", "vocab", "encode_sample"),
    ("vocab.encode_sample", "evaluate", "encode_sample"),
    ("vocab.build_vocab", "vocab", "build_vocab"),
    ("vocab.load_vocab", "vocab", "load_vocab"),
    ("vocab.load_vocab", "train", "load_vocab"),
    ("data.load_dataset", "data", "load_dataset"),
    ("data.save_dataset", "data", "save_dataset"),
    ("datagen.parse_tagged_corpus", "datagen", "parse_tagged_corpus"),
    ("datagen.generate_corpus", "datagen", "generate_corpus"),
    ("synthetic.generate_synthetic_corpus", "synthetic", "generate_synthetic_corpus"),
]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def graph_size(roots) -> int | None:
    """Distinct autodiff nodes reachable from `roots` through recorded parents.

    None when the tensors no longer record parents the way the seed engine does.
    """
    seen: set[int] = set()
    stack = [r for r in roots if getattr(r, "requires_grad", False)]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = getattr(node, "_parents", None)
        if parents is None:
            return None
        stack.extend(p for p in parents if p.requires_grad)
    return len(seen)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.installed: set[str] = set()
        self._saved: list[tuple] = []
        self._forward_params = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, attrs=None):
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _walk(self, roots) -> int:
        with self.span(WALK):
            return graph_size(roots)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            index = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if name == "reader.forward":
                    self._forward_params.pop()
            if after:
                after(args, kwargs, result, self.spans[index])
            return result

        return wrapper

    # -- per-target hooks ----------------------------------------------

    def _before_reader_forward(self, args, kwargs):
        self._forward_params.append(_arg(args, kwargs, 1, "params"))
        return {"training": bool(_arg(args, kwargs, 2, "training", False))}

    def _after_reader_forward(self, args, kwargs, outputs, span):
        if not span[4]["training"] and self._in("evaluate.evaluate"):
            probs = [getattr(getattr(out, "words", None), "probs", None) for out in outputs]
            span[4]["nodes"] = None if None in probs else self._walk(probs)

    def _before_nn_encode_batch(self, args, kwargs):
        mask = np.asarray(_arg(args, kwargs, 1, "mask"), dtype=bool)
        params = self._forward_params[-1] if self._forward_params else None
        fwd = _arg(args, kwargs, 3, "fwd")
        side = "query" if params is not None and fwd is getattr(params, "query_fwd", None) else "doc"
        return {"side": side, "positions": int(mask.size), "padded": int(mask.size - mask.sum())}

    def _after_train_nll_loss(self, args, kwargs, loss, span):
        span[4] = {"nodes": self._walk([loss])}

    def _after_train_clip_gradients(self, args, kwargs, result, span):
        norm = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        span[4] = {"clipped": None if norm is None else bool(norm > _arg(args, kwargs, 1, "threshold"))}

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for name, module, path in TARGETS:
            owner = self.modules.get(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if raw is None:
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")

    # -- derived per-layer metrics -------------------------------------

    def layer_metrics(self, setup_reps: int) -> tuple[dict, dict]:
        """Per-layer values (None when a needed target is missing) and a count summary."""
        spans = self.spans
        phase = [None] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            phase[i] = name if parent < 0 else phase[parent]
            if parent >= 0:
                child_time[parent] += end - start
        dur = [s[2] - s[1] for s in spans]
        selft = [d - c for d, c in zip(dur, child_time)]

        def pick(name, where):
            return [i for i, s in enumerate(spans) if s[0] == name and phase[i] == where]

        def total(name, where=TIMED, own=True):
            return sum((selft if own else dur)[i] for i in pick(name, where))

        def has(*names):
            return all(n in self.installed for n in names)

        timed_forwards = pick("reader.forward", TIMED)
        steps = [i for i in timed_forwards if spans[i][4]["training"]]
        eval_batches = [i for i in timed_forwards if _has_ancestor(spans, i, "evaluate.evaluate")]
        per = len(steps) or len(eval_batches) or 1
        encodes = pick("nn.encode_batch", TIMED)

        def per_unit(value, *needs):
            return value / per if has(*needs) else None

        def per_setup(name):
            return total(name, SETUP) / setup_reps if has(name) else None

        if steps:
            node_counts = [spans[i][4]["nodes"] for i in pick("train.nll_loss", TIMED)]
        else:
            node_counts = [spans[i][4].get("nodes", 0) for i in eval_batches]
        nodes = None if None in node_counts else sum(node_counts)
        clips = pick("train.clip_gradients", TIMED)
        clipped = [spans[i][4]["clipped"] for i in clips]
        positions = sum(spans[i][4]["positions"] for i in encodes)
        padded = sum(spans[i][4]["padded"] for i in encodes)
        forward_total = sum(dur[i] for i in timed_forwards)
        encode_total = sum(dur[i] for i in encodes)
        evaluate_total = total("evaluate.evaluate", own=False)
        eval_forward_total = sum(dur[i] for i in eval_batches)
        validating_evals = [i for i in pick("evaluate.evaluate", TIMED) if _has_ancestor(spans, i, "train.train")]
        step_times = _step_durations(spans, phase) if has("reader.forward", "train.adam_step") else []
        no_steps = 0.0 if has("train.adam_step") else None

        metrics = {
            "tensor.backward_s": per_unit(total("tensor.backward"), "tensor.backward"),
            "nn.encode_doc_s": per_unit(
                sum(selft[i] for i in encodes if spans[i][4]["side"] == "doc"), "nn.encode_batch"
            ),
            "nn.encode_query_s": per_unit(
                sum(selft[i] for i in encodes if spans[i][4]["side"] == "query"), "nn.encode_batch"
            ),
            "tensor.graph_nodes": (
                None if nodes is None else per_unit(nodes, "train.nll_loss" if steps else "reader.forward")
            ),
            "reader.forward_s": per_unit(forward_total, "reader.forward"),
            "reader.head_s": per_unit(forward_total - encode_total, "reader.forward", "nn.encode_batch"),
            "reader.attention_s": per_unit(total("reader.attention_per_step"), "reader.attention_per_step"),
            "reader.merge_s": per_unit(total("reader.merge_attention"), "reader.merge_attention"),
            "reader.attention_sum_s": per_unit(total("reader.attention_sum"), "reader.attention_sum"),
            "nn.pad_fraction": (padded / positions if positions else 0.0) if has("nn.encode_batch") else None,
            "train.clip_s": per_unit(total("train.clip_gradients"), "train.clip_gradients"),
            "train.adam_s": per_unit(total("train.adam_step"), "train.adam_step"),
            "train.clip_rate": (
                (sum(clipped) / len(clipped) if clipped else 0.0)
                if has("train.clip_gradients") and None not in clipped else None
            ),
            "train.batching_s": per_unit(total("train.make_batches"), "train.make_batches"),
            "train.loss_s": per_unit(total("train.nll_loss"), "train.nll_loss"),
            "train.init_s": per_unit(
                total("reader.init_model_params", own=False) + total("train.adam_init", own=False),
                "reader.init_model_params", "train.adam_init",
            ),
            "train.validation_s": (
                sum(dur[i] for i in pick("train.validation", TIMED) + validating_evals) / per
                if has("train.validation") or validating_evals else None
            ),
            "train.step_p50_s": statistics.median(step_times) if step_times else no_steps,
            "train.step_p90_s": _p90(step_times) if step_times else no_steps,
            "train.checkpoint_load_s": per_setup("train.load_checkpoint"),
            "vocab.io_s": per_setup("vocab.load_vocab"),
            "data.load_s": per_setup("data.load_dataset"),
            "datagen.parse_s": per_setup("datagen.parse_tagged_corpus"),
            "datagen.generate_s": per_setup("datagen.generate_corpus"),
            "data.save_s": per_setup("data.save_dataset"),
            "vocab.build_s": per_setup("vocab.build_vocab"),
            "vocab.encode_s": per_setup("vocab.encode_sample"),
            "synthetic.generate_s": per_setup("synthetic.generate_synthetic_corpus"),
            "evaluate.evaluate_s": per_unit(evaluate_total, "evaluate.evaluate"),
            "evaluate.postprocess_s": per_unit(
                evaluate_total - eval_forward_total, "evaluate.evaluate", "reader.forward"
            ),
        }
        counts = {
            "steps": len(steps),
            "eval_batches": len(eval_batches),
            "graph_nodes_total": nodes,
            "encoded_positions": positions,
            "padded_positions": padded,
            "clipped_steps": None if None in clipped else sum(clipped),
            "coverage": _coverage(spans, phase, dur),
            "spans": len(spans),
        }
        return metrics, counts


def _has_ancestor(spans, index: int, name: str) -> bool:
    """Whether some ancestor of span `index` is named `name`."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _step_durations(spans, phase) -> list[float]:
    """Training step = from a training forward's start to the end of the next adam_step."""
    out = []
    start = None
    for i, (name, s, e, _, attrs) in enumerate(spans):
        if phase[i] != TIMED:
            continue
        if name == "reader.forward" and attrs["training"]:
            start = s
        elif name == "train.adam_step" and start is not None:
            out.append(e - start)
            start = None
    return out


def _coverage(spans, phase, dur) -> float:
    """Share of the program's timed calls (train.train / evaluate.evaluate) covered by child spans."""
    roots = {
        i for i, s in enumerate(spans)
        if phase[i] == TIMED and s[3] >= 0 and spans[s[3]][0] == TIMED
    }
    covered = sum(dur[i] for i, s in enumerate(spans) if s[3] in roots)
    whole = sum(dur[i] for i in roots)
    return covered / whole if whole else 0.0
