"""Accuracy evaluation over id-encoded samples, with optional per-sample
records and attention dumps for offline inspection.

Scoring goes through `reader.score`, the batched head on a parameter view
that records no autodiff graph.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from . import reader
from .errors import ConfigurationError, UsageError
from .reader import ModelParams
from .vocab import EncodedSample, Vocabulary, encode_sample

TOP_K = 5


@dataclass
class SampleRecordResult:
    predicted: str
    gold: str
    gold_rank: int | None  # 1-based rank of the gold token, None if absent
    top_words: dict[str, float]


@dataclass
class EvalReport:
    dataset: str
    mode: str
    total: int
    correct: int
    accuracy: float
    records: list[SampleRecordResult] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = asdict(self)
        if not self.records:
            del out["records"]
        return out


def evaluate(
    params: ModelParams,
    vocab: Vocabulary,
    samples,
    mode: str | None = None,
    restrict_candidates: bool = False,
    keep_records: bool = False,
    dump_attention=None,
    dataset_name: str = "",
    batch_size: int = 64,
) -> EvalReport:
    """Fraction of samples whose argmax word equals the gold answer.

    Dropout stays off; parameters are untouched; results are deterministic
    and independent of batch composition.
    """
    if not samples:
        raise UsageError("evaluate needs a non-empty dataset")
    mode = reader.head_mode(params.config, mode)
    if params.vocab_size != vocab.total_size:
        raise ConfigurationError(
            f"model expects vocabulary of size {params.vocab_size}, got {vocab.total_size}"
        )
    encoded = [s if isinstance(s, EncodedSample) else encode_sample(vocab, s) for s in samples]

    correct = 0
    records: list[SampleRecordResult] = []
    with open(dump_attention, "w", encoding="utf-8") if dump_attention else nullcontext() as dump_fh:
        for group, output, predicted in reader.score(encoded, params, mode, restrict_candidates, batch_size):
            correct += int((predicted == [enc.answer_id for enc in group]).sum())
            if not (keep_records or dump_fh):
                continue
            for enc, pred, out in zip(group, predicted, output):
                word_probs = out.words.as_dict()
                if keep_records:
                    records.append(_record(vocab, word_probs, int(pred), enc.answer_id))
                if dump_fh:
                    json.dump(
                        {
                            "doc_ids": [int(t) for t in enc.doc_ids],
                            "alpha": out.alpha.data.tolist(),
                            "merged": out.merged.data.tolist(),
                            "word_probs": {str(k): v for k, v in word_probs.items()},
                        },
                        dump_fh,
                    )
                    dump_fh.write("\n")
    return EvalReport(
        dataset=dataset_name,
        mode=mode,
        total=len(encoded),
        correct=correct,
        accuracy=correct / len(encoded),
        records=records,
    )


def _record(vocab, word_probs, predicted, gold_id) -> SampleRecordResult:
    ranked = sorted(word_probs, key=lambda tid: (-word_probs[tid], tid))
    return SampleRecordResult(
        predicted=vocab.id_to_token(predicted),
        gold=vocab.id_to_token(gold_id),
        gold_rank=ranked.index(gold_id) + 1 if gold_id in word_probs else None,
        top_words={vocab.id_to_token(tid): word_probs[tid] for tid in ranked[:TOP_K]},
    )
