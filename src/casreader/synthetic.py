"""Synthetic cue/answer corpus for desk-scale verification.

Every document is built around one (cue, noun) pair from a global
inventory: the answer noun appears in `ANSWER_REPEATS` sentences, always
directly after its cue; the query is one of those sentences with the noun
blanked (the cue stays, and the document keeps the sentence intact). Half
the documents also carry a bare distractor noun repeated exactly as often
as the answer, so a pick-the-most-frequent-candidate baseline faces a
coin-flip tie there, while cue adjacency and the verbatim context match
identify the answer everywhere: the answer is the most repeated token
co-occurring with the query's cue. Fillers are drawn without replacement
inside each document, so no filler outnumbers the answer.

Splits are disjoint by document and the whole corpus is a pure function of
the seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import save_dataset
from .datagen import ClozeSample, validate_sample
from .errors import UsageError
from .vocab import PLACEHOLDER_TOKEN


# The corpus shape is fixed: 12 cue/noun pairs, four-token sentences, the
# answer in 3 sentences (and a tied distractor in 3 more for half the
# documents), 2 background-noun sentences and 1 all-filler sentence.
PAIRS = 12
SENTENCE_LEN = 4
ANSWER_REPEATS = 3
TIE_PROB = 0.5
BACKGROUND_SENTENCES = 2
FILLER_SENTENCES = 1
CUES = [f"cue{i:02d}" for i in range(PAIRS)]
NOUNS = [f"noun{i:02d}" for i in range(PAIRS)]
# A tied document draws 3*2 + 5*3 + 4 = 25 distinct fillers beside the 24
# cue and noun tokens.
MIN_VOCAB_SIZE = 49
# Every document shuffles all `vocab_size - 24` filler names, so time and
# memory per document grow with the size. The cap is the default shortlist,
# the most tokens a default-configured vocabulary keeps.
MAX_VOCAB_SIZE = 100_000


@dataclass
class SyntheticConfig:
    vocab_size: int = 50
    train_docs: int = 200
    valid_docs: int = 50
    test_docs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not MIN_VOCAB_SIZE <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise UsageError(
                f"vocab_size must be in [{MIN_VOCAB_SIZE}, {MAX_VOCAB_SIZE}], got {self.vocab_size}"
            )
        for split in ("train_docs", "valid_docs", "test_docs"):
            if getattr(self, split) < 1:
                raise UsageError(f"{split} must be >= 1, got {getattr(self, split)}")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")

    @property
    def fillers(self) -> list[str]:
        return [f"fill{i:02d}" for i in range(self.vocab_size - 2 * PAIRS)]


class _FillerPool:
    """Per-document filler source without replacement."""

    def __init__(self, cfg: SyntheticConfig, rng: np.random.Generator):
        fillers = cfg.fillers
        self._names = [fillers[i] for i in rng.permutation(len(fillers))]
        self._next = 0

    def take(self, n: int) -> list[str]:
        out = self._names[self._next : self._next + n]
        self._next += n
        return out


def _pair_sentence(pair, pool, rng) -> tuple[list[str], int]:
    """cue directly followed by its noun amid fillers; returns the noun slot."""
    sentence = pool.take(SENTENCE_LEN - 2)
    slot = int(rng.integers(0, len(sentence) + 1))
    sentence[slot:slot] = [CUES[pair], NOUNS[pair]]
    return sentence, slot + 1


def _bare_noun_sentence(pair, pool, rng) -> list[str]:
    sentence = pool.take(SENTENCE_LEN - 1)
    slot = int(rng.integers(0, len(sentence) + 1))
    sentence[slot:slot] = [NOUNS[pair]]
    return sentence


def _build_document(cfg: SyntheticConfig, rng: np.random.Generator, doc_id: str) -> ClozeSample:
    pool = _FillerPool(cfg, rng)
    pair = int(rng.integers(PAIRS))
    sentences: list[tuple[list[str], int | None]] = []
    for _ in range(ANSWER_REPEATS):
        sent, noun_pos = _pair_sentence(pair, pool, rng)
        sentences.append((sent, noun_pos))
    others = [p for p in range(PAIRS) if p != pair]
    rng.shuffle(others)
    if rng.random() < TIE_PROB:
        # Bare distractor repeated to tie the answer count exactly.
        distractor, others = others[0], others[1:]
        for _ in range(ANSWER_REPEATS):
            sentences.append((_bare_noun_sentence(distractor, pool, rng), None))
    for p in others[:BACKGROUND_SENTENCES]:
        sentences.append((_bare_noun_sentence(p, pool, rng), None))
    for _ in range(FILLER_SENTENCES):
        sentences.append((pool.take(SENTENCE_LEN), None))

    order = rng.permutation(len(sentences))
    answer_slots = [int(i) for i in order if sentences[i][1] is not None]
    query_sentence = answer_slots[int(rng.integers(len(answer_slots)))]

    # The document keeps every sentence intact; the query is the chosen
    # sentence with its noun blanked, so the answer stays at full count and
    # the query context has an exact match inside the document.
    document: list[str] = []
    query: list[str] = []
    for idx in order:
        sent, noun_pos = sentences[idx]
        document.extend(sent)
        if idx == query_sentence:
            query = list(sent)
            query[noun_pos] = PLACEHOLDER_TOKEN
    candidates = sorted({tok for tok in document if tok.startswith("noun")})
    sample = ClozeSample(
        document=document,
        query=query,
        answer=NOUNS[pair],
        candidates=candidates,
        meta={"doc_id": doc_id},
    )
    validate_sample(sample)
    return sample


def generate_synthetic_corpus(
    cfg: SyntheticConfig, out_dir=None
) -> dict[str, list[ClozeSample]]:
    """Build train/valid/test splits; writes <split>.jsonl under out_dir if given."""
    rng = np.random.default_rng(cfg.seed)
    splits: dict[str, list[ClozeSample]] = {}
    for split, count in (("train", cfg.train_docs), ("valid", cfg.valid_docs), ("test", cfg.test_docs)):
        splits[split] = [
            _build_document(cfg, rng, doc_id=f"synth-{split}-{i:04d}") for i in range(count)
        ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for split, samples in splits.items():
            save_dataset(samples, out / f"{split}.jsonl")
    return splits


def frequency_baseline(sample: ClozeSample) -> str:
    """Predict the most frequent candidate token in the document.

    Falls back to all document tokens when no candidate list is present;
    ties break to the lexicographically smallest token.
    """
    pool = sample.candidates if sample.candidates else sample.document
    counts = Counter(tok for tok in sample.document if tok in set(pool))
    best = max(counts.values())
    return min(tok for tok, c in counts.items() if c == best)


def baseline_accuracy(samples: list[ClozeSample]) -> float:
    if not samples:
        raise UsageError("baseline_accuracy needs samples")
    hits = sum(1 for s in samples if frequency_baseline(s) == s.answer)
    return hits / len(samples)
