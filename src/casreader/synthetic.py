"""Synthetic cue/answer corpus for desk-scale verification.

Every document is built around one (cue, noun) pair from a global
inventory: the answer noun appears in `ANSWER_REPEATS` sentences, always
directly after its cue; the query is one of those sentences with the noun
blanked (the cue stays, and the document keeps the sentence intact). Half
the documents also carry a bare distractor noun repeated exactly as often
as the answer, so a pick-the-most-frequent-candidate baseline faces a
coin-flip tie there, while cue adjacency and the verbatim context match
identify the answer everywhere: the answer is the most repeated token
co-occurring with the query's cue. Each document reads its fillers in order
off one shuffle of the filler names, so no filler repeats inside a document
or outnumbers the answer.

Splits are disjoint by document and the whole corpus is a pure function of
the seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .data import save_dataset
from .datagen import ClozeSample, validate_sample
from .errors import UsageError
from .vocab import DEFAULT_SHORTLIST, PLACEHOLDER_TOKEN


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
# memory per document grow with the size; the cap is the default shortlist.
MAX_VOCAB_SIZE = DEFAULT_SHORTLIST


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


def _sentence(tokens, pool, rng) -> tuple[list[str], int]:
    """`tokens` at a random slot amid fillers; returns the sentence and the
    index of its last token."""
    sentence = list(islice(pool, SENTENCE_LEN - len(tokens)))
    slot = int(rng.integers(0, len(sentence) + 1))
    sentence[slot:slot] = tokens
    return sentence, slot + len(tokens) - 1


def _build_document(cfg: SyntheticConfig, rng: np.random.Generator, doc_id: str) -> ClozeSample:
    fillers = cfg.fillers
    pool = iter([fillers[i] for i in rng.permutation(len(fillers))])
    pair = int(rng.integers(PAIRS))
    # The answer sentences come first, so `i < ANSWER_REPEATS` marks them.
    answers = [_sentence([CUES[pair], NOUNS[pair]], pool, rng) for _ in range(ANSWER_REPEATS)]
    others = [p for p in range(PAIRS) if p != pair]
    rng.shuffle(others)
    # Bare distractor repeated to tie the answer count exactly.
    bare = [others.pop(0)] * ANSWER_REPEATS if rng.random() < TIE_PROB else []
    sentences = [sent for sent, _ in answers]
    sentences += [_sentence([NOUNS[p]], pool, rng)[0] for p in bare + others[:BACKGROUND_SENTENCES]]
    sentences += [list(islice(pool, SENTENCE_LEN)) for _ in range(FILLER_SENTENCES)]

    order = rng.permutation(len(sentences)).tolist()
    answer_slots = [i for i in order if i < ANSWER_REPEATS]
    query, noun_pos = answers[answer_slots[int(rng.integers(len(answer_slots)))]]

    # The document keeps every sentence intact; the query is the chosen
    # sentence with its noun blanked, so the answer stays at full count and
    # the query context has an exact match inside the document.
    document = list(chain.from_iterable(sentences[i] for i in order))
    query = list(query)
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
    pool = set(sample.candidates or sample.document)
    counts = Counter(tok for tok in sample.document if tok in pool)
    best = max(counts.values())
    return min(tok for tok, c in counts.items() if c == best)


def baseline_accuracy(samples: list[ClozeSample]) -> float:
    if not samples:
        raise UsageError("baseline_accuracy needs samples")
    hits = sum(1 for s in samples if frequency_baseline(s) == s.answer)
    return hits / len(samples)
