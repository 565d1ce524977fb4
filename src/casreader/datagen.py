"""Cloze-triple generation from sentence-segmented, POS-tagged documents.

A candidate answer is a surface token with at least two noun-tagged
occurrences in the document. One occurrence is drawn, its sentence becomes
the query with that occurrence replaced by the placeholder, and the same
position is blanked inside the (otherwise intact) document — so the blanked
query sentence stays in context and the answer still occurs elsewhere.

Input corpora are pre-segmented and pre-tagged: `#doc <id>` headers (`#doc`
then whitespace), `token<TAB>TAG` lines, blank lines between sentences. POS
tagging itself is out of scope; a token counts as a noun when its tag is in
a configurable tag set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, UsageError, ValidationError, text_lines
from .vocab import PLACEHOLDER_TOKEN, fnv1a64

DEFAULT_NOUN_TAGS = frozenset({"n", "NN", "NNS", "NOUN"})


@dataclass
class TaggedDocument:
    sentences: list[list[tuple[str, str]]]  # (surface token, POS tag) pairs
    doc_id: str

    def __post_init__(self):
        if not self.sentences or any(not s for s in self.sentences):
            raise ValidationError(f"document {self.doc_id!r} has empty sentences")


@dataclass
class ClozeSample:
    """One document/query/answer triple; the query holds exactly one placeholder."""

    document: list[str]
    query: list[str]
    answer: str
    candidates: list[str] | None = None
    meta: dict = field(default_factory=dict)


def validate_sample(sample: ClozeSample) -> None:
    """Check the invariants every triple must satisfy; raise ValidationError."""
    if not sample.document:
        raise ValidationError("document is empty")
    if not sample.query:
        raise ValidationError("query is empty")
    if not sample.answer:
        raise ValidationError("answer is empty")
    placeholders = sample.query.count(PLACEHOLDER_TOKEN)
    if placeholders != 1:
        raise ValidationError(f"query must contain exactly one placeholder, found {placeholders}")
    if sample.answer in sample.query:
        raise ValidationError(f"answer {sample.answer!r} still present in query")
    if sample.answer not in sample.document:
        raise ValidationError(f"answer {sample.answer!r} does not occur in document")


def candidate_answers(
    doc: TaggedDocument, noun_tags: frozenset[str] = DEFAULT_NOUN_TAGS
) -> dict[str, list[tuple[int, int]]]:
    """Tokens with >= 2 noun-tagged occurrences, mapped to those positions.

    Positions are (sentence index, token index); only noun-tagged
    occurrences count, so a surface form tagged noun once and verb once
    does not qualify.
    """
    positions: dict[str, list[tuple[int, int]]] = {}
    for s_idx, sentence in enumerate(doc.sentences):
        for t_idx, (token, tag) in enumerate(sentence):
            if tag in noun_tags:
                positions.setdefault(token, []).append((s_idx, t_idx))
    return {tok: occ for tok, occ in positions.items() if len(occ) >= 2}


def _eligible_occurrences(
    doc: TaggedDocument, answer: str, occurrences: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """(occurrence index, sentence, token) of the occurrences whose sentence
    contains the answer exactly once.

    Blanking such an occurrence removes every trace of the answer from the
    query, which the sample invariants require; the placeholder literal
    must also be absent from the sentence.
    """
    keep = []
    for index, (s_idx, t_idx) in enumerate(occurrences):
        surface = [tok for tok, _ in doc.sentences[s_idx]]
        if surface.count(answer) == 1 and PLACEHOLDER_TOKEN not in surface:
            keep.append((index, s_idx, t_idx))
    return keep


def generate_samples(
    doc: TaggedDocument,
    rng: np.random.Generator,
    samples_per_doc: int = 1,
    noun_tags: frozenset[str] = DEFAULT_NOUN_TAGS,
) -> list[ClozeSample]:
    """Draw up to `samples_per_doc` triples from one document.

    Answers are uniform over the remaining candidates, occurrences uniform
    over that answer's remaining eligible positions; (answer, occurrence)
    pairs are never reused. Returns fewer samples (possibly none) when the
    document runs out of eligible pairs.
    """
    return _draw_samples(doc, candidate_answers(doc, noun_tags), rng, samples_per_doc)


def _draw_samples(
    doc: TaggedDocument, candidates: dict[str, list[tuple[int, int]]], rng: np.random.Generator, samples_per_doc: int
) -> list[ClozeSample]:
    if samples_per_doc < 1:
        raise UsageError(f"samples_per_doc must be >= 1, got {samples_per_doc}")
    pool = {
        answer: eligible
        for answer, occurrences in sorted(candidates.items())
        if (eligible := _eligible_occurrences(doc, answer, occurrences))
    }
    samples: list[ClozeSample] = []
    while pool and len(samples) < samples_per_doc:
        answers = sorted(pool)
        answer = answers[int(rng.integers(len(answers)))]
        occurrences = pool[answer]
        pick = int(rng.integers(len(occurrences)))
        occurrence_index, s_idx, t_idx = occurrences.pop(pick)
        if not occurrences:
            del pool[answer]
        samples.append(_build_sample(doc, answer, s_idx, t_idx, occurrence_index))
    return samples


def _build_sample(doc: TaggedDocument, answer: str, s_idx: int, t_idx: int, occurrence_index: int) -> ClozeSample:
    query = [tok for tok, _ in doc.sentences[s_idx]]
    query[t_idx] = PLACEHOLDER_TOKEN
    document: list[str] = []
    for i, sentence in enumerate(doc.sentences):
        for j, (tok, _) in enumerate(sentence):
            document.append(PLACEHOLDER_TOKEN if (i, j) == (s_idx, t_idx) else tok)
    return ClozeSample(
        document=document,
        query=query,
        answer=answer,
        meta={"doc_id": doc.doc_id, "query_sentence": s_idx, "answer_occurrence": occurrence_index},
    )


@dataclass
class SkipRecord:
    doc_id: str
    reason: str


def generate_corpus(
    docs: Iterable[TaggedDocument],
    seed: int,
    samples_per_doc: int = 1,
    noun_tags: frozenset[str] = DEFAULT_NOUN_TAGS,
) -> tuple[list[ClozeSample], list[SkipRecord]]:
    """Generate over many documents; documents without usable answers are
    skipped with a reason, never aborted. Each document gets its own rng
    stream derived from (seed, doc_id), so results do not depend on
    processing order."""
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    samples: list[ClozeSample] = []
    skips: list[SkipRecord] = []
    for doc in docs:
        doc_rng = np.random.default_rng(
            np.random.SeedSequence([seed, fnv1a64(doc.doc_id.encode("utf-8"))])
        )
        candidates = candidate_answers(doc, noun_tags)
        drawn = _draw_samples(doc, candidates, doc_rng, samples_per_doc)
        if drawn:
            samples.extend(drawn)
        else:
            reason = "no-eligible-occurrence" if candidates else "no-candidates"
            skips.append(SkipRecord(doc_id=doc.doc_id, reason=reason))
    return samples, skips


def parse_tagged_corpus(path) -> list[TaggedDocument]:
    """Read the `#doc` / `token<TAB>TAG` / blank-line-separated format."""
    docs: list[TaggedDocument] = []
    doc_id: str | None = None
    sentences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []

    def flush_sentence():
        nonlocal current
        if current:
            sentences.append(current)
            current = []

    def flush_doc(lineno: int):
        nonlocal sentences
        if doc_id is None:
            return
        flush_sentence()
        if not sentences:
            raise ParseError(f"document {doc_id!r} has no sentences", line=lineno)
        docs.append(TaggedDocument(sentences=sentences, doc_id=doc_id))
        sentences = []

    lineno = 0
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if line == "#doc" or line[:4] == "#doc" and line[4].isspace():
            flush_doc(lineno)
            doc_id = line[4:].strip()
            if not doc_id:
                raise ParseError("missing document id after '#doc'", line=lineno)
        elif not line.strip():
            flush_sentence()
        else:
            if doc_id is None:
                raise ParseError("token line before any '#doc' header", line=lineno)
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise ParseError(f"expected 'token<TAB>TAG', got {line!r}", line=lineno)
            current.append((cols[0], cols[1]))
    flush_doc(lineno + 1)
    return docs


@dataclass
class DatasetStats:
    query_count: int
    max_doc_tokens: int
    avg_doc_tokens: int
    max_query_tokens: int
    avg_query_tokens: int
    vocabulary_size: int

    def as_dict(self) -> dict:
        return asdict(self)


def dataset_stats(samples: Sequence[ClozeSample]) -> DatasetStats:
    """Corpus-level size statistics; averages round half away from zero.

    The vocabulary count covers distinct surface tokens in documents,
    queries, and answers, excluding the placeholder artifact.
    """
    if not samples:
        raise UsageError("dataset_stats needs at least one sample")
    doc_lens = [len(s.document) for s in samples]
    query_lens = [len(s.query) for s in samples]
    vocab: set[str] = set()
    for s in samples:
        vocab.update(s.document)
        vocab.update(s.query)
        vocab.add(s.answer)
    vocab.discard(PLACEHOLDER_TOKEN)

    def avg(values):
        return int(sum(values) / len(values) + 0.5)

    return DatasetStats(
        query_count=len(samples),
        max_doc_tokens=max(doc_lens),
        avg_doc_tokens=avg(doc_lens),
        max_query_tokens=max(query_lens),
        avg_query_tokens=avg(query_lens),
        vocabulary_size=len(vocab),
    )
