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
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, UsageError, ValidationError, read_text
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

    def tokens(self) -> Iterator[str]:
        """The document, then the query, then the answer."""
        return chain(self.document, self.query, (self.answer,))


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


def generate_samples(
    doc: TaggedDocument,
    rng: np.random.Generator,
    samples_per_doc: int = 1,
    noun_tags: frozenset[str] = DEFAULT_NOUN_TAGS,
) -> list[ClozeSample]:
    """Draw up to `samples_per_doc` triples from one document.

    An occurrence of a candidate answer is eligible when its sentence holds
    the answer exactly once and no placeholder literal, so blanking it
    removes every trace of the answer from the query, as the sample
    invariants require. Answers are uniform over the remaining candidates,
    occurrences uniform over that answer's remaining eligible positions;
    (answer, occurrence) pairs are never reused. Returns fewer samples
    (possibly none) when the document runs out of eligible pairs.
    """
    if samples_per_doc < 1:
        raise UsageError(f"samples_per_doc must be >= 1, got {samples_per_doc}")
    surfaces = [[tok for tok, _ in sentence] for sentence in doc.sentences]
    pool = {  # answer -> its eligible (occurrence index, sentence, token)
        answer: eligible
        for answer, occurrences in sorted(candidate_answers(doc, noun_tags).items())
        if (eligible := [
            (index, s_idx, t_idx)
            for index, (s_idx, t_idx) in enumerate(occurrences)
            if surfaces[s_idx].count(answer) == 1 and PLACEHOLDER_TOKEN not in surfaces[s_idx]
        ])
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
        query = surfaces[s_idx].copy()
        query[t_idx] = PLACEHOLDER_TOKEN
        samples.append(ClozeSample(
            document=list(chain(*surfaces[:s_idx], query, *surfaces[s_idx + 1:])),
            query=query,
            answer=answer,
            meta={"doc_id": doc.doc_id, "query_sentence": s_idx, "answer_occurrence": occurrence_index},
        ))
    return samples


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
        drawn = generate_samples(doc, doc_rng, samples_per_doc, noun_tags)
        if drawn:
            samples.extend(drawn)
        else:
            reason = "no-eligible-occurrence" if candidate_answers(doc, noun_tags) else "no-candidates"
            skips.append(SkipRecord(doc_id=doc.doc_id, reason=reason))
    return samples, skips


def parse_tagged_corpus(path) -> list[TaggedDocument]:
    """Read the `#doc` / `token<TAB>TAG` / blank-line-separated format."""
    docs: list[TaggedDocument] = []
    doc_id: str | None = None
    sentences: list[list[tuple[str, str]]] = [[]]

    def close_doc(lineno: int):
        nonlocal sentences
        if doc_id is not None:
            kept = [sentence for sentence in sentences if sentence]
            if not kept:
                raise ParseError(f"document {doc_id!r} has no sentences", line=lineno)
            docs.append(TaggedDocument(sentences=kept, doc_id=doc_id))
        sentences = [[]]

    lines = read_text(path).removesuffix("\n").split("\n")  # a final line break adds no line
    for lineno, line in enumerate(lines, start=1):
        if line == "#doc" or line[:4] == "#doc" and line[4].isspace():
            close_doc(lineno)
            doc_id = line[4:].strip()
            if not doc_id:
                raise ParseError("missing document id after '#doc'", line=lineno)
        elif not line.strip():
            sentences.append([])
        else:
            if doc_id is None:
                raise ParseError("token line before any '#doc' header", line=lineno)
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise ParseError(f"expected 'token<TAB>TAG', got {line!r}", line=lineno)
            sentences[-1].append((cols[0], cols[1]))
    close_doc(lineno + 1)
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
    vocab = set(chain.from_iterable(s.tokens() for s in samples))
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
