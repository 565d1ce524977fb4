"""Frequency-ranked vocabulary with a shortlist cap and hashed OOV buckets.

Reserved id layout (fixed in the file format so checkpoints stay portable):
pad = 0, placeholder = 1, the ten OOV buckets = 2..11, regular tokens from
12 up in descending frequency (ties broken lexicographically). Unknown
tokens hash into one of the ten buckets with 64-bit FNV-1a, so repeated
mentions of the same unseen word share an id — which the word-level
attention aggregation can then exploit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ParseError, UsageError, ValidationError, text_lines

PAD_ID = 0
PLACEHOLDER_ID = 1
NUM_OOV_BUCKETS = 10
OOV_BASE_ID = 2
FIRST_REGULAR_ID = OOV_BASE_ID + NUM_OOV_BUCKETS  # 12
# The shortlist `build-vocab` keeps unless told otherwise.
DEFAULT_SHORTLIST = 100_000

PAD_TOKEN = "⟨pad⟩"
PLACEHOLDER_TOKEN = "⟨X⟩"

_VOCAB_FORMAT = "casreader-vocab-v1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes; stable across runs and platforms."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


def oov_bucket(token: str) -> int:
    return OOV_BASE_ID + fnv1a64(token.encode("utf-8")) % NUM_OOV_BUCKETS


@dataclass
class Vocabulary:
    """Immutable token/id mapping; build with `build_vocab` or `load_vocab`."""

    tokens: list[str]  # regular tokens in id order (id = FIRST_REGULAR_ID + index)
    frequencies: list[int]  # build-time counts, aligned with `tokens`
    shortlist_size: int | None  # None means unbounded
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ids = {tok: FIRST_REGULAR_ID + i for i, tok in enumerate(self.tokens)}

    @property
    def total_size(self) -> int:
        """Embedding-table size: reserved ids plus the regular tokens."""
        return FIRST_REGULAR_ID + len(self.tokens)

    def token_to_id(self, token: str) -> int:
        """Total mapping: known token, placeholder, or a hashed OOV bucket."""
        if token == PLACEHOLDER_TOKEN:
            return PLACEHOLDER_ID
        known = self._ids.get(token)
        return known if known is not None else oov_bucket(token)

    def id_to_token(self, token_id: int) -> str:
        if token_id == PAD_ID:
            return PAD_TOKEN
        if token_id == PLACEHOLDER_ID:
            return PLACEHOLDER_TOKEN
        if OOV_BASE_ID <= token_id < FIRST_REGULAR_ID:
            return f"⟨unk{token_id - OOV_BASE_ID}⟩"
        index = token_id - FIRST_REGULAR_ID
        if 0 <= index < len(self.tokens):
            return self.tokens[index]
        raise UsageError(f"id {token_id} outside vocabulary of size {self.total_size}")


def build_vocab(tokens: Iterable[str], shortlist_size: int | None) -> Vocabulary:
    """Keep the `shortlist_size` most frequent tokens (ties: lexicographic).

    The placeholder and pad literals are reserved and never enter the
    shortlist. Membership depends on frequencies only, so the input
    stream order is irrelevant.
    """
    if shortlist_size is not None and shortlist_size < 1:
        raise UsageError(f"shortlist_size must be >= 1 or None, got {shortlist_size}")
    counts = Counter(tokens)
    if not counts:
        raise UsageError("build_vocab got an empty token stream")
    del counts[PLACEHOLDER_TOKEN], counts[PAD_TOKEN]  # a Counter ignores a missing key
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if shortlist_size is not None:
        ranked = ranked[:shortlist_size]
    return Vocabulary(
        tokens=[tok for tok, _ in ranked],
        frequencies=[freq for _, freq in ranked],
        shortlist_size=shortlist_size,
    )


@dataclass
class EncodedSample:
    """A cloze sample mapped to token ids."""

    doc_ids: np.ndarray
    query_ids: np.ndarray
    answer_id: int
    candidate_ids: list[int] | None = None


def encode_sample(vocab: Vocabulary, sample) -> EncodedSample:
    """Map a ClozeSample's tokens through the vocabulary.

    The reader scores document words only, so an encoded answer missing from
    the encoded document is a ValidationError naming it; equal tokens map to
    equal ids, so no sample that passed `datagen.validate_sample` raises it.
    """
    doc_ids = np.array([vocab.token_to_id(t) for t in sample.document], dtype=np.int64)
    query_ids = np.array([vocab.token_to_id(t) for t in sample.query], dtype=np.int64)
    answer_id = vocab.token_to_id(sample.answer)
    if answer_id not in doc_ids:
        raise ValidationError(f"answer {sample.answer!r} does not occur in its document after encoding")
    candidates = getattr(sample, "candidates", None)
    return EncodedSample(
        doc_ids=doc_ids,
        query_ids=query_ids,
        answer_id=answer_id,
        candidate_ids=[vocab.token_to_id(c) for c in candidates] if candidates else None,
    )


def save_vocab(vocab: Vocabulary, path) -> None:
    # Tab-separated lines cannot carry tokens with tab or newline characters;
    # refuse before opening, so a failed save leaves any earlier file as it was.
    for token in vocab.tokens:
        if not token or any(c in token for c in "\t\r\n"):
            raise ValidationError(f"token {token!r} is not representable in the vocabulary format")
    shortlist = "none" if vocab.shortlist_size is None else str(vocab.shortlist_size)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_VOCAB_FORMAT}\tshortlist={shortlist}\n")
        fh.writelines(f"{token}\t{freq}\n" for token, freq in zip(vocab.tokens, vocab.frequencies))


def _is_count(raw: str) -> bool:
    """True when `raw` is a count spelled as `str(n)` spells it: ASCII digits, no leading zero."""
    return raw.isascii() and raw.isdecimal() and (raw[0] != "0" or raw == "0")


def load_vocab(path) -> Vocabulary:
    lines = text_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n")
    parts = header.split("\t")
    if len(parts) != 2 or parts[0] != _VOCAB_FORMAT:
        raise ParseError(
            f"expected vocabulary header {_VOCAB_FORMAT!r}, got {header!r}", line=1
        )
    if not parts[1].startswith("shortlist="):
        raise ParseError(f"malformed shortlist field {parts[1]!r}", line=1)
    raw = parts[1][len("shortlist="):]
    shortlist = None if raw == "none" else int(raw) if _is_count(raw) else 0
    if shortlist == 0:  # `save_vocab` writes `none`, never 0
        raise ParseError(f"malformed shortlist value {raw!r}", line=1)
    tokens: list[str] = []
    frequencies: list[int] = []
    seen: set[str] = set()
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 'token<TAB>frequency', got {line!r}", line=lineno)
        token, freq = cols
        if not token:
            raise ParseError("empty token", line=lineno)
        if token in seen:
            raise ParseError(f"duplicate token {token!r}", line=lineno)
        if not _is_count(freq):
            raise ParseError(f"non-numeric frequency {freq!r}", line=lineno)
        seen.add(token)
        tokens.append(token)
        frequencies.append(int(freq))
    return Vocabulary(tokens=tokens, frequencies=frequencies, shortlist_size=shortlist)
