"""JSON-lines dataset I/O.

One sample per line: {"document": [...], "query": [...], "answer": "...",
"candidates": [...]?, "meta": {...}?}. The query holds exactly one
placeholder element. Loading validates each record against the sample
invariants and aborts on the first bad line.
"""

from __future__ import annotations

import json
from typing import Sequence

from .datagen import ClozeSample, validate_sample
from .errors import ParseError, ValidationError, text_lines


def _record_to_sample(record: dict, line: int) -> ClozeSample:
    if not isinstance(record, dict):
        raise ValidationError(f"line {line}: expected a JSON object")
    for key in ("document", "query", "answer"):
        if key not in record:
            raise ValidationError(f"line {line}: missing field {key!r}")
    document, query, answer = record["document"], record["query"], record["answer"]
    if not isinstance(document, list) or not all(isinstance(t, str) for t in document):
        raise ValidationError(f"line {line}: 'document' must be a list of strings")
    if not isinstance(query, list) or not all(isinstance(t, str) for t in query):
        raise ValidationError(f"line {line}: 'query' must be a list of strings")
    if not isinstance(answer, str):
        raise ValidationError(f"line {line}: 'answer' must be a string")
    candidates = record.get("candidates")
    if candidates is not None and (
        not isinstance(candidates, list) or not all(isinstance(t, str) for t in candidates)
    ):
        raise ValidationError(f"line {line}: 'candidates' must be a list of strings")
    meta = record.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValidationError(f"line {line}: 'meta' must be an object")
    sample = ClozeSample(
        document=document, query=query, answer=answer, candidates=candidates, meta=meta
    )
    try:
        validate_sample(sample)
    except ValidationError as err:
        raise ValidationError(f"line {line}: {err}") from None
    return sample


def load_dataset(path) -> tuple[list[ClozeSample], list]:
    """Parse a JSONL sample file; the first bad line raises.

    Returns `(samples, [])`: the empty second item is kept so that callers
    that unpack a pair (the benchmark's `perfbench/measure.py`) still fit.
    Bytes that are not UTF-8, and `\\u` escapes of lone surrogates (text
    that no UTF-8 file can hold), raise ParseError.
    """
    samples: list[ClozeSample] = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as err:  # also nesting too deep, an integer too long
            raise ParseError(f"malformed JSON: {getattr(err, 'msg', err)}", line=lineno) from None
        sample = _record_to_sample(record, lineno)
        if "\\" in line:  # decoded UTF-8 holds no surrogates; only an escape brings one in
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("lone surrogate escape, not encodable as UTF-8", line=lineno) from None
        samples.append(sample)
    return samples, []


def save_dataset(samples: Sequence[ClozeSample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {"document": list(s.document), "query": list(s.query), "answer": s.answer}
            if s.candidates:
                record["candidates"] = list(s.candidates)
            if s.meta:
                record["meta"] = s.meta
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
