"""The consensus-attention reading head.

For each query position t, a dot-product attention over document positions
yields a distribution alpha(t). A merge heuristic (sum, avg, or max over t,
followed by a softmax) condenses those into one document-level attention s,
and summing s over every position where a word occurs gives the word-level
answer distribution. The single-attention baseline head skips the merge and
attends once with the query summary [last forward state; first backward
state].

The merge softmax is applied literally even though its inputs are already
non-negative; sum and avg therefore rescale logits by a positive constant
and preserve the position-level ranking of s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from . import tensor as T
from .errors import DimensionError, UsageError
from .nn import EncodedSequence, GruParams
from .tensor import Tensor

Array = np.ndarray

MERGE_MODES = ("sum", "avg", "max")
AS_BASELINE = "as-baseline"
EVAL_MODES = MERGE_MODES + (AS_BASELINE,)
GRU_DIRECTIONS = ("doc_fwd", "doc_bwd", "query_fwd", "query_bwd")


@dataclass
class ReaderConfig:
    embed_dim: int
    hidden_dim: int
    dropout_rate: float = 0.0
    merge_mode: str = "avg"

    def __post_init__(self):
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise UsageError("embed_dim and hidden_dim must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.merge_mode not in MERGE_MODES:
            raise UsageError(f"merge_mode must be one of {MERGE_MODES}, got {self.merge_mode!r}")


@dataclass
class ModelParams:
    """Shared embedding plus four directional GRU parameter sets."""

    embedding: Tensor  # [vocab_size x embed_dim], shared by document and query
    doc_fwd: GruParams
    doc_bwd: GruParams
    query_fwd: GruParams
    query_bwd: GruParams
    config: ReaderConfig

    @property
    def vocab_size(self) -> int:
        return self.embedding.data.shape[0]

    def named(self) -> dict[str, Tensor]:
        """All trainable tensors in a fixed, checkpoint-stable order."""
        out = {"embedding": self.embedding}
        for direction in GRU_DIRECTIONS:
            out.update(getattr(self, direction).named(direction))
        return out

    @classmethod
    def from_named(cls, named: dict[str, Tensor], config: ReaderConfig) -> ModelParams:
        """Inverse of `named`: a view over the given tensors, which are not copied.

        Raises KeyError naming the first parameter missing from `named`.
        """

        def gru(direction: str) -> GruParams:
            return GruParams(**{f.name: named[f"{direction}.{f.name}"] for f in fields(GruParams)})

        return cls(
            embedding=named["embedding"],
            config=config,
            **{direction: gru(direction) for direction in GRU_DIRECTIONS},
        )


def init_model_params(config: ReaderConfig, vocab_size: int, rng: np.random.Generator) -> ModelParams:
    embedding = Tensor(nn.uniform_init(vocab_size, config.embed_dim, 0.1, rng), requires_grad=True)
    make = lambda: nn.init_gru_params(config.embed_dim, config.hidden_dim, rng)
    return ModelParams(
        embedding=embedding, config=config, **{direction: make() for direction in GRU_DIRECTIONS}
    )


@dataclass
class WordDistribution:
    """Word-level probabilities: one slot per distinct document token."""

    probs: Tensor  # [k]
    token_ids: list[int]  # slot -> token id, in first-occurrence order
    _slot_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._slot_of = {tid: i for i, tid in enumerate(self.token_ids)}

    def slot(self, token_id: int) -> int | None:
        return self._slot_of.get(int(token_id))

    def as_dict(self) -> dict[int, float]:
        return {tid: float(self.probs.data[i]) for i, tid in enumerate(self.token_ids)}


@dataclass
class AttentionMap:
    """Frozen (numpy) view of one sample's attention pipeline."""

    alpha: Array  # [m x n], row t = attention over document positions at query step t
    merged: Array  # [n]
    word_probs: dict[int, float]


@dataclass
class SampleForward:
    """Graph-bearing per-sample outputs, used by training and evaluation."""

    alpha: Tensor | None  # None for the single-attention baseline
    merged: Tensor
    words: WordDistribution
    doc_ids: Array

    def attention_map(self) -> AttentionMap:
        alpha = self.alpha.data.copy() if self.alpha is not None else np.zeros((0, self.merged.data.shape[0]))
        return AttentionMap(alpha=alpha, merged=self.merged.data.copy(), word_probs=self.words.as_dict())


def _states_of(h) -> Tensor:
    return h.states if isinstance(h, EncodedSequence) else h


def _default_mask(h, explicit) -> Array:
    if explicit is not None:
        return np.asarray(explicit, dtype=bool)
    if isinstance(h, EncodedSequence):
        return h.mask
    return np.ones(_states_of(h).data.shape[0], dtype=bool)


def attention_per_step(h_doc, h_query, doc_mask=None) -> Tensor:
    """Row t = masked softmax over document positions of <h_doc[j], h_query[t]>."""
    doc_states, query_states = _states_of(h_doc), _states_of(h_query)
    if doc_states.data.shape[1] != query_states.data.shape[1]:
        raise DimensionError(
            f"document width {doc_states.data.shape[1]} != query width {query_states.data.shape[1]}"
        )
    mask = _default_mask(h_doc, doc_mask)
    logits = T.matmul(query_states, T.transpose(doc_states))
    return T.masked_softmax(logits, mask)


def merge_attention(alpha: Tensor, mode: str, doc_mask=None) -> Tensor:
    """Condense per-step attentions into one distribution over document positions."""
    if mode not in MERGE_MODES:
        raise UsageError(f"merge mode must be one of {MERGE_MODES}, got {mode!r}")
    if alpha.data.ndim != 2 or alpha.data.shape[0] == 0:
        raise UsageError(f"merge_attention needs a non-empty [m x n] matrix, got {alpha.data.shape}")
    mask = (
        np.asarray(doc_mask, dtype=bool)
        if doc_mask is not None
        else np.ones(alpha.data.shape[1], dtype=bool)
    )
    if mode == "sum":
        logits = T.reduce_sum(alpha, axis=0)
    elif mode == "avg":
        logits = T.mul(T.reduce_sum(alpha, axis=0), 1.0 / alpha.data.shape[0])
    else:
        logits = T.reduce_max(alpha, axis=0)
    return T.masked_softmax(logits, mask)


def attention_sum(merged: Tensor, doc_ids, doc_mask=None) -> WordDistribution:
    """Sum position attention into word probabilities over distinct document tokens.

    Slots follow first occurrence order; accumulation is left to right, so
    the result is bit-identical to a straightforward dictionary accumulate.
    """
    ids = np.asarray(doc_ids, dtype=np.int64)
    if merged.data.shape != ids.shape:
        raise DimensionError(f"merged shape {merged.data.shape} does not match ids shape {ids.shape}")
    mask = _default_mask(merged, doc_mask)
    token_ids: list[int] = []
    slot_of: dict[int, int] = {}
    groups = np.zeros(ids.shape[0], dtype=np.int64)
    for i, tid in enumerate(ids):
        if not mask[i]:
            continue
        tid = int(tid)
        if tid not in slot_of:
            slot_of[tid] = len(token_ids)
            token_ids.append(tid)
        groups[i] = slot_of[tid]
    if not token_ids:
        raise UsageError("attention_sum over a fully masked document")
    # Masked positions hold exactly zero attention, so folding them into
    # slot 0 adds nothing; keeping a single group_sum keeps the graph small.
    probs = T.group_sum(merged, groups, len(token_ids))
    return WordDistribution(probs=probs, token_ids=token_ids)


def as_reader_attention(h_doc, query_final: Tensor, doc_mask=None) -> Tensor:
    """Single-attention baseline: one masked softmax of <h_doc[j], query_final>."""
    doc_states = _states_of(h_doc)
    q = T.reshape(query_final, (1, -1)) if query_final.data.ndim == 1 else query_final
    if doc_states.data.shape[1] != q.data.shape[1]:
        raise DimensionError(
            f"document width {doc_states.data.shape[1]} != query width {q.data.shape[1]}"
        )
    mask = _default_mask(h_doc, doc_mask)
    logits = T.reshape(T.matmul(doc_states, T.transpose(q)), (doc_states.data.shape[0],))
    return T.masked_softmax(logits, mask)


def _pad_batch(rows: list[Array]) -> tuple[Array, Array]:
    width = max(len(r) for r in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = True
    return ids, mask


def forward(
    samples,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    mode: str | None = None,
) -> list[SampleForward]:
    """Run the full pipeline for a batch of encoded samples.

    Each sample needs integer `doc_ids` and `query_ids`. Batch padding is
    internal: heads only ever see each sample's real positions, so results
    match single-sample runs regardless of batch composition.
    """
    if not samples:
        raise UsageError("forward needs at least one sample")
    mode = params.config.merge_mode if mode is None else mode
    if mode not in EVAL_MODES:
        raise UsageError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    doc_rows = [np.asarray(s.doc_ids, dtype=np.int64) for s in samples]
    query_rows = [np.asarray(s.query_ids, dtype=np.int64) for s in samples]
    if any(len(r) == 0 for r in doc_rows) or any(len(r) == 0 for r in query_rows):
        raise UsageError("documents and queries must be non-empty")
    doc_ids, doc_mask = _pad_batch(doc_rows)
    query_ids, query_mask = _pad_batch(query_rows)
    dropout_rate = params.config.dropout_rate if training else 0.0
    doc_enc = nn.encode_batch(
        doc_ids, doc_mask, params.embedding, params.doc_fwd, params.doc_bwd,
        dropout_rate=dropout_rate, training=training, rng=rng,
    )
    query_enc = nn.encode_batch(
        query_ids, query_mask, params.embedding, params.query_fwd, params.query_bwd,
        dropout_rate=dropout_rate, training=training, rng=rng,
    )
    outputs = []
    for b, sample in enumerate(samples):
        h_doc = doc_enc.sequence(b)
        if mode == AS_BASELINE:
            query_final = T.concat_cols(query_enc.final_forward(b), query_enc.first_backward(b))
            alpha = None
            merged = as_reader_attention(h_doc, query_final)
        else:
            h_query = query_enc.sequence(b)
            alpha = attention_per_step(h_doc, h_query)
            merged = merge_attention(alpha, mode)
        words = attention_sum(merged, doc_rows[b])
        outputs.append(SampleForward(alpha=alpha, merged=merged, words=words, doc_ids=doc_rows[b]))
    return outputs


def attention_maps(samples, params: ModelParams, mode: str | None = None) -> list[AttentionMap]:
    """Evaluation-mode forward, frozen to plain arrays."""
    return [sf.attention_map() for sf in forward(samples, params, training=False, mode=mode)]


def predict(sample, params: ModelParams, mode: str | None = None, candidates=None) -> int:
    """Most probable word id; exact ties break toward the smallest token id.

    `candidates`, when given, restricts the argmax to those token ids
    (falling back to the full document if none of them occur in it).
    """
    words = forward([sample], params, training=False, mode=mode)[0].words
    return argmax_word(words.as_dict(), candidates)


def argmax_word(word_probs: dict[int, float], candidates=None) -> int:
    if candidates is not None:
        allowed = {int(c) for c in candidates}
        restricted = {tid: p for tid, p in word_probs.items() if tid in allowed}
        if restricted:
            word_probs = restricted
    best = max(word_probs.values())
    return min(tid for tid, p in word_probs.items() if p == best)
