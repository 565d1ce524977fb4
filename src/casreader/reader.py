"""The consensus-attention reading head, run over a whole padded batch.

For each query position t, a dot-product attention over document positions
yields a distribution alpha(t). A merge heuristic (sum, avg, or max over t,
followed by a softmax) condenses those into one document-level attention s,
and summing s over every position where a word occurs gives the word-level
answer distribution. The single-attention `as-baseline` head skips the
merge: it is `attention_per_step` over a one-step query, the summary [last
forward state; first backward state] of the post-dropout states the other
heads read (`query_summary`), and that one attention row is both its `alpha`
and its merged attention. `merge_mode` names any of the four heads, so this
one trains as an attention-sum reader on its own.

Each stage works over the trailing axes with explicit masks, `[B x L_d]`
for documents and `[B x L_q]` for queries; without the batch axis the same
functions read one sample. Padded document positions get exactly zero
attention and padded query steps add nothing to the merge, so a sample's
result does not depend on the batch around it (to rounding, 1e-12
relative).

The merge softmax is applied literally even though its inputs are already
non-negative; sum and avg therefore rescale logits by a positive constant
and preserve the position-level ranking of s.

`score` is the one evaluation path: it runs the batched forward on a view of
the parameters that records no graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import nn
from . import tensor as T
from .errors import ConfigurationError, DimensionError, UsageError, ValidationError
from .nn import GruParams
from .tensor import Tensor

if TYPE_CHECKING:
    from .train import TrainConfig

Array = np.ndarray

MERGE_MODES = ("sum", "avg", "max")
AS_BASELINE = "as-baseline"
HEAD_MODES = MERGE_MODES + (AS_BASELINE,)
GRU_DIRECTIONS = ("doc_fwd", "doc_bwd", "query_fwd", "query_bwd")


def head_mode(config: TrainConfig, mode: str | None) -> str:
    """The head `mode` names, by default the one the model was trained with."""
    mode = config.merge_mode if mode is None else mode
    if mode not in HEAD_MODES:
        raise UsageError(f"mode must be one of {HEAD_MODES}, got {mode!r}")
    return mode


@dataclass
class ModelParams:
    """Shared embedding plus four directional GRU parameter sets."""

    embedding: Tensor  # [vocab_size x embed_dim], shared by document and query
    doc_fwd: GruParams
    doc_bwd: GruParams
    query_fwd: GruParams
    query_bwd: GruParams
    config: TrainConfig

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
    def from_named(cls, named: dict[str, Tensor], config: TrainConfig) -> ModelParams:
        """Inverse of `named`: a view over the given tensors, which are not copied."""

        def gru(direction: str) -> GruParams:
            return GruParams(**{f.name: named[f"{direction}.{f.name}"] for f in fields(GruParams)})

        return cls(
            embedding=named["embedding"],
            config=config,
            **{direction: gru(direction) for direction in GRU_DIRECTIONS},
        )


def param_layout(config: TrainConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every trainable tensor's name and shape, in `named` (checkpoint) order."""
    e, h = config.embed_dim, config.hidden_dim
    gru = [(f.name, {"w": (h, e), "u": (h, h), "b": (h,)}[f.name[0]]) for f in fields(GruParams)]
    return [("embedding", (vocab_size, e))] + [(f"{d}.{name}", shape) for d in GRU_DIRECTIONS for name, shape in gru]


def init_model_params(config: TrainConfig, vocab_size: int, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters drawn in `param_layout` order: the embedding and the
    input maps uniform in [-0.1, 0.1], the recurrent maps orthogonal, the
    biases zero. A size numpy refuses to allocate is a ConfigurationError."""
    named = {}
    try:
        for name, shape in param_layout(config, vocab_size):
            role = name.rpartition(".")[2][0]  # a GRU's w (input), u (recurrent) or b (bias); e for the embedding
            if role == "u":
                data = nn.orthogonal_init(*shape, rng)
            elif role == "b":
                data = np.zeros(shape)
            else:
                data = rng.uniform(-0.1, 0.1, shape)
            named[name] = Tensor(data, requires_grad=True)
    except (MemoryError, ValueError) as err:
        raise ConfigurationError(
            f"cannot allocate a [{vocab_size} x {config.embed_dim}] embedding with GRUs of hidden size "
            f"{config.hidden_dim}: {err}"
        ) from None
    return ModelParams.from_named(named, config)


@dataclass
class WordDistribution:
    """Word-level probabilities of a batch: sample b owns the slots
    `offsets[b]:offsets[b + 1]`, one per distinct document token, in
    ascending token id order."""

    probs: Tensor  # [slots]
    token_ids: Array  # [slots]
    offsets: Array  # [batch + 1]

    def sample(self, b: int) -> WordDistribution:
        """Sample b's distribution on its own, as plain values (no graph)."""
        lo, hi = self.offsets[b], self.offsets[b + 1]
        return WordDistribution(Tensor(self.probs.data[lo:hi]), self.token_ids[lo:hi], np.array([0, hi - lo]))

    def as_dict(self) -> dict[int, float]:
        """Token id -> probability, for a one-sample distribution."""
        return {int(tid): float(p) for tid, p in zip(self.token_ids, self.probs.data)}

    def slots(self, token_ids) -> Array:
        """The slot of each sample's given token id (one id per sample)."""
        out = np.empty(len(token_ids), dtype=np.int64)
        for b, tid in enumerate(token_ids):
            lo, hi = self.offsets[b], self.offsets[b + 1]
            out[b] = lo + np.searchsorted(self.token_ids[lo:hi], tid)
            if out[b] == hi or self.token_ids[out[b]] != tid:
                raise ValidationError(f"answer id {tid} has no probability mass in its document")
        return out

    def argmax(self, candidates=None) -> Array:
        """Each sample's most probable token id; exact ties go to the smallest id.

        `candidates[b]`, when given and not None, restricts sample b to those
        ids, unless none of them occurs in its document.
        """
        out = np.empty(len(self.offsets) - 1, dtype=np.int64)
        for b in range(len(out)):
            lo, hi = self.offsets[b], self.offsets[b + 1]
            ids, probs = self.token_ids[lo:hi], self.probs.data[lo:hi]
            if candidates is not None and candidates[b] is not None:
                allowed = np.isin(ids, candidates[b])
                if allowed.any():
                    ids, probs = ids[allowed], probs[allowed]
            out[b] = ids[np.argmax(probs)]  # ids ascend, and argmax takes the first maximum
        return out


@dataclass
class ReaderOutput:
    """The head's outputs for a padded batch. `alpha` holds one attention row
    per query step, or the baseline's one row, which equals `merged`.
    Iterating gives each sample's unpadded outputs without the batch axis, as
    plain values (no graph)."""

    alpha: Tensor  # [B x L_q x L_d]; [B x 1 x L_d] for the baseline
    merged: Tensor  # [B x L_d]
    words: WordDistribution
    doc_mask: Array  # bool [B x L_d]
    query_mask: Array  # bool [B x L_q]

    def __len__(self) -> int:
        return len(self.words.offsets) - 1

    def __iter__(self) -> Iterator[ReaderOutput]:
        return (self.sample(b) for b in range(len(self)))

    def sample(self, b: int) -> ReaderOutput:
        n, m = int(self.doc_mask[b].sum()), int(self.query_mask[b].sum())
        return ReaderOutput(
            alpha=Tensor(self.alpha.data[b, :m, :n]),
            merged=Tensor(self.merged.data[b, :n]),
            words=self.words.sample(b),
            doc_mask=self.doc_mask[b, :n],
            query_mask=self.query_mask[b, :m],
        )


def attention_per_step(doc_states: Tensor, query_states: Tensor, doc_mask) -> Tensor:
    """alpha[.., t, j]: masked softmax over document positions j of <h_doc[j], h_query[t]>.

    `doc_states` is `[.. x L_d x W]`, `query_states` `[.. x L_q x W]` and
    `doc_mask` `[.. x L_d]`; the result is `[.. x L_q x L_d]`.
    """
    nd = doc_states.data.ndim
    logits = T.matmul(query_states, T.transpose(doc_states, (*range(nd - 2), nd - 1, nd - 2)))
    return T.masked_softmax(logits, np.expand_dims(np.asarray(doc_mask, dtype=bool), -2))


def merge_attention(alpha: Tensor, mode: str, query_mask, doc_mask) -> Tensor:
    """Condense per-step attentions `[.. x L_q x L_d]` into one distribution
    over document positions.

    Padded query steps (False in `query_mask`, `[.. x L_q]`) add nothing,
    and avg divides by each sample's true query length.
    """
    if mode not in MERGE_MODES:
        raise UsageError(f"merge mode must be one of {MERGE_MODES}, got {mode!r}")
    query_mask = np.asarray(query_mask, dtype=bool)
    if alpha.data.ndim < 2 or not query_mask.any(axis=-1).all():
        raise UsageError(f"merge_attention needs at least one query step, got alpha of shape {alpha.data.shape}")
    kept = T.mul(alpha, query_mask[..., None])
    if mode == "max":
        logits = T.reduce_max(kept, axis=-2)
    else:
        logits = T.reduce_sum(kept, axis=-2)
        if mode == "avg":
            logits = T.mul(logits, 1.0 / query_mask.sum(axis=-1, keepdims=True))
    return T.masked_softmax(logits, doc_mask)


def attention_sum(merged: Tensor, doc_ids, doc_mask) -> WordDistribution:
    """Sum position attention `[.. x L_d]` into word probabilities over each
    sample's distinct document tokens.

    One `group_sum` over all positions in order, so each word accumulates
    left to right, bit-identical to a straightforward dictionary accumulate.
    """
    ids = np.asarray(doc_ids, dtype=np.int64)
    mask = np.asarray(doc_mask, dtype=bool)
    if merged.data.shape != ids.shape or mask.shape != ids.shape:
        raise DimensionError(f"merged {merged.data.shape}, ids {ids.shape} and mask {mask.shape} differ in shape")
    rows, row_mask = ids.reshape(-1, ids.shape[-1]), mask.reshape(-1, ids.shape[-1])
    if not row_mask.any(axis=1).all():
        raise UsageError("attention_sum over a fully masked document")
    width = int(ids.max()) + 1
    keys = np.arange(len(rows))[:, None] * width + rows  # (sample, token id), sample-major
    slot_keys, slot_of = np.unique(keys[row_mask], return_inverse=True)
    offsets = np.searchsorted(slot_keys, np.arange(len(rows) + 1) * width)
    # Masked positions hold exactly zero attention: they add nothing to their sample's first slot.
    groups = np.repeat(offsets[:-1], rows.shape[1])
    groups[row_mask.reshape(-1)] = slot_of
    probs = T.group_sum(T.reshape(merged, (-1,)), groups, len(slot_keys))
    return WordDistribution(probs=probs, token_ids=slot_keys % width, offsets=offsets)


def _pad_batch(rows: list[Array]) -> tuple[Array, Array]:
    """Right-pad to a matrix, repeating each row's first id: masked steps send
    it exactly zero gradient, so the embedding gradient touches only ids the
    batch holds."""
    lengths = np.array([len(r) for r in rows])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.repeat([r[0] for r in rows], mask.shape[1]).reshape(mask.shape)
    ids[mask] = np.concatenate(rows)
    return ids, mask


def query_summary(states: Tensor, mask) -> Tensor:
    """The `as-baseline` query `[B x 1 x 2H]`: each row's [last forward state; first
    backward state] of the right-padded `[B x L x 2H]` `states`, copied bit for bit,
    since each sum has exactly one nonzero term."""
    batch, _, width = states.data.shape
    pick = np.zeros(states.data.shape)
    pick[np.arange(batch), np.sum(mask, axis=1) - 1, : width // 2] = 1.0
    pick[:, 0, width // 2 :] = 1.0
    return T.reshape(T.reduce_sum(T.mul(states, pick), axis=1), (batch, 1, width))


def forward(
    samples,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    mode: str | None = None,
) -> ReaderOutput:
    """Run the full pipeline for a batch of encoded samples.

    Each sample needs integer `doc_ids` and `query_ids`. The batch is
    right-padded and masked internally; each sample's outputs match a run of
    that sample alone to rounding.
    """
    if not samples:
        raise UsageError("forward needs at least one sample")
    mode = head_mode(params.config, mode)
    doc_rows = [np.asarray(s.doc_ids, dtype=np.int64) for s in samples]
    query_rows = [np.asarray(s.query_ids, dtype=np.int64) for s in samples]
    if any(len(r) == 0 for r in doc_rows) or any(len(r) == 0 for r in query_rows):
        raise UsageError("documents and queries must be non-empty")
    doc_ids, doc_mask = _pad_batch(doc_rows)
    query_ids, query_mask = _pad_batch(query_rows)
    dropout_rate = params.config.dropout_rate if training else 0.0
    doc_states = nn.encode_batch(
        doc_ids, doc_mask, params.embedding, params.doc_fwd, params.doc_bwd,
        dropout_rate=dropout_rate, rng=rng,
    )
    query_states = nn.encode_batch(
        query_ids, query_mask, params.embedding, params.query_fwd, params.query_bwd,
        dropout_rate=dropout_rate, rng=rng,
    )
    if mode == AS_BASELINE:
        alpha = attention_per_step(doc_states, query_summary(query_states, query_mask), doc_mask)
        merged = T.reshape(alpha, doc_mask.shape)
    else:
        alpha = attention_per_step(doc_states, query_states, doc_mask)
        merged = merge_attention(alpha, mode, query_mask, doc_mask)
    words = attention_sum(merged, doc_ids, doc_mask)
    return ReaderOutput(alpha=alpha, merged=merged, words=words, doc_mask=doc_mask, query_mask=query_mask)


def score(
    samples, params: ModelParams, mode: str | None = None, restrict_candidates: bool = False, batch_size: int = 64
) -> Iterator[tuple[list, ReaderOutput, Array]]:
    """Evaluation-mode forward in batches: yields each batch's samples, its
    output and its predicted token ids.

    The forward runs on a view of `params` that shares their arrays but
    records no graph, so nothing is kept for a backward pass: each encoder
    holds its output states and no per-step history or gathered embedding
    input (`nn.bigru_scan`'s no-grad path). `restrict_candidates` limits
    each prediction to the sample's `candidate_ids`.
    """
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    frozen = ModelParams.from_named({name: Tensor(p.data) for name, p in params.named().items()}, params.config)
    for start in range(0, len(samples), batch_size):
        group = samples[start : start + batch_size]
        out = forward(group, frozen, training=False, mode=mode)
        candidates = [s.candidate_ids for s in group] if restrict_candidates else None
        yield group, out, out.words.argmax(candidates)
