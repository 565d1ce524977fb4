"""Neural building blocks: shared embedding lookup, GRU cells, a masked
bi-directional encoder, inverted dropout, and the parameter initializers.

The GRU uses the standard update/reset gate formulation:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

Input-to-hidden weights start uniform in [-0.1, 0.1], recurrent matrices
start orthogonal, biases start at zero. Padding is handled by carrying the
hidden state through masked positions unchanged while emitting all-zero
output rows, so left- and right-padding agree on the unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor

Array = np.ndarray


@dataclass
class GruParams:
    """One direction's GRU weights: three input maps, three recurrent maps, three biases."""

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w_z.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_z.data.shape[1]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


@dataclass
class EncodedSequence:
    """Per-position forward/backward states, concatenated; zero rows where masked."""

    states: Tensor  # [len x 2*hidden]
    mask: Array  # bool [len]


def uniform_init(rows: int, cols: int, bound: float, rng: np.random.Generator) -> Array:
    """Entries drawn uniformly from [-bound, bound]."""
    if bound <= 0:
        raise UsageError(f"uniform_init bound must be positive, got {bound}")
    return rng.uniform(-bound, bound, size=(rows, cols))


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator) -> Array:
    """QR-based orthogonal matrix; square outputs satisfy M^T M = I."""
    flip = rows < cols
    a = rng.standard_normal(size=(cols, rows) if flip else (rows, cols))
    q, r = np.linalg.qr(a)
    # Fix the per-column sign so the result is unique for a given draw.
    q = q * np.sign(np.diag(r))
    return q.T if flip else q


def init_gru_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> GruParams:
    def inp() -> Tensor:
        return Tensor(uniform_init(hidden_dim, input_dim, 0.1, rng), requires_grad=True)

    def rec() -> Tensor:
        return Tensor(orthogonal_init(hidden_dim, hidden_dim, rng), requires_grad=True)

    def bias() -> Tensor:
        return Tensor(np.zeros(hidden_dim), requires_grad=True)

    return GruParams(
        w_z=inp(), w_r=inp(), w_h=inp(),
        u_z=rec(), u_r=rec(), u_h=rec(),
        b_z=bias(), b_r=bias(), b_h=bias(),
    )


def embed_lookup(ids, embedding: Tensor) -> Tensor:
    """Rows of the embedding matrix for each id; gradients scatter into those rows."""
    idx = np.asarray(ids, dtype=np.int64)
    vocab_size = embedding.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab_size):
        bad = idx[(idx < 0) | (idx >= vocab_size)][0]
        raise IndexError(f"token id {bad} outside embedding table of size {vocab_size}")
    return T.gather_rows(embedding, idx)


@dataclass
class _GruStep:
    """A GRU direction with the recurrent/input transposes cached for reuse."""

    p: GruParams
    wt_z: Tensor = field(init=False)
    wt_r: Tensor = field(init=False)
    wt_h: Tensor = field(init=False)
    ut_z: Tensor = field(init=False)
    ut_r: Tensor = field(init=False)
    ut_h: Tensor = field(init=False)

    def __post_init__(self):
        self.wt_z = T.transpose(self.p.w_z)
        self.wt_r = T.transpose(self.p.w_r)
        self.wt_h = T.transpose(self.p.w_h)
        self.ut_z = T.transpose(self.p.u_z)
        self.ut_r = T.transpose(self.p.u_r)
        self.ut_h = T.transpose(self.p.u_h)

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        z = T.sigmoid(T.add(T.add(T.matmul(x, self.wt_z), T.matmul(h, self.ut_z)), self.p.b_z))
        r = T.sigmoid(T.add(T.add(T.matmul(x, self.wt_r), T.matmul(h, self.ut_r)), self.p.b_r))
        cand = T.tanh(
            T.add(T.add(T.matmul(x, self.wt_h), T.matmul(T.mul(r, h), self.ut_h)), self.p.b_h)
        )
        one_minus_z = T.sub(1.0, z)
        return T.add(T.mul(one_minus_z, h), T.mul(z, cand))


def gru_cell(x_t: Tensor, h_prev: Tensor, params: GruParams) -> Tensor:
    """One GRU step. Accepts vectors or [batch x dim] matrices."""
    vector_in = x_t.data.ndim == 1
    x = T.reshape(x_t, (1, -1)) if vector_in else x_t
    h = T.reshape(h_prev, (1, -1)) if h_prev.data.ndim == 1 else h_prev
    if x.data.shape[1] != params.input_dim or h.data.shape[1] != params.hidden_dim:
        raise DimensionError(
            f"gru_cell got input {x_t.data.shape} and state {h_prev.data.shape} "
            f"for params expecting input {params.input_dim}, hidden {params.hidden_dim}"
        )
    out = _GruStep(params)(x, h)
    return T.reshape(out, (params.hidden_dim,)) if vector_in else out


def _run_direction(
    x_steps: list[Tensor],
    mask: Array,
    params: GruParams,
    reverse: bool,
) -> list[Tensor]:
    """Scan one direction over per-step [batch x input] slices.

    Masked steps carry the state through untouched and yield all-zero rows.
    """
    batch = x_steps[0].data.shape[0]
    step = _GruStep(params)
    h = Tensor(np.zeros((batch, params.hidden_dim)))
    zeros = Tensor(np.zeros((batch, params.hidden_dim)))
    n = len(x_steps)
    outputs: list[Tensor | None] = [None] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        keep = mask[:, t]
        h_new = step(x_steps[t], h)
        if keep.all():
            h = h_new
            outputs[t] = h
        else:
            h = T.where_rows(keep, h_new, h)
            outputs[t] = T.where_rows(keep, h, zeros)
    return outputs  # type: ignore[return-value]


@dataclass
class BatchEncoding:
    """Bi-GRU outputs for a padded batch, kept per time step for cheap row slicing."""

    concat_steps: list[Tensor]  # per t: [batch x 2*hidden]
    fwd_steps: list[Tensor]  # per t: [batch x hidden]
    bwd_steps: list[Tensor]
    mask: Array  # bool [batch x len]
    lengths: Array  # int [batch]

    def sequence(self, row: int) -> EncodedSequence:
        """The unpadded encoded sequence for one batch row."""
        n = int(self.lengths[row])
        states = T.stack_rows(self.concat_steps[:n], row)
        return EncodedSequence(states=states, mask=np.ones(n, dtype=bool))

    def final_forward(self, row: int) -> Tensor:
        """Forward state at the last unmasked position, as a [1 x hidden] matrix."""
        return T.gather_rows(self.fwd_steps[int(self.lengths[row]) - 1], [row])

    def first_backward(self, row: int) -> Tensor:
        """Backward state at position 0, as a [1 x hidden] matrix."""
        return T.gather_rows(self.bwd_steps[0], [row])


def encode_batch(
    id_matrix: Array,
    mask: Array,
    embedding: Tensor,
    fwd: GruParams,
    bwd: GruParams,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> BatchEncoding:
    """Embed and bi-GRU encode a right-padded id batch.

    `mask` must be True exactly at real positions. Dropout, when active,
    applies to the concatenated per-step outputs.
    """
    id_matrix = np.asarray(id_matrix, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    batch, n = id_matrix.shape
    if n < 1 or not mask.any(axis=1).all():
        raise UsageError("every sequence in the batch must have at least one unmasked position")
    flat = embed_lookup(id_matrix.reshape(-1), embedding)
    x_steps = [T.gather_rows(flat, np.arange(batch) * n + t) for t in range(n)]
    fwd_steps = _run_direction(x_steps, mask, fwd, reverse=False)
    bwd_steps = _run_direction(x_steps, mask, bwd, reverse=True)
    concat = [T.concat_cols(f, b) for f, b in zip(fwd_steps, bwd_steps)]
    if training and dropout_rate > 0.0:
        concat = [dropout(c, dropout_rate, training=True, rng=rng) for c in concat]
    lengths = mask.sum(axis=1).astype(np.int64)
    return BatchEncoding(
        concat_steps=concat, fwd_steps=fwd_steps, bwd_steps=bwd_steps, mask=mask, lengths=lengths
    )


def bigru_encode(embedded: Tensor, fwd: GruParams, bwd: GruParams, mask) -> EncodedSequence:
    """Encode one embedded sequence; row t is [fwd state; bwd state] at t."""
    if embedded.data.ndim != 2 or embedded.data.shape[0] < 1:
        raise UsageError(f"bigru_encode expects a non-empty [len x dim] matrix, got {embedded.data.shape}")
    mask = np.asarray(mask, dtype=bool)
    n = embedded.data.shape[0]
    if mask.shape != (n,):
        raise DimensionError(f"mask shape {mask.shape} does not match sequence length {n}")
    if not mask.any():
        raise UsageError("bigru_encode needs at least one unmasked position")
    x_steps = [T.gather_rows(embedded, [t]) for t in range(n)]
    row_mask = mask[None, :]
    fwd_steps = _run_direction(x_steps, row_mask, fwd, reverse=False)
    bwd_steps = _run_direction(x_steps, row_mask, bwd, reverse=True)
    concat = [T.concat_cols(f, b) for f, b in zip(fwd_steps, bwd_steps)]
    return EncodedSequence(states=T.stack_rows(concat, 0), mask=mask)


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-rate) so evaluation is identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise UsageError("training-mode dropout needs an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(keep))
