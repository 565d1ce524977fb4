"""Neural building blocks: shared embedding lookup, the fused bi-GRU scan,
inverted dropout, and the parameter initializers.

The GRU uses the standard update/reset gate formulation:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

Each direction of the encoder is one autodiff node (`gru_scan`) with
backpropagation through time inside it, so the recorded graph does not grow
with sequence length. Input-to-hidden weights start uniform in [-0.1, 0.1],
recurrent matrices start orthogonal, biases start at zero. Padding is
handled by carrying the hidden state through masked positions unchanged
while emitting all-zero output rows, so left- and right-padding agree on the
unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


def gru_scan(x: Tensor, mask, params: GruParams, reverse: bool) -> Tensor:
    """Scan one GRU direction over a padded batch as a single autodiff node.

    `x` holds the inputs in time-major row order (row t*batch + b is step t
    of sequence b) and `mask` is bool [batch x len]. The output has the
    same row order with `hidden` columns. Masked steps carry the state
    through untouched and emit all-zero rows.

    The input projections of every step are one matmul with the z/r/h maps
    stacked; the loop over t only does the recurrent products. The backward
    pass runs BPTT in a numpy loop that fills one gate-gradient array, from
    which each weight gradient is then a single matmul over all steps. When
    no input requires a gradient, no node is recorded and the per-step gate
    buffers BPTT would read shrink to one step of scratch.
    """
    mask = np.asarray(mask, dtype=bool)
    batch, steps = mask.shape
    hidden = params.hidden_dim
    if x.data.shape != (steps * batch, params.input_dim):
        raise DimensionError(
            f"gru_scan got input {x.data.shape} for a {batch}x{steps} mask and params "
            f"expecting input {params.input_dim}"
        )
    weights = [getattr(params, f.name) for f in fields(GruParams)]
    w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h = (t.data for t in weights)
    w = np.concatenate([w_z, w_r, w_h])  # [3H x E]
    u_zr = np.concatenate([u_z, u_r])  # [2H x H]
    proj = x.data @ w.T
    proj += np.concatenate([b_z, b_r, b_h])
    proj = proj.reshape(steps, batch, 3 * hidden)
    keep = mask.T[:, :, None]  # [len x batch x 1]
    # Backward reads every step's gate values; without it one slot is scratch.
    saved = steps if x.requires_grad or any(p.requires_grad for p in weights) else 1
    h_prev = np.zeros((saved, batch, hidden))
    zr = np.zeros((saved, batch, 2 * hidden))
    cand = np.zeros((saved, batch, hidden))
    out = np.zeros((steps, batch, hidden))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((batch, hidden))
    for t in order:
        s = t % saved
        h_prev[s] = h
        zr[s] = T.sigmoid_values(proj[t, :, : 2 * hidden] + h @ u_zr.T)
        z, r = zr[s, :, :hidden], zr[s, :, hidden:]
        cand[s] = np.tanh(proj[t, :, 2 * hidden :] + (r * h) @ u_h.T)
        h = np.where(keep[t], (1.0 - z) * h + z * cand[s], h)
        out[t] = np.where(keep[t], h, 0.0)
    result = Tensor(out.reshape(steps * batch, hidden))

    def backward(g: Array) -> None:
        g = g.reshape(steps, batch, hidden)
        gates = np.zeros((steps, batch, 3 * hidden))  # pre-activation grads [z, r, h~]
        dh = np.zeros((batch, hidden))
        for t in reversed(order):
            z, r, c, hp = zr[t, :, :hidden], zr[t, :, hidden:], cand[t], h_prev[t]
            d_new = np.where(keep[t], dh + g[t], 0.0)
            dh = np.where(keep[t], 0.0, dh)
            da_h = d_new * z * (1.0 - c * c)
            d_rh = da_h @ u_h
            gates[t, :, :hidden] = d_new * (c - hp) * z * (1.0 - z)
            gates[t, :, hidden : 2 * hidden] = d_rh * hp * r * (1.0 - r)
            gates[t, :, 2 * hidden :] = da_h
            dh += d_new * (1.0 - z) + d_rh * r + gates[t, :, : 2 * hidden] @ u_zr
        flat = gates.reshape(steps * batch, 3 * hidden)
        prev = h_prev.reshape(steps * batch, hidden)
        r_prev = zr[:, :, hidden:].reshape(steps * batch, hidden) * prev
        dw = np.split(flat.T @ x.data, 3)
        du = np.split(flat[:, : 2 * hidden].T @ prev, 2) + [flat[:, 2 * hidden :].T @ r_prev]
        db = np.split(flat.sum(axis=0), 3)
        for param, grad in zip(weights, (*dw, *du, *db)):
            if param.requires_grad:
                T._accumulate(param, grad)
        if x.requires_grad:
            T._accumulate(x, flat @ w)

    return T._record(result, (x, *weights), "gru_scan", backward)


@dataclass
class BatchEncoding:
    """Bi-GRU outputs for a padded batch in time-major rows (row t*batch + b)."""

    states: Tensor  # [len*batch x 2*hidden], [fwd; bwd] per row, dropout applied
    fwd: Tensor  # [len*batch x hidden]
    bwd: Tensor  # [len*batch x hidden]
    mask: Array  # bool [batch x len]


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
    applies to the concatenated states; it draws its mask in time-major
    order, i.e. one [batch x 2*hidden] block per step.
    """
    id_matrix = np.asarray(id_matrix, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = id_matrix.shape[1]
    if n < 1 or not mask.any(axis=1).all():
        raise UsageError("every sequence in the batch must have at least one unmasked position")
    x = embed_lookup(id_matrix.T.reshape(-1), embedding)
    fwd_out = gru_scan(x, mask, fwd, reverse=False)
    bwd_out = gru_scan(x, mask, bwd, reverse=True)
    states = T.concat_cols(fwd_out, bwd_out)
    if training and dropout_rate > 0.0:
        states = dropout(states, dropout_rate, training=True, rng=rng)
    return BatchEncoding(states=states, fwd=fwd_out, bwd=bwd_out, mask=mask)


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
