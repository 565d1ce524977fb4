"""Neural building blocks: the fused bi-GRU scan, the batch encoder that
embeds and scans both directions, inverted dropout, and the uniform and
orthogonal initializers (`reader.init_model_params` decides which tensor
gets which).

The GRU uses the standard update/reset gate formulation:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

Each direction of the encoder is one autodiff node (`gru_scan`) with
backpropagation through time inside it, so the recorded graph does not grow
with sequence length. Its step loop computes the sigmoid as
`0.5*tanh(a/2) + 0.5`, multiplies by C-ordered copies of the transposed
recurrent matrices, writes into preallocated buffers and keeps every state
in one history array whose shifted view is the previous state. Padding is
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


def gru_scan(x: Tensor, mask, params: GruParams, reverse: bool) -> Tensor:
    """Scan one GRU direction over a padded batch as a single autodiff node.

    `x` holds the inputs in time-major row order (row t*batch + b is step t
    of sequence b) and `mask` is bool [batch x len]. The output has the
    same row order with `hidden` columns. Masked steps carry the state
    through untouched and emit all-zero rows.

    The input projections of every step are one matmul with the z/r/h maps
    stacked; the loop over t only does the recurrent products, each against
    a C-ordered copy of a transposed recurrent matrix (the transposed views
    are F-ordered and BLAS multiplies by them about half as fast), and
    writes into preallocated buffers. The sigmoid is `0.5*tanh(a/2) + 0.5`,
    with the halving folded into the z/r projections and recurrent copies
    (scaling by a power of two is exact). Every state lives in one
    [len+1 x batch x hidden] history, so the state before each step is a
    shifted view of it, not a copy.

    The backward pass computes the gate factors that do not depend on the
    incoming state gradient as whole-array products first, so the BPTT loop
    only scales them and carries `dh` through the three recurrent products;
    each weight gradient is then a single matmul over all steps. When no
    input requires a gradient, no node is recorded, the z/r/h~ buffers BPTT
    would read shrink to one step of scratch and the output is masked in
    the state history itself.
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
    proj = x.data @ w.T
    proj += np.concatenate([b_z, b_r, b_h])
    proj = proj.reshape(steps, batch, 3 * hidden)
    proj[:, :, : 2 * hidden] *= 0.5
    p_z, p_r, p_h = proj[:, :, :hidden], proj[:, :, hidden : 2 * hidden], proj[:, :, 2 * hidden :]
    # Fresh C-ordered copies: the parameters themselves are never written.
    uz_t = np.multiply(u_z.T, 0.5, order="C")
    ur_t = np.multiply(u_r.T, 0.5, order="C")
    uh_t = np.array(u_h.T, order="C")
    keep = mask.T[:, :, None].astype(np.float64)  # [len x batch x 1]
    needs_grad = x.requires_grad or any(p.requires_grad for p in weights)
    # Backward reads every step's gate values; without it one slot is scratch.
    saved = steps if needs_grad else 1
    zs, rs, cs = (np.empty((saved, batch, hidden)) for _ in range(3))
    hist = np.zeros((steps + 1, batch, hidden))
    # The state before step t and after it, both views of the one history.
    prev, new = (hist[1:], hist[:-1]) if reverse else (hist[:-1], hist[1:])
    rh = np.empty((batch, hidden))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        s = t % saved
        hp, hn, z, r, c = prev[t], new[t], zs[s], rs[s], cs[s]
        for gate, u_t, p in ((z, uz_t, p_z), (r, ur_t, p_r)):
            np.matmul(hp, u_t, out=gate)
            gate += p[t]
            np.tanh(gate, out=gate)
            gate *= 0.5
            gate += 0.5
        np.multiply(r, hp, out=rh)
        np.matmul(rh, uh_t, out=c)
        c += p_h[t]
        np.tanh(c, out=c)
        np.subtract(c, hp, out=hn)
        hn *= z
        hn *= keep[t]
        hn += hp
    out = new * keep if needs_grad else np.multiply(new, keep, out=new)
    result = Tensor(out.reshape(steps * batch, hidden))

    def backward(g: Array) -> None:
        gk = g.reshape(steps, batch, hidden) * keep
        # Pre-activation grads [z, r, h~], first as their factors off the recurrence.
        gates = np.empty((steps, batch, 3 * hidden))
        g_z, g_r, g_h = gates[:, :, :hidden], gates[:, :, hidden : 2 * hidden], gates[:, :, 2 * hidden :]
        kz = zs * keep
        np.multiply(cs, cs, out=g_h)
        np.subtract(1.0, g_h, out=g_h)
        g_h *= kz  # z (1 - c^2) keep
        np.subtract(cs, prev, out=g_z)
        g_z *= kz
        g_z *= 1.0 - zs  # (c - h_prev) z (1 - z) keep
        np.subtract(1.0, rs, out=g_r)
        g_r *= rs
        g_r *= prev  # h_prev r (1 - r)
        carry = np.subtract(1.0, kz, out=kz)  # (1 - z) keep + (1 - keep)
        dh = np.zeros((batch, hidden))
        d, d_rh, tmp = (np.empty((batch, hidden)) for _ in range(3))
        for t in reversed(order):
            np.add(dh, gk[t], out=d)
            g_z[t] *= d
            g_h[t] *= d
            np.matmul(g_h[t], u_h, out=d_rh)
            g_r[t] *= d_rh
            np.multiply(d, carry[t], out=dh)
            np.multiply(d_rh, rs[t], out=tmp)
            dh += tmp
            np.matmul(g_z[t], u_z, out=tmp)
            dh += tmp
            np.matmul(g_r[t], u_r, out=tmp)
            dh += tmp
        flat = gates.reshape(steps * batch, 3 * hidden)
        h_prev = prev.reshape(steps * batch, hidden)
        r_prev = rs.reshape(steps * batch, hidden) * h_prev
        dw = np.split(flat.T @ x.data, 3)
        du = np.split(flat[:, : 2 * hidden].T @ h_prev, 2) + [flat[:, 2 * hidden :].T @ r_prev]
        db = np.split(flat.sum(axis=0), 3)
        for param, grad in zip(weights, (*dw, *du, *db)):
            if param.requires_grad:
                T._accumulate(param, grad)
        if x.requires_grad:
            T._accumulate(x, flat @ w)

    return T._record(result, (x, *weights), "gru_scan", backward)


@dataclass
class BatchEncoding:
    """Bi-GRU outputs for a padded batch. `states` is batch-major; `fwd` and
    `bwd` keep the scan's time-major rows (row t*batch + b)."""

    states: Tensor  # [batch x len x 2*hidden], [fwd; bwd] per position, dropout applied
    fwd: Tensor  # [len*batch x hidden]
    bwd: Tensor  # [len*batch x hidden]
    mask: Array  # bool [batch x len]

    def summary(self) -> Tensor:
        """[last forward state; first backward state] of each sequence, `[batch x 2*hidden]`, without dropout."""
        batch = len(self.mask)
        rows = np.arange(batch)
        last_forward = T.gather_rows(self.fwd, (self.mask.sum(axis=1) - 1) * batch + rows)
        return T.concat_cols(last_forward, T.gather_rows(self.bwd, rows))


def encode_batch(
    id_matrix: Array,
    mask: Array,
    embedding: Tensor,
    fwd: GruParams,
    bwd: GruParams,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> BatchEncoding:
    """Embed and bi-GRU encode a right-padded id batch.

    `mask` must be True exactly at real positions. Dropout at a positive
    rate applies to the concatenated states; it draws its mask in time-major
    order, i.e. one [batch x 2*hidden] block per step, before the states
    turn batch-major.
    """
    id_matrix = np.asarray(id_matrix, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = id_matrix.shape[1]
    if n < 1 or not mask.any(axis=1).all():
        raise UsageError("every sequence in the batch must have at least one unmasked position")
    x = T.gather_rows(embedding, id_matrix.T.reshape(-1))
    fwd_out = gru_scan(x, mask, fwd, reverse=False)
    bwd_out = gru_scan(x, mask, bwd, reverse=True)
    states = dropout(T.concat_cols(fwd_out, bwd_out), dropout_rate, rng)
    states = T.transpose(T.reshape(states, (n, len(mask), -1)), (1, 0, 2))
    return BatchEncoding(states=states, fwd=fwd_out, bwd=bwd_out, mask=mask)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-rate), so rate 0 (the
    evaluation setting) is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout at a positive rate needs an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(keep))
