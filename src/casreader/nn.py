"""Neural building blocks: the fused embedding lookup and two-direction GRU
scan, the batch encoder built on it, inverted dropout, and the
uniform and orthogonal initializers (`reader.init_model_params` decides
which tensor gets which).

The GRU uses the standard update/reset gate formulation:

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

`bigru_scan` holds the scan's kernel, padding, memory and bit-identity
facts; `_concurrent` decides when its two directions run on two threads.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, TypeVar

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError, UsageError
from .tensor import Tensor

Array = np.ndarray
A = TypeVar("A")
B = TypeVar("B")

# A step's recurrent work, batch*hidden*3*hidden multiply-adds, from which the
# two scan directions run on two threads. On a 2-vCPU x86-64 machine with one
# BLAS thread, a 100-step forward and backward took 0.55-0.7 of the inline
# time from 2^19.6 up, broke about even from 2^18 to 2^19 and lost below.
_CONCURRENT_WORK = 1 << 19
# Elements of input projection computed at once: backward never reads the
# projection, so neither direction holds all of it.
_PROJECTION_CHUNK = 1 << 18


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


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator) -> Array:
    """QR-based orthogonal matrix; square outputs satisfy M^T M = I."""
    flip = rows < cols
    a = rng.standard_normal(size=(cols, rows) if flip else (rows, cols))
    q, r = np.linalg.qr(a)
    # Fix the per-column sign so the result is unique for a given draw.
    q = q * np.sign(np.diag(r))
    return q.T if flip else q


def _concurrent(batch: int, hidden: int) -> bool:
    """Whether the two directions of a scan run on two threads: only when a
    step's recurrent work reaches `_CONCURRENT_WORK`, the environment pins
    BLAS to one thread (BLAS threading is left to it; this only reads it) and
    the process may use two CPUs. Only that case was measured; with BLAS
    unpinned on two CPUs, two threads were up to 1.4x slower than one."""
    if batch * hidden * 3 * hidden < _CONCURRENT_WORK or not _blas_pinned_to_one():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _blas_pinned_to_one() -> bool:
    """Whether the first thread variable BLAS reads (OpenBLAS and MKL read
    their own before OpenMP's) that holds a positive count says 1."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


def _both(concurrent: bool, first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """`(first(), second())`. When `concurrent`, `second` runs on a worker
    thread in a copy of the caller's context, which carries numpy's
    `errstate`, and the worker is joined before this returns."""
    if not concurrent:
        return first(), second()
    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(contextvars.copy_context().run, second)
        return first(), later.result()


def _scan(table: Tensor, idx: Array, keep: Array, params: GruParams, reverse: bool, out: Array, needs_grad: bool):
    """Scan one direction over the rows `idx` of `table` (time-major: row
    t*batch + b of the input is step t of sequence b) and write its masked
    states into `out`, a `[len x batch x hidden]` block of the node's output.
    Returns the direction's BPTT, or None when `needs_grad` is false. BPTT
    takes the matching block of the output gradient and the gathered input,
    and returns the nine weight gradients and the input gradient (None when
    `table` needs none). It overwrites the saved gate buffers, so it runs at
    most once."""
    steps, batch, hidden = out.shape
    w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h = (getattr(params, f.name).data for f in fields(GruParams))
    w = np.concatenate([w_z, w_r, w_h])  # [3H x E]
    bias = np.concatenate([b_z, b_r, b_h])
    # Fresh C-ordered copies: the parameters themselves are never written.
    uz_t = np.multiply(u_z.T, 0.5, order="C")
    ur_t = np.multiply(u_r.T, 0.5, order="C")
    uh_t = np.array(u_h.T, order="C")
    if needs_grad:  # backward reads every step's gate values and states
        zs, rs, cs = (np.empty((steps, batch, hidden)) for _ in range(3))
        hist = np.zeros((steps + 1, batch, hidden))
        # The state before step t and after it, both views of the one history.
        prev, new = (hist[1:], hist[:-1]) if reverse else (hist[:-1], hist[1:])
    else:  # one step's gates are scratch; the states before and after a step trade places each step
        z, r, c, hn = (np.empty((batch, hidden)) for _ in range(4))
        hp = np.zeros((batch, hidden))
    rh = np.empty((batch, hidden))
    chunk = min(steps, max(1, _PROJECTION_CHUNK // (batch * 3 * hidden)))
    x_rows = np.empty((chunk * batch, w.shape[1]))
    proj_rows = np.empty((chunk * batch, 3 * hidden))
    starts = range(0, steps, chunk)
    for start in reversed(starts) if reverse else starts:
        stop = min(start + chunk, steps)
        rows = (stop - start) * batch
        # The indices are checked, so "clip" changes none; it lets take write into x_rows unbuffered.
        x = np.take(table.data, idx[start * batch : stop * batch], axis=0, out=x_rows[:rows], mode="clip")
        proj = np.matmul(x, w.T, out=proj_rows[:rows])
        proj += bias
        proj = proj.reshape(stop - start, batch, 3 * hidden)
        proj[:, :, : 2 * hidden] *= 0.5
        p_z, p_r, p_h = proj[:, :, :hidden], proj[:, :, hidden : 2 * hidden], proj[:, :, 2 * hidden :]
        for t in range(stop - 1, start - 1, -1) if reverse else range(start, stop):
            i = t - start
            if needs_grad:
                hp, hn, z, r, c = prev[t], new[t], zs[t], rs[t], cs[t]
            for gate, u_t, p in ((z, uz_t, p_z), (r, ur_t, p_r)):
                np.matmul(hp, u_t, out=gate)
                gate += p[i]
                np.tanh(gate, out=gate)
                gate *= 0.5
                gate += 0.5
            np.multiply(r, hp, out=rh)
            np.matmul(rh, uh_t, out=c)
            c += p_h[i]
            np.tanh(c, out=c)
            np.subtract(c, hp, out=hn)
            hn *= z
            hn *= keep[t]
            hn += hp
            if not needs_grad:
                np.multiply(hn, keep[t], out=out[t])
                hp, hn = hn, hp
    if not needs_grad:
        return None
    np.multiply(new, keep, out=out)

    def bptt(g: Array, x: Array) -> tuple[list[Array], Array | None]:
        # Pre-activation grads [z, r, h~], first as their factors off the recurrence.
        gates = np.empty((steps, batch, 3 * hidden))
        g_z, g_r, g_h = gates[:, :, :hidden], gates[:, :, hidden : 2 * hidden], gates[:, :, 2 * hidden :]
        kz = np.multiply(zs, keep, out=zs)  # z is read no more
        np.multiply(cs, cs, out=g_h)
        np.subtract(1.0, g_h, out=g_h)
        g_h *= kz  # z (1 - c^2) keep
        np.subtract(cs, prev, out=g_z)
        g_z *= kz
        carry = np.subtract(1.0, kz, out=kz)  # (1 - z) keep + (1 - keep)
        g_z *= carry  # (c - h_prev) z (1 - z) keep: carry is 1 - z where keep is 1, g_z is 0 where it is 0
        np.subtract(1.0, rs, out=g_r)
        g_r *= rs
        g_r *= prev  # h_prev r (1 - r)
        gk = np.multiply(g, keep, out=cs)  # h~ is read no more
        dh = np.zeros((batch, hidden))
        d, d_rh, tmp = (np.empty((batch, hidden)) for _ in range(3))
        for t in range(steps) if reverse else range(steps - 1, -1, -1):
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
        r_prev = np.multiply(rs, prev, out=rs).reshape(steps * batch, hidden)
        dw = np.split(flat.T @ x, 3)
        du = np.split(flat[:, : 2 * hidden].T @ h_prev, 2) + [flat[:, 2 * hidden :].T @ r_prev]
        db = np.split(flat.sum(axis=0), 3)
        return [*dw, *du, *db], flat @ w if table.requires_grad else None

    return bptt


def bigru_scan(table: Tensor, ids, mask, fwd: GruParams, bwd: GruParams) -> Tensor:
    """Look up and scan both GRU directions over a padded batch as a single
    autodiff node.

    Step t of sequence b reads row `ids[b, t]` of `table` (the embedding);
    `ids` is int and `mask` bool, both [batch x len]. The output holds the
    states in time-major row order (row t*batch + b is step t of sequence
    b) with `2*hidden` columns, [fwd; bwd]. Masked steps carry the state
    through untouched and emit all-zero rows, so left- and right-padding
    agree on the unmasked rows. Backpropagation through time runs inside the
    node, so the recorded graph does not grow with `len`; the input gradient
    goes to `table` as `gather_rows` would send it (a `RowGrad` on a leaf).

    Each direction gathers and projects its inputs with the z/r/h maps
    stacked, a chunk of about `_PROJECTION_CHUNK` projected elements at a
    time; the loop over t only does the recurrent products, each against a
    C-ordered copy of a transposed recurrent matrix (the transposed views
    are F-ordered and BLAS multiplies by them about half as fast), and
    writes into preallocated buffers. The sigmoid is `0.5*tanh(a/2) + 0.5`,
    with the halving folded into the z/r projections and recurrent copies
    (scaling by a power of two is exact).

    Memory: the node never holds the whole gathered `[len*batch x E]`
    input in the forward pass, only a chunk of it per direction. With a
    gradient, each direction keeps what BPTT reads: every step's z/r/h~
    values and every state in one [len+1 x batch x hidden] history, so the
    state before each step is a shifted view of it, not a copy; the masked
    states are copied into the output after the scan. Without one, no node
    is recorded, and each direction holds one step of gate scratch and two
    contiguous [batch x hidden] state slots that trade places each step,
    writing each step's masked state straight into its output block: beside
    the output, only the ids and the mask take space per step.

    The backward pass gathers the input once, for both directions' weight
    gradients, and computes the gate factors that do not depend on the
    incoming state gradient as whole-array products first, so the BPTT loop
    only scales them and carries `dh` through the three recurrent products;
    each weight gradient is then a single matmul over all steps. BPTT
    overwrites the saved values; a second backward through the node raises
    `UsageError`, as through any node `Tensor.backward` has consumed.

    When `_concurrent` holds, the reverse direction's scan and its BPTT each
    run on a worker thread while the forward direction runs on the caller's;
    the arithmetic of each direction is the same either way, and so is that
    of the two paths, so the results are bit for bit those of the inline
    order with or without a gradient.
    """
    mask = np.asarray(mask, dtype=bool)
    ids = np.asarray(ids, dtype=np.int64)
    batch, steps = mask.shape
    hidden = fwd.hidden_dim
    dims = [(p.input_dim, p.hidden_dim) for p in (fwd, bwd)]
    if dims[0] != dims[1] or ids.shape != mask.shape or table.data.shape[1:] != (fwd.input_dim,):
        raise DimensionError(
            f"bigru_scan got ids {ids.shape} into a table {table.data.shape} for a {batch}x{steps} mask "
            f"and directions of (input, hidden) {dims[0]} and {dims[1]}"
        )
    idx, scatter = T._row_scatter(table, ids.T.reshape(-1))
    fwd_weights, bwd_weights = ([getattr(p, f.name) for f in fields(GruParams)] for p in (fwd, bwd))
    needs_grad = table.requires_grad or any(p.requires_grad for p in fwd_weights + bwd_weights)
    keep = mask.T[:, :, None].astype(np.float64)  # [len x batch x 1]
    out = np.empty((steps, batch, 2 * hidden))
    concurrent = _concurrent(batch, hidden)
    fwd_bptt, bwd_bptt = _both(
        concurrent,
        lambda: _scan(table, idx, keep, fwd, False, out[:, :, :hidden], needs_grad),
        lambda: _scan(table, idx, keep, bwd, True, out[:, :, hidden:], needs_grad),
    )
    result = Tensor(out.reshape(steps * batch, 2 * hidden))

    def backward(g: Array) -> None:
        g = g.reshape(steps, batch, 2 * hidden)
        x = table.data[idx]
        (fwd_grads, dx), (bwd_grads, bwd_dx) = _both(
            concurrent, lambda: fwd_bptt(g[:, :, :hidden], x), lambda: bwd_bptt(g[:, :, hidden:], x)
        )
        for param, grad in zip(fwd_weights + bwd_weights, fwd_grads + bwd_grads):
            if param.requires_grad:
                T._accumulate(param, grad)
        if table.requires_grad:
            dx += bwd_dx
            scatter(dx)

    return T._record(result, (table, *fwd_weights, *bwd_weights), "bigru_scan", backward)


def encode_batch(
    id_matrix: Array,
    mask: Array,
    embedding: Tensor,
    fwd: GruParams,
    bwd: GruParams,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed and bi-GRU encode a padded id batch into its states, `[batch x
    len x 2*hidden]` with [fwd; bwd] per position.

    `mask` must be True exactly at real positions. The embedding lookup
    happens inside `bigru_scan`, one projection chunk at a time, so no
    `[len*batch x embed]` input is ever held whole. Dropout at a positive
    rate applies to the concatenated states; it draws its mask in time-major
    order, i.e. one [batch x 2*hidden] block per step, before the states
    turn batch-major.
    """
    id_matrix = np.asarray(id_matrix, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = id_matrix.shape[1]
    if n < 1 or not mask.any(axis=1).all():
        raise UsageError("every sequence in the batch must have at least one unmasked position")
    states = dropout(bigru_scan(embedding, id_matrix, mask, fwd, bwd), dropout_rate, rng)
    return T.transpose(T.reshape(states, (n, len(mask), -1)), (1, 0, 2))


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
