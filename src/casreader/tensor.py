"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation that sees a gradient-requiring input records itself on the
output (parents + a backward closure), so each forward pass rebuilds the
graph from scratch — sequences here are variable-length and a static graph
would buy nothing. A layer whose graph would grow with sequence length
records itself as one node with a hand-written backward instead (the GRU
scan in `nn`, built on `_record`, `_accumulate` and `sigmoid_values`).
`Tensor.backward` walks the recorded graph once in reverse topological
order. `grad_check` is the independent oracle: central finite differences
against the analytic gradients.

A leaf table read through `gather_rows` (the embedding) gets a `RowGrad`:
the sorted rows the batch touched and their summed gradients, so backward,
clipping and the optimizer's gradient work scale with the batch rather than
with the vocabulary. A leaf that also receives a dense gradient densifies.

All math is 64-bit; masked softmax subtracts the running max for stability;
the reduction max routes tie subgradients to the first maximal entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, EmptySupportError, NumericError, UsageError

Array = np.ndarray


@dataclass
class RowGrad:
    """Row-sparse gradient of a table: `values[i]` is the gradient of row
    `rows[i]`; `rows` is sorted and unique, every other row's gradient is 0."""

    rows: Array
    values: Array
    shape: tuple[int, ...]

    def dense(self) -> Array:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out


class Tensor:
    """A dense float64 array plus an optional gradient buffer (an array, or
    a `RowGrad` on a leaf read only through `gather_rows`)."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | RowGrad | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._op!r}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed=None) -> None:
        """Propagate gradients from this tensor to every reachable leaf.

        `seed` defaults to ones for scalar outputs and must match this
        tensor's shape otherwise.
        """
        if not self.requires_grad:
            raise UsageError("backward called on a tensor with no recorded graph")
        if seed is None:
            if self.data.size != 1:
                raise UsageError("an explicit seed is required for non-scalar outputs")
            seed_arr = np.ones_like(self.data)
        else:
            seed_arr = seed.data if isinstance(seed, Tensor) else np.asarray(seed, dtype=np.float64)
            if seed_arr.shape != self.data.shape:
                raise DimensionError(
                    f"seed shape {seed_arr.shape} does not match output shape {self.data.shape}"
                )
        _accumulate(self, seed_arr)
        for node in reversed(_topo_order(self)):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the recorded graph; parents precede consumers."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _dense_grad(t: Tensor) -> Array:
    """`t.grad` as an array, created as zeros or densified from a `RowGrad`."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif isinstance(t.grad, RowGrad):
        t.grad = t.grad.dense()
    return t.grad


def _accumulate(t: Tensor, g: Array) -> None:
    grad = _dense_grad(t)
    grad += g


def _record(out: Tensor, parents: Sequence[Tensor], op: str, backward_fn) -> Tensor:
    """Attach graph bookkeeping to `out` if any parent needs gradients."""
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._op = op
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# pointwise arithmetic
# ---------------------------------------------------------------------------

def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), "mul", backward)


def sigmoid_values(x: Array) -> Array:
    """Logistic function of a plain array, split by sign so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(g: Array) -> None:
        _accumulate(a, g / a.data)

    return _record(out, (a,), "log", backward)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes must match."""
    x, y = a.data, b.data
    if x.ndim < 2 or x.ndim != y.ndim or x.shape[:-2] != y.shape[:-2] or x.shape[-1] != y.shape[-2]:
        raise DimensionError(f"matmul operands do not line up: {x.shape} x {y.shape}")
    out = Tensor(x @ y)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(y, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(x, -1, -2) @ g)

    return _record(out, (a, b), "matmul", backward)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes as `np.transpose` does (reversed when `axes` is None)."""
    out = Tensor(np.transpose(a.data, axes))

    def backward(g: Array) -> None:
        _accumulate(a, np.transpose(g, None if axes is None else np.argsort(axes)))

    return _record(out, (a,), "transpose", backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(g: Array) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _record(out, (a,), "reshape", backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"concat_cols expects matrices with equal row counts, got {a.data.shape} and {b.data.shape}"
        )
    split = a.data.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g[:, :split])
        if b.requires_grad:
            _accumulate(b, g[:, split:])

    return _record(out, (a, b), "concat_cols", backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of `a`; the backward rule scatter-adds into those rows only.

    A leaf `a` accumulates a `RowGrad` over the rows gathered so far (each
    row sums its contributions in call and index order, as a dense
    `np.add.at` would); a computed `a`, or a leaf already holding a dense
    gradient, gets the dense scatter.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("gather_rows expects a flat index sequence")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range for {n} rows: {idx[(idx < 0) | (idx >= n)][0]}")
    out = Tensor(a.data[idx])

    def backward(g: Array) -> None:
        if a._parents or isinstance(a.grad, np.ndarray):
            np.add.at(_dense_grad(a), idx, g)
            return
        all_idx, all_g = idx, g
        if a.grad is not None:  # a RowGrad from an earlier gather of the same leaf
            all_idx, all_g = np.concatenate([a.grad.rows, idx]), np.concatenate([a.grad.values, g])
        rows, inverse = np.unique(all_idx, return_inverse=True)
        values = np.zeros((len(rows),) + a.data.shape[1:])
        np.add.at(values, inverse, all_g)
        a.grad = RowGrad(rows, values, a.data.shape)

    return _record(out, (a,), "gather_rows", backward)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def backward(g: Array) -> None:
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _record(out, (a,), "reduce_sum", backward)


def reduce_max(a: Tensor, axis: int = 0) -> Tensor:
    """Max over one axis; ties route the subgradient to the first maximal entry."""
    out = Tensor(a.data.max(axis=axis))
    argmax = np.expand_dims(a.data.argmax(axis=axis), axis)  # first occurrence on ties

    def backward(g: Array) -> None:
        routed = np.zeros_like(a.data)
        np.put_along_axis(routed, argmax, np.expand_dims(g, axis), axis)
        _accumulate(a, routed)

    return _record(out, (a,), "reduce_max", backward)


def group_sum(values: Tensor, groups, num_groups: int) -> Tensor:
    """Accumulate vector entries into group slots, left to right.

    `np.add.at` applies the entries in index order, so the sums are
    bit-reproducible and equal to an explicit left-to-right loop.
    """
    if values.data.ndim != 1:
        raise DimensionError(f"group_sum expects a vector, got shape {values.data.shape}")
    idx = np.asarray(groups, dtype=np.int64)
    if idx.shape != values.data.shape:
        raise DimensionError("group_sum: groups must align with values")
    acc = np.zeros(num_groups)
    np.add.at(acc, idx, values.data)
    out = Tensor(acc)

    def backward(g: Array) -> None:
        _accumulate(values, g[idx])

    return _record(out, (values,), "group_sum", backward)


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the unmasked entries of the last axis.

    `mask` broadcasts against the logits (a `[L]` mask applies to every
    row). Masked entries are exactly zero in the output, and every row needs
    at least one unmasked entry. Stabilized by subtracting the row's max
    over its unmasked entries.
    """
    logits = _as_tensor(logits)
    x = logits.data
    try:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    except ValueError:
        raise DimensionError(f"mask shape {np.shape(mask)} does not match logits shape {x.shape}") from None
    if not mask.any(axis=-1).all():
        raise EmptySupportError("masked_softmax over a fully masked row")
    top = np.max(x, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    e = np.exp(x - top, out=np.zeros_like(x), where=mask)
    probs = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(probs)

    def backward(g: Array) -> None:
        # probs is zero at masked positions, so the usual softmax rule
        # already sends zero gradient there.
        _accumulate(logits, probs * (g - (g * probs).sum(axis=-1, keepdims=True)))

    return _record(out, (logits,), "masked_softmax", backward)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(
    loss_fn: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Compare analytic gradients of `loss_fn` against central differences.

    `loss_fn` must be a deterministic scalar function of `params` (no
    dropout, fixed inputs). Returns the max relative error
    max_i |g_a - g_fd| / max(1e-8, |g_a| + |g_fd|) over all parameters.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn(params)
    if loss.data.size != 1:
        raise UsageError("grad_check requires a scalar loss")
    if not np.isfinite(loss.data):
        raise NumericError("loss is non-finite at the evaluation point")
    loss.backward()
    analytic = {name: _dense_grad(p) for name, p in params.items()}

    frozen = {name: Tensor(p.data.copy()) for name, p in params.items()}
    worst = 0.0
    for name, p in frozen.items():
        flat = p.data.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = float(loss_fn(frozen).data)
            flat[i] = orig - epsilon
            lo = float(loss_fn(frozen).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"loss is non-finite while perturbing {name!r}")
            fd = (hi - lo) / (2.0 * epsilon)
            err = abs(ga[i] - fd) / max(1e-8, abs(ga[i]) + abs(fd))
            worst = max(worst, err)
    return worst
