"""Independent numpy reference for the reader's training step and eval forward.

The benchmark checks the program's outputs against this module. It shares
no code with `casreader`: it re-derives the bi-GRU encoder, the avg-merge
consensus head, the attention-sum word distribution, the mean NLL and its
gradient by hand, and then applies global-norm clipping and Adam exactly as
the paper's recipe states. It reproduces `casreader.train.train`'s random
stream (parameter init order, per-epoch permutation, dropout draws), so for
the same inputs the two agree up to floating-point re-association.
"""

from __future__ import annotations

import numpy as np

GRU_PREFIXES = ("doc_fwd", "doc_bwd", "query_fwd", "query_bwd")
GRU_LEAVES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


def param_names() -> list[str]:
    """Checkpoint order: embedding, then the four GRU directions."""
    return ["embedding"] + [f"{p}.{leaf}" for p in GRU_PREFIXES for leaf in GRU_LEAVES]


def init_params(vocab_size: int, embed_dim: int, hidden_dim: int, rng) -> dict:
    """Uniform(+-0.1) input maps and embedding, orthogonal recurrent maps, zero biases."""
    params = {"embedding": rng.uniform(-0.1, 0.1, size=(vocab_size, embed_dim))}
    for prefix in GRU_PREFIXES:
        for leaf in ("w_z", "w_r", "w_h"):
            params[f"{prefix}.{leaf}"] = rng.uniform(-0.1, 0.1, size=(hidden_dim, embed_dim))
        for leaf in ("u_z", "u_r", "u_h"):
            q, r = np.linalg.qr(rng.standard_normal(size=(hidden_dim, hidden_dim)))
            params[f"{prefix}.{leaf}"] = q * np.sign(np.diag(r))
        for leaf in ("b_z", "b_r", "b_h"):
            params[f"{prefix}.{leaf}"] = np.zeros(hidden_dim)
    return params


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _pad(rows):
    width = max(len(r) for r in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = True
    return ids, mask


def _gru_scan(x, mask, p, prefix, reverse):
    """x: [L x B x E]. Returns per-step outputs [L x B x H] and a tape for BPTT.

    Masked steps carry the state through and emit zero rows.
    """
    w = {k: p[f"{prefix}.{k}"] for k in GRU_LEAVES}
    steps, batch, _ = x.shape
    hidden = w["u_z"].shape[0]
    xz = x @ w["w_z"].T + w["b_z"]
    xr = x @ w["w_r"].T + w["b_r"]
    xh = x @ w["w_h"].T + w["b_h"]
    h = np.zeros((batch, hidden))
    out = np.zeros((steps, batch, hidden))
    tape = []
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        keep = mask[:, t][:, None]
        z = _sigmoid(xz[t] + h @ w["u_z"].T)
        r = _sigmoid(xr[t] + h @ w["u_r"].T)
        c = np.tanh(xh[t] + (r * h) @ w["u_h"].T)
        h_new = (1.0 - z) * h + z * c
        tape.append((t, keep, h, z, r, c))
        h = np.where(keep, h_new, h)
        out[t] = np.where(keep, h, 0.0)
    return out, tape


def _gru_backward(d_out, x, p, prefix, tape, grads):
    """BPTT over one direction's tape; returns d x [L x B x E] and adds weight grads."""
    w = {k: p[f"{prefix}.{k}"] for k in GRU_LEAVES}
    g = {k: np.zeros_like(v) for k, v in w.items()}
    dx = np.zeros_like(x)
    dh = np.zeros(tape[0][2].shape)
    for t, keep, h_prev, z, r, c in reversed(tape):
        dh = dh + np.where(keep, d_out[t], 0.0)
        d_new = np.where(keep, dh, 0.0)
        dh = np.where(keep, 0.0, dh)
        da_h = d_new * z * (1.0 - c * c)
        da_z = d_new * (c - h_prev) * z * (1.0 - z)
        d_rh = da_h @ w["u_h"]
        da_r = d_rh * h_prev * r * (1.0 - r)
        dh = dh + d_new * (1.0 - z) + d_rh * r + da_z @ w["u_z"] + da_r @ w["u_r"]
        dx[t] = da_z @ w["w_z"] + da_r @ w["w_r"] + da_h @ w["w_h"]
        g["w_z"] += da_z.T @ x[t]
        g["w_r"] += da_r.T @ x[t]
        g["w_h"] += da_h.T @ x[t]
        g["u_z"] += da_z.T @ h_prev
        g["u_r"] += da_r.T @ h_prev
        g["u_h"] += da_h.T @ (r * h_prev)
        g["b_z"] += da_z.sum(axis=0)
        g["b_r"] += da_r.sum(axis=0)
        g["b_h"] += da_h.sum(axis=0)
    for k, v in g.items():
        grads[f"{prefix}.{k}"] += v
    return dx


def _encode(ids, mask, p, side, dropout_rate, rng):
    """Embed and bi-GRU encode; dropout (when on) draws one [B x 2H] mask per step."""
    x = np.transpose(p["embedding"][ids], (1, 0, 2))  # [L x B x E]
    fwd, fwd_tape = _gru_scan(x, mask, p, f"{side}_fwd", reverse=False)
    bwd, bwd_tape = _gru_scan(x, mask, p, f"{side}_bwd", reverse=True)
    states = np.concatenate([fwd, bwd], axis=2)  # [L x B x 2H]
    keep = None
    if dropout_rate > 0.0:
        keep = np.stack(
            [(rng.random(states.shape[1:]) >= dropout_rate) / (1.0 - dropout_rate) for _ in range(states.shape[0])]
        )
        states = states * keep
    return states, (x, fwd_tape, bwd_tape, keep)


def _encode_backward(d_states, ids, p, side, cache, grads):
    x, fwd_tape, bwd_tape, keep = cache
    if keep is not None:
        d_states = d_states * keep
    hidden = d_states.shape[2] // 2
    dx = _gru_backward(d_states[:, :, :hidden], x, p, f"{side}_fwd", fwd_tape, grads)
    dx += _gru_backward(d_states[:, :, hidden:], x, p, f"{side}_bwd", bwd_tape, grads)
    np.add.at(grads["embedding"], ids.T.reshape(-1), dx.reshape(-1, dx.shape[2]))


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _head(doc_states, query_states):
    """Avg-merge consensus head for one sample: returns (merged, alpha)."""
    alpha = _softmax_rows(query_states @ doc_states.T)  # [m x n]
    merged = _softmax_rows(alpha.sum(axis=0) / alpha.shape[0])
    return merged, alpha


def _word_probs(merged, doc_ids):
    """Token ids in first-occurrence order, their summed attention, and the position->slot map."""
    tokens, first, slots = np.unique(doc_ids, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slots = rank[slots.reshape(-1)]
    probs = np.zeros(tokens.size)
    np.add.at(probs, slots, merged)
    return tokens[order], probs, slots


def forward_words(batch, p, dropout_rate=0.0, rng=None):
    """Encode a batch of (doc_ids, query_ids) pairs; per sample (token_ids, word probs)."""
    doc_ids, doc_mask = _pad([d for d, _ in batch])
    query_ids, query_mask = _pad([q for _, q in batch])
    doc_states, _ = _encode(doc_ids, doc_mask, p, "doc", dropout_rate, rng)
    query_states, _ = _encode(query_ids, query_mask, p, "query", dropout_rate, rng)
    out = []
    for b, (d, q) in enumerate(batch):
        merged, _ = _head(doc_states[: len(d), b], query_states[: len(q), b])
        tokens, probs, _ = _word_probs(merged, np.asarray(d))
        out.append((tokens, probs))
    return out


def loss_and_grads(batch, p, dropout_rate, rng):
    """Mean NLL of the gold answers over a batch of (doc_ids, query_ids, answer_id)."""
    doc_ids, doc_mask = _pad([d for d, _, _ in batch])
    query_ids, query_mask = _pad([q for _, q, _ in batch])
    doc_states, doc_cache = _encode(doc_ids, doc_mask, p, "doc", dropout_rate, rng)
    query_states, query_cache = _encode(query_ids, query_mask, p, "query", dropout_rate, rng)
    d_doc = np.zeros_like(doc_states)
    d_query = np.zeros_like(query_states)
    scale = 1.0 / len(batch)
    log_sum = 0.0
    for b, (d, q, answer) in enumerate(batch):
        n, m = len(d), len(q)
        ds, qs = doc_states[:n, b], query_states[:m, b]
        merged, alpha = _head(ds, qs)
        tokens, probs, slots = _word_probs(merged, np.asarray(d))
        gold = int(np.flatnonzero(tokens == answer)[0])
        log_sum += np.log(probs[gold])
        d_merged = np.where(slots == gold, -scale / probs[gold], 0.0)
        d_logits = merged * (d_merged - (d_merged * merged).sum())
        d_alpha = np.broadcast_to(d_logits / m, alpha.shape)
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_query[:m, b] += d_scores @ ds
        d_doc[:n, b] += d_scores.T @ qs
    grads = {name: np.zeros_like(v) for name, v in p.items()}
    _encode_backward(d_query, query_ids, p, "query", query_cache, grads)
    _encode_backward(d_doc, doc_ids, p, "doc", doc_cache, grads)
    return -log_sum * scale, grads


class Adam:
    """Bias-corrected Adam with the paper's defaults."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name in param_names():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            params[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


def clip(grads, threshold):
    """Rescale all gradients jointly to global L2 norm <= threshold (in place)."""
    norm = float(np.sqrt(sum(float((grads[k] * grads[k]).sum()) for k in param_names())))
    if norm > threshold:
        for k in grads:
            grads[k] *= threshold / norm
    return norm


def fingerprint(params: dict) -> dict:
    """Per parameter, the bilinear form u.P.v with fixed random u, v, and its scale u|P|v.

    Any change to a trained parameter moves its value; re-association
    moves it by ~1e-16 of the scale, a wrong gradient by far more.
    """
    out = {}
    for name in param_names():
        p = np.asarray(params[name], dtype=np.float64)
        p2 = p.reshape(p.shape[0], -1)
        rng = np.random.default_rng(len(name))
        u, v = rng.standard_normal(p2.shape[0]), rng.standard_normal(p2.shape[1])
        out[name] = (float(u @ (p2 @ v)), float(np.abs(u) @ (np.abs(p2) @ np.abs(v))))
    return out


def train(config: dict, train_set, vocab_size: int) -> tuple[list[float], dict]:
    """Per-epoch mean training loss and final parameters, following train.train's random stream.

    `config` holds embed_dim, hidden_dim, dropout_rate, lr, beta1, beta2,
    epsilon, batch_size, clip_threshold, epochs and seed; `train_set` holds
    (doc_ids, query_ids, answer_id) triples.
    """
    rng = np.random.default_rng(config["seed"])
    params = init_params(vocab_size, config["embed_dim"], config["hidden_dim"], rng)
    adam = Adam(params, config["lr"], config["beta1"], config["beta2"], config["epsilon"])
    epoch_losses = []
    for _ in range(config["epochs"]):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(train_set), config["batch_size"]):
            batch = [train_set[i] for i in order[start : start + config["batch_size"]]]
            loss, grads = loss_and_grads(batch, params, config["dropout_rate"], rng)
            clip(grads, config["clip_threshold"])
            adam.step(params, grads)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses, params


def predictions(params: dict, samples, batch_size: int) -> list[tuple[int, float]]:
    """Eval-mode argmax word id per (doc_ids, query_ids) sample and its relative margin.

    Exact ties go to the smallest token id. The margin is (top1 - top2) / top1,
    or 1.0 when the document has a single distinct token.
    """
    out = []
    for start in range(0, len(samples), batch_size):
        for tokens, probs in forward_words(samples[start : start + batch_size], params):
            best = probs.max()
            winner = int(tokens[probs == best].min())
            rest = np.sort(probs)[:-1]
            margin = (best - rest[-1]) / best if rest.size else 1.0
            out.append((winner, float(margin)))
    return out
