"""Shared fixtures for model-level tests.

`generic_params` builds a reader model at a generic random point in
parameter space (scale ~1 rather than the flat training init), which keeps
every gradient coordinate comfortably above finite-difference roundoff so
relative-error comparisons measure correctness, not noise. `head_oracle` is
the per-sample numpy reference for the batched reading head.
`deterministic_fields` picks the epoch, mean loss and validation accuracy of
a training-log record, the fields the tests compare across runs.
"""

import numpy as np

from casreader import nn, reader
from casreader.tensor import Tensor


class Sample:
    """Bare id-level sample, shaped like vocab.EncodedSample."""

    def __init__(self, doc_ids, query_ids, answer_id=None):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.answer_id = answer_id

    def __repr__(self):
        return f"Sample(doc={self.doc_ids.tolist()}, query={self.query_ids.tolist()}, answer={self.answer_id})"


def generic_params(vocab_size, embed_dim, hidden_dim, rng, mode="avg"):
    def u(rows, cols):
        return Tensor(rng.uniform(-1.0, 1.0, (rows, cols)), requires_grad=True)

    def gru():
        return nn.GruParams(
            w_z=u(hidden_dim, embed_dim), w_r=u(hidden_dim, embed_dim), w_h=u(hidden_dim, embed_dim),
            u_z=Tensor(nn.orthogonal_init(hidden_dim, hidden_dim, rng), requires_grad=True),
            u_r=Tensor(nn.orthogonal_init(hidden_dim, hidden_dim, rng), requires_grad=True),
            u_h=Tensor(nn.orthogonal_init(hidden_dim, hidden_dim, rng), requires_grad=True),
            b_z=Tensor(rng.uniform(-0.5, 0.5, hidden_dim), requires_grad=True),
            b_r=Tensor(rng.uniform(-0.5, 0.5, hidden_dim), requires_grad=True),
            b_h=Tensor(rng.uniform(-0.5, 0.5, hidden_dim), requires_grad=True),
        )

    return reader.ModelParams(
        embedding=u(vocab_size, embed_dim),
        doc_fwd=gru(), doc_bwd=gru(), query_fwd=gru(), query_bwd=gru(),
        config=reader.ReaderConfig(embed_dim, hidden_dim, merge_mode=mode),
    )



def head_oracle(h_doc, h_query, doc_ids, mode):
    """One sample's word probabilities (token id -> probability) from plain numpy.

    `h_doc` [n x 2H] and `h_query` [m x 2H] are the sample's unpadded encoder
    states, [forward; backward] per position; words accumulate left to right.
    """

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    if mode == reader.AS_BASELINE:
        hidden = h_query.shape[1] // 2
        merged = softmax(h_doc @ np.concatenate([h_query[-1, :hidden], h_query[0, hidden:]]))
    else:
        alpha = np.stack([softmax(h_doc @ q) for q in h_query])
        merged = softmax({"sum": alpha.sum, "avg": alpha.mean, "max": alpha.max}[mode](axis=0))
    probs: dict[int, float] = {}
    for p, tid in zip(merged, doc_ids):
        probs[int(tid)] = probs.get(int(tid), 0.0) + float(p)
    return probs


def deterministic_fields(record) -> tuple:
    """(epoch, mean loss, validation accuracy) of a `train.EpochRecord`; the wall time varies."""
    return (record.epoch, record.mean_loss, record.valid_accuracy)
