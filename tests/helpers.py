"""Shared fixtures for model-level tests.

`generic_params` builds a reader model at a generic random point in
parameter space (scale ~1 rather than the flat training init), which keeps
every gradient coordinate comfortably above finite-difference roundoff so
relative-error comparisons measure correctness, not noise.
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

