"""Reading-head tests: attention shapes and stochasticity, merge heuristics,
word-level aggregation against a dictionary oracle, and a fully hand-rolled
numpy pipeline cross-check of the end-to-end forward pass."""

import math

import numpy as np
import pytest

from casreader import reader
from casreader import tensor as T
from casreader.errors import DimensionError, UsageError
from casreader.nn import EncodedSequence
from casreader.tensor import Tensor


def accumulate_oracle(merged: np.ndarray, doc_ids) -> dict[int, float]:
    """Brute-force word aggregation: plain dict, left-to-right adds."""
    out: dict[int, float] = {}
    for prob, tid in zip(merged, doc_ids):
        tid = int(tid)
        out[tid] = out.get(tid, 0.0) + float(prob)
    return out


def encoded(mat: np.ndarray, mask=None) -> EncodedSequence:
    mask = np.ones(mat.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return EncodedSequence(states=Tensor(mat), mask=mask)


class FakeSample:
    def __init__(self, doc_ids, query_ids):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)


def tiny_params(vocab_size=12, embed_dim=2, hidden_dim=2, seed=0, mode="avg", dropout=0.0):
    config = reader.ReaderConfig(embed_dim, hidden_dim, dropout_rate=dropout, merge_mode=mode)
    return reader.init_model_params(config, vocab_size, np.random.default_rng(seed))


class TestAttentionPerStep:
    def test_zero_query_row_gives_uniform(self):
        h_doc = encoded(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
        h_query = encoded(np.zeros((2, 2)))
        alpha = reader.attention_per_step(h_doc, h_query)
        np.testing.assert_allclose(alpha.data, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_closed_form_two_positions(self):
        h_doc = encoded(np.array([[1.0, 0.0], [0.0, 1.0]]))
        h_query = encoded(np.array([[1.0, 0.0]]))
        alpha = reader.attention_per_step(h_doc, h_query)
        e = math.exp(1.0)
        np.testing.assert_allclose(alpha.data[0], [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_masked_position_zero_in_every_row(self):
        rng = np.random.default_rng(0)
        h_doc = encoded(rng.normal(size=(5, 4)), mask=[True, True, False, True, False])
        h_query = encoded(rng.normal(size=(3, 4)))
        alpha = reader.attention_per_step(h_doc, h_query)
        assert np.all(alpha.data[:, 2] == 0.0)
        assert np.all(alpha.data[:, 4] == 0.0)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(3), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            reader.attention_per_step(encoded(np.zeros((2, 4))), encoded(np.zeros((2, 6))))


class TestMergeAttention:
    def test_single_row_degeneracy(self):
        rng = np.random.default_rng(1)
        row = rng.dirichlet(np.ones(6)).reshape(1, 6)
        outs = [reader.merge_attention(Tensor(row), mode).data for mode in reader.MERGE_MODES]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-15, rtol=0)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-15, rtol=0)

    def test_sum_mode_symmetry(self):
        merged = reader.merge_attention(Tensor([[1.0, 0.0], [0.0, 1.0]]), "sum")
        np.testing.assert_allclose(merged.data, [0.5, 0.5], atol=1e-15)

    def test_sum_mode_closed_form(self):
        merged = reader.merge_attention(Tensor([[0.8, 0.2], [0.6, 0.4]]), "sum")
        e14, e06 = math.exp(1.4), math.exp(0.6)
        np.testing.assert_allclose(merged.data, [e14 / (e14 + e06), e06 / (e14 + e06)], atol=1e-12)
        np.testing.assert_allclose(merged.data, [0.6900, 0.3100], atol=5e-5)

    def test_max_mode_takes_columnwise_max(self):
        alpha = np.array([[0.7, 0.1, 0.2], [0.2, 0.6, 0.2]])
        merged = reader.merge_attention(Tensor(alpha), "max")
        ref = np.exp(alpha.max(axis=0))
        np.testing.assert_allclose(merged.data, ref / ref.sum(), atol=1e-12)

    def test_empty_alpha_rejected(self):
        with pytest.raises(UsageError):
            reader.merge_attention(Tensor(np.zeros((0, 3))), "sum")

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            reader.merge_attention(Tensor(np.ones((1, 3))), "median")


class TestAttentionSum:
    def test_direct_aggregation(self):
        words = reader.attention_sum(Tensor([0.2, 0.3, 0.5]), [5, 7, 5])
        assert words.as_dict() == {5: 0.7, 7: 0.3}

    def test_distinct_tokens_identity(self):
        merged = np.array([0.1, 0.2, 0.3, 0.4])
        words = reader.attention_sum(Tensor(merged), [3, 1, 4, 2])
        assert words.as_dict() == {3: 0.1, 1: 0.2, 4: 0.3, 2: 0.4}

    def test_matches_dictionary_oracle_exactly(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 12, size=50)
        merged = rng.dirichlet(np.ones(50))
        words = reader.attention_sum(Tensor(merged), ids)
        assert words.as_dict() == accumulate_oracle(merged, ids)

    def test_masked_positions_excluded_from_keys(self):
        mask = np.array([True, False, True])
        merged = T.masked_softmax(Tensor([0.3, 9.9, 0.3]), mask)
        words = reader.attention_sum(merged, [5, 7, 5], doc_mask=mask)
        assert set(words.as_dict()) == {5}
        assert abs(words.as_dict()[5] - 1.0) < 1e-12


class TestAsReaderAttention:
    def test_zero_query_gives_uniform(self):
        h_doc = encoded(np.random.default_rng(3).normal(size=(4, 6)))
        merged = reader.as_reader_attention(h_doc, Tensor(np.zeros(6)))
        np.testing.assert_allclose(merged.data, np.full(4, 0.25), atol=1e-15)

    def test_orthonormal_rows_pick_matching_position(self):
        h_doc = encoded(np.eye(4))
        merged = reader.as_reader_attention(h_doc, Tensor(np.eye(4)[2]))
        assert merged.data.argmax() == 2
        assert merged.data[2] > max(np.delete(merged.data, 2))

    def test_single_softmax_differs_from_consensus_double_softmax(self):
        # With m = 1 the consensus head softmaxes the attention row a second
        # time; the baseline head applies exactly one softmax.
        rng = np.random.default_rng(4)
        h_doc = encoded(rng.normal(size=(3, 4)))
        q = rng.normal(size=4)
        baseline = reader.as_reader_attention(h_doc, Tensor(q))
        alpha = reader.attention_per_step(h_doc, encoded(q.reshape(1, 4)))
        consensus = reader.merge_attention(alpha, "sum")
        np.testing.assert_allclose(baseline.data, alpha.data[0], atol=1e-12)
        assert not np.allclose(consensus.data, baseline.data)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            reader.as_reader_attention(encoded(np.zeros((2, 4))), Tensor(np.zeros(6)))


def pipeline_oracle(params, doc_ids, query_ids, mode):
    """Plain-numpy re-implementation of the full forward pass."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def gru_seq(xs, p, reverse):
        h = np.zeros(p.hidden_dim)
        order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
        out = [None] * len(xs)
        for t in order:
            x = xs[t]
            z = sig(p.w_z.data @ x + p.u_z.data @ h + p.b_z.data)
            r = sig(p.w_r.data @ x + p.u_r.data @ h + p.b_r.data)
            cand = np.tanh(p.w_h.data @ x + p.u_h.data @ (r * h) + p.b_h.data)
            h = (1 - z) * h + z * cand
            out[t] = h
        return out

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    def enc(ids, fwd, bwd):
        xs = [params.embedding.data[i] for i in ids]
        f, b = gru_seq(xs, fwd, reverse=False), gru_seq(xs, bwd, reverse=True)
        return np.stack([np.concatenate([fi, bi]) for fi, bi in zip(f, b)])

    h_doc = enc(doc_ids, params.doc_fwd, params.doc_bwd)
    h_query = enc(query_ids, params.query_fwd, params.query_bwd)
    alpha = np.stack([softmax(h_doc @ h_query[t]) for t in range(len(query_ids))])
    if mode == "sum":
        merged = softmax(alpha.sum(axis=0))
    elif mode == "avg":
        merged = softmax(alpha.mean(axis=0))
    else:
        merged = softmax(alpha.max(axis=0))
    probs: dict[int, float] = {}
    for i, tid in enumerate(doc_ids):
        probs[int(tid)] = probs.get(int(tid), 0.0) + merged[i]
    return probs


class TestModelParamsLayout:
    def params(self):
        return reader.init_model_params(reader.ReaderConfig(3, 2), 7, np.random.default_rng(0))

    def test_from_named_inverts_named(self):
        params = self.params()
        named = params.named()
        assert len(named) == 1 + 4 * 9
        rebuilt = reader.ModelParams.from_named(named, params.config).named()
        assert list(rebuilt) == list(named)
        assert all(rebuilt[name] is named[name] for name in named)

    def test_missing_name_raises(self):
        params = self.params()
        named = params.named()
        del named["query_bwd.u_r"]
        with pytest.raises(KeyError, match="query_bwd.u_r"):
            reader.ModelParams.from_named(named, params.config)


class TestForward:
    def test_output_satisfies_distribution_invariants(self):
        params = tiny_params(seed=5)
        sample = FakeSample([3, 4, 5, 3, 6], [7, 1, 8])
        (out,) = reader.forward([sample], params)
        np.testing.assert_allclose(out.alpha.data.sum(axis=1), np.ones(3), atol=1e-12)
        assert abs(out.merged.data.sum() - 1.0) < 1e-12
        d = out.words.as_dict()
        assert abs(sum(d.values()) - 1.0) < 1e-10
        assert set(d) == {3, 4, 5, 6}

    def test_batch_of_one_matches_sample_alone(self):
        params = tiny_params(seed=6)
        target = FakeSample([3, 4, 5, 3], [7, 1])
        other = FakeSample([8, 9, 10, 9, 8, 4, 5], [2, 1, 6])
        alone = reader.forward([target], params)[0].words.as_dict()
        batched = reader.forward([target, other], params)[0].words.as_dict()
        assert alone.keys() == batched.keys()
        for tid in alone:
            assert abs(alone[tid] - batched[tid]) < 1e-12

    @pytest.mark.parametrize("mode", reader.MERGE_MODES)
    def test_matches_hand_rolled_pipeline(self, mode):
        params = tiny_params(seed=7, mode=mode)
        doc_ids, query_ids = [3, 4, 5, 3, 6, 4], [7, 1, 8]
        (out,) = reader.forward([FakeSample(doc_ids, query_ids)], params)
        expected = pipeline_oracle(params, doc_ids, query_ids, mode)
        got = out.words.as_dict()
        assert got.keys() == expected.keys()
        for tid in expected:
            assert abs(got[tid] - expected[tid]) < 1e-10

    def test_as_baseline_mode(self):
        params = tiny_params(seed=8)
        sample = FakeSample([3, 4, 5, 3], [7, 1])
        (out,) = reader.forward([sample], params, mode=reader.AS_BASELINE)
        assert out.alpha is None
        assert abs(out.merged.data.sum() - 1.0) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            reader.forward([], tiny_params(seed=9))


class TestPredict:
    def test_argmax(self):
        assert reader.argmax_word({5: 0.7, 7: 0.3}) == 5

    def test_exact_tie_breaks_to_smaller_id(self):
        assert reader.argmax_word({7: 0.5, 5: 0.5}) == 5

    def test_candidate_restriction(self):
        assert reader.argmax_word({5: 0.7, 7: 0.3}, candidates=[7]) == 7
        assert reader.argmax_word({5: 0.7, 7: 0.3}, candidates=[99]) == 5

    def test_dominant_token_predicted(self):
        # One-hot-ish embedding setup where token 3 dominates the document.
        params = tiny_params(seed=10)
        sample = FakeSample([3, 3, 3, 3, 4], [7, 1])
        assert reader.predict(sample, params) in (3, 4)
        maps = reader.attention_maps([sample], params)
        top = reader.argmax_word(maps[0].word_probs)
        assert reader.predict(sample, params) == top


class TestProperties:
    def test_row_stochasticity_random_models(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            params = tiny_params(vocab_size=15, embed_dim=3, hidden_dim=3, seed=seed)
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            sample = FakeSample(rng.integers(0, 15, n), rng.integers(0, 15, m))
            for mode in reader.MERGE_MODES:
                (out,) = reader.forward([sample], params, mode=mode)
                np.testing.assert_allclose(out.alpha.data.sum(axis=1), np.ones(m), atol=1e-12)
                assert abs(out.merged.data.sum() - 1.0) < 1e-12
                assert abs(sum(out.words.as_dict().values()) - 1.0) < 1e-10

    def test_sum_and_avg_share_position_ranking(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            alpha = Tensor(rng.dirichlet(np.ones(n), size=m))
            s_sum = reader.merge_attention(alpha, "sum").data
            s_avg = reader.merge_attention(alpha, "avg").data
            np.testing.assert_array_equal(np.argsort(-s_sum), np.argsort(-s_avg))

    def test_permuting_positions_permutes_merged_and_keeps_words(self):
        # The attention pipeline is position-equivariant given fixed
        # encodings: shuffling document rows shuffles merged s in lockstep
        # and leaves the word-level aggregation unchanged.
        rng = np.random.default_rng(13)
        h_doc = rng.normal(size=(6, 4))
        h_query = encoded(rng.normal(size=(2, 4)))
        doc_ids = np.array([3, 4, 5, 3, 6, 7])
        perm = rng.permutation(6)
        for mode in reader.MERGE_MODES:
            base_alpha = reader.attention_per_step(encoded(h_doc), h_query)
            base = reader.merge_attention(base_alpha, mode)
            perm_alpha = reader.attention_per_step(encoded(h_doc[perm]), h_query)
            permuted = reader.merge_attention(perm_alpha, mode)
            np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)
            base_words = reader.attention_sum(base, doc_ids).as_dict()
            perm_words = reader.attention_sum(permuted, doc_ids[perm]).as_dict()
            assert base_words.keys() == perm_words.keys()
            for tid in base_words:
                assert abs(base_words[tid] - perm_words[tid]) < 1e-12

    def test_nll_gradients_match_finite_differences(self):
        from helpers import Sample, generic_params

        rng = np.random.default_rng(1003)
        sample = Sample(rng.integers(0, 10, 6), rng.integers(0, 10, 3))
        answer = int(sample.doc_ids[0])
        params = generic_params(10, 3, 3, np.random.default_rng(2003))
        named = params.named()

        def loss(p):
            model = reader.ModelParams.from_named(p, params.config)
            (out,) = reader.forward([sample], model)
            return T.mul(T.log(T.take(out.words.probs, out.words.slot(answer))), -1.0)

        assert T.grad_check(loss, named, epsilon=1e-5) < 1e-4
