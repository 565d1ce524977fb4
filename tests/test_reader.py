"""Reading-head tests: attention shapes and stochasticity, merge heuristics,
word-level aggregation against a dictionary oracle, a fully hand-rolled
numpy pipeline cross-check of the end-to-end forward pass, and the batched
head against each sample run alone and against the per-sample numpy head."""

import math

import numpy as np
import pytest

from casreader import nn, reader, train
from casreader import tensor as T
from casreader.errors import ConfigurationError, DimensionError, UsageError
from casreader.tensor import Tensor

from helpers import Sample, generic_params, head_oracle


def accumulate_oracle(merged: np.ndarray, doc_ids) -> dict[int, float]:
    """Brute-force word aggregation: plain dict, left-to-right adds."""
    out: dict[int, float] = {}
    for prob, tid in zip(merged, doc_ids):
        tid = int(tid)
        out[tid] = out.get(tid, 0.0) + float(prob)
    return out


def full(n: int) -> np.ndarray:
    return np.ones(n, dtype=bool)


class FakeSample:
    def __init__(self, doc_ids, query_ids):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)


def tiny_params(vocab_size=12, embed_dim=2, hidden_dim=2, seed=0, mode="avg", dropout=0.0):
    config = train.TrainConfig(embed_dim=embed_dim, hidden_dim=hidden_dim, dropout_rate=dropout, merge_mode=mode)
    return reader.init_model_params(config, vocab_size, np.random.default_rng(seed))


class TestAttentionPerStep:
    def test_zero_query_row_gives_uniform(self):
        h_doc = Tensor([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        h_query = Tensor(np.zeros((2, 2)))
        alpha = reader.attention_per_step(h_doc, h_query, full(3))
        np.testing.assert_allclose(alpha.data, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_closed_form_two_positions(self):
        h_doc = Tensor([[1.0, 0.0], [0.0, 1.0]])
        h_query = Tensor([[1.0, 0.0]])
        alpha = reader.attention_per_step(h_doc, h_query, full(2))
        e = math.exp(1.0)
        np.testing.assert_allclose(alpha.data[0], [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_masked_position_zero_in_every_row(self):
        rng = np.random.default_rng(0)
        h_doc = Tensor(rng.normal(size=(5, 4)))
        h_query = Tensor(rng.normal(size=(3, 4)))
        alpha = reader.attention_per_step(h_doc, h_query, [True, True, False, True, False])
        assert np.all(alpha.data[:, 2] == 0.0)
        assert np.all(alpha.data[:, 4] == 0.0)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(3), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            reader.attention_per_step(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 6))), full(2))


class TestMergeAttention:
    def test_single_row_degeneracy(self):
        rng = np.random.default_rng(1)
        row = rng.dirichlet(np.ones(6)).reshape(1, 6)
        outs = [reader.merge_attention(Tensor(row), mode, full(1), full(6)).data for mode in reader.MERGE_MODES]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-15, rtol=0)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-15, rtol=0)

    def test_sum_mode_symmetry(self):
        merged = reader.merge_attention(Tensor([[1.0, 0.0], [0.0, 1.0]]), "sum", full(2), full(2))
        np.testing.assert_allclose(merged.data, [0.5, 0.5], atol=1e-15)

    def test_sum_mode_closed_form(self):
        merged = reader.merge_attention(Tensor([[0.8, 0.2], [0.6, 0.4]]), "sum", full(2), full(2))
        e14, e06 = math.exp(1.4), math.exp(0.6)
        np.testing.assert_allclose(merged.data, [e14 / (e14 + e06), e06 / (e14 + e06)], atol=1e-12)
        np.testing.assert_allclose(merged.data, [0.6900, 0.3100], atol=5e-5)

    def test_max_mode_takes_columnwise_max(self):
        alpha = np.array([[0.7, 0.1, 0.2], [0.2, 0.6, 0.2]])
        merged = reader.merge_attention(Tensor(alpha), "max", full(2), full(3))
        ref = np.exp(alpha.max(axis=0))
        np.testing.assert_allclose(merged.data, ref / ref.sum(), atol=1e-12)

    def test_empty_alpha_rejected(self):
        with pytest.raises(UsageError):
            reader.merge_attention(Tensor(np.zeros((0, 3))), "sum", full(0), full(3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            reader.merge_attention(Tensor(np.ones((1, 3))), "median", full(1), full(3))

    @pytest.mark.parametrize("mode", reader.MERGE_MODES)
    def test_padded_query_steps_add_nothing(self, mode):
        # Sample 1 has two real query steps; its padded third row holds a
        # large attention that must not reach the merge (nor avg's divisor).
        rng = np.random.default_rng(14)
        alpha = rng.dirichlet(np.ones(4), size=(2, 3))
        alpha[1, 2] = [0.0, 0.0, 0.0, 1.0]
        query_mask = np.array([[True, True, True], [True, True, False]])
        merged = reader.merge_attention(Tensor(alpha), mode, query_mask, np.ones((2, 4), dtype=bool))
        for b, m in ((0, 3), (1, 2)):
            alone = reader.merge_attention(Tensor(alpha[b, :m]), mode, full(m), full(4))
            np.testing.assert_allclose(merged.data[b], alone.data, rtol=1e-15, atol=0)


class TestAttentionSum:
    def test_direct_aggregation(self):
        words = reader.attention_sum(Tensor([0.2, 0.3, 0.5]), [5, 7, 5], full(3))
        assert words.as_dict() == {5: 0.7, 7: 0.3}

    def test_distinct_tokens_identity(self):
        merged = np.array([0.1, 0.2, 0.3, 0.4])
        words = reader.attention_sum(Tensor(merged), [3, 1, 4, 2], full(4))
        assert words.as_dict() == {3: 0.1, 1: 0.2, 4: 0.3, 2: 0.4}

    def test_matches_dictionary_oracle_exactly(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 12, size=50)
        merged = rng.dirichlet(np.ones(50))
        words = reader.attention_sum(Tensor(merged), ids, full(50))
        assert words.as_dict() == accumulate_oracle(merged, ids)

    def test_masked_positions_excluded_from_keys(self):
        mask = np.array([True, False, True])
        merged = T.masked_softmax(Tensor([0.3, 9.9, 0.3]), mask)
        words = reader.attention_sum(merged, [5, 7, 5], doc_mask=mask)
        assert set(words.as_dict()) == {5}
        assert abs(words.as_dict()[5] - 1.0) < 1e-12

    def test_batch_slots_ascend_by_id_within_each_sample(self):
        merged = np.array([[0.1, 0.2, 0.3, 0.0], [0.4, 0.1, 0.2, 0.3]])
        ids = np.array([[5, 3, 5, 5], [9, 2, 9, 9]])
        mask = np.array([[True, True, True, False], [True] * 4])
        words = reader.attention_sum(Tensor(merged), ids, mask)
        np.testing.assert_array_equal(words.token_ids, [3, 5, 2, 9])
        np.testing.assert_array_equal(words.offsets, [0, 2, 4])
        assert words.sample(0).as_dict() == accumulate_oracle(merged[0, :3], ids[0, :3])
        assert words.sample(1).as_dict() == accumulate_oracle(merged[1], ids[1])


class TestAsReaderAttention:
    """The single-attention baseline is `attention_per_step` over a one-step query."""

    def test_zero_query_gives_uniform(self):
        h_doc = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        alpha = reader.attention_per_step(h_doc, Tensor(np.zeros((1, 6))), full(4))
        np.testing.assert_allclose(alpha.data, np.full((1, 4), 0.25), atol=1e-15)

    def test_orthonormal_rows_pick_matching_position(self):
        h_doc = Tensor(np.eye(4))
        (row,) = reader.attention_per_step(h_doc, Tensor(np.eye(4)[2:3]), full(4)).data
        assert row.argmax() == 2
        assert row[2] > max(np.delete(row, 2))

    def test_single_softmax_differs_from_consensus_double_softmax(self):
        # With m = 1 the consensus head softmaxes the attention row a second
        # time; the baseline head applies exactly one softmax.
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 4))
        q = rng.normal(size=4)
        alpha = reader.attention_per_step(Tensor(h), Tensor(q.reshape(1, 4)), full(3))
        consensus = reader.merge_attention(alpha, "sum", full(1), full(3))
        logits = h @ q
        np.testing.assert_allclose(alpha.data[0], np.exp(logits) / np.exp(logits).sum(), atol=1e-12)
        assert not np.allclose(consensus.data, alpha.data[0])

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            reader.attention_per_step(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 6))), full(2))


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

    def enc(ids, fwd, bwd):
        xs = [params.embedding.data[i] for i in ids]
        f, b = gru_seq(xs, fwd, reverse=False), gru_seq(xs, bwd, reverse=True)
        return np.stack([np.concatenate([fi, bi]) for fi, bi in zip(f, b)])

    h_doc = enc(doc_ids, params.doc_fwd, params.doc_bwd)
    h_query = enc(query_ids, params.query_fwd, params.query_bwd)
    return head_oracle(h_doc, h_query, doc_ids, mode)


class TestModelParamsLayout:
    def params(self):
        return reader.init_model_params(train.TrainConfig(embed_dim=3, hidden_dim=2), 7, np.random.default_rng(0))

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

    def test_layout_gives_named_order_and_shapes(self):
        params = self.params()
        layout = reader.param_layout(params.config, 7)
        assert [(name, p.data.shape) for name, p in params.named().items()] == layout
        assert layout[:2] == [("embedding", (7, 3)), ("doc_fwd.w_z", (2, 3))]

    @pytest.mark.parametrize("embed_dim, hidden_dim, vocab_size", [(3, 2, 7), (2, 5, 4), (4, 4, 1)])
    def test_init_draws_in_layout_order(self, embed_dim, hidden_dim, vocab_size):
        """Bit for bit: the embedding, then per direction three uniform input
        maps, three orthogonal recurrent maps and three zero biases."""
        params = reader.init_model_params(
            train.TrainConfig(embed_dim=embed_dim, hidden_dim=hidden_dim), vocab_size, np.random.default_rng(11)
        )
        rng = np.random.default_rng(11)

        def orthogonal():
            q, r = np.linalg.qr(rng.standard_normal((hidden_dim, hidden_dim)))
            return q * np.sign(np.diag(r))

        want = {"embedding": rng.uniform(-0.1, 0.1, (vocab_size, embed_dim))}
        for direction in reader.GRU_DIRECTIONS:
            want.update({f"{direction}.w_{g}": rng.uniform(-0.1, 0.1, (hidden_dim, embed_dim)) for g in "zrh"})
            want.update({f"{direction}.u_{g}": orthogonal() for g in "zrh"})
            want.update({f"{direction}.b_{g}": np.zeros(hidden_dim) for g in "zrh"})
        named = params.named()
        assert list(named) == list(want)
        for name, array in want.items():
            np.testing.assert_array_equal(named[name].data, array)
            assert named[name].requires_grad

    @pytest.mark.parametrize("embed_dim", [2**50, 10**18], ids=["memory-error", "value-error"])
    def test_size_numpy_refuses_is_configuration_error(self, embed_dim):
        """Both sizes fail in numpy before anything is allocated."""
        config = train.TrainConfig(embed_dim=embed_dim, hidden_dim=2)
        with pytest.raises(ConfigurationError, match=rf"\[7 x {embed_dim}\] embedding"):
            reader.init_model_params(config, 7, np.random.default_rng(0))


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
        alone = reader.forward([target], params).sample(0).words.as_dict()
        batched = reader.forward([target, other], params).sample(0).words.as_dict()
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
        assert out.alpha.data.shape == (1, 4)
        assert out.alpha.data.tobytes() == out.merged.data.tobytes()
        assert abs(out.merged.data.sum() - 1.0) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            reader.forward([], tiny_params(seed=9))

    def test_iteration_gives_unpadded_samples_without_graph(self):
        params = tiny_params(seed=9)
        samples = [FakeSample([3, 4, 5], [7, 1]), FakeSample([8, 9, 10, 9, 8], [2])]
        output = reader.forward(samples, params)
        assert output.merged.requires_grad and len(output) == 2
        items = list(output)
        assert [out.alpha.data.shape for out in items] == [(2, 3), (1, 5)]
        assert [out.merged.data.shape for out in items] == [(3,), (5,)]
        assert not any(out.merged.requires_grad or out.words.probs.requires_grad for out in items)
        assert set(items[1].words.as_dict()) == {8, 9, 10}


def words_of(probs: dict[int, float]) -> reader.WordDistribution:
    ids = sorted(probs)
    return reader.WordDistribution(Tensor([probs[i] for i in ids]), np.array(ids), np.array([0, len(ids)]))


class TestPredict:
    def test_argmax(self):
        assert words_of({5: 0.7, 7: 0.3}).argmax().tolist() == [5]

    def test_exact_tie_breaks_to_smaller_id(self):
        assert words_of({7: 0.5, 5: 0.5}).argmax().tolist() == [5]

    def test_candidate_restriction(self):
        assert words_of({5: 0.7, 7: 0.3}).argmax([[7]]).tolist() == [7]
        assert words_of({5: 0.7, 7: 0.3}).argmax([[99]]).tolist() == [5]
        assert words_of({5: 0.7, 7: 0.3}).argmax([None]).tolist() == [5]

    def test_dominant_token_predicted(self):
        # One-hot-ish embedding setup where token 3 dominates the document.
        params = tiny_params(seed=10)
        sample = FakeSample([3, 3, 3, 3, 4], [7, 1])
        ((group, output, predicted),) = reader.score([sample], params)
        assert group == [sample] and predicted.tolist()[0] in (3, 4)
        word_probs = output.sample(0).words.as_dict()
        assert predicted[0] == max(word_probs, key=word_probs.get)

    def test_score_batches_without_a_graph(self):
        params = tiny_params(seed=11)
        samples = [FakeSample([3, 4, 5, 3], [7, 1]), FakeSample([8, 9], [2]), FakeSample([4, 6, 6], [1, 2, 3])]
        samples[1].candidate_ids = [9]
        samples[0].candidate_ids = samples[2].candidate_ids = None
        batches = list(reader.score(samples, params, mode="max", restrict_candidates=True, batch_size=2))
        assert [len(group) for group, _, _ in batches] == [2, 1]
        for group, output, predicted in batches:
            assert not output.merged.requires_grad
            expected = reader.forward(group, params, mode="max").words.argmax([s.candidate_ids for s in group])
            np.testing.assert_array_equal(predicted, expected)
        assert batches[0][2][1] == 9


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
            s_sum = reader.merge_attention(alpha, "sum", full(m), full(n)).data
            s_avg = reader.merge_attention(alpha, "avg", full(m), full(n)).data
            np.testing.assert_array_equal(np.argsort(-s_sum), np.argsort(-s_avg))

    def test_permuting_positions_permutes_merged_and_keeps_words(self):
        # The attention pipeline is position-equivariant given fixed
        # encodings: shuffling document rows shuffles merged s in lockstep
        # and leaves the word-level aggregation unchanged.
        rng = np.random.default_rng(13)
        h_doc = rng.normal(size=(6, 4))
        h_query = Tensor(rng.normal(size=(2, 4)))
        doc_ids = np.array([3, 4, 5, 3, 6, 7])
        perm = rng.permutation(6)
        for mode in reader.MERGE_MODES:
            base_alpha = reader.attention_per_step(Tensor(h_doc), h_query, full(6))
            base = reader.merge_attention(base_alpha, mode, full(2), full(6))
            perm_alpha = reader.attention_per_step(Tensor(h_doc[perm]), h_query, full(6))
            permuted = reader.merge_attention(perm_alpha, mode, full(2), full(6))
            np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)
            base_words = reader.attention_sum(base, doc_ids, full(6)).as_dict()
            perm_words = reader.attention_sum(permuted, doc_ids[perm], full(6)).as_dict()
            assert base_words.keys() == perm_words.keys()
            for tid in base_words:
                assert abs(base_words[tid] - perm_words[tid]) < 1e-12

    def test_nll_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1003)
        sample = Sample(rng.integers(0, 10, 6), rng.integers(0, 10, 3))
        answer = int(sample.doc_ids[0])
        params = generic_params(10, 3, 3, np.random.default_rng(2003))
        named = params.named()

        def loss(p):
            model = reader.ModelParams.from_named(p, params.config)
            return train.nll_loss(reader.forward([sample], model), [answer])

        assert T.grad_check(loss, named, epsilon=1e-5) < 1e-4


def mixed_batch(rng, size=6, vocab_size=15):
    """Samples of 2-12 document and 1-6 query tokens, answer = first document token."""
    samples = []
    for _ in range(size):
        doc = rng.integers(0, vocab_size, int(rng.integers(2, 13)))
        samples.append(Sample(doc, rng.integers(0, vocab_size, int(rng.integers(1, 7))), int(doc[0])))
    return samples


def assert_relatively_close(got: dict, want: dict, rtol: float) -> None:
    assert got.keys() == want.keys()
    for tid, p in want.items():
        assert abs(got[tid] - p) <= rtol * abs(p), (tid, got[tid], p)


class TestBatchedHead:
    @pytest.mark.parametrize("mode", reader.EVAL_MODES)
    def test_mixed_batch_matches_each_sample_alone(self, mode):
        rng = np.random.default_rng(40)
        params = generic_params(15, 3, 3, rng)
        samples = mixed_batch(rng)
        batched = list(reader.forward(samples, params, mode=mode))
        for sample, out in zip(samples, batched):
            (alone,) = reader.forward([sample], params, mode=mode)
            assert_relatively_close(out.words.as_dict(), alone.words.as_dict(), 1e-12)

    @pytest.mark.parametrize("mode", reader.EVAL_MODES)
    def test_matches_per_sample_head_oracle(self, mode):
        rng = np.random.default_rng(41)
        params = generic_params(15, 3, 3, rng)
        samples = mixed_batch(rng)

        def states(ids, fwd, bwd):  # one sequence encoded on its own, [n x 2H]
            return nn.encode_batch(ids[None], full(len(ids))[None], params.embedding, fwd, bwd).data[0]

        for sample, out in zip(samples, reader.forward(samples, params, mode=mode)):
            h_doc = states(sample.doc_ids, params.doc_fwd, params.doc_bwd)
            h_query = states(sample.query_ids, params.query_fwd, params.query_bwd)
            assert_relatively_close(out.words.as_dict(), head_oracle(h_doc, h_query, sample.doc_ids, mode), 1e-12)

    @pytest.mark.parametrize("mode", reader.MERGE_MODES)
    def test_batch_gradients_average_single_sample_gradients(self, mode):
        rng = np.random.default_rng(42)
        params = generic_params(15, 3, 3, rng)
        samples = mixed_batch(rng)
        named = params.named()

        def gradients(group):
            for p in named.values():
                p.zero_grad()
            train.nll_loss(reader.forward(group, params, mode=mode), [s.answer_id for s in group]).backward()
            return {k: T._dense_grad(p).copy() for k, p in named.items()}

        batched = gradients(samples)
        alone = [gradients([s]) for s in samples]
        expected = {k: sum(g[k] for g in alone) / len(samples) for k in named}
        scale = max(np.abs(g).max() for g in expected.values())
        for k in named:
            np.testing.assert_allclose(batched[k], expected[k], rtol=0, atol=1e-12 * scale)

    def test_query_summary_reads_last_forward_and_first_backward_state(self):
        params = tiny_params(vocab_size=10, embed_dim=3, hidden_dim=4, seed=31)
        ids = np.array([[1, 2, 3], [4, 5, 4]])
        mask = np.array([[True] * 3, [True, True, False]])
        states = nn.encode_batch(ids, mask, params.embedding, params.query_fwd, params.query_bwd).data
        summary = reader.query_summary(Tensor(states), mask).data  # [row x 1 x 2H]
        assert summary.shape == (2, 1, 8)
        for row, last in ((0, 2), (1, 1)):
            np.testing.assert_array_equal(summary[row, 0, :4], states[row, last, :4])
            np.testing.assert_array_equal(summary[row, 0, 4:], states[row, 0, 4:])
