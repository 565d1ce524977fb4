"""Training-loop tests: batching, the NLL objective with
hand-computed values, clipping and Adam against worked arithmetic, loss
descent, determinism, and bit-exact checkpoint persistence."""

import errno
import io
import json
import math
import os
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casreader import errors, nn, reader, train
from casreader import tensor as T
from casreader.errors import (
    ConfigurationError,
    CorruptionError,
    DimensionError,
    NumericError,
    UsageError,
    ValidationError,
)
from casreader.tensor import Tensor
from casreader.vocab import EncodedSample
from helpers import FRAGMENTS, deterministic_fields


def encoded_sample(doc, query, answer):
    return EncodedSample(
        doc_ids=np.asarray(doc, dtype=np.int64),
        query_ids=np.asarray(query, dtype=np.int64),
        answer_id=int(answer),
    )


def toy_corpus(n, vocab_size=20, rng_seed=0):
    """Tiny answerable corpus: the answer token appears twice per document."""
    rng = np.random.default_rng(rng_seed)
    samples = []
    for _ in range(n):
        answer = int(rng.integers(12, vocab_size))
        filler = rng.integers(12, vocab_size, size=6)
        doc = np.concatenate([[answer], filler[:3], [answer], filler[3:]])
        query = np.array([filler[0], 1, filler[1]])
        samples.append(encoded_sample(doc, query, answer))
    return samples


class TestMakeBatches:
    def test_partition_sizes(self):
        samples = toy_corpus(70)
        batches = train.make_batches(samples, 32, np.random.default_rng(0))
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_deterministic_given_seed(self):
        samples = toy_corpus(10)
        a = train.make_batches(samples, 4, np.random.default_rng(5))
        b = train.make_batches(samples, 4, np.random.default_rng(5))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert [id(s) for s in x] == [id(s) for s in y]

    def test_rejects_answer_missing_from_document(self):
        """Only a hand-built sample can lack its answer: the loss refuses it."""
        bad = encoded_sample([13, 14], [13, 1], 15)
        config = train.TrainConfig(embed_dim=4, hidden_dim=4, epochs=1)
        with pytest.raises(ValidationError, match="answer id 15"):
            train.train(config, toy_corpus(3) + [bad], toy_corpus(2), vocab_size=20)


class FixedWords:
    """Stub batch output carrying fixed word distributions, one dict per sample."""

    def __init__(self, *dists: dict[int, float]):
        ids = [sorted(d) for d in dists]
        self.words = reader.WordDistribution(
            probs=Tensor([d[i] for d, row in zip(dists, ids) for i in row], requires_grad=True),
            token_ids=np.array([i for row in ids for i in row]),
            offsets=np.cumsum([0] + [len(row) for row in ids]),
        )

    def __len__(self):
        return len(self.words.offsets) - 1


class TestNllLoss:
    def test_half_probability_gives_ln2(self):
        loss = train.nll_loss(FixedWords({5: 0.5, 6: 0.5}), [5])
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_batch_of_two_hand_arithmetic(self):
        loss = train.nll_loss(FixedWords({5: 0.5, 6: 0.5}, {7: 0.25, 8: 0.75}), [5, 7])
        expected = (math.log(2) + math.log(4)) / 2
        assert abs(float(loss.data) - expected) < 1e-12
        assert abs(float(loss.data) - 1.039721) < 1e-6

    def test_zero_loss_is_the_infimum(self):
        almost_sure = train.nll_loss(FixedWords({5: 1.0 - 1e-12, 6: 1e-12}), [5])
        assert 0.0 < float(almost_sure.data) < 1e-9

    def test_missing_answer_is_contract_violation(self):
        with pytest.raises(ValidationError):
            train.nll_loss(FixedWords({5: 1.0}), [6])


class TestClipGradients:
    def test_norm_twice_threshold_halves(self):
        grads = {"a": np.array([12.0, 16.0])}  # norm 20
        clipped, norm = train.clip_gradients(grads, 10.0)
        assert norm == 20.0
        np.testing.assert_allclose(clipped["a"], [6.0, 8.0])

    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([3.0])}
        clipped, norm = train.clip_gradients(grads, 10.0)
        assert norm == 3.0
        np.testing.assert_array_equal(clipped["a"], [3.0])

    def test_two_blocks_hand_computed(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0, 0.0])}
        clipped, norm = train.clip_gradients(grads, 2.5)
        assert norm == 5.0
        np.testing.assert_allclose(clipped["a"], [1.5, 2.0])
        np.testing.assert_array_equal(clipped["b"], [0.0, 0.0])

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(2)
        grads = {f"p{i}": rng.normal(size=(4, 4)) * 50 for i in range(3)}
        clipped, _ = train.clip_gradients(grads, 10.0)
        total = math.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
        assert total <= 10.0 + 1e-9

    def test_nonfinite_gradient_names_parameter(self):
        with pytest.raises(NumericError, match="bad_param"):
            train.clip_gradients({"bad_param": np.array([np.nan])}, 10.0)

    def test_overflowing_norm_raises_instead_of_zeroing(self):
        """Finite gradients whose squares overflow: the norm is not finite, and
        scaling by threshold / inf would zero them."""
        with pytest.raises(NumericError, match="'w'"):
            train.clip_gradients({"w": np.array([1e200, 1.0])}, 10.0)
        # Each square (1e308) is finite; their running sum is not.
        with pytest.raises(NumericError, match="'b'"):
            train.clip_gradients({"a": np.array([1e154]), "b": np.array([1e154])}, 10.0)


class TestAdamStep:
    def test_first_step_magnitude(self):
        params = {"w": Tensor(np.zeros(4), requires_grad=True)}
        state = train.AdamState.init(params, lr=0.0005)
        train.adam_step(params, {"w": np.ones(4)}, state)
        expected = -0.0005 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(params["w"].data, np.full(4, expected), atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        params = {"w": Tensor(np.full(3, 0.7), requires_grad=True)}
        state = train.AdamState.init(params, lr=0.01)
        for _ in range(5):
            train.adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["w"].data, np.full(3, 0.7))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=5)
        pos = {"w": Tensor(np.zeros(5), requires_grad=True)}
        neg = {"w": Tensor(np.zeros(5), requires_grad=True)}
        train.adam_step(pos, {"w": g}, train.AdamState.init(pos, lr=0.01))
        train.adam_step(neg, {"w": -g}, train.AdamState.init(neg, lr=0.01))
        np.testing.assert_allclose(pos["w"].data, -neg["w"].data, atol=1e-15)

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = train.AdamState.init(params, lr=0.01)
        with pytest.raises(ConfigurationError):
            train.adam_step(params, {"w": np.zeros(4)}, state)


def reference_clip_and_adam(params, grads, m, v, t, threshold, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The optimizer as first written, with temporaries: the oracle for the in-place one."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    scale = threshold / norm if norm > threshold else None
    for name, p in params.items():
        g = grads[name] * scale if scale is not None else grads[name].copy()
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * (g * g)
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestInPlaceOptimizer:
    def test_bit_identical_to_reference_over_mixed_clipped_steps(self):
        rng = np.random.default_rng(8)
        shapes = {"emb": (3001, 7), "w": (6, 6), "b": (6,)}  # emb spans two Adam blocks
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
        state = train.AdamState.init(params, lr=3e-3)
        ref = {k: a.copy() for k, a in start.items()}
        ref_m = {k: np.zeros(shape) for k, shape in shapes.items()}
        ref_v = {k: np.zeros(shape) for k, shape in shapes.items()}
        clipped_steps = 0
        for step in range(1, 21):
            scale = 20.0 if step % 3 == 0 else 0.05
            grads = {k: rng.normal(size=shape) * scale for k, shape in shapes.items()}
            clipped, norm = train.clip_gradients(grads, 10.0)
            clipped_steps += norm > 10.0
            train.adam_step(params, clipped, state)
            reference_clip_and_adam(ref, grads, ref_m, ref_v, step, 10.0, 3e-3)
            for k in shapes:
                np.testing.assert_array_equal(params[k].data, ref[k])
                np.testing.assert_array_equal(state.m[k], ref_m[k])
                np.testing.assert_array_equal(state.v[k], ref_v[k])
        assert 0 < clipped_steps < 20

    def test_under_threshold_returns_the_same_arrays(self):
        grads = {"a": np.array([3.0]), "b": np.array([0.5, 0.5])}
        clipped, _ = train.clip_gradients(grads, 10.0)
        assert all(clipped[k] is grads[k] for k in grads)


class TestRowSparseOptimizer:
    # 3001 rows fill two Adam blocks. At 20,000 rows of 8 a block holds 2048 rows,
    # so the warm-row pass both updates spans in place and gathers scattered rows.
    @pytest.mark.parametrize("table", [(3001, 7), (20_000, 8)], ids=["3001x7", "20000x8"])
    def test_matches_dense_formula_over_changing_rows(self, table):
        rng = np.random.default_rng(9)
        shapes = {"emb": table, "w": (6, 6), "b": (6,)}
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
        state = train.AdamState.init(params, lr=3e-3)
        ref = {k: a.copy() for k, a in start.items()}
        ref_m = {k: np.zeros(shape) for k, shape in shapes.items()}
        ref_v = {k: np.zeros(shape) for k, shape in shapes.items()}
        touched = np.zeros(table[0], dtype=bool)
        clipped_steps = 0
        for step in range(1, 21):
            scale = 4.0 if step % 3 == 0 else 1 / 64

            def dyadic(shape):
                # Multiples of a power of two: every sum of squares is exact, so the
                # row-sparse and dense norms, and hence the clip scale, agree bit for bit.
                return rng.integers(-64, 65, size=shape) / 64 * scale

            if step == 4:  # a dense run of rows among scattered ones
                rows = np.arange(table[0] // 4, table[0] // 2)
            elif step == 12:  # every row, after which every row is warm
                rows = np.arange(table[0])
            else:
                rows = np.unique(rng.integers(0, table[0], size=int(rng.integers(1, 400))))
            touched[rows] = True
            grads = {"emb": T.RowGrad(rows, dyadic((len(rows), table[1])), table)}
            grads.update({k: dyadic(shapes[k]) for k in ("w", "b")})
            dense = {k: g.dense() if isinstance(g, T.RowGrad) else g for k, g in grads.items()}
            clipped, norm = train.clip_gradients(grads, 10.0)
            clipped_steps += norm > 10.0
            assert isinstance(clipped["emb"], T.RowGrad)
            train.adam_step(params, clipped, state)
            reference_clip_and_adam(ref, dense, ref_m, ref_v, step, 10.0, 3e-3)
            for k in shapes:
                np.testing.assert_array_equal(params[k].data, ref[k])
                np.testing.assert_array_equal(state.m[k], ref_m[k])
                np.testing.assert_array_equal(state.v[k], ref_v[k])
            np.testing.assert_array_equal(state.warm["emb"], touched)
        assert 0 < clipped_steps < 20

    def test_dense_steps_between_row_grads_keep_the_dense_formula(self):
        """A dense gradient warms every row, also for the row-sparse steps after it."""
        rng = np.random.default_rng(13)
        start = rng.normal(size=(50, 3))
        params = {"emb": Tensor(start.copy(), requires_grad=True)}
        state = train.AdamState.init(params, lr=3e-3)
        ref, ref_m, ref_v = {"emb": start.copy()}, {"emb": np.zeros((50, 3))}, {"emb": np.zeros((50, 3))}
        steps = [T.RowGrad(np.array([1, 7]), np.ones((2, 3)), (50, 3)), np.full((50, 3), -0.5),
                 T.RowGrad(np.array([40]), np.ones((1, 3)), (50, 3)), T.RowGrad(np.array([2]), np.ones((1, 3)), (50, 3))]
        for step, g in enumerate(steps, start=1):
            train.adam_step(params, {"emb": g}, state)
            dense = g.dense() if isinstance(g, T.RowGrad) else g
            reference_clip_and_adam(ref, {"emb": dense}, ref_m, ref_v, step, 1e6, 3e-3)  # no clipping
            np.testing.assert_array_equal(params["emb"].data, ref["emb"])
            np.testing.assert_array_equal(state.m["emb"], ref_m["emb"])
            np.testing.assert_array_equal(state.v["emb"], ref_v["emb"])

    def test_clip_norm_within_rounding_of_dense(self):
        rng = np.random.default_rng(10)
        rows = np.unique(rng.integers(0, 20_000, size=3000))
        emb = T.RowGrad(rows, rng.normal(size=(len(rows), 16)), (20_000, 16))
        w = rng.normal(size=(16, 16))
        clipped, norm = train.clip_gradients({"emb": emb, "w": w}, 1.0)
        dense = emb.dense()
        expected = math.sqrt(float((dense * dense).sum()) + float((w * w).sum()))
        assert abs(norm - expected) <= 1e-12 * expected
        np.testing.assert_array_equal(clipped["emb"].rows, rows)
        np.testing.assert_array_equal(clipped["emb"].dense(), dense * (1.0 / norm))

    def test_non_finite_row_grad_names_parameter(self):
        emb = T.RowGrad(np.array([2]), np.array([[np.inf, 0.0]]), (5, 2))
        with pytest.raises(NumericError, match="embedding"):
            train.clip_gradients({"embedding": emb}, 10.0)

    def test_reader_backward_gives_embedding_the_batch_rows(self):
        rng = np.random.default_rng(12)
        samples = []
        for doc_len, query_len in ((30, 5), (12, 2), (21, 7), (3, 1)):  # unequal: padded batches
            doc = rng.integers(1, 5000, size=doc_len)
            samples.append(encoded_sample(doc, rng.integers(1, 5000, size=query_len), doc[0]))
        params = reader.init_model_params(
            train.TrainConfig(embed_dim=6, hidden_dim=5, merge_mode="avg"), 5000, np.random.default_rng(0)
        )
        output = reader.forward(samples, params, training=False)
        train.nll_loss(output, [s.answer_id for s in samples]).backward()
        grad = params.embedding.grad
        assert isinstance(grad, T.RowGrad)
        ids = np.concatenate([np.concatenate([s.doc_ids, s.query_ids]) for s in samples])
        np.testing.assert_array_equal(grad.rows, np.unique(ids))
        assert grad.values.shape == (len(grad.rows), 6)


needs_nohugepage = pytest.mark.skipif(
    not hasattr(train.mmap, "MADV_NOHUGEPAGE"), reason="no MADV_NOHUGEPAGE on this platform"
)


def smaps_entries(array):
    """[(perms, {field: kB})] of the /proc/self/smaps mappings that overlap `array`'s bytes."""
    start = array.ctypes.data
    end = start + array.nbytes
    entries = []
    for line in Path("/proc/self/smaps").read_text().splitlines():
        head = line.split()
        if ":" not in head[0]:  # a mapping's header: "lo-hi perms offset dev inode [path]"
            lo, hi = (int(x, 16) for x in head[0].split("-"))
            overlaps = lo < end and start < hi
            if overlaps:
                entries.append((head[1], {}))
        elif overlaps and head[-1] == "kB":
            entries[-1][1][head[0].rstrip(":")] = int(head[1])
    return entries


class TestAdamMoments:
    def test_moments_look_like_numpy_zeros(self):
        params = {"emb": Tensor(np.ones((300, 5)), requires_grad=True), "b": Tensor(np.ones(3), requires_grad=True)}
        state = train.AdamState.init(params, lr=0.01)
        for name, p in params.items():
            m, v = state.m[name], state.v[name]
            for moment in (m, v):
                assert moment.shape == p.data.shape and moment.dtype == np.float64
                assert moment.flags.c_contiguous and moment.flags.writeable
                assert not moment.any()
            assert not np.shares_memory(m, v)
            assert not np.shares_memory(m, p.data) and not np.shares_memory(v, p.data)

    def test_zero_size_parameter_gets_zero_size_zeros(self):
        state = train.AdamState.init({"w": Tensor(np.zeros((0, 4)), requires_grad=True)}, lr=0.01)
        for moment in (state.m["w"], state.v["w"]):
            assert moment.shape == (0, 4) and moment.dtype == np.float64

    @needs_nohugepage
    def test_refused_mapping_is_a_memory_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(train.mmap, "mmap", refuse)
        with pytest.raises(MemoryError):
            train.AdamState.init({"w": Tensor(np.zeros((4, 4)), requires_grad=True)}, lr=0.01)

    @needs_nohugepage
    def test_kernel_without_huge_pages_still_gets_moments(self, monkeypatch):
        class NoHugePages(train.mmap.mmap):
            def madvise(self, *args):
                raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(train.mmap, "mmap", NoHugePages)
        state = train.AdamState.init({"w": Tensor(np.zeros((4, 4)), requires_grad=True)}, lr=0.01)
        assert not state.m["w"].any() and not state.v["w"].any()

    @needs_nohugepage
    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="no /proc/self/smaps")
    def test_untouched_rows_stay_unbacked(self):
        shape = (32_768, 256)  # 64 MB per moment: 32 huge-page regions
        params = {"emb": Tensor(np.zeros(shape), requires_grad=True)}
        state = train.AdamState.init(params, lr=0.01)
        rows = np.arange(8) * (shape[0] // 8) + 17  # one row in every eighth of the table
        train.adam_step(params, {"emb": T.RowGrad(rows, np.ones((8, shape[1])), shape)}, state)
        assert state.m["emb"][rows].all()
        entries = smaps_entries(state.m["emb"])
        assert entries and all(perms.endswith("p") for perms, _ in entries)
        assert sum(sizes["AnonHugePages"] for _, sizes in entries) == 0
        assert sum(sizes["Rss"] for _, sizes in entries) < 1024


def one_training_step(params, samples, lr):
    named = params.named()
    for p in named.values():
        p.zero_grad()
    output = reader.forward(samples, params, training=False)
    loss = train.nll_loss(output, [s.answer_id for s in samples])
    loss.backward()
    grads = {k: T._dense_grad(p).copy() for k, p in named.items()}
    clipped, _ = train.clip_gradients(grads, 10.0)
    state = train.AdamState.init(named, lr=lr)
    train.adam_step(named, clipped, state)
    return float(loss.data)


class TestTrainingDynamics:
    def test_single_step_decreases_loss_on_same_batch(self):
        samples = toy_corpus(8, rng_seed=4)
        for rep in range(5):
            params = reader.init_model_params(
                train.TrainConfig(embed_dim=8, hidden_dim=8, merge_mode="avg"), 20, np.random.default_rng(100 + rep)
            )
            before = one_training_step(params, samples, lr=1e-4)
            output = reader.forward(samples, params, training=False)
            after = float(train.nll_loss(output, [s.answer_id for s in samples]).data)
            assert after < before

    def test_validation_is_side_effect_free(self):
        samples = toy_corpus(6, rng_seed=5)
        params = reader.init_model_params(
            train.TrainConfig(embed_dim=8, hidden_dim=8, merge_mode="avg"), 20, np.random.default_rng(7)
        )
        before = {k: p.data.copy() for k, p in params.named().items()}
        acc1 = train._validation_accuracy(params, samples)
        acc2 = train._validation_accuracy(params, samples)
        assert acc1 == acc2
        for k, p in params.named().items():
            np.testing.assert_array_equal(p.data, before[k])


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("embed_dim", "16"), ("epochs", 1.5), ("batch_size", True), ("merge_mode", None),
            ("lr", None), ("seed", -1), ("beta1", 1.0), ("beta2", -0.1), ("lr", float("nan")),
            ("lr", 0.0), ("clip_threshold", float("inf")), ("epsilon", -1e-8), pytest.param("lr", 10**400, id="lr-huge-int"),
            ("dropout_rate", 1.0), ("merge_mode", "median"), ("hidden_dim", 0),
        ],
    )
    def test_invalid_field_is_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            train.TrainConfig(**{field: value})

    def test_ints_pass_for_floats_and_none_only_where_annotated(self):
        config = train.TrainConfig(lr=1, clip_threshold=5, beta1=0, shortlist_size=None)
        assert (config.lr, config.clip_threshold, config.beta1) == (1.0, 5.0, 0.0)
        assert all(type(getattr(config, name)) is float for name in ("lr", "clip_threshold", "beta1"))

    def test_presets_pass(self):
        for preset in train.PRESETS.values():
            assert train.TrainConfig(**preset.__dict__) == preset

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("embed_dim", 0, "embed_dim and hidden_dim must be positive"),
            ("hidden_dim", 0, "embed_dim and hidden_dim must be positive"),
            ("dropout_rate", 1.0, "dropout_rate must be in [0, 1), got 1.0"),
            ("merge_mode", "mean", "merge_mode must be one of ('sum', 'avg', 'max', 'as-baseline'), got 'mean'"),
        ],
        ids=["embed_dim", "hidden_dim", "dropout_rate", "merge_mode"],
    )
    def test_model_field_checks_are_configuration_errors(self, field, value, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            train.TrainConfig(**{field: value})


class TestTrainLoop:
    def config(self, **kw):
        base = dict(embed_dim=8, hidden_dim=8, epochs=2, batch_size=8, seed=11, merge_mode="avg")
        base.update(kw)
        return train.TrainConfig(**base)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            self.config(epochs=0)

    def test_whole_run_determinism(self):
        corpus = toy_corpus(24, rng_seed=6)
        valid = toy_corpus(8, rng_seed=7)
        a = train.train(self.config(), corpus, valid, vocab_size=20)
        b = train.train(self.config(), corpus, valid, vocab_size=20)
        assert [deterministic_fields(r) for r in a.history] == [
            deterministic_fields(r) for r in b.history
        ]
        for k, p in a.params.named().items():
            np.testing.assert_array_equal(p.data, b.params.named()[k].data)

    def test_best_checkpoint_selection_prefers_earlier_tie(self):
        corpus = toy_corpus(16, rng_seed=8)
        valid = toy_corpus(6, rng_seed=9)
        result = train.train(self.config(epochs=3), corpus, valid, vocab_size=20)
        accs = [r.valid_accuracy for r in result.history]
        best = max(accs)
        assert result.best_epoch == accs.index(best) + 1
        assert result.best_accuracy == best

    @pytest.mark.parametrize(
        "accuracies, best_epoch", [([0.25, 0.75, 0.5], 2), ([0.5, 0.5, 0.25], 1), ([0.25, 0.5, 0.75], 3)]
    )
    def test_returns_the_best_epochs_parameters_without_gradients(self, monkeypatch, accuracies, best_epoch):
        """An earlier best epoch comes back as its snapshot, a best last epoch as the trained tensors;
        the run of `best_epoch` epochs, whose last epoch is its best, has the same parameters."""
        corpus, valid = toy_corpus(24, rng_seed=6), toy_corpus(8, rng_seed=7)
        scripted = []
        monkeypatch.setattr(train, "_validation_accuracy", lambda params, samples: scripted.pop(0))
        results = []
        for epochs in (3, best_epoch):
            scripted[:] = accuracies[:epochs]
            results.append(train.train(self.config(epochs=epochs), corpus, valid, vocab_size=20))
        full, short = results
        assert (full.best_epoch, full.best_accuracy) == (best_epoch, accuracies[best_epoch - 1])
        assert len(full.history) == 3 and not full.aborted
        for k, p in full.params.named().items():
            np.testing.assert_array_equal(p.data, short.params.named()[k].data)
        assert all(p.grad is None for r in results for p in r.params.named().values())

    def test_each_step_frees_the_previous_steps_graph(self, monkeypatch):
        """When a forward starts, no earlier training step's output is alive. A `Tensor` takes no weak
        reference, so the test watches its array, which lives at least as long as the tensor."""
        real_forward = reader.forward
        outputs = []

        def watched_forward(samples, params, training=False, **kw):
            assert all(ref() is None for ref in outputs)
            out = real_forward(samples, params, training=training, **kw)
            if training:
                outputs.append(weakref.ref(out.words.probs.data))
            return out

        monkeypatch.setattr(reader, "forward", watched_forward)
        train.train(self.config(epochs=2), toy_corpus(24, rng_seed=6), toy_corpus(8, rng_seed=7), vocab_size=20)
        assert len(outputs) == 6

    def test_empty_sets_rejected(self):
        with pytest.raises(UsageError):
            train.train(self.config(), [], toy_corpus(2), vocab_size=20)

    def test_id_outside_the_embedding_is_a_dimension_error(self):
        """An id the embedding has no row for is a typed error (exit 2), not a builtin IndexError."""
        samples = [encoded_sample([13, 30, 13], [1, 14], 13)]
        with pytest.raises(DimensionError, match="row index out of range for 20 rows: 30"):
            train.train(train.TrainConfig(epochs=1, batch_size=1), samples, samples, vocab_size=20)

    @pytest.mark.parametrize("fault", ["loss", "gradient", "overflow"])
    def test_non_finite_step_aborts_with_best_snapshot(self, monkeypatch, fault):
        corpus, valid = toy_corpus(24, rng_seed=6), toy_corpus(8, rng_seed=7)
        clean = train.train(self.config(epochs=1), corpus, valid, vocab_size=20)
        poison_step = 3 + 2  # batch 8 over 24 samples: the second step of epoch 2
        real_loss = train.nll_loss
        calls = []

        def poisoned_loss(output, answer_ids):
            loss = real_loss(output, answer_ids)
            calls.append(1)
            if len(calls) != poison_step:
                return loss
            if fault == "loss":
                return T.mul(loss, np.nan)
            if fault == "overflow":
                return T.mul(T.mul(loss, 1e200), 1e200)  # overflows: FloatingPointError inside train's errstate
            out = Tensor(loss.data.copy())
            return T._record(out, (loss,), "poison", lambda g: T._accumulate(loss, g * np.nan))

        monkeypatch.setattr(train, "nll_loss", poisoned_loss)
        result = train.train(self.config(epochs=3), corpus, valid, vocab_size=20)
        assert len(calls) == poison_step
        assert result.aborted
        assert [r.epoch for r in result.history] == [1]
        assert result.best_epoch == 1
        assert deterministic_fields(result.history[0]) == deterministic_fields(clean.history[0])
        for k, p in result.params.named().items():
            np.testing.assert_array_equal(p.data, clean.params.named()[k].data)

    def test_overflow_on_the_scan_worker_aborts_with_best_snapshot(self, monkeypatch):
        """An overflow in the reverse direction's scan, on its worker thread,
        raises inside train's errstate and aborts like any other."""
        corpus, valid = toy_corpus(24, rng_seed=6), toy_corpus(8, rng_seed=7)
        clean = train.train(self.config(epochs=1), corpus, valid, vocab_size=20)
        monkeypatch.setattr(nn, "_concurrent", lambda batch, hidden: True)
        real_scan, real_adam = nn._scan, train.adam_step
        steps, overflowed_on = [], []

        def counted_adam(*args):
            steps.append(1)
            return real_adam(*args)

        def poisoned_scan(x, keep, params, reverse, out, needs_grad):
            if reverse and len(steps) == 4:  # the second step of epoch 2 (batch 8 over 24 samples)
                overflowed_on.append(threading.current_thread())
                np.multiply(np.float64(1e308), 10.0)
            return real_scan(x, keep, params, reverse, out, needs_grad)

        monkeypatch.setattr(train, "adam_step", counted_adam)
        monkeypatch.setattr(nn, "_scan", poisoned_scan)
        result = train.train(self.config(epochs=3), corpus, valid, vocab_size=20)
        assert len(overflowed_on) == 1 and overflowed_on[0] is not threading.main_thread()
        assert result.aborted and len(steps) == 4
        assert [r.epoch for r in result.history] == [1]
        assert result.best_epoch == 1
        assert deterministic_fields(result.history[0]) == deterministic_fields(clean.history[0])
        for k, p in result.params.named().items():
            np.testing.assert_array_equal(p.data, clean.params.named()[k].data)

    def test_gradient_telemetry_matches_step_norms_and_changes_nothing(self, monkeypatch, tmp_path):
        corpus, valid = toy_corpus(24, rng_seed=6), toy_corpus(8, rng_seed=7)
        config = self.config(epochs=3, clip_threshold=4e-4)
        silent = train.train(config, corpus, valid, vocab_size=20)
        real_clip = train.clip_gradients
        norms = []

        def recording_clip(grads, threshold):
            clipped, norm = real_clip(grads, threshold)
            norms.append(norm)
            return clipped, norm

        monkeypatch.setattr(train, "clip_gradients", recording_clip)
        log_path = tmp_path / "training_log.jsonl"
        logged = train.train(config, corpus, valid, vocab_size=20, log_path=log_path)
        assert [deterministic_fields(r) for r in logged.history] == [
            deterministic_fields(r) for r in silent.history
        ]
        for k, p in logged.params.named().items():
            np.testing.assert_array_equal(p.data, silent.params.named()[k].data)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        steps = len(norms) // len(records)  # batch 8 over 24 samples
        assert steps == 3 and len(records) == 3
        for i, record in enumerate(records):
            epoch_norms = norms[i * steps : (i + 1) * steps]
            assert record["grad_norm_max"] == max(epoch_norms)
            assert record["clip_rate"] == sum(n > 4e-4 for n in epoch_norms) / steps
            assert record["grad_norm_max"] == logged.history[i].grad_norm_max
            assert record["clip_rate"] == logged.history[i].clip_rate
        assert 0 < sum(r["clip_rate"] for r in records) < len(records)

    def test_non_finite_gradient_in_first_epoch_raises(self, monkeypatch):
        real_loss = train.nll_loss

        def poisoned_loss(output, answer_ids):
            loss = real_loss(output, answer_ids)
            out = Tensor(loss.data.copy())
            return T._record(out, (loss,), "poison", lambda g: T._accumulate(loss, g * np.nan))

        monkeypatch.setattr(train, "nll_loss", poisoned_loss)
        with pytest.raises(NumericError, match="first epoch"):
            train.train(self.config(), toy_corpus(8), toy_corpus(4, rng_seed=1), vocab_size=20)


def training_graph_size(doc_len, batch_size=4):
    """Autodiff nodes reachable from one training loss over `batch_size`
    samples with documents of up to `doc_len` tokens (lengths differ, so the
    batch is padded)."""
    rng = np.random.default_rng(doc_len)
    samples = [
        encoded_sample(np.concatenate([[15], rng.integers(12, 20, doc_len - 1 - i % 3)]), [13, 1, 14][: 1 + i % 3], 15)
        for i in range(batch_size)
    ]
    config = train.TrainConfig(embed_dim=6, hidden_dim=5, dropout_rate=0.1, merge_mode="avg")
    params = reader.init_model_params(config, 20, np.random.default_rng(0))
    output = reader.forward(samples, params, training=True, rng=rng)
    return len(T._topo_order(train.nll_loss(output, [s.answer_id for s in samples])))


def test_training_graph_size_does_not_grow_with_document_length():
    sizes = [training_graph_size(n) for n in (10, 20, 40)]
    assert sizes == [60] * 3


def test_training_graph_size_does_not_grow_with_batch_size():
    sizes = [training_graph_size(20, batch_size=b) for b in (1, 4, 16)]
    assert sizes == [60] * 3


class TestCheckpoint:
    def roundtrip(self, tmp_path):
        from casreader.vocab import build_vocab

        config = train.TrainConfig(embed_dim=4, hidden_dim=4, epochs=1, seed=3)
        params = reader.init_model_params(config, 14, np.random.default_rng(1))
        named = params.named()
        state = train.AdamState.init(named, lr=config.lr)
        rng = np.random.default_rng(2)
        train.adam_step(named, {k: rng.normal(size=p.data.shape) for k, p in named.items()}, state)
        vocab = build_vocab(["a", "b", "a"], shortlist_size=2)
        train.save_checkpoint(params, None, config, tmp_path / "ckpt", vocab=vocab)
        return params, config, train.load_checkpoint(tmp_path / "ckpt")

    def test_bit_exact_roundtrip(self, tmp_path):
        params, config, loaded = self.roundtrip(tmp_path)
        for k, p in params.named().items():
            np.testing.assert_array_equal(p.data, loaded.params.named()[k].data)
        assert loaded.params.config == config

    def test_vocab_travels_with_checkpoint(self, tmp_path):
        _, _, loaded = self.roundtrip(tmp_path)
        assert loaded.vocab.total_size == 14

    def test_truncated_params_names_parameter(self, tmp_path):
        self.roundtrip(tmp_path)
        blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
        (tmp_path / "ckpt" / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(CorruptionError, match="query_bwd.b_h"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_trailing_bytes_detected(self, tmp_path):
        self.roundtrip(tmp_path)
        with open(tmp_path / "ckpt" / "params.bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(CorruptionError, match="params.bin: trailing"):
            train.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("part", ["params.bin", "vocab.txt", "manifest.txt"])
    def test_missing_binary_is_corruption_naming_it(self, tmp_path, part):
        self.roundtrip(tmp_path)
        (tmp_path / "ckpt" / part).unlink()
        with pytest.raises(CorruptionError, match=f"no {part} under"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_oversized_model_fails_before_allocating(self, tmp_path):
        """A manifest consistent with its config and vocabulary but far larger
        than params.bin is caught by the size check, before any array exists."""
        _, config, _ = self.roundtrip(tmp_path)
        huge = train.TrainConfig(**dict(config.__dict__, embed_dim=10**15))
        lines = train._manifest_lines(huge, 14, reader.param_layout(huge, 14))
        (tmp_path / "ckpt" / "manifest.txt").write_text("\n".join([train._MANIFEST_FORMAT] + lines) + "\n")
        with pytest.raises(CorruptionError, match="params.bin: truncated at parameter 'embedding'"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_negative_vocab_size_is_corruption(self, tmp_path):
        """A negative `vocab_size` with the embedding shape to match is consistent with
        itself; params.bin cut to what the negative shape adds up to (the GRU bytes minus
        48) passes the size check, so only the vocabulary size that `vocab.txt` gives catches it."""
        from casreader.vocab import build_vocab

        config = train.TrainConfig(embed_dim=2, hidden_dim=2)
        params = reader.init_model_params(config, 14, np.random.default_rng(0))
        ckpt = tmp_path / "ckpt"
        train.save_checkpoint(params, None, config, ckpt, vocab=build_vocab(["a", "b", "a"], shortlist_size=2))
        manifest = ckpt / "manifest.txt"
        text = manifest.read_text().replace("vocab_size\t14\n", "vocab_size\t-3\n")
        manifest.write_text(text.replace("embedding\t14,2", "embedding\t-3,2"))
        blob = (ckpt / "params.bin").read_bytes()
        (ckpt / "params.bin").write_bytes(blob[8 * 14 * 2 + 48 :])
        with pytest.raises(CorruptionError, match=r"manifest has 'vocab_size\\t-3' where save_checkpoint writes"):
            train.load_checkpoint(ckpt)

    def test_save_refuses_params_that_do_not_fit(self, tmp_path):
        """Params sized for another vocabulary, or under another config, would
        make a checkpoint that `load_checkpoint` rejects: saving writes nothing."""
        from casreader.vocab import build_vocab

        vocab = build_vocab(["a", "b", "c", "d", "e"], shortlist_size=None)  # 17 ids
        config = train.TrainConfig(embed_dim=8, hidden_dim=3)
        for embed_dim, vocab_size, got, want in [
            (8, 15, ("embedding", (15, 8)), ("embedding", (17, 8))),
            (4, 17, ("embedding", (17, 4)), ("embedding", (17, 8))),
        ]:
            params = reader.init_model_params(
                train.TrainConfig(embed_dim=embed_dim, hidden_dim=3), vocab_size, np.random.default_rng(0)
            )
            message = f"parameter {got} does not fit the config and vocabulary, which need {want}"
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                train.save_checkpoint(params, None, config, tmp_path / "ckpt", vocab=vocab)
            assert not (tmp_path / "ckpt").exists()

    def test_save_refuses_a_config_other_than_the_parameters(self, tmp_path):
        """A manifest's `merge_mode` picks the head `eval` reads by default, so a config
        that is not the one the parameters carry would change it silently: saving writes nothing."""
        import dataclasses

        from casreader.vocab import build_vocab

        config = train.TrainConfig(embed_dim=2, hidden_dim=2, merge_mode="avg")
        params = reader.init_model_params(config, 14, np.random.default_rng(0))
        other = dataclasses.replace(config, merge_mode="as-baseline")
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        with pytest.raises(ConfigurationError, match="merge_mode='as-baseline'"):
            train.save_checkpoint(params, None, other, ckpt, vocab=build_vocab(["a", "b", "a"], shortlist_size=2))
        assert list(ckpt.iterdir()) == []

    def test_save_refuses_an_unsaveable_vocabulary_before_writing(self, tmp_path):
        """A token `save_vocab` refuses used to leave a manifest and params.bin without
        the vocab.txt that `load_checkpoint` needs."""
        from casreader.vocab import Vocabulary

        vocab = Vocabulary(tokens=["ok", "bad\ttoken"], frequencies=[2, 1], shortlist_size=None)
        config = train.TrainConfig(embed_dim=2, hidden_dim=2)
        params = reader.init_model_params(config, vocab.total_size, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="not representable"):
            train.save_checkpoint(params, None, config, tmp_path / "ckpt", vocab=vocab)
        assert list((tmp_path / "ckpt").iterdir()) == []

    def test_vocab_size_mismatch_is_corruption(self, tmp_path):
        from casreader.vocab import build_vocab, save_vocab

        self.roundtrip(tmp_path)
        wrong = build_vocab(["x", "y", "z", "x"], shortlist_size=3)
        save_vocab(wrong, tmp_path / "ckpt" / "vocab.txt")
        with pytest.raises(CorruptionError, match=r"'vocab_size\\t14' where save_checkpoint writes 'vocab_size\\t15'"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_loaded_checkpoint_is_a_private_copy(self, tmp_path):
        """Loaded parameters map params.bin copy-on-write: writing into them leaves the file
        as it was, and a later save into the same directory replaces the file, so arrays
        loaded before it keep their values."""
        _, config, loaded = self.roundtrip(tmp_path)
        ckpt = tmp_path / "ckpt"
        blob = (ckpt / "params.bin").read_bytes()
        loaded.params.embedding.data[:] = 7.0
        assert (ckpt / "params.bin").read_bytes() == blob
        held = train.load_checkpoint(ckpt).params.named()
        before = {name: p.data.copy() for name, p in held.items()}
        other = reader.init_model_params(config, 14, np.random.default_rng(9))
        train.save_checkpoint(other, None, config, ckpt, vocab=loaded.vocab)
        for name, p in held.items():
            np.testing.assert_array_equal(p.data, before[name])
        np.testing.assert_array_equal(train.load_checkpoint(ckpt).params.embedding.data, other.embedding.data)

    def test_save_replaces_files(self, tmp_path):
        """A save over a checkpoint leaves its three files and no temporaries; one refused
        for an unsaveable token leaves the earlier checkpoint byte-identical and loadable."""
        from casreader.vocab import Vocabulary

        params, config, loaded = self.roundtrip(tmp_path)
        ckpt = tmp_path / "ckpt"
        train.save_checkpoint(params, None, config, ckpt, vocab=loaded.vocab)
        files = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        assert sorted(files) == ["manifest.txt", "params.bin", "vocab.txt"]
        bad = Vocabulary(tokens=["a", "b\tc"], frequencies=[2, 1], shortlist_size=2)
        with pytest.raises(ValidationError, match="not representable"):
            train.save_checkpoint(params, None, config, ckpt, vocab=bad)
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == files
        assert train.load_checkpoint(ckpt).vocab == loaded.vocab

    def resave_same_size(self, tmp_path):
        """A checkpoint, its files' bytes, and a different vocabulary and parameters that fit
        the same config, so only vocab.txt and params.bin tell the two saves apart."""
        from casreader.vocab import build_vocab

        _, config, loaded = self.roundtrip(tmp_path)
        files = {p.name: p.read_bytes() for p in (tmp_path / "ckpt").iterdir()}
        other_vocab = build_vocab(["c", "d", "d"], shortlist_size=2)
        assert other_vocab.total_size == loaded.vocab.total_size and other_vocab != loaded.vocab
        other = reader.init_model_params(config, other_vocab.total_size, np.random.default_rng(9))
        return config, loaded, files, other, other_vocab

    def test_failed_params_write_changes_nothing(self, tmp_path, monkeypatch):
        """Every file is written and fsynced before any is renamed: a save that runs out of
        space in params.bin leaves the earlier checkpoint byte-identical, its vocabulary
        beside its weights, and no temporary. Renaming vocab.txt first would have loaded the
        old weights under the new token ids without an error."""
        config, loaded, files, other, other_vocab = self.resave_same_size(tmp_path)

        class FullDisk(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_full(file, mode="r", **kwargs):
            return FullDisk(file, "w") if Path(file).name == ".params.bin.tmp" else open(file, mode, **kwargs)

        monkeypatch.setattr(errors, "open", open_full, raising=False)
        with pytest.raises(OSError, match="No space left"):
            train.save_checkpoint(other, None, config, tmp_path / "ckpt", vocab=other_vocab)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (tmp_path / "ckpt").iterdir()} == files
        assert train.load_checkpoint(tmp_path / "ckpt").vocab == loaded.vocab

    def test_save_cut_between_renames_leaves_no_manifest(self, tmp_path, monkeypatch):
        """The old manifest is removed before the first rename, so a save cut short after
        vocab.txt is renamed but before params.bin is leaves a checkpoint that fails to
        load, not the new vocabulary under the old manifest and weights."""
        config, _, files, other, other_vocab = self.resave_same_size(tmp_path)
        ckpt = tmp_path / "ckpt"
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "params.bin":
                raise OSError(errno.EIO, "Input/output error")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="Input/output error"):
            train.save_checkpoint(other, None, config, ckpt, vocab=other_vocab)
        monkeypatch.undo()
        assert sorted(p.name for p in ckpt.iterdir()) == ["params.bin", "vocab.txt"]
        assert (ckpt / "params.bin").read_bytes() == files["params.bin"]
        with pytest.raises(CorruptionError, match="^no manifest.txt under "):
            train.load_checkpoint(ckpt)

    def test_empty_params_is_truncated(self, tmp_path):
        """An empty file cannot be mapped; the size check names it first."""
        self.roundtrip(tmp_path)
        (tmp_path / "ckpt" / "params.bin").write_bytes(b"")
        with pytest.raises(CorruptionError, match=r"^params.bin: truncated at parameter 'embedding' \(0 bytes\)$"):
            train.load_checkpoint(tmp_path / "ckpt")

    GOLDEN = Path(__file__).parent / "golden"

    def golden_checkpoint(self, path):
        """The checkpoint whose manifest is golden/manifest_v2.txt, with a vocabulary of its 14 ids."""
        from casreader.vocab import build_vocab

        config = train.TrainConfig(
            embed_dim=4, hidden_dim=3, merge_mode="max", lr=1e-3 / 3, shortlist_size=None
        )
        params = reader.init_model_params(config, 14, np.random.default_rng(0))
        train.save_checkpoint(params, None, config, path, vocab=build_vocab(["a", "b", "a"], shortlist_size=2))
        return config

    def test_golden_manifest_v2(self, tmp_path):
        config = self.golden_checkpoint(tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "manifest.txt").read_bytes() == (self.GOLDEN / "manifest_v2.txt").read_bytes()
        assert train.load_checkpoint(tmp_path / "ckpt").params.config == config

    def test_golden_manifest_v1(self, tmp_path):
        """A v1 checkpoint (its manifest has an `adam_t` line) loads to the
        v2 checkpoint's config and evaluates to the same report, with and
        without an adam.bin beside it."""
        from casreader.datagen import ClozeSample
        from casreader.evaluate import evaluate
        from casreader.vocab import PLACEHOLDER_TOKEN

        config = self.golden_checkpoint(tmp_path / "v2")
        v1 = tmp_path / "v1"
        v1.mkdir()
        (v1 / "manifest.txt").write_bytes((self.GOLDEN / "manifest_v1.txt").read_bytes())
        for part in ("params.bin", "vocab.txt"):
            (v1 / part).write_bytes((tmp_path / "v2" / part).read_bytes())
        samples = [
            ClozeSample(document=["a", "b", "a", "c"], query=[PLACEHOLDER_TOKEN, "b"], answer="a"),
            ClozeSample(document=["b", "c", "b"], query=["a", PLACEHOLDER_TOKEN], answer="c"),
        ]

        def report(path):
            loaded = train.load_checkpoint(path)
            assert loaded.params.config == config
            return evaluate(loaded.params, loaded.vocab, samples, keep_records=True).as_dict()

        expected = report(tmp_path / "v2")
        assert report(v1) == expected
        moments = np.random.default_rng(5).normal(size=2 * (v1 / "params.bin").stat().st_size // 8)
        (v1 / "adam.bin").write_bytes(moments.astype("<f8").tobytes())
        assert report(v1) == expected

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("embed_dim\t4", "embed_dim\tfour", "'embed_dim' has malformed value"),
            ("embed_dim\t4", "embed_dim\tnone", "'embed_dim' has malformed value"),
            ("param\tembedding\t14,4", "param\tembedding\t14,x", "layout"),
            ("param\tembedding\t14,4", "param\tembedding\t-14,4", "layout"),
            ("param\tembedding\t14,4", "param", "layout"),
            ("param\tembedding\t14,4", "param\tembedding\t014,4", "layout"),
            ("param\tdoc_fwd.w_z\t", "param\tdoc_fwd.w_q\t", "layout"),
            ("param\tdoc_fwd.w_z\t4,4\nparam\tdoc_fwd.w_r\t4,4",
             "param\tdoc_fwd.w_r\t4,4\nparam\tdoc_fwd.w_z\t4,4", "layout"),
            # Same element count, so params.bin has the right size: only the layout catches these.
            ("param\tdoc_fwd.u_z\t4,4", "param\tdoc_fwd.u_z\t2,8", "layout"),
            ("param\tdoc_fwd.b_z\t4\n", "param\tdoc_fwd.b_z\t2,2\n", "layout"),
            ("param\tembedding\t14,4", "param\tembedding\t7,8", "layout"),
            # Larger than params.bin: the layout rejects it before params.bin is opened.
            ("param\tdoc_fwd.w_z\t4,4", "param\tdoc_fwd.w_z\t1000000,1000000", "layout"),
            # Well-formed values that TrainConfig rejects: this program never writes them.
            ("seed\t3", "seed\t-1", "seed must be non-negative"),
            ("lr\t0.0005", "lr\tnan", "lr must be finite and positive"),
            ("beta1\t0.9", "beta1\t1.0", r"beta1 must be in \[0, 1\)"),
            # Lines this program never writes, some with values that parse: only the whole-manifest
            # comparison with what save_checkpoint writes catches these.
            ("seed\t3\n", "seed\t3\nseed\t5\n", "layout"),
            ("seed\t3\n", "seed\t3\nfoo\tbar\n", "layout"),
            ("seed\t3", "seed\t 3", "layout"),
            ("epsilon\t1e-08", "epsilon\t1_0e-08", "layout"),
            ("embed_dim\t4", "embed_dim\t\u0664", "layout"),
            ("seed\t3\n", "seed\t3\n\n", "layout"),
            ("lr\t0.0005", "lr\t5e-4", "layout"),
            ("epsilon\t1e-08\n", "epsilon\t1e-08\nadam_t\t1\n", "layout"),
        ],
        ids=["non-numeric-value", "none-for-required-value", "non-integer-shape", "negative-shape", "bare-param",
             "zero-padded-shape", "renamed-param", "reordered-params",
             "reshaped-recurrent", "reshaped-bias", "reshaped-embedding", "oversized-shape", "negative-seed", "nan-lr",
             "beta1-one", "duplicate-seed", "unknown-field", "padded-value", "underscored-float", "arabic-indic-digit", "blank-line",
             "non-canonical-float", "adam-step-in-v2"],
    )
    def test_malformed_manifest_is_corruption(self, tmp_path, old, new, message):
        self.roundtrip(tmp_path)
        manifest = tmp_path / "ckpt" / "manifest.txt"
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CorruptionError, match=message):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_undecodable_manifest_is_corruption(self, tmp_path):
        self.roundtrip(tmp_path)
        with open(tmp_path / "ckpt" / "manifest.txt", "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(CorruptionError, match="not valid UTF-8"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_crlf_checkpoint_loads_as_lf(self, tmp_path):
        """CRLF line ends, as a save on Windows writes them, in both text files."""
        params, config, lf = self.roundtrip(tmp_path)
        crlf = tmp_path / "crlf"
        crlf.mkdir()
        for part in ("manifest.txt", "vocab.txt", "params.bin"):
            blob = (tmp_path / "ckpt" / part).read_bytes()
            (crlf / part).write_bytes(blob if part == "params.bin" else blob.replace(b"\n", b"\r\n"))
        loaded = train.load_checkpoint(crlf)
        assert loaded.params.config == config
        assert loaded.vocab == lf.vocab
        for k, p in params.named().items():
            assert loaded.params.named()[k].data.tobytes() == p.data.tobytes()

    def test_undecodable_manifest_names_its_line(self, tmp_path):
        self.roundtrip(tmp_path)
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().count("\n")
        with open(manifest, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(CorruptionError, match=f"^manifest.txt: line {lines + 1}: not valid UTF-8$"):
            train.load_checkpoint(tmp_path / "ckpt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptionError, match="manifest"):
            train.load_checkpoint(tmp_path / "nowhere")


def test_benchmark_eval_checkpoint_call_shape(tmp_path):
    """The calls `perfbench/inputs.py::prepare_paper_eval` makes, at a tiny
    shape: an `AdamState` still fills `save_checkpoint`'s second slot, and the
    checkpoint loads and evaluates as the parameters it was saved from."""
    from casreader import synthetic
    from casreader.evaluate import evaluate
    from casreader.vocab import build_vocab

    rng = np.random.default_rng(4)
    splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(train_docs=4, valid_docs=1, test_docs=6))
    vocab = build_vocab((t for s in splits["train"] for t in s.document + s.query), shortlist_size=100_000)
    config = train.TrainConfig(**dict(train.PRESETS["news-full"].__dict__, embed_dim=4, hidden_dim=4, seed=4))
    params = reader.init_model_params(config, vocab.total_size, rng)
    named = params.named()
    state = train.AdamState.init(named, config.lr, config.beta1, config.beta2, config.epsilon)
    train.save_checkpoint(params, state, config, tmp_path / "checkpoint", vocab=vocab)
    del state

    loaded = train.load_checkpoint(tmp_path / "checkpoint")
    assert sorted(p.name for p in (tmp_path / "checkpoint").iterdir()) == ["manifest.txt", "params.bin", "vocab.txt"]
    report = evaluate(loaded.params, loaded.vocab, splits["test"], mode="avg", batch_size=16)
    assert report.as_dict() == evaluate(params, vocab, splits["test"], mode="avg", batch_size=16).as_dict()
    assert report.total == len(splits["test"])


@pytest.fixture(scope="module")
def manifest_base(tmp_path_factory):
    """A small checkpoint (vocabulary of 14, E=H=4) with its vocab.txt."""
    from casreader.vocab import build_vocab

    path = tmp_path_factory.mktemp("manifest-base")
    config = train.TrainConfig(embed_dim=4, hidden_dim=4, epochs=1, seed=3)
    params = reader.init_model_params(config, 14, np.random.default_rng(1))
    train.save_checkpoint(params, None, config, path, vocab=build_vocab(["a", "b", "a"], shortlist_size=2))
    return path


MANIFEST_FRAGMENTS = FRAGMENTS + [b"param", b"embedding", b"doc_fwd.u_z", b"query_bwd.b_h", b"vocab_size", b"adam_t",
                                  b"embed_dim", b"hidden_dim", b"merge_mode", b"none", b"nan", b"1e999", b"14",
                                  b"4", b"16", b"casreader-checkpoint-v1", b"casreader-checkpoint-v2",
                                  b"casreader-vocab-v1", b"shortlist=", b"2", b"a\t2\n", b"b\t1\n"]


def reshaped(data, count: int) -> bytes:
    """A shape of `count` elements: up to three drawn divisors and the rest."""
    dims, rest = [], count
    while rest > 1 and len(dims) < 3 and data.draw(st.booleans()):
        dims.append(data.draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0])))
        rest //= dims[-1]
    return b",".join(str(d).encode() for d in data.draw(st.permutations(dims + [rest])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_manifest_raises_only_typed_errors(manifest_base, tmp_path_factory, data):
    """Arbitrary bytes after a well-formed prefix of the manifest or of vocab.txt,
    or a manifest parameter reshaped to the same element count, so params.bin
    still has the size the manifest asks for. Either loads into a usable model
    or raises a CorruptionError; a reshape that changes the shape is corruption.
    A checkpoint that loads saves back to the base manifest's exact bytes: the
    writer is the format's definition."""
    original = {part: (manifest_base / part).read_bytes() for part in ("manifest.txt", "params.bin", "vocab.txt")}
    files = dict(original)
    reshape = data.draw(st.booleans(), label="reshape")
    if reshape:
        lines = original["manifest.txt"].splitlines(keepends=True)
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith(b"param\t")]))
        name, shape = lines[i].rstrip(b"\n").split(b"\t")[1:]
        lines[i] = b"param\t" + name + b"\t" + reshaped(data, math.prod(int(d) for d in shape.split(b","))) + b"\n"
        files["manifest.txt"] = b"".join(lines)
    else:
        part = data.draw(st.sampled_from(["manifest.txt", "vocab.txt"]), label="file")
        lines = original[part].splitlines(keepends=True)
        cut = data.draw(st.integers(0, len(lines)), label="cut")
        body = data.draw(
            st.one_of(st.binary(max_size=200), st.lists(st.sampled_from(MANIFEST_FRAGMENTS), max_size=60).map(b"".join)),
            label="body",
        )
        files[part] = b"".join(lines[:cut] + [body])
    ckpt = tmp_path_factory.mktemp("manifest-fuzz")
    for part, blob in files.items():
        (ckpt / part).write_bytes(blob)
    try:
        loaded = train.load_checkpoint(ckpt)
    except CorruptionError as err:
        assert not reshape or files != original, err
        return
    assert not reshape or files == original
    reader.forward([encoded_sample([1, 2, 1], [3, 1], 1)], loaded.params)
    train.save_checkpoint(loaded.params, None, loaded.params.config, ckpt / "again", vocab=loaded.vocab)
    assert (ckpt / "again" / "manifest.txt").read_bytes() == original["manifest.txt"]
