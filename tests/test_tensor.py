"""Tensor engine tests: forward kernels against independent oracles,
backward rules against central finite differences."""

import math

import numpy as np
import pytest

from casreader import tensor as T
from casreader.errors import DimensionError, UsageError


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, independent of numpy's dot."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(T.Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_basis_vector_selection(self):
        out = T.matmul(T.Tensor([[1.0, 0.0]]), T.Tensor([[2.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12, rtol=0)

    def test_random_shapes_up_to_16(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            out = T.matmul(T.Tensor(a), T.Tensor(b))
            np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12, rtol=0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_backward_rule(self):
        rng = np.random.default_rng(1)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        out = T.matmul(a, b)
        seed = rng.uniform(-1, 1, (3, 2))
        out.backward(seed)
        np.testing.assert_allclose(a.grad, seed @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ seed, atol=1e-12)


class TestMaskedSoftmax:
    def test_symmetry(self):
        out = T.masked_softmax(T.Tensor([0.0, 0.0]), [True, True])
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_closed_form_two_logits(self):
        out = T.masked_softmax(T.Tensor([1.0, 0.0]), [True, True])
        e = math.exp(1.0)
        np.testing.assert_allclose(out.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_masked_entry_exactly_zero(self):
        out = T.masked_softmax(T.Tensor([9.0, 5.0, 2.0]), [True, False, True])
        assert out.data[1] == 0.0
        e9, e2 = math.exp(9.0 - 9.0), math.exp(2.0 - 9.0)
        np.testing.assert_allclose(out.data[[0, 2]], [e9 / (e9 + e2), e2 / (e9 + e2)], atol=1e-12)

    def test_unmasked_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[int(rng.integers(n))] = True
            out = T.masked_softmax(T.Tensor(rng.normal(size=n) * 10), mask)
            assert abs(out.data.sum() - 1.0) < 1e-12
            assert np.all(out.data[~mask] == 0.0)
            assert np.all(out.data[mask] > 0.0)
            assert np.all(out.data[mask] <= 1.0)

    def test_all_masked_raises(self):
        with pytest.raises(UsageError, match="fully masked row"):
            T.masked_softmax(T.Tensor([1.0, 2.0]), [False, False])

    def test_rowwise_matches_vector(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        mask = np.array([True, False, True, True, False])
        rows = T.masked_softmax(T.Tensor(x), mask)
        for i in range(3):
            one = T.masked_softmax(T.Tensor(x[i]), mask)
            np.testing.assert_array_equal(rows.data[i], one.data)

    def test_extreme_logits_stable(self):
        out = T.masked_softmax(T.Tensor([1000.0, 999.0, -1000.0]), [True, True, True])
        assert np.all(np.isfinite(out.data))
        assert abs(out.data.sum() - 1.0) < 1e-12


class TestBackward:
    def test_square(self):
        x = T.Tensor([3.0], requires_grad=True)
        T.mul(x, x).backward(np.ones(1))
        assert x.grad[0] == 6.0

    def test_softmax_sum_has_zero_gradient(self):
        x = T.Tensor([0.3, -1.2, 2.0], requires_grad=True)
        T.reduce_sum(T.masked_softmax(x, [True] * 3)).backward()
        np.testing.assert_allclose(x.grad, np.zeros(3), atol=1e-15)

    def test_backward_without_graph_raises(self):
        with pytest.raises(UsageError):
            T.Tensor([1.0]).backward()

    def test_seed_shape_must_match(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        out = T.mul(x, x)
        with pytest.raises(DimensionError):
            out.backward(np.ones(3))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(5)
        a_np = rng.uniform(-1, 1, (4, 4))
        b_np = rng.uniform(-1, 1, (4, 4))

        def run():
            a = T.Tensor(a_np.copy(), requires_grad=True)
            b = T.Tensor(b_np.copy(), requires_grad=True)
            out = T.reduce_sum(square(T.matmul(a, b)))
            out.backward()
            return out.data.copy(), a.grad.copy(), b.grad.copy()

        first, second = run(), run()
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_shared_subexpression_accumulates(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = T.log(x)
        out = T.mul(T.mul(y, y), y)
        out.backward(np.ones(1))
        expected = 3 * math.log(2.0) ** 2 / 2.0
        np.testing.assert_allclose(x.grad, [expected], atol=1e-12)


class TestConsumingBackward:
    def test_second_backward_raises_from_the_same_root_and_from_one_sharing_a_node(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        shared = T.log(x)
        first = T.reduce_sum(T.mul(shared, 3.0))
        second = T.reduce_sum(T.mul(shared, shared))
        first.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 1.5])
        with pytest.raises(UsageError, match="runs once"):
            first.backward()
        with pytest.raises(UsageError, match="runs once"):
            second.backward()

    @pytest.mark.parametrize("wrap", [np.asarray, T.Tensor])
    def test_seed_is_copied_not_adopted(self, wrap):
        """A leaf root adopts what `backward` hands `_accumulate`; the caller's seed must not be it."""
        x = T.Tensor([0.0, 0.0], requires_grad=True)
        seed = np.array([1.0, 2.0])
        x.backward(wrap(seed))
        x.backward(wrap(seed))
        np.testing.assert_array_equal(seed, [1.0, 2.0])
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert not np.shares_memory(x.grad, seed)

    def test_accumulate_adopts_only_a_fresh_array_laid_out_as_the_data(self):
        fresh = np.ones((2, 3))
        t = T.Tensor(np.zeros((2, 3)), requires_grad=True)
        T._accumulate(t, fresh)
        assert t.grad is fresh
        read_only = np.ones((2, 3))
        read_only.flags.writeable = False
        for g in (np.ones((3, 2)).T, np.ones((2, 3), order="F"), np.ones((2, 6))[:, :3], read_only,
                  np.broadcast_to(1.0, (2, 3)), np.ones((2, 3), dtype=np.float32), 1.0):
            t = T.Tensor(np.zeros((2, 3)), requires_grad=True)
            T._accumulate(t, g)
            assert t.grad is not g and t.grad.flags.c_contiguous and t.grad.dtype == np.float64
            np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_backward_peak_does_not_grow_with_the_chain(self):
        """Each node's gradient goes once its rule has run, so a chain of k
        elementwise nodes over n floats peaks at about two gradients (the
        node's and its parent's), not k + 1."""
        import tracemalloc

        n = 100_000

        def peak_bytes(k):
            x = T.Tensor(np.ones(n), requires_grad=True)
            y = x
            for _ in range(k):
                y = T.mul(y, 1.5)
            seed = np.ones(n)
            tracemalloc.start()
            try:
                y.backward(seed)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for k in (2, 32):
            assert peak_bytes(k) < 3 * n * 8


class TestGatherScatter:
    def test_gather_rows_forward(self):
        w = T.Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(w, [2, 0, 2])
        np.testing.assert_array_equal(out.data, w.data[[2, 0, 2]])

    def test_gather_rows_scatter_adds(self):
        w = T.Tensor(np.zeros((4, 3)), requires_grad=True)
        out = T.gather_rows(w, [2, 2])
        out.backward(np.ones((2, 3)))
        assert np.all(w.grad.dense()[2] == 2.0)
        assert np.all(w.grad.dense()[[0, 1, 3]] == 0.0)

    def test_gather_rows_out_of_range(self):
        with pytest.raises(DimensionError, match="row index out of range for 2 rows: 5"):
            T.gather_rows(T.Tensor(np.zeros((2, 2))), [5])

    def test_gathered_leaf_gets_row_grad_bit_identical_to_dense_scatter(self):
        rng = np.random.default_rng(21)
        table = T.Tensor(rng.normal(size=(50, 4)), requires_grad=True)
        doc_ids = rng.integers(0, 50, 120)
        query_ids = np.concatenate([doc_ids[:5], rng.integers(0, 50, 10)])
        doc_g, query_g = rng.normal(size=(120, 4)), rng.normal(size=(15, 4))
        T.gather_rows(table, doc_ids)._backward_fn(doc_g)
        T.gather_rows(table, query_ids)._backward_fn(query_g)
        expected = np.zeros((50, 4))
        np.add.at(expected, doc_ids, doc_g)
        np.add.at(expected, query_ids, query_g)
        assert isinstance(table.grad, T.RowGrad)
        np.testing.assert_array_equal(table.grad.rows, np.unique(np.concatenate([doc_ids, query_ids])))
        np.testing.assert_array_equal(table.grad.values, expected[table.grad.rows])
        np.testing.assert_array_equal(table.grad.dense(), expected)

    @pytest.mark.parametrize("gather_first", [True, False])
    def test_leaf_used_both_ways_densifies(self, gather_first):
        rng = np.random.default_rng(22)
        table = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids, g, dense_g = [4, 1, 4], rng.normal(size=(3, 3)), rng.normal(size=(6, 3))
        gathered = T.gather_rows(table, ids)
        expected = np.zeros((6, 3))
        if gather_first:
            gathered._backward_fn(g)
            T._accumulate(table, dense_g)
            np.add.at(expected, ids, g)
            expected += dense_g
        else:
            T._accumulate(table, dense_g.copy())  # _accumulate owns what it is given
            gathered._backward_fn(g)
            expected += dense_g
            np.add.at(expected, ids, g)
        assert isinstance(table.grad, np.ndarray)
        np.testing.assert_array_equal(table.grad, expected)

    def test_computed_source_gets_dense_scatter(self):
        table = T.Tensor(np.ones((4, 2)), requires_grad=True)
        doubled = T.mul(table, 2.0)
        T.gather_rows(doubled, [3, 3])._backward_fn(np.ones((2, 2)))
        assert isinstance(doubled.grad, np.ndarray)
        np.testing.assert_array_equal(doubled.grad, [[0.0, 0.0]] * 3 + [[2.0, 2.0]])
        doubled._backward_fn(doubled.grad)
        np.testing.assert_array_equal(table.grad, [[0.0, 0.0]] * 3 + [[4.0, 4.0]])

    def test_group_sum_left_to_right(self):
        v = T.Tensor([0.2, 0.3, 0.5], requires_grad=True)
        out = T.group_sum(v, [0, 1, 0], 2)
        np.testing.assert_array_equal(out.data, [0.7, 0.3])
        out.backward(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(v.grad, [1.0, 2.0, 1.0])

    def test_reduce_max_tie_first_row(self):
        a = T.Tensor([[1.0, 5.0], [1.0, 7.0]], requires_grad=True)
        out = T.reduce_max(a, axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 7.0])
        out.backward(np.ones(2))
        np.testing.assert_array_equal(a.grad, [[1.0, 0.0], [0.0, 1.0]])


def square(x: T.Tensor) -> T.Tensor:
    return T.mul(x, x)


def weighted_sum(out: T.Tensor, rng) -> T.Tensor:
    """A scalar with a generic gradient with respect to every entry of `out`."""
    return T.reduce_sum(T.mul(out, T.Tensor(rng.uniform(0.5, 1.5, out.data.shape))))


class TestBatchedOps:
    def test_batched_matmul_gradients(self):
        rng = np.random.default_rng(30)
        a, b = rng.uniform(-1, 1, (3, 2, 4)), rng.uniform(-1, 1, (3, 4, 5))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], matmul_oracle(a[i], b[i]), atol=1e-12, rtol=0)
        params = {"a": T.Tensor(a, requires_grad=True), "b": T.Tensor(b, requires_grad=True)}
        loss = lambda p: weighted_sum(square(T.matmul(p["a"], p["b"])), np.random.default_rng(31))
        assert T.grad_check(loss, params) < 1e-4

    def test_batched_matmul_leading_axes_must_match(self):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4, 5))))

    def test_transpose_with_axes_gradients(self):
        x = np.random.default_rng(32).uniform(-1, 1, (2, 3, 4))
        np.testing.assert_array_equal(T.transpose(T.Tensor(x), (1, 2, 0)).data, x.transpose(1, 2, 0))
        params = {"x": T.Tensor(x, requires_grad=True)}
        loss = lambda p: weighted_sum(square(T.transpose(p["x"], (1, 2, 0))), np.random.default_rng(33))
        assert T.grad_check(loss, params) < 1e-4

    def test_masked_softmax_broadcast_mask_gradients(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(2, 3, 5))
        mask = np.array([[[True, False, True, True, False]], [[False, True, True, False, True]]])  # [B x 1 x L]
        out = T.masked_softmax(T.Tensor(x), mask)
        for b in range(2):
            for t in range(3):
                np.testing.assert_array_equal(out.data[b, t], T.masked_softmax(T.Tensor(x[b, t]), mask[b, 0]).data)
        params = {"x": T.Tensor(x, requires_grad=True)}
        loss = lambda p: weighted_sum(T.masked_softmax(p["x"], mask), np.random.default_rng(35))
        assert T.grad_check(loss, params) < 1e-4

    def test_masked_softmax_needs_support_in_every_row(self):
        with pytest.raises(UsageError, match="fully masked row"):
            T.masked_softmax(T.Tensor(np.zeros((2, 2))), [[True, False], [False, False]])

    def test_reduce_max_over_axis_1_of_3d(self):
        x = np.random.default_rng(36).uniform(-1, 1, (2, 3, 4))
        np.testing.assert_array_equal(T.reduce_max(T.Tensor(x), axis=1).data, x.max(axis=1))
        params = {"x": T.Tensor(x, requires_grad=True)}
        loss = lambda p: weighted_sum(T.reduce_max(square(p["x"]), axis=1), np.random.default_rng(37))
        assert T.grad_check(loss, params) < 1e-4
        # An exact tie sends the subgradient to the first maximal entry.
        a = T.Tensor([[[1.0, 5.0], [1.0, 7.0]], [[2.0, 0.0], [3.0, 0.0]]], requires_grad=True)
        T.reduce_max(a, axis=1).backward(np.ones((2, 2)))
        np.testing.assert_array_equal(a.grad, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])

    def test_group_sum_matches_explicit_loop(self):
        rng = np.random.default_rng(38)
        values, groups = rng.normal(size=10_000), rng.integers(0, 37, 10_000)
        expected = np.zeros(37)
        for value, slot in zip(values, groups):
            expected[slot] += value
        np.testing.assert_array_equal(T.group_sum(T.Tensor(values), groups, 37).data, expected)


def quadratic_loss(params):
    (theta,) = params.values()
    return T.mul(T.reduce_sum(square(theta)), 0.5)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(6)
        params = {"theta": T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)}
        assert T.grad_check(quadratic_loss, params) < 1e-8

    def test_nonfinite_loss_raises(self):
        params = {"x": T.Tensor([1.0], requires_grad=True)}

        def bad(p):
            return T.log(T.mul(p["x"], 0.0))  # log(0)

        with np.errstate(divide="ignore"), pytest.raises(T.NumericError):
            T.grad_check(bad, params)


def test_pipeline_gradients_match_finite_differences():
    """Random pointwise/log/matmul/softmax pipelines: analytic vs central differences."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = rng.uniform(-1, 1, (rows, cols))
        other = rng.uniform(-1, 1, (rows, cols))
        weights = rng.uniform(0.5, 1.5, rows)

        def loss(params):
            x = params["x"]
            y = T.mul(T.log(T.masked_softmax(T.mul(x, T.Tensor(other)), np.ones(cols, dtype=bool))), x)
            z = T.matmul(y, T.transpose(y))
            row = T.reshape(T.gather_rows(z, [0]), (z.data.shape[1],))
            probs = T.masked_softmax(row, np.ones(z.data.shape[1], dtype=bool))
            return T.reduce_sum(T.mul(probs, T.Tensor(weights)))

        params = {"x": T.Tensor(mat, requires_grad=True)}
        assert T.grad_check(loss, params, epsilon=1e-5) < 1e-4


def test_reduction_and_select_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(15):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        mat = rng.uniform(-1, 1, (rows, cols))
        groups = rng.integers(0, 2, cols)

        def loss(params):
            x = params["x"]
            col_max = T.reduce_max(T.mul(x, x), axis=0)
            grouped = T.group_sum(col_max, groups, 2)
            return T.reduce_sum(T.gather_rows(grouped, [0, 0]))

        params = {"x": T.Tensor(mat, requires_grad=True)}
        assert T.grad_check(loss, params, epsilon=1e-5) < 1e-4
