"""Neural-layer tests: the fused bi-GRU scan against a scalar-loop oracle,
masking and initializer contracts, dropout statistics and its rng stream,
finite-difference gradients, and the two-thread scan against the inline one."""

import math
import threading
from dataclasses import fields

import numpy as np
import pytest

from casreader import nn, reader, train
from casreader import tensor as T
from casreader.errors import ConfigurationError, DimensionError, UsageError
from casreader.tensor import Tensor
from helpers import Sample, generic_params


def gru_oracle(x: np.ndarray, h: np.ndarray, p: nn.GruParams) -> np.ndarray:
    """Independent scalar-loop GRU step: no matrix ops, no Tensor machinery."""

    def mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
        rows, cols = m.shape
        out = np.zeros(rows)
        for i in range(rows):
            for j in range(cols):
                out[i] += m[i, j] * v[j]
        return out

    def sig(v):
        return np.array([1.0 / (1.0 + math.exp(-a)) for a in v])

    z = sig(mv(p.w_z.data, x) + mv(p.u_z.data, h) + p.b_z.data)
    r = sig(mv(p.w_r.data, x) + mv(p.u_r.data, h) + p.b_r.data)
    cand = np.array([math.tanh(a) for a in mv(p.w_h.data, x) + mv(p.u_h.data, r * h) + p.b_h.data])
    return (1.0 - z) * h + z * cand


def make_params(input_dim, hidden_dim, seed):
    """One GRU direction at the training init: a one-word model's `doc_fwd`."""
    config = train.TrainConfig(embed_dim=input_dim, hidden_dim=hidden_dim)
    return reader.init_model_params(config, 1, np.random.default_rng(seed)).doc_fwd


def random_params(input_dim, hidden_dim, rng):
    """GRU params at a generic point (entries ~1), for finite-difference checks."""
    def u(*shape):
        return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)

    return nn.GruParams(
        w_z=u(hidden_dim, input_dim), w_r=u(hidden_dim, input_dim), w_h=u(hidden_dim, input_dim),
        u_z=u(hidden_dim, hidden_dim), u_r=u(hidden_dim, hidden_dim), u_h=u(hidden_dim, hidden_dim),
        b_z=u(hidden_dim), b_r=u(hidden_dim), b_h=u(hidden_dim),
    )


def gru_from(named, prefix):
    return nn.GruParams(**{f.name: named[f"{prefix}.{f.name}"] for f in fields(nn.GruParams)})


def frozen(p):
    """The same weight arrays as `p`, in tensors that need no gradient."""
    return nn.GruParams(**{f.name: Tensor(getattr(p, f.name).data) for f in fields(nn.GruParams)})


def scan_node(x, mask, p, reverse, other=None):
    """The two-direction node with `p` scanning in the named direction and
    `other` (by default a no-gradient copy of `p`) in the other one; returns
    the node and the column slice of `p`'s states."""
    other = frozen(p) if other is None else other
    hidden = p.hidden_dim
    out = nn.bigru_scan(x, mask, *((other, p) if reverse else (p, other)))
    return out, slice(hidden, 2 * hidden) if reverse else slice(0, hidden)


def zero_params(input_dim, hidden_dim):
    def t(shape):
        return Tensor(np.zeros(shape))

    return nn.GruParams(
        w_z=t((hidden_dim, input_dim)), w_r=t((hidden_dim, input_dim)), w_h=t((hidden_dim, input_dim)),
        u_z=t((hidden_dim, hidden_dim)), u_r=t((hidden_dim, hidden_dim)), u_h=t((hidden_dim, hidden_dim)),
        b_z=t(hidden_dim), b_r=t(hidden_dim), b_h=t(hidden_dim),
    )


def encode_rows(x, mask, fwd, bwd, **kw):
    """Encode per-sequence inputs x [batch x len x dim] by using them as their own embedding table.

    Returns the states as [batch x len x 2*hidden].
    """
    batch, steps, dim = x.shape
    return encode_rows_tensor(Tensor(x.reshape(-1, dim)), mask, fwd, bwd, **kw).data


def encode_rows_tensor(emb, mask, fwd, bwd, **kw):
    """`encode_rows` on a `[batch*len x dim]` table that may need a gradient; returns the states tensor."""
    batch, steps = np.shape(mask)
    ids = np.arange(batch * steps).reshape(batch, steps)
    return nn.encode_batch(ids, np.asarray(mask, dtype=bool), emb, fwd, bwd, **kw)


def scan_oracle(x, mask, p, reverse):
    """Scalar-loop scan of one direction: masked steps carry the state and emit zeros."""
    steps = x.shape[0]
    h = np.zeros(p.hidden_dim)
    out = np.zeros((steps, p.hidden_dim))
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        if mask[t]:
            h = gru_oracle(x[t], h, p)
            out[t] = h
    return out


class TestEmbedLookup:
    """The encoder's embedding lookup is `gather_rows` on the table."""

    def test_selects_rows(self):
        w = Tensor(np.arange(8.0).reshape(4, 2))
        out = T.gather_rows(w, [0])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0]])

    def test_duplicate_ids_sum_gradients(self):
        w = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = T.gather_rows(w, [3, 3])
        out.backward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(w.grad.dense()[3], [4.0, 6.0])

    def test_unselected_row_gets_zero_gradient(self):
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        T.reduce_sum(T.gather_rows(w, [1, 2])).backward()
        np.testing.assert_array_equal(w.grad.dense()[0], [0.0, 0.0])
        np.testing.assert_array_equal(w.grad.dense()[3], [0.0, 0.0])

    def test_out_of_range_id(self):
        fwd, bwd = make_params(2, 3, seed=1), make_params(2, 3, seed=2)
        with pytest.raises(DimensionError, match="row index out of range for 4 rows: 4"):
            nn.encode_batch([[1, 4]], [[True, True]], Tensor(np.zeros((4, 2))), fwd, bwd)


class TestGruCell:
    """The scan's per-step GRU math, checked on whole sequences."""

    def test_zero_weights_halve_previous_state(self):
        # z = r = 1/2 and h~ = tanh(c), so the gap to tanh(c) halves every step.
        p = zero_params(3, 4)
        p.b_h.data[:] = [0.3, -0.7, 1.1, 0.0]
        x = np.random.default_rng(1).uniform(-1, 1, (1, 5, 3))
        states = encode_rows(x, np.ones((1, 5), dtype=bool), p, zero_params(3, 4))
        target = np.tanh(p.b_h.data)
        for t in range(5):
            np.testing.assert_allclose(states[0, t, :4], target * (1.0 - 0.5 ** (t + 1)), atol=1e-15)

    def test_zero_weights_zero_state_fixed_point(self):
        x = np.random.default_rng(5).uniform(-1, 1, (2, 4, 3))
        states = encode_rows(x, np.ones((2, 4), dtype=bool), zero_params(3, 4), zero_params(3, 4))
        np.testing.assert_array_equal(states, np.zeros((2, 4, 8)))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        fwd, bwd = make_params(3, 4, seed=3), make_params(3, 4, seed=4)
        x = rng.uniform(-1, 1, (3, 6, 3))
        mask = np.ones((3, 6), dtype=bool)
        mask[1, 4:] = False  # right padding
        mask[2, 2] = False  # interior hole
        states = encode_rows(x, mask, fwd, bwd)
        for b in range(3):
            expected = np.hstack([
                scan_oracle(x[b], mask[b], fwd, reverse=False),
                scan_oracle(x[b], mask[b], bwd, reverse=True),
            ])
            np.testing.assert_allclose(states[b], expected, atol=1e-12, rtol=0)

    def test_state_stays_in_open_unit_interval(self):
        x = np.random.default_rng(6).uniform(-3, 3, (4, 20, 3))
        states = encode_rows(x, np.ones((4, 20), dtype=bool), make_params(3, 5, 7), make_params(3, 5, 8))
        assert np.all(states > -1.0) and np.all(states < 1.0)

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(6)
        p = make_params(3, 4, seed=7)
        x = rng.uniform(-1, 1, (5, 2, 3))  # [len x batch x dim]
        mask = np.array([[True] * 5, [True, True, False, True, False]])
        batched, cols = scan_node(Tensor(x.reshape(10, 3)), mask, p, reverse=True)
        batched = batched.data[:, cols].reshape(5, 2, 4)
        for b in range(2):
            single, cols = scan_node(Tensor(x[:, b]), mask[b : b + 1], p, reverse=True)
            np.testing.assert_allclose(batched[:, b], single.data[:, cols], atol=1e-13, rtol=0)

    def test_dimension_mismatch(self):
        p = make_params(3, 4, seed=8)
        with pytest.raises(DimensionError):
            nn.bigru_scan(Tensor(np.zeros((4, 5))), np.ones((2, 2), dtype=bool), p, p)
        with pytest.raises(DimensionError, match=r"\(3, 4\) and \(3, 5\)"):
            nn.bigru_scan(Tensor(np.zeros((4, 3))), np.ones((2, 2), dtype=bool), p, make_params(3, 5, seed=9))


class TestBigruEncode:
    """Bi-GRU encoding properties, through `encode_batch`."""

    def test_single_step_reduces_to_gru_cell(self):
        rng = np.random.default_rng(9)
        fwd, bwd = make_params(3, 4, seed=10), make_params(3, 4, seed=11)
        x = rng.uniform(-1, 1, (2, 1, 3))
        states = encode_rows(x, np.ones((2, 1), dtype=bool), fwd, bwd)
        for b in range(2):
            f, bk = gru_oracle(x[b, 0], np.zeros(4), fwd), gru_oracle(x[b, 0], np.zeros(4), bwd)
            np.testing.assert_allclose(states[b, 0], np.concatenate([f, bk]), atol=1e-15)

    def test_palindrome_with_shared_params_is_symmetric(self):
        rng = np.random.default_rng(12)
        p = make_params(3, 4, seed=13)
        half = rng.uniform(-1, 1, (2, 3, 3))
        x = np.concatenate([half, half[:, ::-1]], axis=1)
        states = encode_rows(x, np.ones((2, 6), dtype=bool), p, p)
        np.testing.assert_allclose(states[:, :, :4], states[:, ::-1, 4:], atol=1e-12)

    def test_appending_masked_position_keeps_rows_bit_identical(self):
        rng = np.random.default_rng(14)
        fwd, bwd = make_params(3, 4, seed=15), make_params(3, 4, seed=16)
        x = rng.uniform(-1, 1, (2, 4, 3))
        mask = np.array([[True] * 4, [True, True, True, False]])
        plain = encode_rows(x, mask, fwd, bwd)
        padded_x = np.concatenate([x, rng.uniform(-1, 1, (2, 1, 3))], axis=1)
        padded = encode_rows(padded_x, np.hstack([mask, [[False], [False]]]), fwd, bwd)
        np.testing.assert_array_equal(plain, padded[:, :4])
        assert np.all(padded[:, 4] == 0.0)

    def test_left_padding_matches_right_padding(self):
        rng = np.random.default_rng(17)
        fwd, bwd = make_params(2, 3, seed=18), make_params(2, 3, seed=19)
        x = rng.uniform(-1, 1, (2, 3, 2))
        pad = rng.uniform(-1, 1, (2, 2, 2))
        left = encode_rows(np.concatenate([pad, x], axis=1), [[False, False, True, True, True]] * 2, fwd, bwd)
        right = encode_rows(np.concatenate([x, pad], axis=1), [[True, True, True, False, False]] * 2, fwd, bwd)
        np.testing.assert_array_equal(left[:, 2:], right[:, :3])

    def test_width_is_twice_hidden_and_masked_rows_zero(self):
        x = np.random.default_rng(22).uniform(-1, 1, (2, 4, 3))
        mask = np.array([[True, False, True, True], [True, True, True, False]])
        states = encode_rows(x, mask, make_params(3, 5, seed=20), make_params(3, 5, seed=21))
        assert states.shape == (2, 4, 10)
        assert np.all(states[~mask] == 0.0)
        assert np.all(states[mask] != 0.0)

    def test_empty_sequence_rejected(self):
        fwd, bwd = make_params(3, 4, seed=23), make_params(3, 4, seed=24)
        emb = Tensor(np.zeros((2, 3)))
        with pytest.raises(UsageError):
            nn.encode_batch(np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=bool), emb, fwd, bwd)

    def test_three_step_gradients_match_finite_differences(self):
        rng = np.random.default_rng(25)
        fwd, bwd = random_params(2, 3, rng), random_params(2, 3, rng)
        mask = np.array([[True] * 3, [True, True, False], [True, False, True]])
        ids = np.array([[0, 1, 2], [3, 4, 0], [5, 6, 7]])
        weights = rng.uniform(0.5, 1.5, (3, 3, 6))
        params = {"emb": Tensor(rng.uniform(-1, 1, (8, 2)), requires_grad=True), **fwd.named("fwd"), **bwd.named("bwd")}

        def loss(p):
            states = nn.encode_batch(ids, mask, p["emb"], gru_from(p, "fwd"), gru_from(p, "bwd"))
            return T.reduce_sum(T.mul(states, Tensor(weights)))

        assert T.grad_check(loss, params, epsilon=1e-5) < 1e-4


class TestGruScan:
    """`bigru_scan`, one direction at a time: the direction under test scans
    with the given params, the other with fixed ones."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        rng = np.random.default_rng(26)
        mask = np.array([[True] * 4, [True, True, True, False], [True, False, True, False]])
        weights = rng.uniform(0.5, 1.5, (12, 6))  # both blocks: x's gradient sums both directions'
        x = Tensor(rng.uniform(-1, 1, (12, 2)), requires_grad=True)
        params = {"x": x, **random_params(2, 3, rng).named("g")}
        other = frozen(random_params(2, 3, rng))

        def loss(p):
            out, _ = scan_node(p["x"], mask, gru_from(p, "g"), reverse, other)
            return T.reduce_sum(T.mul(out, Tensor(weights)))

        assert T.grad_check(loss, params, epsilon=1e-5) < 1e-4

    # The scan computes the sigmoid as 0.5*tanh(a/2) + 0.5 and the update as
    # h + z*(h~ - h); the oracle uses 1/(1 + exp(-a)) and (1-z)*h + z*h~. The
    # states lie in (-1, 1) and differ by under 1e-15 over 20 seeds here; the
    # bound leaves room for another BLAS's summation order.
    ORACLE_ATOL = 1e-13

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_scalar_loop_oracle(self, reverse):
        rng = np.random.default_rng(32)
        batch, steps, dim, hidden = 4, 9, 3, 5
        mask = np.ones((batch, steps), dtype=bool)
        mask[1, 6:] = False  # right padding
        mask[2, 3:5] = False  # interior hole
        mask[3, 1:] = False  # a single real step
        x = rng.uniform(-2, 2, (steps, batch, dim))  # time-major, as the scan reads it
        p = random_params(dim, hidden, rng)  # entries ~1: gates far from the linear regime
        out, cols = scan_node(Tensor(x.reshape(-1, dim)), mask, p, reverse, frozen(random_params(dim, hidden, rng)))
        out = out.data[:, cols].reshape(steps, batch, hidden)
        for b in range(batch):
            expected = scan_oracle(x[:, b], mask[b], p, reverse)
            np.testing.assert_allclose(out[:, b], expected, atol=self.ORACLE_ATOL, rtol=0)

    def test_sigmoid_zero(self):
        """At zero pre-activation z is exactly 1/2: the first state is exactly tanh(b_h)/2."""
        p = zero_params(2, 4)
        p.b_h.data[:] = [0.3, -0.7, 1.1, 0.0]
        out = nn.bigru_scan(Tensor(np.ones((3, 2))), np.ones((3, 1), dtype=bool), p, p)
        np.testing.assert_array_equal(out.data[0], np.tile(0.5 * np.tanh(p.b_h.data), 2))

    @pytest.mark.parametrize("hidden", [1, 4])  # at 1, u.T is itself C-ordered: a copy must still be made
    @pytest.mark.parametrize("reverse", [False, True])
    def test_inputs_are_bit_unchanged(self, reverse, hidden):
        """The scan writes only its own buffers: never into x or a parameter,
        whose arrays the other direction here shares."""
        rng = np.random.default_rng(33)
        mask = np.array([[True] * 5, [True, False, False, True, False]])
        x = Tensor(rng.uniform(-1, 1, (10, 3)), requires_grad=True)
        p = random_params(3, hidden, rng)
        tensors = [x, *(getattr(p, f.name) for f in fields(nn.GruParams))]
        before = [t.data.copy() for t in tensors]
        scan_node(x, mask, p, reverse)[0].backward(rng.uniform(-1, 1, (10, 2 * hidden)))
        scan_node(Tensor(x.data), mask, frozen(p), reverse)
        for t, data in zip(tensors, before):
            np.testing.assert_array_equal(t.data, data)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_grad_output_is_bit_identical_and_records_no_node(self, reverse):
        rng = np.random.default_rng(27)
        # Row 1 has an interior hole (steps 1-2 masked) and trailing padding.
        mask = np.array([[True] * 5, [True, False, False, True, False], [True, True, False, False, False]])
        x = Tensor(rng.uniform(-1, 1, (15, 3)), requires_grad=True)
        params = random_params(3, 4, rng)
        graded, _ = scan_node(x, mask, params, reverse)
        plain, _ = scan_node(Tensor(x.data), mask, frozen(params), reverse)
        assert graded._op == "bigru_scan"
        np.testing.assert_array_equal(plain.data, graded.data)
        assert not plain.requires_grad and plain._op == "leaf" and plain._parents == ()

    def test_second_backward_is_refused(self):
        """BPTT overwrites the saved gate values, so a second pass would be wrong: it raises instead."""
        rng = np.random.default_rng(34)
        x = Tensor(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
        out = nn.bigru_scan(x, np.ones((2, 3), dtype=bool), random_params(2, 3, rng), random_params(2, 3, rng))
        out.backward(np.ones((6, 6)))
        with pytest.raises(UsageError, match="runs once"):
            out.backward(np.ones((6, 6)))

    def test_no_grad_keeps_no_per_step_buffers(self):
        """Without a gradient the node's peak allocation drops by what BPTT
        reads: each direction's z/r/h~ arrays (3*hidden floats per step and
        row), and the forward direction's state history, which BPTT keeps
        alive while the reverse direction scans (hidden more): 7*hidden
        floats per step and row. The shape is below the two-thread gate."""
        import tracemalloc

        batch, steps, hidden = 4, 200, 32
        rng = np.random.default_rng(31)
        mask = np.ones((batch, steps), dtype=bool)
        x = rng.uniform(-1, 1, (steps * batch, 8))
        params = random_params(8, hidden, rng), random_params(8, hidden, rng)
        assert not nn._concurrent(batch, hidden)

        def peak_bytes(x, fwd, bwd):
            tracemalloc.start()
            try:
                nn.bigru_scan(x, mask, fwd, bwd)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        saved = steps * batch * 7 * hidden * 8
        with_grad = peak_bytes(Tensor(x, requires_grad=True), *params)
        assert with_grad - peak_bytes(Tensor(x), *map(frozen, params)) > 0.9 * saved


class TestBatchEncoding:
    def test_batch_rows_match_single_sequence_encodes(self):
        rng = np.random.default_rng(28)
        emb = Tensor(rng.uniform(-0.1, 0.1, (10, 3)), requires_grad=True)
        fwd, bwd = make_params(3, 4, seed=29), make_params(3, 4, seed=30)
        ids = np.array([[1, 2, 3, 0], [4, 5, 0, 0], [6, 7, 8, 9]])
        mask = np.array([[True, True, True, False], [True, True, False, False], [True] * 4])
        states = nn.encode_batch(ids, mask, emb, fwd, bwd).data  # [row x step x 2H]
        for row, length in enumerate(mask.sum(axis=1)):
            alone = nn.encode_batch(ids[row : row + 1, :length], np.ones((1, length), dtype=bool), emb, fwd, bwd)
            np.testing.assert_allclose(states[row, :length], alone.data[0], atol=1e-13, rtol=0)

    def test_training_dropout_draws_one_block_per_step(self):
        """Whole-state dropout consumes the rng like one [batch x 2*hidden] draw per step, in step order."""
        rng = np.random.default_rng(46)
        batch, steps, hidden, rate = 3, 5, 4, 0.4
        x = rng.uniform(-1, 1, (batch, steps, 2))
        mask = np.ones((batch, steps), dtype=bool)
        mask[2, 3:] = False
        fwd, bwd = make_params(2, hidden, seed=47), make_params(2, hidden, seed=48)
        plain = encode_rows(x, mask, fwd, bwd)
        got_rng, want_rng = np.random.default_rng(49), np.random.default_rng(49)
        dropped = encode_rows(x, mask, fwd, bwd, dropout_rate=rate, rng=got_rng)
        for t in range(steps):
            keep = (want_rng.random((batch, 2 * hidden)) >= rate) / (1.0 - rate)
            np.testing.assert_array_equal(dropped[:, t], plain[:, t] * keep)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.fixture
def two_threads(monkeypatch):
    """Opens the two-thread gate for every shape."""
    monkeypatch.setattr(nn, "_concurrent", lambda batch, hidden: True)


class TestTwoThreads:
    """The two-thread scan against the inline one, its context and its threads."""

    @staticmethod
    def encode_and_grads(x, mask, fwd, bwd, tensors):
        """Training-mode states and the gradients of `tensors` under a fixed
        random output gradient."""
        for t in tensors:
            t.zero_grad()
        states = encode_rows_tensor(x, mask, fwd, bwd, dropout_rate=0.25, rng=np.random.default_rng(3))
        states.backward(np.random.default_rng(4).uniform(-1, 1, states.data.shape))
        return [states.data, *(T._dense_grad(t).copy() for t in tensors)]

    @pytest.mark.parametrize("padding", ["left", "right"])
    def test_states_and_gradients_are_bit_identical(self, monkeypatch, padding):
        rng = np.random.default_rng(50)
        batch, steps, dim, hidden = 4, 9, 3, 5
        x = Tensor(rng.uniform(-1, 1, (batch * steps, dim)), requires_grad=True)
        fwd, bwd = random_params(dim, hidden, rng), random_params(dim, hidden, rng)
        tensors = [x, *fwd.named("f").values(), *bwd.named("b").values()]
        mask = np.arange(steps) < np.array([steps, 6, 1, 4])[:, None]
        mask = mask[:, ::-1] if padding == "left" else mask
        inline = self.encode_and_grads(x, mask, fwd, bwd, tensors)
        monkeypatch.setattr(nn, "_concurrent", lambda batch, hidden: True)
        threaded = self.encode_and_grads(x, mask, fwd, bwd, tensors)
        for a, b in zip(inline, threaded):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", reader.HEAD_MODES)
    def test_reader_gradients_are_bit_identical(self, monkeypatch, mode):
        params = generic_params(15, 3, 3, np.random.default_rng(51))
        rng = np.random.default_rng(52)
        samples = []
        for _ in range(5):
            doc = rng.integers(0, 15, int(rng.integers(2, 13)))
            samples.append(Sample(doc, rng.integers(0, 15, int(rng.integers(1, 7))), int(doc[0])))
        named = params.named()

        def run():
            for t in named.values():
                t.zero_grad()
            output = reader.forward(samples, params, training=True, rng=np.random.default_rng(53), mode=mode)
            loss = train.nll_loss(output, [s.answer_id for s in samples])
            loss.backward()
            return [loss.data, *(T._dense_grad(t).copy() for t in named.values())]

        inline = run()
        monkeypatch.setattr(nn, "_concurrent", lambda batch, hidden: True)
        for a, b in zip(inline, run()):
            np.testing.assert_array_equal(a, b)

    def test_overflow_in_the_reverse_direction_raises_under_errstate(self, two_threads):
        """numpy's errstate is a context variable: the worker scans in a copy
        of the caller's context, so an overflow there raises as it would inline."""
        fwd, bwd = zero_params(2, 3), zero_params(2, 3)
        bwd.w_h.data[:] = 0.6e308  # a projection of 1.2e308 for an all-ones input,
        bwd.b_h.data[:] = 1e308  # and adding the bias overflows
        x, mask = np.ones((1, 4, 2)), np.ones((1, 4), dtype=bool)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            encode_rows(x, mask, fwd, bwd)
        with np.errstate(over="raise"):  # the forward direction alone is fine
            encode_rows(x, mask, fwd, zero_params(2, 3))
        with np.errstate(over="ignore"):  # and the worker keeps quiet when told to, where a warning would fail
            encode_rows(x, mask, fwd, bwd)

    def test_no_thread_outlives_a_forward_and_backward(self, two_threads, monkeypatch):
        """Each pass starts its own worker and joins it: one more thread runs
        while the directions scan, and none is left after the backward."""
        real_scan, running = nn._scan, []

        def counted_scan(*args):
            running.append(threading.active_count())
            return real_scan(*args)

        monkeypatch.setattr(nn, "_scan", counted_scan)
        rng = np.random.default_rng(54)
        x = Tensor(rng.uniform(-1, 1, (12, 2)), requires_grad=True)
        before = threading.active_count()
        out = nn.bigru_scan(x, np.ones((3, 4), dtype=bool), random_params(2, 3, rng), random_params(2, 3, rng))
        out.backward(np.ones((12, 6)))
        assert running == [before + 1] * 2
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "batch, hidden, cpus, env, expected",
        [
            (8, 256, 2, {"OPENBLAS_NUM_THREADS": "1"}, True),  # paper-scale train, BLAS pinned
            (16, 256, 2, {"OMP_NUM_THREADS": "1"}, True),  # paper-scale eval
            (32, 16, 2, {"OPENBLAS_NUM_THREADS": "1"}, False),  # the desk recipe: too little work per step
            (8, 256, 1, {"OPENBLAS_NUM_THREADS": "1"}, False),  # one usable CPU
            (8, 256, 2, {}, False),  # BLAS may use every CPU already
            (8, 256, 4, {}, False),
            (8, 256, 4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # OpenBLAS's own wins
            (8, 256, 4, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, True),  # 0 is no count
        ],
    )
    def test_gate(self, monkeypatch, batch, hidden, cpus, env, expected):
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        # Both ways of counting CPUs: by affinity, and as platforms without that call count them.
        monkeypatch.delattr(nn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(nn.os, "cpu_count", lambda: cpus)
        assert nn._concurrent(batch, hidden) is expected
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert nn._concurrent(batch, hidden) is expected


class TestInitializers:
    def test_orthogonal_square(self):
        m = nn.orthogonal_init(4, 4, np.random.default_rng(34))
        np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-10)

    def test_orthogonal_deterministic(self):
        a = nn.orthogonal_init(5, 5, np.random.default_rng(35))
        b = nn.orthogonal_init(5, 5, np.random.default_rng(35))
        np.testing.assert_array_equal(a, b)

    def test_orthogonal_unit_columns(self):
        m = nn.orthogonal_init(6, 3, np.random.default_rng(36))
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), np.ones(3), atol=1e-10)

    def test_orthogonal_wide(self):
        m = nn.orthogonal_init(3, 6, np.random.default_rng(37))
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-10)

    def test_recurrent_matrices_initialized_orthogonal(self):
        p = make_params(3, 4, seed=41)
        for u in (p.u_z, p.u_r, p.u_h):
            np.testing.assert_allclose(u.data.T @ u.data, np.eye(4), atol=1e-10)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones(5))
        assert nn.dropout(x, 0.0, rng=np.random.default_rng(42)) is x
        assert nn.dropout(x, 0.0) is x

    def test_eval_mode_is_identity(self):
        """Outside training the reader encodes at rate 0: a model trained with
        dropout scores exactly as without it, and draws nothing from the rng."""
        from casreader.vocab import EncodedSample

        samples = [EncodedSample(np.array([3, 4, 3, 5]), np.array([4, 1]), 3, False)]
        outputs = []
        for rate in (0.0, 0.5):
            config = train.TrainConfig(embed_dim=3, hidden_dim=2, dropout_rate=rate)
            params = reader.init_model_params(config, 6, np.random.default_rng(0))
            rng = np.random.default_rng(42)
            outputs.append(reader.forward(samples, params, training=False, rng=rng).merged.data)
            assert rng.bit_generator.state == np.random.default_rng(42).bit_generator.state
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_training_statistics(self):
        rng = np.random.default_rng(43)
        x = Tensor(np.full(100_000, 2.0))
        out = nn.dropout(x, 0.1, rng=rng)
        zeroed = (out.data == 0.0).mean()
        assert abs(zeroed - 0.1) < 0.02
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 2.0 / 0.9, atol=1e-12)

    def test_inverted_expectation(self):
        rng = np.random.default_rng(44)
        x = Tensor(np.full(4, 1.0))
        total = np.zeros(4)
        n = 10_000
        for _ in range(n):
            total += nn.dropout(x, 0.1, rng=rng).data
        np.testing.assert_allclose(total / n, np.ones(4), rtol=0.02)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.dropout(Tensor(np.ones(3)), 1.0, rng=np.random.default_rng(45))
