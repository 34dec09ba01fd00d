"""Tensor primitives checked against independent oracles.

The oracles here never call the library code paths they verify:
matmul gets a triple loop, attention a direct formula transcription,
composite cells central finite differences.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from mulcom import numerics as nm
from mulcom.errors import ConfigError, ShapeMismatchError
from mulcom.numerics import Tape, Tensor

from test_msrrn import identity_mha


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def mha_oracle(q, k, v, w_q, w_k, w_v, w_o, heads):
    d = q.shape[1]
    dh = d // heads
    qp, kp, vp = q @ w_q, k @ w_k, v @ w_v
    pieces = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = qp[:, sl] @ kp[:, sl].T / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        pieces.append(att @ vp[:, sl])
    return np.concatenate(pieces, axis=1) @ w_o


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        npt.assert_array_equal(nm.matmul(a, b).data, b.data)

    def test_scalar_case(self):
        out = nm.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        npt.assert_array_equal(out.data, [[6.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = nm.matmul(Tensor(a), Tensor(b)).data
        npt.assert_allclose(got, matmul_oracle(a, b), rtol=0, atol=1e-12)

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5))
        out = nm.matmul(Tensor(np.eye(5)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward(self):
        a = nm.param(np.random.default_rng(0).standard_normal((2, 3)))
        b = nm.param(np.random.default_rng(1).standard_normal((3, 2)))
        with Tape() as tape:
            loss = nm.reduce_sum(nm.matmul(a, b))
        nm.backward(loss, tape)
        g = np.ones((2, 2))
        npt.assert_allclose(a.grad, g @ b.data.T, atol=1e-14)
        npt.assert_allclose(b.grad, a.data.T @ g, atol=1e-14)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert nm.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_saturates(self):
        out = nm.sigmoid(Tensor(-50.0)).item()
        assert 0.0 < out <= 1e-15
        # never NaN for finite input, even past the exp underflow point
        extremes = nm.sigmoid(Tensor([-800.0, 800.0])).data
        assert np.isfinite(extremes).all()

    def test_sigmoid_one(self):
        # independent scalar computation of 1/(1+e^-1)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(nm.sigmoid(Tensor(1.0)).item() - expected) < 1e-15
        assert abs(expected - 0.7310585786300049) < 1e-15

    def test_relu(self):
        out = nm.relu(Tensor([-1.0, 2.0]))
        npt.assert_array_equal(out.data, [0.0, 2.0])

    def test_tanh_grad(self):
        x = nm.param([0.3, -1.2])
        with Tape() as tape:
            loss = nm.reduce_sum(nm.tanh(x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-14)

    def test_softplus_matches_log1p_exp(self):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        npt.assert_allclose(nm.softplus(Tensor(x)).data, np.log1p(np.exp(x)), atol=1e-12)
        # no overflow for large inputs
        assert nm.softplus(Tensor(1000.0)).item() == 1000.0


class TestSoftmax:
    def test_equal_logits(self):
        out = nm.softmax(Tensor([4.2, 4.2, 4.2]), axis=0)
        npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_single_element_axis(self):
        out = nm.softmax(Tensor([[5.0]]), axis=1)
        npt.assert_array_equal(out.data, [[1.0]])

    def test_closed_form(self):
        out = nm.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        npt.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((4, 6)) * rng.uniform(0.1, 50)
            s = nm.softmax(Tensor(x), axis=1).data
            assert (s >= 0).all()
            npt.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            nm.softmax(Tensor(np.ones((2, 2))), axis=2)


class TestConcatAndShapes:
    def test_concat_single(self):
        a = Tensor([1.0, 2.0])
        npt.assert_array_equal(nm.concat([a], axis=0).data, a.data)

    def test_concat_vectors(self):
        out = nm.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        npt.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_gradient_splits(self):
        a = nm.param([1.0, 2.0])
        b = nm.param([3.0])
        with Tape() as tape:
            loss = nm.reduce_sum(nm.concat([a, b], axis=0))
        nm.backward(loss, tape)
        npt.assert_array_equal(a.grad, [1.0, 1.0])
        npt.assert_array_equal(b.grad, [1.0])

    def test_concat_incompatible(self):
        with pytest.raises(ShapeMismatchError):
            nm.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_gather_scatter_roundtrip_grads(self):
        x = nm.param(np.arange(6.0).reshape(3, 2))
        with Tape() as tape:
            picked = nm.gather_rows(x, [0, 2, 0])
            loss = nm.reduce_sum(picked)
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_scatter_add(self):
        x = Tensor(np.ones((4, 2)))
        out = nm.scatter_add_rows(x, [1, 1, 0, 2], num_rows=3)
        npt.assert_array_equal(out.data, [[1, 1], [2, 2], [1, 1]])


class TestAffineAndReductions:
    def test_affine_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = nm.affine(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        npt.assert_array_equal(out.data, x.data)

    def test_reduce_sum_ones(self):
        assert nm.reduce_sum(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_reduce_mean(self):
        assert nm.reduce_mean(Tensor([2.0, 4.0])).item() == 3.0

    def test_bias_grad_sums_over_rows(self):
        w = nm.param(np.ones((2, 2)))
        b = nm.param(np.zeros(2))
        x = Tensor(np.ones((5, 2)))
        with Tape() as tape:
            loss = nm.reduce_sum(nm.affine(x, w, b))
        nm.backward(loss, tape)
        npt.assert_array_equal(b.grad, [5.0, 5.0])


class TestLSTMCell:
    def _zero_params(self, input_dim, hidden):
        rng = np.random.default_rng(0)
        p = nm.init_lstm(rng, input_dim, hidden)
        for _, t in p.named("lstm"):
            t.data[...] = 0.0
        return p

    def test_zero_params_zero_cell(self):
        p = self._zero_params(3, 2)
        h = Tensor(np.zeros((1, 2)))
        c = Tensor(np.zeros((1, 2)))
        x = Tensor(np.ones((1, 3)))
        h2, c2 = nm.lstm_cell(h, c, x, p)
        npt.assert_array_equal(h2.data, np.zeros((1, 2)))
        npt.assert_array_equal(c2.data, np.zeros((1, 2)))

    def test_zero_params_unit_cell(self):
        # gates all 0.5, candidate 0: c' = 0.5, h' = 0.5*tanh(0.5)
        p = self._zero_params(3, 2)
        h = Tensor(np.zeros((1, 2)))
        c = Tensor(np.ones((1, 2)))
        x = Tensor(np.ones((1, 3)))
        h2, c2 = nm.lstm_cell(h, c, x, p)
        npt.assert_allclose(c2.data, 0.5, atol=1e-15)
        npt.assert_allclose(h2.data, 0.5 * math.tanh(0.5), atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        p = nm.init_lstm(rng, 3, 4)
        h0 = np.ascontiguousarray(rng.standard_normal((2, 4)))
        c0 = np.ascontiguousarray(rng.standard_normal((2, 4)))
        x0 = np.ascontiguousarray(rng.standard_normal((2, 3)))

        def f():
            h2, _ = nm.lstm_cell(Tensor(h0), Tensor(c0), Tensor(x0), p)
            return nm.reduce_sum(h2)

        err = nm.grad_check(f, dict(p.named("lstm")), eps=1e-5)
        assert err < 1e-8


class TestMultiHeadAttention:
    def test_length_one_sequence(self):
        rng = np.random.default_rng(5)
        p = nm.init_mha(rng, 4, 2)
        x = rng.standard_normal((1, 4))
        out = nm.multi_head_attention(Tensor(x), Tensor(x), Tensor(x), p)
        # softmax over one key is 1: output is out-projection of value row
        npt.assert_allclose(out.data, (x @ p.w_v.data) @ p.w_o.data, atol=1e-14)

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(6)
        p = nm.init_mha(rng, 4, 2)
        k = np.tile(rng.standard_normal((1, 4)), (5, 1))
        v = rng.standard_normal((5, 4))
        q = rng.standard_normal((3, 4))
        out = nm.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), p)
        expected = np.tile((v @ p.w_v.data).mean(axis=0, keepdims=True), (3, 1)) @ p.w_o.data
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_two_token_identity_projections_match_oracle(self):
        rng = np.random.default_rng(8)
        p = identity_mha(4, 2)
        x = rng.standard_normal((2, 4))
        got = nm.multi_head_attention(Tensor(x), Tensor(x), Tensor(x), p).data
        want = mha_oracle(x, x, x, np.eye(4), np.eye(4), np.eye(4), np.eye(4), heads=2)
        npt.assert_allclose(got, want, atol=1e-13)

    def test_random_params_match_oracle(self):
        rng = np.random.default_rng(9)
        p = nm.init_mha(rng, 6, 3)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((5, 6))
        v = rng.standard_normal((5, 6))
        got = nm.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), p).data
        want = mha_oracle(q, k, v, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, 3)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            nm.init_mha(np.random.default_rng(0), 5, 2)

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        p = nm.init_mha(rng, 4, 2)
        x0 = rng.standard_normal((3, 4))

        def f():
            t = Tensor(x0)
            return nm.reduce_sum(nm.multi_head_attention(t, t, t, p))

        err = nm.grad_check(f, dict(p.named("mha")), eps=1e-5)
        assert err < 1e-8


class TestBackward:
    def test_sum_gives_ones(self):
        x = nm.param(np.random.default_rng(0).standard_normal((2, 3)))
        with Tape() as tape:
            loss = nm.reduce_sum(x)
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = nm.param([1.0, -2.0, 3.0])
        with Tape() as tape:
            loss = nm.reduce_sum(nm.mul(x, x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, 2 * x.data, atol=1e-14)

    def test_accumulation_is_additive(self):
        # a tensor used twice collects the sum of both path gradients
        x = nm.param([2.0])
        with Tape() as tape:
            loss = nm.reduce_sum(nm.add(nm.mul(x, x), x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, [2 * 2.0 + 1.0], atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = nm.param([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(y, tape)

    def test_unused_tracked_leaf_gets_zero_buffer(self):
        x = nm.param([1.0])
        y = nm.param([3.0])
        with Tape() as tape:
            # y enters the tape but its branch is multiplied by zero
            loss = nm.reduce_sum(nm.add(x, nm.scale(y, 0.0)))
        nm.backward(loss, tape)
        assert y.grad is not None
        npt.assert_array_equal(y.grad, [0.0])

    def test_no_recording_without_tape(self):
        x = nm.param([1.0])
        out = nm.mul(x, x)
        assert out.tracked is False

    def test_reverse_order_replay(self):
        order = []
        x = nm.param([1.0])
        with Tape() as tape:
            a = nm.mul(x, x)
            b = nm.add(a, x)
            loss = nm.reduce_sum(b)
        names = ["mul", "add", "sum"]
        for (inputs, out, fn), name in zip(tape.records, names):
            order.append(name)
        assert order == ["mul", "add", "sum"]
        nm.backward(loss, tape)
        assert x.grad is not None


class TestGradCheck:
    def test_linear_function_is_tight(self):
        w = nm.param(np.random.default_rng(1).standard_normal((3, 2)))
        x0 = np.random.default_rng(2).standard_normal((4, 3))

        def f():
            return nm.reduce_sum(nm.matmul(Tensor(x0), w))

        assert nm.grad_check(f, {"w": w}, eps=1e-5) < 1e-10

    def test_relu_kink_excluded(self):
        x = nm.param([0.0, 1.0, -2.0])

        def f():
            return nm.reduce_sum(nm.relu(x))

        err = nm.grad_check(f, {"x": x}, eps=1e-5, exclude=lambda name, i: i == 0)
        assert err < 1e-10

    def test_composite_within_tolerance(self):
        rng = np.random.default_rng(13)
        mlp = nm.init_mlp(rng, [4, 5, 3])
        x0 = rng.standard_normal((2, 4))

        def f():
            return nm.reduce_sum(nm.tanh(nm.mlp_apply(Tensor(x0), mlp)))

        assert nm.grad_check(f, dict(mlp.named("mlp")), eps=1e-5) < 1e-4


class TestDeterminism:
    def test_seeded_rng_reproduces(self):
        a = nm.rng_from_seed(123, stream=1).uniform(size=8)
        b = nm.rng_from_seed(123, stream=1).uniform(size=8)
        npt.assert_array_equal(a, b)
        c = nm.rng_from_seed(123, stream=2).uniform(size=8)
        assert not np.array_equal(a, c)
