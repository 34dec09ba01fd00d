"""Tensor primitives checked against independent oracles.

The oracles here never call the library code paths they verify:
matmul gets a triple loop, attention a direct formula transcription,
composite cells central finite differences.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

import composite_oracle as oracle
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
            loss = oracle.reduce_sum(nm.matmul(a, b))
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
            loss = oracle.reduce_sum(nm.tanh(x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-14)

    def test_softplus_matches_log1p_exp(self):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        npt.assert_allclose(oracle.softplus(Tensor(x)).data, np.log1p(np.exp(x)), atol=1e-12)
        # no overflow for large inputs
        assert oracle.softplus(Tensor(1000.0)).item() == 1000.0


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
            loss = oracle.reduce_sum(nm.concat([a, b], axis=0))
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
            loss = oracle.reduce_sum(picked)
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("index", [[0, -1], [0, 3]], ids=["negative", "past-the-end"])
    def test_gather_index_out_of_range(self, index):
        # rejected by the forward pass, not only when a backward pass runs
        with pytest.raises(ShapeMismatchError, match=r"gather_rows: index outside \[0, 3\)"):
            nm.gather_rows(Tensor(np.ones((3, 2))), index)

    def test_scatter_add(self):
        x = Tensor(np.ones((4, 2)))
        out = nm.scatter_add_rows(x, [1, 1, 0, 2], num_rows=3)
        npt.assert_array_equal(out.data, [[1, 1], [2, 2], [1, 1]])

    @pytest.mark.parametrize("n_rows, n_groups", [(0, 3), (5, 1), (9, 4), (40, 6)])
    def test_segment_sums_match_add_at_bit_for_bit(self, n_rows, n_groups):
        rng = np.random.default_rng([n_rows, n_groups])
        index = rng.integers(0, n_groups, size=n_rows)  # some groups may be empty
        rows = rng.standard_normal((n_rows, 3))
        want = np.zeros((n_groups, 3))
        np.add.at(want, index, rows)
        npt.assert_array_equal(nm.Segments.by_index(index, n_groups).sum(rows), want)
        # the runs form: any rows, repeats allowed, in groups of any size, empty ones too
        order = rng.integers(0, max(n_rows, 1), size=n_rows * 2 if n_rows else 0)
        counts = np.bincount(rng.integers(0, n_groups, size=order.shape[0]), minlength=n_groups)
        want = np.zeros((n_groups, 3))
        np.add.at(want, np.arange(n_groups).repeat(counts), rows[order])
        npt.assert_array_equal(nm.Segments(order, counts).sum(rows), want)

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)

    def test_segment_sums_add_each_group_left_to_right(self):
        rows = np.array([[1e16], [1.0], [-1e16]])
        # (1e16 + 1) rounds to 1e16, so the order decides between 0 and 1
        sums = nm.Segments([0, 1, 2, 0, 2, 1, 1, 0, 2], [3, 3, 3]).sum(rows)
        npt.assert_array_equal(sums, [[0.0], [1.0], [0.0]])
        npt.assert_array_equal(nm.Segments.by_index([0, 0, 0], 1).sum(rows), [[0.0]])
        npt.assert_array_equal(nm.Segments.by_index([0, 0, 0], 1).sum(rows[[0, 2, 1]]), [[1.0]])

    def test_segment_sums_keep_signed_zeros(self):
        rows = np.array([[-0.0], [0.0]])
        # one -0.0; two; -0.0 then +0.0; +0.0 then -0.0; no rows
        sums = nm.Segments([0, 0, 0, 0, 1, 1, 0], [1, 2, 2, 2, 0]).sum(rows)
        want = [[-0.0], [-0.0], [0.0], [0.0], [0.0]]
        assert self._bits(sums).tolist() == self._bits(want).tolist()
        lone = nm.Segments.by_index([1, 0], 3).sum(rows)
        assert self._bits(lone).tolist() == self._bits([[0.0], [-0.0], [0.0]]).tolist()

    def test_segment_sums_of_empty_groups_are_positive_zero(self):
        rows = np.arange(6.0).reshape(3, 2)
        sums = nm.Segments([2, 0, 1], [0, 2, 0, 0, 1, 0]).sum(rows)
        npt.assert_array_equal(sums, [[0, 0], [4, 6], [0, 0], [0, 0], [2, 3], [0, 0]])
        for segs in (nm.Segments([], [0, 0]), nm.Segments.by_index([], 2)):
            assert self._bits(segs.sum(rows)).tolist() == [[0, 0], [0, 0]]
        assert nm.Segments([], []).sum(rows).shape == (0, 2)

    @pytest.mark.parametrize("counts", [[2, 1, 3], [0, 4, 0, 2]])  # without, with empty groups
    def test_segment_sums_into_out_match_a_fresh_array(self, counts):
        rng = np.random.default_rng(len(counts))
        rows = rng.standard_normal((6, 3))
        segs = nm.Segments(rng.permutation(6), counts)
        buf = np.full((2, len(counts), 5), np.nan)
        out = buf[1, :, 1:4]  # a strided view, stale values in it
        assert segs.sum(rows, out=out) is out
        npt.assert_array_equal(out, segs.sum(rows))
        assert np.isnan(buf[0]).all() and np.isnan(buf[1, :, [0, 4]]).all()

    @pytest.mark.parametrize("groups", [[[0, 2], [1]], [[], [4, 0, 4]]])  # all live, and not
    def test_segment_sums_raise_for_rows_one_short(self, groups):
        # every gather keeps numpy's bounds check, into `out` or not
        order = [r for g in groups for r in g]
        segs = nm.Segments(order, [len(g) for g in groups])
        rows = np.arange(2.0 * max(order)).reshape(-1, 2)
        for out in (None, np.empty((2, len(groups), 2))[1]):
            with pytest.raises(IndexError):
                segs.sum(rows, out=out)

    @pytest.mark.parametrize("order, counts", [([0, 1], [1]), ([0], [1, 1]), ([0], [])])
    def test_segment_counts_must_cover_order(self, order, counts):
        with pytest.raises(ShapeMismatchError, match="Segments: counts sum to"):
            nm.Segments(order, counts)

    @pytest.mark.parametrize("index", [[0, 3], [-1, 0]])
    def test_segment_index_out_of_range(self, index):
        with pytest.raises(ShapeMismatchError):
            nm.scatter_add_rows(Tensor(np.ones((2, 2))), index, num_rows=3)


class TestAffineAndReductions:
    def test_affine_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = nm.affine(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        npt.assert_array_equal(out.data, x.data)

    def test_reduce_sum_ones(self):
        assert oracle.reduce_sum(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_reduce_mean(self):
        assert oracle.reduce_mean(Tensor([2.0, 4.0])).item() == 3.0

    def test_bias_grad_sums_over_rows(self):
        w = nm.param(np.ones((2, 2)))
        b = nm.param(np.zeros(2))
        x = Tensor(np.ones((5, 2)))
        with Tape() as tape:
            loss = oracle.reduce_sum(nm.affine(x, w, b))
        nm.backward(loss, tape)
        npt.assert_array_equal(b.grad, [5.0, 5.0])


class TestLSTMCell:
    def _zero_params(self, input_dim, hidden):
        rng = np.random.default_rng(0)
        p = nm.init_lstm(rng, input_dim, hidden)
        for _, t in p.named("lstm"):
            nm.write(t, 0.0)
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
            return oracle.reduce_sum(h2)

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
            return oracle.reduce_sum(nm.multi_head_attention(t, t, t, p))

        err = nm.grad_check(f, dict(p.named("mha")), eps=1e-5)
        assert err < 1e-8


class TestBackward:
    def test_sum_gives_ones(self):
        x = nm.param(np.random.default_rng(0).standard_normal((2, 3)))
        with Tape() as tape:
            loss = oracle.reduce_sum(x)
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = nm.param([1.0, -2.0, 3.0])
        with Tape() as tape:
            loss = oracle.reduce_sum(nm.mul(x, x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, 2 * x.data, atol=1e-14)

    def test_accumulation_is_additive(self):
        # a tensor used twice collects the sum of both path gradients
        x = nm.param([2.0])
        with Tape() as tape:
            loss = oracle.reduce_sum(nm.add(nm.mul(x, x), x))
        nm.backward(loss, tape)
        npt.assert_allclose(x.grad, [2 * 2.0 + 1.0], atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = nm.param([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(y, tape)

    def test_branch_scaled_by_zero_gets_a_zero_gradient(self):
        x = nm.param([1.0])
        y = nm.param([3.0])
        with Tape() as tape:
            # y's branch reaches the loss, multiplied by zero
            loss = oracle.reduce_sum(nm.add(x, nm.scale(y, 0.0)))
        nm.backward(loss, tape)
        assert y.grad is not None
        npt.assert_array_equal(y.grad, [0.0])

    def test_a_record_off_the_loss_leaves_its_inputs_without_gradient(self):
        x = nm.param([1.0])
        y = nm.param([3.0])
        with Tape() as tape:
            nm.mul(y, y)  # on the tape, but the loss does not read it
            loss = oracle.reduce_sum(nm.scale(x, 2.0))
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, [2.0])
        assert y.grad is None

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
            loss = oracle.reduce_sum(b)
        names = ["mul", "add", "sum"]
        for (inputs, out, fn), name in zip(tape.records, names):
            order.append(name)
        assert order == ["mul", "add", "sum"]
        nm.backward(loss, tape)
        assert x.grad is not None


class TestRepeatedInputs:
    """A primitive handed one tensor twice delivers the sum of both paths."""

    def test_add(self):
        x = nm.param([1.0, -2.0])
        with Tape() as tape:
            loss = oracle.reduce_sum(nm.add(x, x))
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, [2.0, 2.0])

    def test_concat(self):
        x = nm.param([1.0, -2.0])
        with Tape() as tape:
            weighted = nm.mul(nm.concat([x, x]), Tensor([1.0, 2.0, 3.0, 4.0]))
            loss = oracle.reduce_sum(weighted)
        nm.backward(loss, tape)
        npt.assert_array_equal(x.grad, [1.0 + 3.0, 2.0 + 4.0])

    def test_matmul(self):
        x = nm.param(np.random.default_rng(7).standard_normal((3, 3)))
        with Tape() as tape:
            loss = oracle.reduce_sum(nm.matmul(x, x))
        nm.backward(loss, tape)
        ones = np.ones((3, 3))
        npt.assert_allclose(x.grad, ones @ x.data.T + x.data.T @ ones, rtol=1e-14)


class TestRecord:
    def test_delivers_one_gradient_per_tracked_input(self):
        a, b, c = nm.param([1.0, 2.0]), Tensor([3.0, 4.0]), nm.param([5.0, 6.0])
        calls = []

        def grads_fn(g):
            calls.append(g)
            return {a: g * 2.0, c: g * 3.0}  # untracked b needs none

        with Tape() as tape:
            out = nm.record((a, b, c), Tensor(a.data + b.data + c.data), grads_fn)
            loss = oracle.reduce_sum(out)
        assert len(tape) == 2 and out.tracked
        nm.backward(loss, tape)
        assert len(calls) == 1
        npt.assert_array_equal(a.grad, [2.0, 2.0])
        npt.assert_array_equal(c.grad, [3.0, 3.0])
        assert b.grad is None

    def test_joined_blocks_take_their_part_of_the_base_gradient(self):
        left, right = nm.param([[1.0], [2.0]]), nm.param([[3.0, 4.0], [5.0, 6.0]])
        base = nm.join([left, right])
        base_grad = np.arange(6.0).reshape(2, 3)
        with Tape() as tape:
            out = nm.record((left, right), Tensor(base.data.sum()), lambda g: {base: g * base_grad})
        nm.backward(out, tape)
        npt.assert_array_equal(left.grad, [[0.0], [3.0]])
        npt.assert_array_equal(right.grad, [[1.0, 2.0], [4.0, 5.0]])

    def test_a_joined_block_takes_its_own_entry_first(self):
        left, right = nm.param([1.0]), nm.param([2.0, 3.0])
        base = nm.join([left, right])
        with Tape() as tape:
            out = nm.record((left, right), Tensor(base.data.sum()),
                            lambda g: {left: g * [7.0], base: g * np.arange(3.0)})
        nm.backward(out, tape)
        npt.assert_array_equal(left.grad, [7.0])
        npt.assert_array_equal(right.grad, [1.0, 2.0])

    def test_an_input_listed_twice_takes_its_gradient_once(self):
        x = nm.param([1.0, -1.0])
        with Tape() as tape:
            out = nm.record((x, x), Tensor((x.data * x.data).sum()), lambda g: {x: 2.0 * g * x.data})
        nm.backward(out, tape)
        npt.assert_array_equal(x.grad, [2.0, -2.0])

    def test_records_nothing_without_a_tape_or_a_tracked_input(self):
        def never(g):
            raise AssertionError("grads_fn called")

        out = nm.record((nm.param([1.0]),), Tensor([1.0]), never)
        assert not out.tracked
        with Tape() as tape:
            out = nm.record((Tensor([1.0]),), Tensor([1.0]), never)
        assert len(tape) == 0 and not out.tracked
        assert not nm.recording((Tensor([1.0]),))


class TestGradCheck:
    def test_linear_function_is_tight(self):
        w = nm.param(np.random.default_rng(1).standard_normal((3, 2)))
        x0 = np.random.default_rng(2).standard_normal((4, 3))

        def f():
            return oracle.reduce_sum(nm.matmul(Tensor(x0), w))

        assert nm.grad_check(f, {"w": w}, eps=1e-5) < 1e-10

    def test_relu_kink_excluded(self):
        x = nm.param([0.0, 1.0, -2.0])

        def f():
            return oracle.reduce_sum(nm.relu(x))

        # at 0 the one-sided slopes are 1 and 0, so that probe is skipped
        err = nm.grad_check(f, {"x": x}, eps=1e-5)
        assert err < 1e-10

    def test_composite_within_tolerance(self):
        rng = np.random.default_rng(13)
        mlp = nm.init_mlp(rng, [4, 5, 3])
        x0 = rng.standard_normal((2, 4))

        def f():
            return oracle.reduce_sum(nm.tanh(nm.mlp_apply(Tensor(x0), mlp)))

        assert nm.grad_check(f, dict(mlp.named("mlp")), eps=1e-5) < 1e-4

    @pytest.mark.parametrize("doubled", [False, True])
    def test_column_view_parameter(self, doubled):
        # A column view is not contiguous, so perturbing a flattened copy of
        # it moved nothing: the correct gradient read error 1.0.
        rng = np.random.default_rng(14)
        joined = rng.standard_normal((4, 7))
        w = nm.param(joined[:, 2:5])
        assert np.shares_memory(w.data, joined) and not w.data.flags.c_contiguous
        x = Tensor(rng.standard_normal((3, 4)))
        before = joined.copy()

        def f():
            loss = oracle.reduce_mean(nm.matmul(x, w))
            if not doubled:
                return loss
            # the same value, but the tape sees only the first term: twice the slope
            twice = oracle.reduce_mean(nm.matmul(nm.scale(x, 2.0), w))
            return nm.add(twice, oracle.neg(oracle.reduce_mean(nm.matmul(x, Tensor(w.data.copy())))))

        err = nm.grad_check(f, {"w": w}, eps=1e-5)
        if doubled:
            assert err > 0.3
        else:
            assert err < 1e-8
        assert np.shares_memory(w.data, joined)
        npt.assert_array_equal(joined, before)  # every probe is undone in place

    @pytest.mark.parametrize("kw, key", [
        ({"max_coords": 0}, "max_coords"),
        ({"max_coords": -1}, "max_coords"),
        ({"eps": 0.0}, "eps"),
        ({"eps": -1e-5}, "eps"),
        ({"eps": math.nan}, "eps"),
        ({"eps": math.inf}, "eps"),
    ])
    def test_bad_settings_are_config_errors(self, kw, key):
        # max_coords 0 used to probe nothing and report 0 error; eps 0 divided by zero
        w = nm.param(np.ones((2, 2)))
        with pytest.raises(ConfigError, match=key):
            nm.grad_check(lambda: oracle.reduce_sum(w), {"w": w}, **kw)


class TestDerived:
    """`Derived` keeps fn's arrays until `write` gives an input a new version."""

    @staticmethod
    def counting(log):
        def fn(*inputs):
            log.append(inputs)
            return (sum(t.data for t in inputs) * 1.0,)

        return fn

    def test_computes_once_per_weight_state(self):
        a, b, c = (nm.param(np.full(2, v)) for v in (1.0, 2.0, 4.0))
        log = []
        cache = nm.Derived(self.counting(log))
        first = cache(a, b)
        assert cache(a, b) is first and len(log) == 1
        nm.write(c, 5.0)  # not an input
        assert cache(a, b) is first and len(log) == 1
        nm.write(a, 10.0)
        (value,) = cache(a, b)
        npt.assert_array_equal(value, [12.0, 12.0])
        assert len(log) == 2 and cache(a, b)[0] is value

    def test_a_write_invalidates_exactly_the_caches_that_read_it(self):
        a, b, c = (nm.param(np.ones((2, 2))) for _ in range(3))
        p, q = nm.param(np.ones((2, 1))), nm.param(np.ones((2, 3)))
        base = nm.join([p, q])
        inputs = {"ab": (a, b), "bc": (b, c), "c": (c,), "base": (base,), "q": (q,)}
        caches = {k: nm.Derived(self.counting([])) for k in inputs}

        def moved(t, value=None, index=...):
            held = {k: cache(*inputs[k]) for k, cache in caches.items()}
            nm.write(t, value, index)
            return {k for k, cache in caches.items() if cache(*inputs[k]) is not held[k]}

        assert moved(b, 3.0) == {"ab", "bc"}
        assert moved(c, 3.0, (0, 1)) == {"bc", "c"}
        assert moved(p, 2.0) == {"base"}  # a block's write reaches its joined array
        assert moved(q) == {"base", "q"}
        npt.assert_array_equal(caches["base"](base)[0], [[2.0, 1.0, 1.0, 1.0]] * 2)

    def test_other_tensors_at_the_same_versions_recompute(self):
        cache = nm.Derived(lambda t: (t.data * 2.0,))
        a, b = nm.param([1.0]), nm.param([3.0])
        assert a.version == b.version == 0
        npt.assert_array_equal(cache(a)[0], [2.0])
        npt.assert_array_equal(cache(b)[0], [6.0])

    def test_arrays_are_read_only(self):
        (value,) = nm.Derived(lambda t: (t.data + 1.0,))(nm.param(np.zeros(3)))
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 1.0

    def test_write_sets_the_values_and_moves_the_versions(self):
        p, q = nm.param(np.zeros((2, 1))), nm.param(np.zeros((2, 2)))
        base = nm.join([p, q])
        nm.write(q, 7.0, (1, 0))
        npt.assert_array_equal(base.data, [[0.0, 0.0, 0.0], [0.0, 7.0, 0.0]])
        assert (p.version, q.version, base.version) == (0, 1, 1)
        nm.write(p)  # values changed elsewhere: only the versions move
        npt.assert_array_equal(base.data, [[0.0, 0.0, 0.0], [0.0, 7.0, 0.0]])
        assert (p.version, q.version, base.version) == (1, 1, 2)

    def test_grad_check_probes_reach_the_caches(self):
        # The loss reads w only through a cache, off the tape, so its analytic
        # gradient is 0; a probe the cache missed would measure 0 as well.
        w = nm.param([0.5, -1.5])
        x = nm.param([1.0, 2.0])
        cache = nm.Derived(lambda t: (t.data * 3.0,))

        def f():
            return oracle.reduce_sum(nm.mul(x, Tensor(cache(w)[0])))

        assert nm.grad_check(f, {"w": w}) == pytest.approx(1.0)
        assert cache(w)[0].tolist() == [1.5, -4.5]


class TestDeterminism:
    def test_seeded_rng_reproduces(self):
        a = nm.rng_from_seed(123, stream=1).uniform(size=8)
        b = nm.rng_from_seed(123, stream=1).uniform(size=8)
        npt.assert_array_equal(a, b)
        c = nm.rng_from_seed(123, stream=2).uniform(size=8)
        assert not np.array_equal(a, c)
