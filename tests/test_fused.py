"""The fused LSTM cell and batched-head attention against their compositions.

`composite_oracle.py` holds both blocks as chains of primitives, one
tape record per gate and per head. The fused primitives must give the
same values and the same gradient for every input and parameter, and
must stay few records, so per-gate or per-head records cannot return
unnoticed.
"""

import numpy as np
import pytest

import composite_oracle as oracle
from mulcom import numerics as nm
from mulcom.data import SynthSpec, synth_generate
from mulcom.graph import build_graph
from mulcom.model import ModelConfig, build_model, forward_logits
from mulcom.numerics import Tape, Tensor

TOL = 1e-12


def _max_abs_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _run(fn, leaves, weights):
    """Values and leaf gradients of sum(weights[k] * outputs[k])."""
    for t in leaves.values():
        t.zero_grad()
    with Tape() as tape:
        outs = fn()
        loss = None
        for out, w in zip(outs, weights):
            if w is None:
                continue
            term = nm.reduce_sum(nm.mul(out, Tensor(w)))
            loss = term if loss is None else nm.add(loss, term)
    nm.backward(loss, tape)
    grads = {name: t.grad.copy() for name, t in leaves.items()}
    return [out.data.copy() for out in outs], grads


def _assert_same(fused, composite):
    (vals_f, grads_f), (vals_c, grads_c) = fused, composite
    for a, b in zip(vals_f, vals_c):
        assert a.shape == b.shape
        assert _max_abs_diff(a, b) <= TOL
    assert grads_f.keys() == grads_c.keys()
    for name in grads_f:
        assert grads_f[name].shape == grads_c[name].shape, name
        assert _max_abs_diff(grads_f[name], grads_c[name]) <= TOL, name


LEADS = [(1,), (6,), (3, 4)]  # one row, many rows, a 3-d stack of rows


class TestLSTMCell:
    def _setup(self, lead, steps, tracked_inputs=True):
        rng = np.random.default_rng([*lead, steps])
        input_dim, hidden = 3, 4
        p = nm.init_lstm(rng, input_dim, hidden)
        for _, t in p.named("lstm"):  # nonzero biases exercise their gradients
            t.data[...] = rng.uniform(-0.8, 0.8, size=t.shape)
        make = nm.param if tracked_inputs else Tensor
        h0 = make(rng.standard_normal(lead + (hidden,)))
        c0 = make(rng.standard_normal(lead + (hidden,)))
        xs = [make(rng.standard_normal(lead + (input_dim,))) for _ in range(steps)]
        leaves = dict(p.named("lstm"))
        if tracked_inputs:
            leaves.update({"h0": h0, "c0": c0})
            leaves.update({f"x{s}": x for s, x in enumerate(xs)})
        weights = [rng.standard_normal(lead + (hidden,)) for _ in range(2)]
        return p, h0, c0, xs, leaves, weights

    @staticmethod
    def _chain(cell, p, h0, c0, xs):
        def fn():
            h, c = h0, c0
            for x in xs:
                h, c = cell(h, c, x, p)
            return h, c
        return fn

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("through", ["h", "c", "both"])
    def test_matches_composite(self, lead, steps, through):
        p, h0, c0, xs, leaves, (wh, wc) = self._setup(lead, steps)
        weights = (wh if through != "c" else None, wc if through != "h" else None)
        fused = _run(self._chain(nm.lstm_cell, p, h0, c0, xs), leaves, weights)
        composite = _run(self._chain(oracle.lstm_cell, p, h0, c0, xs), leaves, weights)
        _assert_same(fused, composite)

    def test_forward_is_bit_identical(self):
        p, h0, c0, xs, _, _ = self._setup((6,), 3)
        fused = self._chain(nm.lstm_cell, p, h0, c0, xs)()
        composite = self._chain(oracle.lstm_cell, p, h0, c0, xs)()
        for a, b in zip(fused, composite):
            np.testing.assert_array_equal(a.data, b.data)

    def test_untracked_state_and_input(self):
        # the sentence LSTM's first step: only the parameters are tracked
        p, h0, c0, xs, leaves, weights = self._setup((5,), 3, tracked_inputs=False)
        fused = _run(self._chain(nm.lstm_cell, p, h0, c0, xs), leaves, weights)
        composite = _run(self._chain(oracle.lstm_cell, p, h0, c0, xs), leaves, weights)
        _assert_same(fused, composite)
        assert h0.grad is None and c0.grad is None

    def test_at_most_two_records(self):
        p, h0, c0, xs, _, _ = self._setup((6,), 1)
        with Tape() as tape:
            nm.lstm_cell(h0, c0, xs[0], p)
        assert len(tape) <= 2


def _mha_records(heads):
    rng = np.random.default_rng(heads)
    p = nm.init_mha(rng, 8, heads)
    x = nm.param(rng.standard_normal((5, 3, 8)))
    with Tape() as tape:
        nm.multi_head_attention(x, x, x, p)
    return len(tape)


class TestMultiHeadAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize(
        "shapes",
        [((1, 8), (1, 8)), ((5, 8), (7, 8)), ((3, 4, 8), (3, 6, 8))],
        ids=["one-row", "many-rows", "stacked"],
    )
    def test_matches_composite(self, heads, shapes):
        q_shape, kv_shape = shapes
        rng = np.random.default_rng(100 + heads)
        p = nm.init_mha(rng, 8, heads)
        q = nm.param(rng.standard_normal(q_shape))
        k = nm.param(rng.standard_normal(kv_shape))
        v = nm.param(rng.standard_normal(kv_shape))
        leaves = {**dict(p.named("mha")), "q": q, "k": k, "v": v}
        w = [rng.standard_normal(q_shape)]
        fused = _run(lambda: [nm.multi_head_attention(q, k, v, p)], leaves, w)
        composite = _run(lambda: [oracle.multi_head_attention(q, k, v, p)], leaves, w)
        _assert_same(fused, composite)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_self_attention_matches_composite(self, heads):
        # the reasoner's use: one tensor as query, key and value
        rng = np.random.default_rng(200 + heads)
        p = nm.init_mha(rng, 8, heads)
        x = nm.param(rng.standard_normal((6, 3, 8)))
        leaves = {**dict(p.named("mha")), "x": x}
        w = [rng.standard_normal((6, 3, 8))]
        fused = _run(lambda: [nm.multi_head_attention(x, x, x, p)], leaves, w)
        composite = _run(lambda: [oracle.multi_head_attention(x, x, x, p)], leaves, w)
        _assert_same(fused, composite)

    def test_record_count_does_not_grow_with_heads(self):
        counts = {heads: _mha_records(heads) for heads in (1, 2, 4)}
        assert len(set(counts.values())) == 1, counts


# Records of one 16-doc forward on the planted corpus below (at most 10
# sentences a doc, 2 reasoner steps). The bounds are the counts with the
# fused blocks; per-gate and per-head records gave 144, 341 and 227.
FORWARD_RECORD_BOUNDS = {
    ("word", "relation"): 91,
    ("word", "sentence", "relation"): 129,
    ("word", "sentence"): 68,
}


@pytest.mark.parametrize("streams", list(FORWARD_RECORD_BOUNDS), ids=",".join)
def test_batch_forward_records_stay_bounded(streams):
    ds = synth_generate(3, SynthSpec(docs=16, val_frac=0.0, d_w=6, d_s=5, vocab=24))
    docs = ds.split("train")
    cfg = ModelConfig(num_tropes=ds.num_tropes, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
                      reasoner_steps=2, reasoner_heads=4, streams=streams)
    model = build_model(cfg, seed=0)
    graphs = [build_graph(d) for d in docs]
    with Tape() as tape:
        forward_logits(model, docs, graphs)
    assert len(tape) <= FORWARD_RECORD_BOUNDS[streams]
