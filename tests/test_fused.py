"""The fused LSTM sequence, reasoner, stream pooling and head against compositions of primitives.

`composite_oracle.py` holds the blocks as chains of primitives: one
`lstm_cell` call per time step, a reasoner step loop of `message_pass`
and `lstm_cell` followed by `multi_head_attention`, the library's
composite cell and attention, trope-query pooling as affine, product,
scale, mask and softmax records, and the head as a stream-mix softmax,
per-stream products and the predictor MLP on concat(mixed, embedding).
The fused primitives must give the same values and the same gradient
for every input and parameter, and must stay few records, so per-gate,
per-step, per-head or per-op records cannot return unnoticed. The LSTM
sequence and its gate update pair must also equal, bit for bit, the
row-major records frozen in `composite_oracle.py`; the pooling, which
folds the key projection into the queries and pools the view rows
before the value projection, must match the out-of-place record frozen
there within 1e-12 and give the key bias a zero gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_oracle as oracle
from mulcom import msrrn
from mulcom import numerics as nm
from mulcom.data import SynthSpec, synth_generate
from mulcom.errors import ShapeMismatchError
from mulcom.graph import EntityMentions, FeatureDoc, build_graph, graph_batch
from mulcom.model import (
    ModelConfig, TrainConfig, build_model, forward_logits, predict_logits, train,
)
from mulcom.numerics import Tape, Tensor
from mulcom.streams import (
    _layout,
    attend,
    init_stream,
    relation_stream,
    sentence_stream,
    word_stream,
)

from test_graph import make_doc

TOL = 1e-12


def _max_abs_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _run(fn, leaves, w):
    """Value and leaf gradients of sum(w * fn())."""
    for t in leaves.values():
        t.zero_grad()
    with Tape() as tape:
        out = fn()
        loss = oracle.reduce_sum(nm.mul(out, Tensor(w)))
    nm.backward(loss, tape)
    return out.data.copy(), {name: t.grad.copy() for name, t in leaves.items()}


def _assert_same(fused, composite):
    (val_f, grads_f), (val_c, grads_c) = fused, composite
    assert val_f.shape == val_c.shape
    assert _max_abs_diff(val_f, val_c) <= TOL
    assert grads_f.keys() == grads_c.keys()
    for name in grads_f:
        assert grads_f[name].shape == grads_c[name].shape, name
        assert _max_abs_diff(grads_f[name], grads_c[name]) <= TOL, name


# batch, steps, and each row's real steps (None: no padding)
SEQUENCES = {
    "one-row": (1, 7, None),
    "padded-rows": (3, 7, (7, 4, 2)),
    "one-step": (3, 1, None),
}


def _assert_identical(new, ref):
    """Values and every gradient equal bit for bit."""
    (val_n, grads_n), (val_r, grads_r) = new, ref
    assert np.array_equal(val_n, val_r)
    assert grads_n.keys() == grads_r.keys()
    for name in grads_n:
        assert np.array_equal(grads_n[name], grads_r[name]), name


class TestLSTMSequence:
    def _setup(self, n_b, n_s, lengths=None, tracked_input=True, input_dim=3, hidden=4):
        rng = np.random.default_rng([n_b, n_s, 7])
        p = nm.init_lstm(rng, input_dim, hidden)
        for _, t in p.named("lstm"):  # nonzero biases exercise their gradients
            nm.write(t, rng.uniform(-0.8, 0.8, size=t.shape))
        valid = np.ones((n_b, n_s), dtype=bool)
        if lengths is not None:
            valid = np.arange(n_s) < np.array(lengths)[:, None]
        data = rng.standard_normal((n_b, n_s, input_dim))
        data[~valid] = 0.0  # zero padding, as the sentence stream pads
        x = (nm.param if tracked_input else Tensor)(data)
        leaves = dict(p.named("lstm"))
        if tracked_input:
            leaves["x"] = x
        # no upstream gradient at padded steps, as attention masks them
        weights = rng.standard_normal((n_b, n_s, hidden)) * valid[..., None]
        return p, x, leaves, weights

    @pytest.mark.parametrize("case", list(SEQUENCES))
    @pytest.mark.parametrize("through", ["every-step", "even-steps"])
    def test_matches_per_step_cells(self, case, through):
        p, x, leaves, weights = self._setup(*SEQUENCES[case])
        if through == "even-steps":
            weights[:, 1::2] = 0.0
        fused = _run(lambda: nm.lstm_sequence(x, p), leaves, weights)
        composite = _run(lambda: oracle.lstm_sequence(x, p), leaves, weights)
        _assert_same(fused, composite)
        assert set(fused[1]) == {"x"} | {name for name, _ in p.named("lstm")}

    def test_untracked_input(self):
        # the sentence stream's use: only the parameters are tracked
        p, x, leaves, weights = self._setup(3, 7, (7, 4, 2), tracked_input=False)
        fused = _run(lambda: nm.lstm_sequence(x, p), leaves, weights)
        composite = _run(lambda: oracle.lstm_sequence(x, p), leaves, weights)
        _assert_same(fused, composite)
        assert x.grad is None

    @pytest.mark.parametrize("n_s", [1, 7])
    def test_one_record(self, n_s):
        p, x, _, _ = self._setup(3, n_s)
        with Tape() as tape:
            nm.lstm_sequence(x, p)
        assert len(tape) == 1

    def test_input_width_must_fit_the_gates(self):
        p, _, _, _ = self._setup(2, 3)
        with pytest.raises(ShapeMismatchError):
            nm.lstm_sequence(nm.param(np.zeros((2, 3, 5))), p)

    @pytest.mark.parametrize("n_b,n_s,lengths", [
        (1, 1, None), (1, 19, None), (16, 1, None), (16, 19, None),
        (16, 19, (19, 1, 7, 12, 19, 3, 18, 5, 2, 19, 9, 14, 1, 16, 11, 6)),
    ], ids=["1x1", "1x19", "16x1", "16x19", "16x19-ragged"])
    def test_matches_the_row_major_record_bit_for_bit(self, n_b, n_s, lengths):
        p, x, leaves, weights = self._setup(n_b, n_s, lengths, input_dim=24, hidden=32)
        new = _run(lambda: nm.lstm_sequence(x, p), leaves, weights)
        ref = _run(lambda: oracle.rowmajor_lstm_sequence(x, p), leaves, weights)
        _assert_identical(new, ref)
        assert set(new[1]) == {"x"} | {name for name, _ in p.named("lstm")}


@pytest.mark.parametrize("n_t", [1, 3])
def test_gate_update_pair_matches_the_row_major_pair_bit_for_bit(n_t):
    """`lstm_update` on halved pre-activations, gate-major, and its backward pass.

    Every step's state and gate activations, the pre-activation gradient
    the step callback receives at every step, and the returned gradients
    must equal those of the frozen row-major pair.
    """
    rng = np.random.default_rng([n_t, 31])
    n, hd = 16, 8
    z = 2.0 * rng.standard_normal((n_t, n, 4 * hd))  # pre-activations
    gh = rng.standard_normal((n_t, n, hd))
    w_back = rng.standard_normal((4 * hd, hd))  # what step t's gradient reaches h_{t-1} by

    def run(gate_major):
        c, tc, h = (np.empty((n_t, n, hd)) for _ in range(3))
        if gate_major:
            act = np.empty((n_t, 4, n, hd))
            a = z.copy()
            a[..., : 3 * hd] *= 0.5
            for t in range(n_t):
                z4 = a[t].reshape(n, 4, hd).transpose(1, 0, 2)
                nm.lstm_update(z4, act[t], c[t - 1] if t else None, c[t], tc[t], h[t])
            backward = nm.lstm_update_backward
            gates = act.transpose(0, 2, 1, 3).reshape(n_t, n, 4 * hd)
        else:
            act = z.copy()
            for t in range(n_t):
                oracle.rowmajor_lstm_update(act[t], c[t - 1] if t else None, c[t], tc[t], h[t])
            backward = oracle.rowmajor_lstm_update_backward
            gates = act
        seen = {}

        def step(t, d):
            seen[t] = d.copy()
            return d @ w_back if t else None

        d_pre = backward(act, c, tc, gh, step)
        return (gates, c, tc, h, d_pre), seen

    (new, new_seen), (ref, ref_seen) = run(True), run(False)
    for name, a, b in zip(("act", "c", "tanh(c)", "h", "d_pre"), new, ref):
        assert np.array_equal(a, b), name
    assert list(new_seen) == list(ref_seen) == list(range(n_t - 1, -1, -1))
    for t in ref_seen:
        assert np.array_equal(new_seen[t], ref_seen[t]), t


def test_sentence_stream_emits_one_lstm_record():
    rng = np.random.default_rng(11)
    p = init_stream(rng, view_dim=4, d_f=5, d_a=4, rnn_input=3)
    e = nm.param(rng.standard_normal((2, 5)))
    rnn = {id(t) for _, t in p.sent_rnn.named("rnn")}
    totals = set()
    for n_sents in (1, 4, 12):
        docs = [
            FeatureDoc(f"d{n}", rng.standard_normal((2, 3)),
                       rng.standard_normal((n, 3)), [], ())
            for n in (n_sents, n_sents + 2)  # ragged, so always masked
        ]
        with Tape() as tape:
            sentence_stream(docs, e, p)
        lstm = [r for r in tape.records if any(id(t) in rnn for t in r[0])]
        assert len(lstm) == 1, n_sents
        totals.add(len(tape))
    assert len(totals) == 1, totals  # no record grows with the sentence count


# trope count, view shape, each row's real positions (None: no mask), feats tracked
POOLS = {
    "single-view": (3, (6, 5), None, True),
    "padded-batch": (3, (4, 6, 5), (6, 3, 1, 4), True),
    "unmasked-batch": (3, (3, 6, 5), None, True),
    "untracked-feats": (3, (4, 6, 5), (6, 2, 6, 5), False),
    "single-position": (4, (2, 1, 5), None, True),
    "wide-view": (3, (3, 5, 9), (5, 2, 4), True),  # view dim above d_a
    "long-words": (5, (3, 206, 4), (206, 180, 197), True),  # the word stream's shape
    "more-tropes": (8, (3, 4, 6), (4, 1, 3), True),  # L < T: pooling first costs more here
}


class TestAttend:
    def _setup(self, case):
        n_tropes, shape, lengths, tracked = POOLS[case]
        rng = np.random.default_rng([len(shape), shape[-2], 3])
        p = init_stream(rng, view_dim=shape[-1], d_f=4, d_a=6)
        for _, t in p.named("pool"):  # nonzero biases exercise their gradients
            nm.write(t, rng.uniform(-0.8, 0.8, size=t.shape))
        e = nm.param(rng.standard_normal((n_tropes, 4)))
        mask = None
        data = rng.standard_normal(shape)
        if lengths is not None:
            valid, mask = _layout(np.array(lengths))
            data[~valid] = 0.0  # zero padding, as the streams pad
        feats = (nm.param if tracked else Tensor)(data)
        leaves = dict(p.named("pool"), E=e)
        if tracked:
            leaves["feats"] = feats
        weights = rng.standard_normal(shape[:-2] + (n_tropes, 4))
        return p, e, feats, mask, leaves, weights

    @pytest.mark.parametrize("case", list(POOLS))
    def test_matches_composite(self, case):
        p, e, feats, mask, leaves, w = self._setup(case)
        fused = _run(lambda: attend(e, feats, p, mask), leaves, w)
        composite = _run(lambda: oracle.attend(e, feats, p, mask), leaves, w)
        _assert_same(fused, composite)
        assert not fused[1]["pool.key_proj.b"].any()  # the softmax cancels q . b_k
        assert len(fused[1]) == (10 if feats.tracked else 9)  # E, 8 projections, feats
        assert feats.tracked or feats.grad is None

    @pytest.mark.parametrize("case", list(POOLS))
    def test_returns_the_composite_weights(self, case):
        p, e, feats, mask, _, _ = self._setup(case)
        out, weights = attend(e, feats, p, mask, return_weights=True)
        want_out, want_weights = oracle.attend(e, feats, p, mask, return_weights=True)
        assert _max_abs_diff(out.data, want_out.data) <= TOL
        assert _max_abs_diff(weights.data, want_weights.data) <= TOL
        if mask is not None:
            assert (weights.data[np.broadcast_to(mask, weights.shape) != 0] == 0.0).all()

    @pytest.mark.parametrize("case", list(POOLS))
    def test_one_record(self, case):
        p, e, feats, mask, _, _ = self._setup(case)
        with Tape() as tape:
            attend(e, feats, p, mask)
        assert len(tape) == 1

    @pytest.mark.parametrize("case", list(POOLS))
    def test_matches_the_out_of_place_record_bit_for_bit(self, case):
        """Within 1e-12 of the frozen out-of-place record; the folded keys reorder the sums."""
        p, e, feats, mask, leaves, w = self._setup(case)
        new = _run(lambda: attend(e, feats, p, mask), leaves, w)
        ref = _run(lambda: oracle.rowmajor_attend(e, feats, p, mask), leaves, w)
        _assert_same(new, ref)
        assert not new[1]["pool.key_proj.b"].any()
        _, weights = attend(e, feats, p, mask, return_weights=True)
        _, want = oracle.rowmajor_attend(e, feats, p, mask, return_weights=True)
        assert _max_abs_diff(weights.data, want.data) <= TOL

    @pytest.mark.parametrize("case", list(POOLS))
    def test_the_key_bias_changes_nothing(self, case):
        """Outputs, weights and every other gradient ignore the key bias, bit for bit."""
        p, e, feats, mask, leaves, w = self._setup(case)
        runs = []
        for b_k in (0.0, 3.5):
            nm.write(p.key_proj.b, b_k)
            value, grads = _run(lambda: attend(e, feats, p, mask), leaves, w)
            _, weights = attend(e, feats, p, mask, return_weights=True)
            runs.append((value, grads, weights.data))
        (val_a, grads_a, weights_a), (val_b, grads_b, weights_b) = runs
        assert np.array_equal(weights_a, weights_b)
        _assert_identical((val_a, grads_a), (val_b, grads_b))
        assert not grads_a["pool.key_proj.b"].any()


    @pytest.mark.parametrize("case", list(POOLS))
    def test_value_bias_shifts_each_pooled_row_by_its_projection(self, case):
        """out(b_v + delta) - out(b_v) = delta W_o: every weight row sums to 1."""
        p, e, feats, mask, _, _ = self._setup(case)
        delta = np.random.default_rng(7).uniform(-2.0, 2.0, size=p.value_proj.b.shape)
        before = attend(e, feats, p, mask).data
        nm.write(p.value_proj.b, p.value_proj.b.data + delta)
        after = attend(e, feats, p, mask).data
        want = np.broadcast_to(delta @ p.out_proj.w.data, before.shape)
        assert _max_abs_diff(after - before, want) <= TOL


def test_training_leaves_the_key_biases_at_their_initial_values():
    """A zero gradient gives an Adam step of exactly 0, so no key bias moves."""
    ds = synth_generate(4, SynthSpec(docs=24, val_frac=0.0, d_w=6, d_s=5, vocab=24))
    cfg = ModelConfig(
        num_tropes=ds.num_tropes, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
        reasoner_steps=2, reasoner_heads=2, streams=("word", "sentence", "relation"),
    )
    model = build_model(cfg, seed=2)
    params = model.named_parameters()
    before = {name: t.data.copy() for name, t in params.items() if ".key_proj." in name}
    assert len(before) == 6  # a weight and a bias per stream
    train(model, ds.split("train"), TrainConfig(learning_rate=1e-2, epochs=1, batch_size=8))
    for name, data in before.items():
        moved = not np.array_equal(params[name].data, data)
        assert moved == name.endswith(".w"), name


D_S, D_H = 5, 8


def _planted_union():
    ds = synth_generate(3, SynthSpec(docs=16, val_frac=0.0, d_w=6, d_s=D_S, vocab=24))
    return graph_batch(ds.split("train"))


def _path_doc():
    """Path e0-e1-e2-e3: sentence k mentions entities k and k+1."""
    return make_doc({f"e{i}": [s for s in (i - 1, i) if 0 <= s < 3] for i in range(4)},
                    n_sents=3, d_s=D_S, seed=4)


REASONER_GRAPHS = {
    "no-pairs": lambda: build_graph(make_doc({"A": [], "B": []}, n_sents=1, d_s=D_S)),
    "isolated-node": lambda: build_graph(
        make_doc({"A": [0], "B": [0], "C": []}, n_sents=1, d_s=D_S, seed=1)),
    "lone-self-loop": lambda: build_graph(make_doc({"A": [0]}, n_sents=1, d_s=D_S, seed=2)),
    "path": lambda: build_graph(_path_doc()),
    "clique": lambda: build_graph(  # every node receives three pairs
        make_doc({"A": [0], "B": [0], "C": [0, 1], "D": [0]}, n_sents=2, d_s=D_S, seed=3)),
    "planted-16": _planted_union,
}
RUNS = {"msrrn": (msrrn.run_msrrn, oracle.run_msrrn), "rrn": (msrrn.run_rrn, oracle.run_rrn)}


def _reasoner(steps, heads, seed=0):
    rng = np.random.default_rng([steps, heads, seed])
    p = msrrn.init_reasoner(rng, d_s=D_S, d_h=D_H, steps=steps, heads=heads)
    for name, t in p.named():  # nonzero biases exercise their gradients
        if name.endswith(".b"):
            nm.write(t, rng.uniform(-0.5, 0.5, size=t.shape))
    return p, rng


def _reasoner_grads(run, graph, p, w):
    """Output and every reasoner parameter gradient (None if off the tape)."""
    leaves = dict(p.named())
    for t in leaves.values():
        t.zero_grad()
    with Tape() as tape:
        out = run(graph, p)
        loss = oracle.reduce_sum(nm.mul(out, Tensor(w)))
    nm.backward(loss, tape)
    return out.data.copy(), {k: None if t.grad is None else t.grad.copy()
                             for k, t in leaves.items()}


def _assert_reasoner_matches(kind, graph, p, rng):
    fused_run, composite_run = RUNS[kind]
    w = rng.standard_normal((graph.x.shape[0], D_H))
    got, got_grads = _reasoner_grads(fused_run, graph, p, w)
    want, want_grads = _reasoner_grads(composite_run, graph, p, w)
    assert got.shape == want.shape
    assert _max_abs_diff(got, want) <= TOL
    for name, g in got_grads.items():
        if want_grads[name] is None:  # rrn leaves the step attention off the tape
            assert g is None, name
            continue
        assert _max_abs_diff(g, want_grads[name]) <= TOL, name


class TestReasoner:
    @pytest.mark.parametrize("graph", list(REASONER_GRAPHS))
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(RUNS))
    def test_matches_composite(self, kind, steps, heads, graph):
        p, rng = _reasoner(steps, heads)
        _assert_reasoner_matches(kind, REASONER_GRAPHS[graph](), p, rng)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        table=st.lists(st.lists(st.integers(0, 4), max_size=4), min_size=1, max_size=7),
        steps=st.integers(1, 4),
        heads=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(list(RUNS)),
    )
    def test_random_mention_tables_match_composite(self, table, steps, heads, kind):
        doc = make_doc({f"e{i}": sents for i, sents in enumerate(table)},
                       n_sents=5, d_s=D_S, seed=len(table))
        p, rng = _reasoner(steps, heads, seed=len(table))
        _assert_reasoner_matches(kind, build_graph(doc), p, rng)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(RUNS))
    def test_one_record(self, kind, steps):
        p, _ = _reasoner(steps, 2)
        with Tape() as tape:
            RUNS[kind][0](_planted_union(), p)
        assert len(tape) == 1

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("kind", list(RUNS))
    def test_gradients_keep_no_larger_array_alive(self, kind, steps):
        # a gradient stays on its parameter after the step; as a view of a
        # wider product it would keep that whole product alive (a joined
        # block's gradient is by design a block of its base's)
        p, rng = _reasoner(steps, 2)
        graph = _planted_union()
        _reasoner_grads(RUNS[kind][0], graph, p, rng.standard_normal((graph.n_nodes, D_H)))
        for name, t in p.named():
            if t.grad is not None and t.grad.base is not None:
                assert t.grad.base.size == (t if t.base is None else t.base).data.size, name

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_without_a_tape_matches_the_recorded_output(self, steps, heads):
        # the forward-only path keeps one step's intermediates, not all of
        # them, so c_{t-1} and c_t share one buffer; the graphs give nodes
        # without a received pair, and receivers of one pair up to four
        p, _ = _reasoner(steps, heads)
        for name, make in REASONER_GRAPHS.items():
            graph = make()
            for kind, (run, _) in RUNS.items():
                with Tape():
                    recorded = run(graph, p).data
                np.testing.assert_array_equal(run(graph, p).data, recorded,
                                              err_msg=f"{kind} on {name}")


def test_trained_parameters_keep_the_layouts_the_fused_records_read():
    # Adam moves every parameter into its own buffer; the gate and q/k/v
    # tensors must still be blocks of the joined arrays the records read,
    # or those records would keep computing with the initial weights.
    ds = synth_generate(3, SynthSpec(docs=16, val_frac=0.0, d_w=6, d_s=D_S, vocab=24))
    docs = ds.split("train")[:8]
    cfg = ModelConfig(num_tropes=ds.num_tropes, d_w=6, d_s=D_S, d_f=6, d_a=6, d_h=D_H,
                      reasoner_steps=2, reasoner_heads=2)
    assert cfg.streams == ("word", "sentence", "relation") and cfg.relation_reasoner == "msrrn"
    model = build_model(cfg, seed=5)
    train(model, docs, TrainConfig(epochs=1, batch_size=4, seed=5))  # two Adam steps
    untrained = build_model(cfg, seed=5)
    p, rnn = model.reasoner, model.streams["sentence"].sent_rnn
    blocks = [(q, lstm.w, lstm.b) for lstm in (p.cell, rnn)
              for q in (lstm.gate_i, lstm.gate_f, lstm.gate_o, lstm.gate_g)]
    mha = p.step_attention
    views = [(q.w, w) for q, w, _ in blocks] + [(q.b, b) for q, _, b in blocks]
    views += [(t, mha.w_qkv) for t in (mha.w_q, mha.w_k, mha.w_v)]
    for t, joined in views:
        assert t.base is joined and np.shares_memory(t.data, joined.data)
        np.testing.assert_array_equal(t.data, joined.data[t.index])
    assert not np.array_equal(p.cell.w.data, untrained.reasoner.cell.w.data)

    rng = np.random.default_rng(6)
    graph = graph_batch(docs)
    for kind in RUNS:
        _assert_reasoner_matches(kind, graph, p, rng)
    x = nm.param(rng.standard_normal((3, 5, D_S)))
    leaves = dict(rnn.named("lstm"), x=x)
    weights = rng.standard_normal((3, 5, cfg.d_a))
    _assert_same(_run(lambda: nm.lstm_sequence(x, rnn), leaves, weights),
                 _run(lambda: oracle.lstm_sequence(x, rnn), leaves, weights))


HEAD_STREAMS = (
    ("word",), ("sentence",), ("relation",), ("word", "sentence"),
    ("word", "relation"), ("sentence", "relation"), ("word", "sentence", "relation"),
)


def _head_docs(case):
    """Docs for a head case; a doc without entities gives a zero relation row."""
    rng = np.random.default_rng(17)
    # tokens, sentences, entity mentions
    shapes = {
        "one-doc": [(4, 3, {"A": (0, 1), "B": (1,), "C": (2,)})],
        "no-entities": [(3, 2, {})],
        "ragged-5": [
            (5, 4, {"A": (0, 1), "B": (1, 2), "C": (3,)}),
            (2, 1, {"A": (0,)}),
            (7, 3, {}),
            (3, 2, {"A": (0, 1), "B": (1,)}),
            (9, 5, {"A": (0, 4), "B": (2,), "C": (2, 3), "D": (4,)}),
        ],
    }[case]
    return [
        FeatureDoc(f"{case}-{i}", rng.standard_normal((n_words, 4)),
                   rng.standard_normal((n_sents, 5)),
                   [EntityMentions(k, v) for k, v in ents.items()], ())
        for i, (n_words, n_sents, ents) in enumerate(shapes)
    ]


def _head_setup(streams, case):
    """A model with nonzero head biases, and its streams' pooled rows as leaves.

    A row block is tracked exactly when the stream's forward tracks it,
    so a batch without entities gives an untracked zero relation block.
    """
    cfg = ModelConfig(num_tropes=3, d_w=4, d_s=5, d_f=6, d_a=6, d_h=4,
                      reasoner_steps=2, reasoner_heads=2, streams=streams)
    model = build_model(cfg, seed=len(streams))
    rng = np.random.default_rng([len(streams), len(case)])
    head = {k: t for k, t in model.named_parameters().items()
            if k.startswith(("stream_attn.", "predictor."))}
    for t in head.values():  # nonzero biases exercise their gradients
        nm.write(t, rng.uniform(-0.8, 0.8, size=t.shape))
    docs = _head_docs(case)
    runs = {
        "word": lambda p: word_stream(docs, model.E, p, cfg.max_word_tokens),
        "sentence": lambda p: sentence_stream(docs, model.E, p),
        "relation": lambda p: relation_stream(graph_batch(docs), model.E,
                                              model.reasoner, p),
    }
    outs = {}
    with Tape():
        for name in streams:
            out = runs[name](model.streams[name])
            outs[name] = (nm.param if out.tracked else Tensor)(out.data)
    leaves = dict(head, E=model.E)
    leaves.update({f"out.{k}": t for k, t in outs.items() if t.tracked})
    w = rng.standard_normal((len(docs), cfg.num_tropes))
    return model, outs, leaves, w


class TestHead:
    @pytest.mark.parametrize("case", ["one-doc", "no-entities", "ragged-5"])
    @pytest.mark.parametrize("streams", HEAD_STREAMS, ids=",".join)
    def test_matches_composite(self, streams, case):
        model, outs, leaves, w = _head_setup(streams, case)
        fused = _run(lambda: predict_logits(model, outs), leaves, w)
        composite = _run(lambda: oracle.head_logits(model, outs), leaves, w)
        _assert_same(fused, composite)
        # E, 8 head weights and biases, and every stream block but an
        # all-zero relation block, which is untracked and gets no gradient
        zero_block = case == "no-entities" and "relation" in streams
        assert len(fused[1]) == 9 + len(streams) - zero_block
        if zero_block:
            assert not outs["relation"].tracked and outs["relation"].grad is None

    @pytest.mark.parametrize("streams", HEAD_STREAMS, ids=",".join)
    def test_one_record(self, streams):
        model, outs, _, _ = _head_setup(streams, "ragged-5")
        with Tape() as tape:
            predict_logits(model, outs)
        assert len(tape) == 1


# Records of one 16-doc forward on the planted corpus below (at most 10
# sentences a doc, 2 reasoner steps). The bounds are the counts with the
# one-record sentence LSTM, reasoner, pooling and head: one record per
# stream's pooling, the sentence LSTM, the reasoner and its scatter, and
# the head. Per-gate and per-head records gave 144, 341 and 227, one
# fused cell per sentence 91, 129 and 68, the reasoner as a composite
# 91, 109 and 48, pooling as a composite 48, 66 and 48, and the head as
# a composite (19, 22 and 19 of them) 23, 28 and 22.
FORWARD_RECORD_BOUNDS = {
    ("word", "relation"): 5,
    ("word", "sentence", "relation"): 7,
    ("word", "sentence"): 4,
}


@pytest.mark.parametrize("streams", list(FORWARD_RECORD_BOUNDS), ids=",".join)
def test_batch_forward_records_stay_bounded(streams):
    ds = synth_generate(3, SynthSpec(docs=16, val_frac=0.0, d_w=6, d_s=5, vocab=24))
    docs = ds.split("train")
    cfg = ModelConfig(num_tropes=ds.num_tropes, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
                      reasoner_steps=2, reasoner_heads=4, streams=streams)
    model = build_model(cfg, seed=0)
    graphs = graph_batch(docs)
    with Tape() as tape:
        forward_logits(model, docs, graphs)
    assert len(tape) <= FORWARD_RECORD_BOUNDS[streams]
