"""The fused LSTM sequence, reasoner and stream pooling against compositions of primitives.

`composite_oracle.py` holds the blocks as chains of primitives: one
`lstm_cell` call per time step, a reasoner step loop of `message_pass`
and `lstm_cell` followed by `multi_head_attention`, the library's
composite cell and attention, and trope-query pooling as affine,
product, scale, mask and softmax records. The fused primitives must give
the same values and the same gradient for every input and parameter,
and must stay few records, so per-gate, per-step, per-head or per-op
records cannot return unnoticed.
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
from mulcom.graph import FeatureDoc, build_graph, graph_batch
from mulcom.model import ModelConfig, build_model, forward_logits
from mulcom.numerics import Tape, Tensor
from mulcom.streams import _layout, attend, init_stream, sentence_stream

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
        loss = nm.reduce_sum(nm.mul(out, Tensor(w)))
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


class TestLSTMSequence:
    def _setup(self, n_b, n_s, lengths=None, tracked_input=True):
        rng = np.random.default_rng([n_b, n_s, 7])
        input_dim, hidden = 3, 4
        p = nm.init_lstm(rng, input_dim, hidden)
        for _, t in p.named("lstm"):  # nonzero biases exercise their gradients
            t.data[...] = rng.uniform(-0.8, 0.8, size=t.shape)
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
}


class TestAttend:
    def _setup(self, case):
        n_tropes, shape, lengths, tracked = POOLS[case]
        rng = np.random.default_rng([len(shape), shape[-2], 3])
        p = init_stream(rng, view_dim=shape[-1], d_f=4, d_a=6)
        for _, t in p.named("pool"):  # nonzero biases exercise their gradients
            t.data[...] = rng.uniform(-0.8, 0.8, size=t.shape)
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
        np.testing.assert_array_equal(fused[0], composite[0])  # scores bit for bit
        _assert_same(fused, composite)
        assert len(fused[1]) == (10 if feats.tracked else 9)  # E, 8 projections, feats
        assert feats.tracked or feats.grad is None

    @pytest.mark.parametrize("case", list(POOLS))
    def test_returns_the_composite_weights(self, case):
        p, e, feats, mask, _, _ = self._setup(case)
        out, weights = attend(e, feats, p, mask, return_weights=True)
        want_out, want_weights = oracle.attend(e, feats, p, mask, return_weights=True)
        np.testing.assert_array_equal(out.data, want_out.data)
        np.testing.assert_array_equal(weights.data, want_weights.data)
        if mask is not None:
            assert (weights.data[np.broadcast_to(mask, weights.shape) != 0] == 0.0).all()

    @pytest.mark.parametrize("case", list(POOLS))
    def test_one_record(self, case):
        p, e, feats, mask, _, _ = self._setup(case)
        with Tape() as tape:
            attend(e, feats, p, mask)
        assert len(tape) == 1


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
            t.data[...] = rng.uniform(-0.5, 0.5, size=t.shape)
    return p, rng


def _reasoner_grads(run, graph, p, w):
    """Output and every reasoner parameter gradient (None if off the tape)."""
    leaves = dict(p.named())
    for t in leaves.values():
        t.zero_grad()
    with Tape() as tape:
        out = run(graph, p)
        loss = nm.reduce_sum(nm.mul(out, Tensor(w)))
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

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_without_a_tape_matches_the_recorded_output(self, steps, heads):
        # the forward-only path keeps one step's intermediates, not all of
        # them, so c_{t-1} and c_t share one buffer
        p, _ = _reasoner(steps, heads)
        graph = _planted_union()
        for kind, (run, _) in RUNS.items():
            with Tape():
                recorded = run(graph, p).data
            np.testing.assert_array_equal(run(graph, p).data, recorded, err_msg=kind)


# Records of one 16-doc forward on the planted corpus below (at most 10
# sentences a doc, 2 reasoner steps). The bounds are the counts with the
# one-record sentence LSTM, reasoner and pooling; per-gate and per-head
# records gave 144, 341 and 227, one fused cell per sentence 91, 129 and
# 68, the reasoner as a composite 91, 109 and 48, and pooling as a
# composite 48, 66 and 48.
FORWARD_RECORD_BOUNDS = {
    ("word", "relation"): 23,
    ("word", "sentence", "relation"): 28,
    ("word", "sentence"): 22,
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
