"""Stream pooling checked against direct-formula oracles."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from composite_oracle import reduce_sum
from mulcom.errors import ConfigError, EmptyDocumentError, ValidationError
from mulcom.graph import FeatureDoc, build_graph
from mulcom.model import ModelConfig
from mulcom.msrrn import init_reasoner
from mulcom.numerics import Tensor, grad_check, rng_from_seed, write
from mulcom.streams import (
    attend,
    init_stream,
    relation_stream,
    sentence_stream,
    word_stream,
)

from test_graph import make_doc
from test_msrrn import np_sigmoid, np_softmax_rows, oracle_msrrn


MAX_TOKENS = ModelConfig.max_word_tokens


def attend_oracle(e, feats, p):
    """Direct evaluation of the pooling formula in plain numpy."""
    d_a = p.query_proj.w.shape[1]
    q = e @ p.query_proj.w.data + p.query_proj.b.data
    k = feats @ p.key_proj.w.data + p.key_proj.b.data
    v = feats @ p.value_proj.w.data + p.value_proj.b.data
    w = np_softmax_rows(q @ k.T / math.sqrt(d_a))
    return (w @ v) @ p.out_proj.w.data + p.out_proj.b.data


def lstm_states_oracle(sent_feats, p):
    d_a = p.sent_rnn.hidden_dim
    h = np.zeros(d_a)
    c = np.zeros(d_a)
    states = []
    for s in range(sent_feats.shape[0]):
        z = np.concatenate([h, sent_feats[s]])
        gi = np_sigmoid(z @ p.sent_rnn.gate_i.w.data + p.sent_rnn.gate_i.b.data)
        gf = np_sigmoid(z @ p.sent_rnn.gate_f.w.data + p.sent_rnn.gate_f.b.data)
        go = np_sigmoid(z @ p.sent_rnn.gate_o.w.data + p.sent_rnn.gate_o.b.data)
        gg = np.tanh(z @ p.sent_rnn.gate_g.w.data + p.sent_rnn.gate_g.b.data)
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        states.append(h.copy())
    return np.stack(states)


class TestAttend:
    def test_single_position_pools_it_for_every_trope(self):
        rng = rng_from_seed(30)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=5)
        e = rng.standard_normal((3, 4))
        f = rng.standard_normal((1, 6))
        out = attend(Tensor(e), Tensor(f), p)
        v = f[0] @ p.value_proj.w.data + p.value_proj.b.data
        expected = v @ p.out_proj.w.data + p.out_proj.b.data
        for t in range(3):
            npt.assert_allclose(out.data[t], expected, rtol=1e-12, atol=1e-12)

    def test_identical_positions_get_uniform_weights(self):
        rng = rng_from_seed(31)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=5)
        e = rng.standard_normal((3, 4))
        f = np.tile(rng.standard_normal(6), (4, 1))
        _, w = attend(Tensor(e), Tensor(f), p, return_weights=True)
        npt.assert_allclose(w.data, np.full((3, 4), 0.25), rtol=0, atol=1e-12)

    def test_random_instance_matches_formula_oracle(self):
        rng = rng_from_seed(32)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=8)
        e = rng.standard_normal((5, 4))
        f = rng.standard_normal((3, 6))
        out = attend(Tensor(e), Tensor(f), p)
        npt.assert_allclose(out.data, attend_oracle(e, f, p), rtol=1e-10, atol=1e-12)

    def test_weights_are_a_distribution_per_trope(self):
        rng = rng_from_seed(33)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=5)
        e = rng.standard_normal((7, 4))
        f = rng.standard_normal((9, 6))
        _, w = attend(Tensor(e), Tensor(f), p, return_weights=True)
        assert np.all(w.data >= 0)
        npt.assert_allclose(w.data.sum(axis=1), np.ones(7), rtol=0, atol=1e-12)

    def test_empty_view_raises(self):
        rng = rng_from_seed(34)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=5)
        with pytest.raises(EmptyDocumentError):
            attend(Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 6))), p)


class TestWordStream:
    def test_five_token_doc_matches_oracle(self):
        rng = rng_from_seed(35)
        doc = make_doc({"A": [0]}, n_sents=1, d_s=3, seed=36)
        doc = FeatureDoc(
            doc_id=doc.doc_id,
            word_feats=rng.standard_normal((5, 6)),
            sent_feats=doc.sent_feats,
            entities=doc.entities,
            labels=doc.labels,
        )
        p = init_stream(rng, view_dim=6, d_f=4, d_a=5)
        e = rng.standard_normal((3, 4))
        out = word_stream([doc], Tensor(e), p, MAX_TOKENS)
        npt.assert_allclose(
            out.data[0], attend_oracle(e, doc.word_feats, p), rtol=1e-10, atol=1e-12
        )

    def test_token_order_does_not_matter(self):
        rng = rng_from_seed(37)
        base = make_doc({"A": [0]}, n_sents=1, d_s=3, seed=38)
        feats = rng.standard_normal((6, 5))
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5)
        e = Tensor(rng.standard_normal((2, 4)))

        def run(wf):
            doc = FeatureDoc("d", wf, base.sent_feats, base.entities, ())
            return word_stream([doc], e, p, MAX_TOKENS).data

        perm = rng.permutation(6)
        npt.assert_allclose(run(feats), run(feats[perm]), rtol=1e-10, atol=1e-12)

    def test_truncation_bound(self):
        rng = rng_from_seed(39)
        base = make_doc({"A": [0]}, n_sents=1, d_s=3, seed=40)
        feats = rng.standard_normal((10, 5))
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5)
        e = Tensor(rng.standard_normal((2, 4)))
        long_doc = FeatureDoc("d", feats, base.sent_feats, base.entities, ())
        short_doc = FeatureDoc("d", feats[:3], base.sent_feats, base.entities, ())
        npt.assert_array_equal(
            word_stream([long_doc], e, p, max_tokens=3).data,
            word_stream([short_doc], e, p, MAX_TOKENS).data,
        )

    def test_empty_doc_raises(self):
        # raised where the doc is made, so the stream never sees it
        base = make_doc({"A": [0]}, n_sents=1, d_s=3, seed=42)
        with pytest.raises(ValidationError, match="doc d: record has no word tokens"):
            FeatureDoc("d", np.zeros((0, 5)), base.sent_feats, base.entities, ())


class TestSentenceStream:
    def test_zero_rnn_gives_uniform_pool_of_zero_states(self):
        rng = rng_from_seed(43)
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5, rnn_input=3)
        for _, t in p.sent_rnn.named("rnn"):
            write(t, 0.0)
        doc = make_doc({"A": [0]}, n_sents=3, d_s=3, seed=44)
        e = rng.standard_normal((2, 4))
        out = sentence_stream([doc], Tensor(e), p)
        expected = attend_oracle(e, np.zeros((3, 5)), p)
        npt.assert_allclose(out.data[0], expected, rtol=1e-12, atol=1e-12)

    def test_four_sentence_doc_matches_composition_oracle(self):
        rng = rng_from_seed(45)
        p = init_stream(rng, view_dim=6, d_f=4, d_a=6, rnn_input=3)
        doc = make_doc({"A": [0]}, n_sents=4, d_s=3, seed=46)
        e = rng.standard_normal((3, 4))
        out = sentence_stream([doc], Tensor(e), p)
        states = lstm_states_oracle(doc.sent_feats, p)
        npt.assert_allclose(
            out.data[0], attend_oracle(e, states, p), rtol=1e-10, atol=1e-12
        )

    def test_sentence_order_matters(self):
        rng = rng_from_seed(47)
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5, rnn_input=3)
        doc = make_doc({"A": [0]}, n_sents=2, d_s=3, seed=48)
        e = Tensor(rng.standard_normal((2, 4)))
        out1 = sentence_stream([doc], e, p).data
        swapped = FeatureDoc(
            "d", doc.word_feats, doc.sent_feats[::-1].copy(), doc.entities, ()
        )
        out2 = sentence_stream([swapped], e, p).data
        assert np.abs(out1 - out2).max() > 1e-8

    def test_doc_without_sentences_is_named(self):
        # raised where the doc is made, so the stream never sees it
        with pytest.raises(ValidationError, match="doc bare: record has no sentences"):
            FeatureDoc("bare", np.zeros((2, 3)), np.zeros((0, 3)), (), ())

    def test_params_without_an_lstm_are_a_config_error(self):
        rng = rng_from_seed(49)
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5)  # a word stream's params
        doc = make_doc({"A": [0]}, n_sents=2, d_s=3, seed=50)
        with pytest.raises(ConfigError, match="sentence stream"):
            sentence_stream([doc], Tensor(rng.standard_normal((2, 4))), p)


class TestRelationStream:
    def test_single_node_graph_pools_it(self):
        rng = rng_from_seed(49)
        doc = make_doc({"A": [0]}, n_sents=1, d_s=3, seed=50)
        g = build_graph(doc)
        reasoner = init_reasoner(rng, d_s=3, d_h=8, steps=2, heads=2)
        p = init_stream(rng, view_dim=8, d_f=4, d_a=5)
        e = rng.standard_normal((3, 4))
        out = relation_stream(g, Tensor(e), reasoner, p)
        h = oracle_msrrn(g, reasoner)
        npt.assert_allclose(out.data[0], attend_oracle(e, h, p), rtol=1e-10, atol=1e-12)

    def test_three_node_graph_matches_composed_oracles(self):
        rng = rng_from_seed(51)
        doc = make_doc({"A": [0, 1], "B": [0], "C": [1, 2]}, n_sents=3, d_s=3, seed=52)
        g = build_graph(doc)
        reasoner = init_reasoner(rng, d_s=3, d_h=8, steps=3, heads=2)
        p = init_stream(rng, view_dim=8, d_f=4, d_a=5)
        e = rng.standard_normal((2, 4))
        out = relation_stream(g, Tensor(e), reasoner, p)
        h = oracle_msrrn(g, reasoner)
        npt.assert_allclose(out.data[0], attend_oracle(e, h, p), rtol=1e-10, atol=1e-12)

    def test_node_order_does_not_matter(self):
        rng = rng_from_seed(53)
        table = {"A": [0, 1], "B": [0], "C": [1, 2], "D": [2]}
        doc = make_doc(table, n_sents=3, d_s=3, seed=54)
        doc2 = make_doc(
            {k: table[k] for k in ["C", "A", "D", "B"]}, n_sents=3, d_s=3, seed=54
        )
        rng2 = rng_from_seed(55)
        reasoner = init_reasoner(rng2, d_s=3, d_h=8, steps=2, heads=2)
        p = init_stream(rng2, view_dim=8, d_f=4, d_a=5)
        e = Tensor(rng.standard_normal((2, 4)))
        out1 = relation_stream(build_graph(doc), e, reasoner, p).data
        out2 = relation_stream(build_graph(doc2), e, reasoner, p).data
        npt.assert_allclose(out1, out2, rtol=0, atol=1e-10)

    def test_zero_node_graph_emits_zeros_and_warns(self, caplog):
        rng = rng_from_seed(56)
        doc = make_doc({}, n_sents=1, d_s=3, seed=57)
        g = build_graph(doc)
        reasoner = init_reasoner(rng, d_s=3, d_h=8, steps=2, heads=2)
        p = init_stream(rng, view_dim=8, d_f=4, d_a=5)
        with caplog.at_level("WARNING"):
            out = relation_stream(g, Tensor(np.zeros((3, 4))), reasoner, p)
        assert "no entities" in caplog.text
        npt.assert_array_equal(out.data[0], np.zeros((3, 4)))

    def test_rrn_kind_uses_last_step_only(self):
        rng = rng_from_seed(58)
        doc = make_doc({"A": [0], "B": [0]}, n_sents=1, d_s=3, seed=59)
        g = build_graph(doc)
        reasoner = init_reasoner(rng, d_s=3, d_h=8, steps=2, heads=2)
        p = init_stream(rng, view_dim=8, d_f=4, d_a=5)
        e = Tensor(rng.standard_normal((2, 4)))
        out_ms = relation_stream(g, e, reasoner, p, kind="msrrn").data
        out_rrn = relation_stream(g, e, reasoner, p, kind="rrn").data
        assert np.abs(out_ms - out_rrn).max() > 1e-8


class TestStreamGradients:
    def test_attend_gradients(self):
        rng = rng_from_seed(60)
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5)
        e = Tensor(rng.standard_normal((2, 4)))
        f = Tensor(rng.standard_normal((3, 5)))
        err = grad_check(
            lambda: reduce_sum(attend(e, f, p)),
            dict(p.named("s")),
            max_coords=8,
            rng=rng_from_seed(61),
        )
        assert err < 1e-4

    def test_sentence_stream_gradients(self):
        rng = rng_from_seed(62)
        p = init_stream(rng, view_dim=5, d_f=4, d_a=5, rnn_input=3)
        doc = make_doc({"A": [0]}, n_sents=3, d_s=3, seed=63)
        e = Tensor(rng.standard_normal((2, 4)))
        err = grad_check(
            lambda: reduce_sum(sentence_stream([doc], e, p)),
            dict(p.named("s")),
            max_coords=6,
            rng=rng_from_seed(64),
        )
        assert err < 1e-4
