"""Model head, loss, optimizer, and checkpoint round-trip tests."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mulcom.model
from mulcom.errors import (
    ConfigError,
    DataFormatError,
    MulComError,
    ValidationError,
)
from mulcom.graph import build_graph, graph_batch, label_matrix
from mulcom.model import (
    SCORE_CHUNK,
    Adam,
    ModelConfig,
    MulComModel,
    TrainConfig,
    bce_loss,
    build_model,
    default_pos_weight,
    forward,
    forward_logits,
    load_checkpoint,
    organize,
    predict_logits,
    save_checkpoint,
    score_dataset,
    stream_attention,
    train,
)
import composite_oracle as oracle
from mulcom import gradcheck, numerics
from mulcom.numerics import (
    Tape,
    Tensor,
    backward,
    grad_check,
    param,
    rng_from_seed,
    write,
)

from test_graph import make_doc
from test_msrrn import np_sigmoid, np_softmax_rows, oracle_msrrn
from test_streams import attend_oracle, lstm_states_oracle


def tiny_cfg(**kw):
    base = dict(
        num_tropes=3, d_w=6, d_s=5, d_f=8, d_a=8, d_h=8,
        reasoner_steps=2, reasoner_heads=2,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_doc(seed=0, labels=(0, 2), n_tokens=7):
    doc = make_doc({"A": [0, 1], "B": [0], "C": [2]}, n_sents=3, d_s=5,
                   seed=seed, labels=labels)
    rng = rng_from_seed(seed, stream=40)
    return dataclasses.replace(doc, word_feats=rng.standard_normal((n_tokens, 6)))


def mlp_oracle(x, mlp):
    out = x
    last = len(mlp.layers) - 1
    for i, layer in enumerate(mlp.layers):
        out = out @ layer.w.data + layer.b.data
        if i < last:
            out = np.maximum(out, 0.0)
    return out


class TestModelConfig:
    def test_rejects_unknown_stream(self):
        with pytest.raises(ConfigError, match="unknown stream"):
            tiny_cfg(streams=("word", "pixel"))

    def test_rejects_duplicate_stream(self):
        with pytest.raises(ConfigError, match="duplicate"):
            tiny_cfg(streams=("word", "word"))

    def test_rejects_empty_streams(self):
        with pytest.raises(ConfigError):
            tiny_cfg(streams=())

    def test_rejects_bad_reasoner(self):
        with pytest.raises(ConfigError, match="relation_reasoner"):
            tiny_cfg(relation_reasoner="gnn")

    @pytest.mark.parametrize("kw", [
        {"d_f": 8.0}, {"d_a": True}, {"num_tropes": "3"}, {"reasoner_heads": None},
        {"streams": "word"}, {"streams": ("word", 3)}, {"max_word_tokens": 0},
    ])
    def test_rejects_wrong_types_and_sizes(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            tiny_cfg(**kw)

    def test_accepts_numpy_integers_and_stream_lists(self):
        cfg = tiny_cfg(num_tropes=np.int64(3), streams=["word", "relation"])
        assert cfg.streams == ("word", "relation")

    def test_roundtrips_through_dict(self):
        cfg = tiny_cfg(streams=("word", "relation"))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestStreamAttention:
    def test_single_stream_is_all_ones(self):
        model = build_model(tiny_cfg(streams=("word",)), seed=1)
        a = stream_attention(model)
        npt.assert_allclose(a, np.ones((3, 1)), rtol=0, atol=0)

    def test_zero_mlp_gives_uniform_rows(self):
        model = build_model(tiny_cfg(), seed=2)
        for _, t in model.stream_attn_mlp.named("m"):
            write(t, 0.0)
        a = stream_attention(model)
        npt.assert_allclose(a, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_matches_formula_oracle_and_rows_sum_to_one(self):
        model = build_model(tiny_cfg(), seed=3)
        a = stream_attention(model)
        expected = np_softmax_rows(mlp_oracle(model.E.data, model.stream_attn_mlp))
        npt.assert_allclose(a, expected, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(a.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)


class TestOrganize:
    def test_single_stream_passthrough(self):
        rng = rng_from_seed(70)
        r = rng.standard_normal((3, 8))
        npt.assert_array_equal(organize([r], np.ones((3, 1))), r)

    def test_one_hot_selects_stream_exactly(self):
        rng = rng_from_seed(71)
        r1 = rng.standard_normal((3, 8))
        r2 = rng.standard_normal((3, 8))
        out = organize([r1, r2], np.tile([0.0, 1.0], (3, 1)))
        npt.assert_array_equal(out, r2)

    def test_two_streams_match_weighted_sum_oracle(self):
        rng = rng_from_seed(72)
        r1 = rng.standard_normal((4, 8))
        r2 = rng.standard_normal((4, 8))
        a = np_softmax_rows(rng.standard_normal((4, 2)))
        out = organize([r1, r2], a)
        expected = a[:, :1] * r1 + a[:, 1:] * r2
        npt.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)

    def test_batch_rows_share_the_weights(self):
        rng = rng_from_seed(76)
        r1 = rng.standard_normal((2, 4, 8))
        r2 = rng.standard_normal((2, 4, 8))
        a = np_softmax_rows(rng.standard_normal((4, 2)))
        out = organize([r1, r2], a)
        for b in range(2):
            npt.assert_array_equal(out[b], organize([r1[b], r2[b]], a))


class TestPredictLogits:
    def test_zero_predictor_gives_half_scores(self):
        model = build_model(tiny_cfg(streams=("word",)), seed=4)
        for _, t in model.predictor.named("p"):
            write(t, 0.0)
        doc = tiny_doc()
        logits = forward_logits(model, [doc])
        npt.assert_array_equal(logits.data, np.zeros((1, 3)))
        npt.assert_allclose(forward(model, [doc]), np.full((1, 3), 0.5), rtol=0, atol=0)

    def test_matches_mlp_oracle(self):
        # one stream has weight 1, so its rows are the mixed rows
        rng = rng_from_seed(73)
        model = build_model(tiny_cfg(streams=("word",)), seed=5)
        mixed = rng.standard_normal((3, 8))
        out = predict_logits(model, {"word": Tensor(mixed)})
        z = np.concatenate([mixed, model.E.data], axis=-1)
        npt.assert_allclose(
            out.data, mlp_oracle(z, model.predictor).reshape(-1),
            rtol=1e-12, atol=1e-14,
        )

    def test_mixes_streams_by_their_attention(self):
        rng = rng_from_seed(77)
        model = build_model(tiny_cfg(), seed=6)
        rows = {s: rng.standard_normal((2, 3, 8)) for s in model.cfg.streams}
        a = stream_attention(model)
        mixed = sum(a[:, i, None] * rows[s] for i, s in enumerate(model.cfg.streams))
        z = np.concatenate([mixed, np.broadcast_to(model.E.data, mixed.shape)], axis=-1)
        out = predict_logits(model, {s: Tensor(r) for s, r in rows.items()})
        npt.assert_allclose(
            out.data, mlp_oracle(z, model.predictor)[..., 0], rtol=1e-12, atol=1e-14,
        )

    def test_missing_stream_is_internal_error(self):
        model = build_model(tiny_cfg(streams=("word", "sentence")), seed=7)
        with pytest.raises(MulComError, match="missing stream outputs \\['sentence'\\]"):
            predict_logits(model, {"word": Tensor(np.zeros((3, 8)))})

    def test_scores_monotone_in_logits(self):
        x = np.array([-2.0, 0.0, 3.0])
        s = 1.0 / (1.0 + np.exp(-x))
        assert np.all(np.diff(s) > 0)


class TestBceLoss:
    def test_zero_logit_positive_label(self):
        loss = bce_loss(Tensor(np.zeros((1, 1))), np.array([[1]]), pos_weight=1.0)
        assert loss.data == pytest.approx(np.log(2.0), abs=1e-15)

    def test_pos_weight_scales_positive_terms(self):
        loss = bce_loss(Tensor(np.zeros((1, 1))), np.array([[1]]), pos_weight=2.0)
        assert loss.data == pytest.approx(2.0 * np.log(2.0), abs=1e-15)

    def test_negative_terms_ignore_pos_weight(self):
        logits = Tensor(np.array([[0.7, -1.2]]))
        y = np.array([[0, 0]])
        a = bce_loss(logits, y, pos_weight=1.0).data
        b = bce_loss(Tensor(logits.data.copy()), y, pos_weight=7.0).data
        assert a == b

    def test_random_batch_matches_formula_oracle(self):
        rng = rng_from_seed(74)
        x = rng.standard_normal((4, 3)) * 2
        y = rng.integers(0, 2, size=(4, 3))
        p = 2.5
        got = bce_loss(Tensor(x.copy()), y, p).data
        sig = np_sigmoid(x)
        cells = -(p * y * np.log(sig) + (1 - y) * np.log(1.0 - sig))
        assert got == pytest.approx(cells.mean(), abs=1e-12)

    def test_gradient_is_sigmoid_minus_target_over_n(self):
        rng = rng_from_seed(75)
        x = param(rng.standard_normal((2, 3)))
        y = rng.integers(0, 2, size=(2, 3))
        tape = Tape()
        with tape:
            loss = bce_loss(x, y, pos_weight=1.0)
        backward(loss, tape)
        expected = (np_sigmoid(x.data) - y) / x.data.size
        npt.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-15)

    def test_extreme_logits_stay_finite(self):
        x = Tensor(np.array([[800.0, -800.0]]))
        y = np.array([[0, 1]])
        assert np.isfinite(bce_loss(x, y, 5.0).data)

    @pytest.mark.parametrize("pos_weight", [1.0, 2.5])
    @pytest.mark.parametrize("targets", ["random", "all-zero", "all-one"])
    def test_matches_the_composite_bit_for_bit(self, targets, pos_weight):
        rng = rng_from_seed(76)
        x = rng.standard_normal((5, 4)) * 3
        x.flat[[0, 5, 10, 15]] = (800.0, -800.0, -800.0, 800.0)  # saturated cells
        y = {"random": rng.integers(0, 2, size=x.shape),
             "all-zero": np.zeros(x.shape, dtype=np.int64),
             "all-one": np.ones(x.shape, dtype=np.int64)}[targets]
        runs = []
        for loss_fn in (bce_loss, oracle.bce_loss):
            logits = param(x.copy())
            with Tape() as tape:
                loss = loss_fn(logits, y, pos_weight)
            backward(loss, tape)
            runs.append((loss.data, logits.grad))
        (value, grad), (value_c, grad_c) = runs
        assert value == value_c
        assert np.array_equal(grad, grad_c)

    def test_one_record_and_none_for_untracked_logits(self):
        y = np.array([[0, 1, 1]])
        with Tape() as tape:
            tracked = bce_loss(param(np.zeros((1, 3))), y)
            assert len(tape) == 1 and tracked.tracked
            untracked = bce_loss(Tensor(np.zeros((1, 3))), y)
        assert len(tape) == 1 and not untracked.tracked

    def test_non_binary_targets_rejected(self):
        for targets in ([[0.5]], [[2]], [[-1]], [[np.nan]], [["1"]]):
            with pytest.raises(ValidationError, match="binary"):
                bce_loss(Tensor(np.zeros((1, 1))), np.array(targets))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bce_loss(Tensor(np.zeros((1, 2))), np.array([[1]]))

    @pytest.mark.parametrize("pos_weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_pos_weight_must_be_finite_and_positive(self, pos_weight):
        with pytest.raises(ValidationError, match="pos_weight"):
            bce_loss(Tensor(np.zeros((1, 1))), np.array([[1]]), pos_weight)


class TestForward:
    def test_deterministic_across_builds(self):
        doc = tiny_doc(seed=6)
        s1 = forward(build_model(tiny_cfg(), seed=7), [doc])
        s2 = forward(build_model(tiny_cfg(), seed=7), [doc])
        npt.assert_array_equal(s1, s2)

    def test_scores_in_open_unit_interval(self):
        doc = tiny_doc(seed=8)
        s = forward(build_model(tiny_cfg(), seed=9), [doc])
        assert np.all(s > 0) and np.all(s < 1)

    def test_matches_composed_oracle(self):
        cfg = tiny_cfg(num_tropes=2)
        model = build_model(cfg, seed=10)
        doc = tiny_doc(seed=11)
        g = build_graph(doc)

        E = model.E.data
        r_word = attend_oracle(E, doc.word_feats, model.streams["word"])
        states = lstm_states_oracle(doc.sent_feats, model.streams["sentence"])
        r_sent = attend_oracle(E, states, model.streams["sentence"])
        h = oracle_msrrn(g, model.reasoner)
        r_rel = attend_oracle(E, h, model.streams["relation"])
        a = np_softmax_rows(mlp_oracle(E, model.stream_attn_mlp))
        mixed = a[:, :1] * r_word + a[:, 1:2] * r_sent + a[:, 2:] * r_rel
        logits = mlp_oracle(np.concatenate([mixed, E], axis=-1),
                            model.predictor).reshape(-1)
        expected = np_sigmoid(logits)

        npt.assert_allclose(forward(model, [doc], g)[0], expected, rtol=1e-9, atol=1e-12)

    def test_rrn_variant_differs_from_msrrn(self):
        doc = tiny_doc(seed=12)
        s_ms = forward(build_model(tiny_cfg(), seed=13), [doc])
        s_rrn = forward(
            build_model(tiny_cfg(relation_reasoner="rrn"), seed=13), [doc]
        )
        assert np.abs(s_ms - s_rrn).max() > 1e-9

    def test_graph_count_must_match_doc_count(self):
        model = build_model(tiny_cfg(), seed=14)
        docs = [tiny_doc(seed=s) for s in range(4)]
        with pytest.raises(ValidationError, match="1 graphs for 4 docs"):
            forward_logits(model, docs, build_graph(docs[0]))

    def test_very_negative_logits_score_zero_without_overflow(self):
        model = build_model(tiny_cfg(), seed=15)
        write(model.predictor.layers[-1].b, -800.0)  # exp(800) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = forward(model, [tiny_doc(seed=16), tiny_doc(seed=17)])
        npt.assert_array_equal(scores, np.zeros((2, 3)))


class TestEndToEndGradients:
    def test_full_model_gradcheck(self):
        model = build_model(tiny_cfg(), seed=14)
        docs = [tiny_doc(seed=15, labels=(0, 2)), tiny_doc(seed=16, labels=(1,))]
        graphs = graph_batch(docs)
        y = label_matrix(docs, 3)

        def loss_fn():
            return bce_loss(forward_logits(model, docs, graphs), y, pos_weight=2.0)

        err = grad_check(
            loss_fn, model.named_parameters(), max_coords=3,
            rng=rng_from_seed(17),
        )
        assert err < 1e-4


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = param(np.array([1.0, -1.0]))
        p.grad = np.array([0.5, -0.25])
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        # bias-corrected first step moves by ~lr * sign(grad)
        npt.assert_allclose(p.data, [1.0 - 0.1, -1.0 + 0.1], atol=1e-6)

    def test_skips_parameters_without_gradients(self):
        p = param(np.array([2.0]))
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        npt.assert_array_equal(p.data, [2.0])

    def test_a_parameter_off_the_loss_keeps_its_values_and_moments(self):
        a, b = param(np.array([[1.0, -2.0]])), param(np.array([0.5, 0.25, -1.0]))
        opt = Adam({"a": a, "b": b}, lr=0.1)
        a.grad, b.grad = np.array([[0.3, -0.1]]), np.array([0.2, 0.0, -0.4])
        opt.step()  # b's moments are no longer zero
        opt.zero_grad()
        with Tape() as tape:
            numerics.mul(b, b)  # on the tape, but the loss does not read it
            loss = numerics.matmul(a, Tensor([[1.0], [2.0]]))
        backward(loss, tape)
        assert b.grad is None
        (state,) = [s for _, _, places in opt.blocks for t, (_, *s) in places if t is b]
        kept = [s.copy() for s in state]  # b's m, v and data
        opt.step()
        for s, k in zip(state, kept):
            npt.assert_array_equal(s, k)

    def test_flat_update_matches_per_tensor_loop(self):
        # reference: the update applied tensor by tensor, in the same order
        rng = np.random.default_rng(3)
        shapes = {"w": (3, 4), "b": (4,), "e": (2, 3), "unused": (5,)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: param(a.copy()) for k, a in init.items()}
        opt = Adam(params, lr=0.01)
        ref = {k: a.copy() for k, a in init.items()}
        m = {k: np.zeros_like(a) for k, a in init.items()}
        v = {k: np.zeros_like(a) for k, a in init.items()}
        for step in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            grads["unused"] = None  # never receives a gradient
            if step == 3:
                grads["b"] = None  # skips one step
            for k, p in params.items():
                p.grad = None if grads[k] is None else grads[k].copy()
            opt.step()
            b1c, b2c = 1.0 - 0.9**step, 1.0 - 0.999**step
            for k, g in grads.items():
                if g is None:
                    continue
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                ref[k] -= 0.01 * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + 1e-8)
            for k, p in params.items():
                npt.assert_array_equal(p.data, ref[k])
        npt.assert_array_equal(params["unused"].data, init["unused"])

    def test_joined_blocks_stay_views_and_match_per_tensor_loop(self):
        rng = np.random.default_rng(4)
        shapes = {"a": (3, 2), "b": (3, 4), "c": (3, 1), "d": (5,), "e": (2, 3), "f": (2, 2)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        t = {k: param(a.copy()) for k, a in init.items()}
        bases = {"abc": numerics.join([t["a"], t["b"], t["c"]]),
                 "ef": numerics.join([t["e"], t["f"]])}
        with pytest.raises(ConfigError, match="each block of their arrays once"):
            Adam({k: t[k] for k in "abcde"}, lr=0.01)  # f would be left behind
        params = {k: t[k] for k in ("b", "d", "f", "a", "e", "c")}
        opt = Adam(params, lr=0.01)

        def assert_views():
            for names, base in bases.items():
                for k in names:
                    assert t[k].base is base
                    assert t[k].data.base is not None and np.shares_memory(t[k].data, base.data)
                    npt.assert_array_equal(t[k].data, base.data[t[k].index])
                assert np.shares_memory(base.data, opt.flat)

        assert_views()
        ref = {k: init[k].copy() for k in params}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        for step in range(1, 7):
            grads = {k: rng.standard_normal(shapes[k]) for k in params}
            if step == 3:
                grads["b"] = None  # one block of a joined array skips a step
            if step == 4:
                grads.update(a=None, b=None, c=None)  # the whole array skips one
            if step == 5:
                grads["d"] = grads["e"] = None
            for k, p in params.items():
                p.grad = None if grads[k] is None else grads[k].copy()
            opt.step()
            assert_views()
            b1c, b2c = 1.0 - 0.9**step, 1.0 - 0.999**step
            for k, g in grads.items():
                if g is None:
                    continue
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                ref[k] -= 0.01 * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + 1e-8)
            for k, p in params.items():
                npt.assert_array_equal(p.data, ref[k])

    def test_blockwise_update_matches_per_tensor_loop(self, monkeypatch):
        # blocks of at most 8 floats: unused lies between b and c in the
        # first, w is wider than a block, and x and y share a joined array
        monkeypatch.setattr(Adam, "BLOCK", 8)
        rng = np.random.default_rng(5)
        shapes = {"b": (4,), "unused": (1,), "c": (3,), "w": (3, 4),
                  "x": (2, 1), "y": (2, 2), "e": (2,), "f": (5,)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: param(a.copy()) for k, a in init.items()}
        numerics.join([params["x"], params["y"]])
        opt = Adam(params, lr=0.01)
        assert [(lo, hi) for lo, hi, _ in opt.blocks] == [(0, 8), (8, 20), (20, 28), (28, 33)]
        assert opt._g.size == opt._a.size == 12
        name = {id(p): k for k, p in params.items()}
        ref = {k: a.copy() for k, a in init.items()}
        m = {k: np.zeros_like(a) for k, a in init.items()}
        v = {k: np.zeros_like(a) for k, a in init.items()}
        for step in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            grads["unused"] = None
            if step == 3:
                grads["y"] = None  # one block of the joined array skips a step
            for k, p in params.items():
                p.grad = None if grads[k] is None else grads[k].copy()
            opt._g.fill(-np.inf)  # a step must not read what the scratch held
            opt.step()
            b1c, b2c = 1.0 - 0.9**step, 1.0 - 0.999**step
            for k, g in grads.items():
                if g is None:
                    continue
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                ref[k] -= 0.01 * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + 1e-8)
            for _, _, places in opt.blocks:
                for p, (_, p_m, p_v, data) in places:
                    k = name[id(p)]
                    assert np.shares_memory(p.data, data)
                    npt.assert_array_equal(data, ref[k])
                    npt.assert_array_equal(p_m, m[k])
                    npt.assert_array_equal(p_v, v[k])
        npt.assert_array_equal(params["unused"].data, init["unused"])


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        model = build_model(tiny_cfg(), seed=18)
        before = {k: t.data.copy() for k, t in model.named_parameters().items()}
        docs = [tiny_doc(seed=19)]
        train(model, docs, TrainConfig(learning_rate=0.0, epochs=2, batch_size=1))
        for k, t in model.named_parameters().items():
            npt.assert_array_equal(t.data, before[k])

    def test_single_doc_overfit(self):
        model = build_model(tiny_cfg(), seed=20)
        docs = [tiny_doc(seed=21, labels=(0, 2))]
        cfg = TrainConfig(learning_rate=1e-2, epochs=500, batch_size=1)
        result = train(model, docs, cfg)
        assert min(result.epoch_losses) < 0.01
        scores = forward(model, docs)[0]
        assert scores[0] > 0.9 and scores[2] > 0.9 and scores[1] < 0.1

    def test_embedding_receives_updates(self):
        model = build_model(tiny_cfg(), seed=22)
        before = model.E.data.copy()
        train(model, [tiny_doc(seed=23)], TrainConfig(epochs=1, batch_size=1))
        assert np.abs(model.E.data - before).max() > 0

    def test_empty_split_rejected(self):
        model = build_model(tiny_cfg(), seed=24)
        with pytest.raises(ValidationError, match="empty"):
            train(model, [], TrainConfig(epochs=1))

    @pytest.mark.parametrize("kw", [
        {"epochs": 2.5}, {"batch_size": True}, {"learning_rate": float("nan")},
        {"pos_weight": "2"}, {"threshold": None}, {"seed": "x"},
    ])
    def test_config_rejects_wrong_types(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            TrainConfig(**kw)

    def test_non_finite_loss_aborts_with_diagnostics(self):
        model = build_model(tiny_cfg(streams=("word",)), seed=25)
        write(model.E, np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(MulComError, match="non-finite"):
                train(model, [tiny_doc(seed=26)],
                      TrainConfig(epochs=1, batch_size=1))

    def test_loss_invariant_to_document_order(self):
        model = build_model(tiny_cfg(), seed=27)
        docs = [tiny_doc(seed=28, labels=(0,)), tiny_doc(seed=29, labels=(1, 2))]
        y = label_matrix(docs, 3)
        l_ab = bce_loss(forward_logits(model, docs), y, 2.0).data
        l_ba = bce_loss(forward_logits(model, docs[::-1]), y[::-1], 2.0).data
        assert l_ab == pytest.approx(l_ba, abs=1e-12)

    @pytest.mark.parametrize("f1", [200.0, -1.0])
    def test_early_stop_f1_must_be_a_percentage(self, f1):
        # 200 would never stop; a negative value would stop after the first validated epoch
        with pytest.raises(ConfigError, match=r"early_stop_f1 must be a percentage in \[0, 100\]"):
            TrainConfig(early_stop_f1=f1)

    def test_early_stop_on_validation_f1(self):
        model = build_model(tiny_cfg(streams=("word",)), seed=30)
        docs = [tiny_doc(seed=31, labels=(0,)), tiny_doc(seed=32, labels=(1, 2))]
        cfg = TrainConfig(
            learning_rate=1e-2, epochs=300, batch_size=2, early_stop_f1=100.0
        )
        result = train(model, docs, cfg, val_docs=docs)
        assert result.stopped_early
        assert result.epochs_run < 300
        assert result.val_micro_f1[-1] == 100.0


    @pytest.mark.parametrize("streams", [("word",), ("word", "relation")], ids=",".join)
    def test_empty_validation_split_is_no_split(self, streams):
        docs = [tiny_doc(seed=33, labels=(0,)), tiny_doc(seed=34, labels=(1, 2))]
        cfg = TrainConfig(epochs=2, batch_size=2, early_stop_f1=0.0)
        runs = []
        for val_docs in ([], None):
            model = build_model(tiny_cfg(streams=streams), seed=35)
            runs.append(train(model, docs, cfg, val_docs=val_docs))
        empty, none = runs
        assert empty == none
        assert empty.epochs_run == 2 and not empty.stopped_early
        assert empty.val_micro_f1 == []

# Trains a long-synopsis-like model (about 200 tokens and 19 sentences a
# doc, word and sentence streams at d = 32) for three epochs in a fresh
# process and prints the minor page faults of each epoch.
EPOCH_FAULTS_SCRIPT = """
import json, logging, resource
from mulcom import numerics
from mulcom.data import SynthSpec, synth_generate
from mulcom.model import ModelConfig, TrainConfig, build_model, train

assert numerics.retain_heap.cache_info().currsize == 0, "importing set mallopt"
ds = synth_generate(5, SynthSpec(docs=48, val_frac=0.0, filler_sents=16,
                                 filler_sent_len=12, motif_tropes=2))
docs = ds.split("train")
cfg = ModelConfig(num_tropes=ds.num_tropes, d_w=docs[0].word_feats.shape[1],
                  d_s=docs[0].sent_feats.shape[1], streams=("word", "sentence"),
                  d_f=32, d_a=32, d_h=32)
marks = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]


class EpochEnd(logging.Handler):
    def emit(self, record):
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


logger = logging.getLogger("mulcom.model")
logger.setLevel(logging.INFO)
logger.addHandler(EpochEnd())
train(build_model(cfg, seed=0), docs, TrainConfig(epochs=3, batch_size=16, seed=0))
print(json.dumps({"mallopt": numerics.retain_heap(),
                  "faults": [b - a for a, b in zip(marks, marks[1:])]}))
"""


# Runs the CLI-default reasoner (d_h = 64, 3 steps, 4 heads) without a
# tape on one 32-doc graph union in a fresh process, and prints the minor
# page faults of each call.
REASONER_FAULTS_SCRIPT = """
import json, resource
from mulcom import numerics
from mulcom.data import SynthSpec, synth_generate
from mulcom.graph import graph_batch
from mulcom.model import ModelConfig, build_model
from mulcom.msrrn import run_msrrn

assert numerics.retain_heap.cache_info().currsize == 0, "importing set mallopt"
docs = synth_generate(5, SynthSpec(docs=32, val_frac=0.0)).split("train")
model = build_model(ModelConfig(num_tropes=8, d_w=docs[0].word_feats.shape[1],
                                d_s=docs[0].sent_feats.shape[1]), seed=0)
union = graph_batch(docs)
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_msrrn(union, model.reasoner)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"mallopt": numerics.retain_heap(), "faults": faults}))
"""


class TestRetainHeap:
    def test_is_a_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(numerics.ctypes, "CDLL", lambda name: object())
        assert numerics.retain_heap.__wrapped__() == ()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc mallopt")
    def test_training_stops_faulting_after_the_first_epoch(self):
        # Before the mallopt settings this run took 6.8k-8.1k minor faults an
        # epoch: glibc returned each freed tape to the OS and the next batch
        # faulted it in again. With them it takes 0-1 after the first.
        src = os.path.dirname(os.path.dirname(numerics.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", EPOCH_FAULTS_SCRIPT], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["mallopt"] == [1, 1]
        assert len(result["faults"]) == 3
        assert result["faults"][2] < 1000, result["faults"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc mallopt")
    def test_a_direct_reasoner_call_keeps_its_memory(self):
        # Without the mallopt settings each call took about 1350 minor
        # faults: glibc returned the freed buffers to the OS after every call.
        src = os.path.dirname(os.path.dirname(numerics.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", REASONER_FAULTS_SCRIPT], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["mallopt"] == [1, 1]
        assert all(f < 100 for f in result["faults"][1:]), result["faults"]


class TestPosWeight:
    def test_all_negative_defaults_to_one(self):
        assert default_pos_weight(np.zeros((4, 3), dtype=int)) == 1.0

    def test_ratio_clamped_to_twenty(self):
        y = np.zeros((50, 2), dtype=int)
        y[0, 0] = 1
        assert default_pos_weight(y) == 20.0

    def test_ratio_clamped_to_one_from_below(self):
        y = np.ones((4, 3), dtype=int)
        y[0, 0] = 0
        assert default_pos_weight(y) == 1.0

    def test_plain_ratio_inside_band(self):
        y = np.zeros((5, 2), dtype=int)
        y[:2, 0] = 1  # 2 positives, 8 negatives
        assert default_pos_weight(y) == 4.0


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = build_model(tiny_cfg(), seed=33)
        train(model, [tiny_doc(seed=34)], TrainConfig(epochs=1, batch_size=1))
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (k1, t1), (k2, t2) in zip(
            model.named_parameters().items(), loaded.named_parameters().items()
        ):
            assert k1 == k2
            npt.assert_array_equal(t1.data, t2.data)
        doc = tiny_doc(seed=35)
        npt.assert_array_equal(forward(model, [doc]), forward(loaded, [doc]))

    def test_same_model_writes_identical_bytes(self, tmp_path):
        model = build_model(tiny_cfg(), seed=36)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    def test_rejects_deeply_nested_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataFormatError, match=r"checkpoint is not valid JSON.*deep\.json"):
            load_checkpoint(str(path))

    def test_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.json"
        save_checkpoint(build_model(tiny_cfg(), seed=36), str(path))
        payload = json.loads(path.read_text())
        name = min(payload["params"])
        payload["params"][name]["data"][0] = float("nan")
        path.write_text(json.dumps(payload))  # a NaN literal
        with pytest.raises(DataFormatError, match=f"{name} holds non-finite values"):
            load_checkpoint(str(path))

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(DataFormatError, match="format"):
            load_checkpoint(str(path))


class TestScoreDataset:
    def test_matches_per_doc_forward(self):
        model = build_model(tiny_cfg(), seed=37)
        docs = [tiny_doc(seed=38), tiny_doc(seed=39)]
        scores = score_dataset(model, docs)
        for i, d in enumerate(docs):
            npt.assert_array_equal(scores[i], forward(model, [d])[0])

    @pytest.mark.parametrize("n_docs, n_members", [(3, 2), (2, 3)])
    def test_a_union_of_another_size_is_rejected_before_scoring(self, n_docs, n_members):
        model = build_model(tiny_cfg(), seed=37)
        docs = [tiny_doc(seed=40 + i) for i in range(3)]
        with pytest.raises(ValidationError, match=f"{n_members} graphs for {n_docs} docs"):
            score_dataset(model, docs[:n_docs], graph_batch(docs[:n_members]))

    @pytest.mark.parametrize("stream, feats, key, want", [
        ("word", "word_feats", "d_w", 6),
        ("sentence", "sent_feats", "d_s", 5),
        ("relation", "sent_feats", "d_s", 5),
    ], ids=["word", "sentence", "relation"])
    def test_a_doc_of_another_feature_width_is_named(self, stream, feats, key, want):
        model = build_model(tiny_cfg(streams=(stream,)), seed=37)
        wide = dataclasses.replace(tiny_doc(seed=39), doc_id="wide", **{feats: np.ones((3, 9))})
        error = f"doc wide has {key}=9, the model has {key}={want}"
        with pytest.raises(ValidationError, match=error):
            score_dataset(model, [wide])
        with pytest.raises(ValidationError, match=error):
            forward_logits(model, [tiny_doc(seed=38), wide])

    def test_builds_the_union_once_and_selects_each_chunk(self, monkeypatch):
        calls = []

        def counting(docs):
            calls.append(len(docs))
            return graph_batch(docs)

        monkeypatch.setattr(mulcom.model, "graph_batch", counting)
        model = build_model(tiny_cfg(), seed=37)
        docs = [tiny_doc(seed=i) for i in range(SCORE_CHUNK + 3)]
        scores = score_dataset(model, docs)
        assert calls == [len(docs)]
        npt.assert_array_equal(scores[-3:], score_dataset(model, docs[-3:]))


# The stream sets of the benchmark's workloads: word and relation, all
# three, word and sentence.
STREAM_SETS = [("word", "relation"), ("word", "sentence", "relation"), ("word", "sentence")]


def ragged_docs():
    """Docs whose token, sentence and entity counts all differ, so every stream pads."""
    shapes = (
        (7, 3, {"A": [0, 1], "B": [0], "C": [2]}),
        (4, 5, {"A": [1, 4], "B": [4]}),
        (11, 2, {"A": [0]}),
    )
    docs = []
    for i, (n_tokens, n_sents, mentions) in enumerate(shapes):
        doc = make_doc(mentions, n_sents=n_sents, d_s=5, seed=90 + i, labels=(i,))
        rng = rng_from_seed(90 + i, stream=40)
        docs.append(dataclasses.replace(
            doc, doc_id=f"ragged{i}", word_feats=rng.standard_normal((n_tokens, 6))))
    return docs


def model_caches(model):
    """Every `Derived` cache of `model`, by name."""
    caches = {"stream_mix": model.stream_mix, "embedding_half": model.embedding_half}
    for name in model.cfg.streams:
        caches[f"stream.{name}.queries"] = model.streams[name].queries
    if "sentence" in model.cfg.streams:
        caches["stream.sentence.sent_rnn.halved"] = model.streams["sentence"].sent_rnn.halved
    if model.reasoner is not None:
        caches["reasoner.folded"] = model.reasoner.folded
    return caches


def cache_readers(name, streams):
    """The caches that read parameter `name`, written independently of the caches' inputs."""
    if name == "trope_embedding":
        return {"stream_mix", "embedding_half"} | {f"stream.{s}.queries" for s in streams}
    if name.startswith("stream_attn."):
        return {"stream_mix"}
    if name in ("predictor.layer0.w", "predictor.layer0.b"):
        return {"embedding_half"}
    stream = name.split(".")[1] if name.startswith("stream.") else None
    if name in (f"stream.{stream}.query_proj.w", f"stream.{stream}.query_proj.b",
                f"stream.{stream}.key_proj.w"):
        return {f"stream.{stream}.queries"}
    if name.startswith("stream.sentence.sent_rnn."):
        return {"stream.sentence.sent_rnn.halved"}
    if name.startswith(("reasoner.message_mlp.", "reasoner.cell.", "reasoner.edge_in.")):
        return {"reasoner.folded"}
    return set()


class TestDerivedCaches:
    """Parameter-only products are kept per weight state and never go stale."""

    @pytest.mark.parametrize("streams", STREAM_SETS)
    def test_scores_after_a_step_equal_a_checkpoint_of_the_stepped_weights(
            self, tmp_path, streams):
        model = build_model(tiny_cfg(streams=streams), seed=81)
        docs = ragged_docs()
        before = score_dataset(model, docs)  # fills every cache
        opt = Adam(model.named_parameters(), lr=0.05)
        with Tape() as tape:
            loss = bce_loss(forward_logits(model, docs), label_matrix(docs, 3))
        backward(loss, tape)
        opt.step()
        after = score_dataset(model, docs)
        path = str(tmp_path / "stepped.json")
        save_checkpoint(model, path)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, score_dataset(load_checkpoint(path), docs))

    @pytest.mark.parametrize("streams", STREAM_SETS)
    def test_warm_and_cold_caches_score_the_same(self, streams):
        cfg = tiny_cfg(streams=streams)
        docs = ragged_docs()
        warm = build_model(cfg, seed=82)
        score_dataset(warm, docs[::-1])
        for batch in ([docs[0]], [docs[1]], [docs[2]], docs, docs[1:]):
            cold = score_dataset(build_model(cfg, seed=82), batch)
            assert np.array_equal(score_dataset(warm, batch), cold)
            assert np.array_equal(forward(warm, batch), cold)

    def test_gradcheck_after_a_warm_scoring_pass_is_bit_identical(self, monkeypatch):
        cold = gradcheck.run_gradcheck(seed=3, max_coords=4)
        build = gradcheck._tiny_model

        def warmed(seed):
            model = build(seed)
            cfg = model.cfg
            score_dataset(model, gradcheck._ragged_docs(rng_from_seed(5), cfg.d_w, cfg.d_s))
            assert all(cache.state[2] for cache in model_caches(model).values())
            return model

        monkeypatch.setattr(gradcheck, "_tiny_model", warmed)
        warm = gradcheck.run_gradcheck(seed=3, max_coords=4)
        assert [(r.name, r.max_err) for r in warm] == [(r.name, r.max_err) for r in cold]

    def test_cached_arrays_are_read_only(self):
        model = build_model(tiny_cfg(), seed=83)
        score_dataset(model, ragged_docs())
        caches = model_caches(model)
        assert len(caches) == 7
        for name, cache in caches.items():
            for a in cache.state[2]:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stream_attention(model)[0, 0] = 1.0

    def test_a_write_recomputes_exactly_the_caches_that_read_it(self):
        model = build_model(tiny_cfg(), seed=84)
        docs = ragged_docs()
        scores = score_dataset(model, docs)
        caches = model_caches(model)
        for name, t in model.named_parameters().items():
            held = {c: cache.state for c, cache in caches.items()}
            write(t, t.data.copy())  # the same values, a new version
            assert np.array_equal(score_dataset(model, docs), scores), name
            moved = {c for c, cache in caches.items() if cache.state is not held[c]}
            assert moved == cache_readers(name, model.cfg.streams), name
