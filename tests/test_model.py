"""Model head, loss, optimizer, and checkpoint round-trip tests."""

import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mulcom.errors import (
    ConfigError,
    DataFormatError,
    MulComError,
    ValidationError,
)
from mulcom.graph import build_graph, graph_batch, label_matrix
from mulcom.model import (
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
from mulcom import numerics
from mulcom.numerics import (
    Tape,
    Tensor,
    backward,
    grad_check,
    param,
    rng_from_seed,
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
    doc.word_feats = rng.standard_normal((n_tokens, 6))
    return doc


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
        npt.assert_allclose(a.data, np.ones((3, 1)), rtol=0, atol=0)

    def test_zero_mlp_gives_uniform_rows(self):
        model = build_model(tiny_cfg(), seed=2)
        for _, t in model.stream_attn_mlp.named("m"):
            t.data[...] = 0.0
        a = stream_attention(model)
        npt.assert_allclose(a.data, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_matches_formula_oracle_and_rows_sum_to_one(self):
        model = build_model(tiny_cfg(), seed=3)
        a = stream_attention(model).data
        expected = np_softmax_rows(mlp_oracle(model.E.data, model.stream_attn_mlp))
        npt.assert_allclose(a, expected, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(a.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)


class TestOrganize:
    def test_single_stream_passthrough(self):
        rng = rng_from_seed(70)
        r = Tensor(rng.standard_normal((3, 8)))
        a = Tensor(np.ones((3, 1)))
        npt.assert_array_equal(organize({"word": r}, a, ("word",)).data, r.data)

    def test_one_hot_selects_stream_exactly(self):
        rng = rng_from_seed(71)
        r1 = Tensor(rng.standard_normal((3, 8)))
        r2 = Tensor(rng.standard_normal((3, 8)))
        a = Tensor(np.tile([0.0, 1.0], (3, 1)))
        out = organize({"word": r1, "sentence": r2}, a, ("word", "sentence"))
        npt.assert_array_equal(out.data, r2.data)

    def test_two_streams_match_weighted_sum_oracle(self):
        rng = rng_from_seed(72)
        r1 = rng.standard_normal((4, 8))
        r2 = rng.standard_normal((4, 8))
        a = np_softmax_rows(rng.standard_normal((4, 2)))
        out = organize(
            {"word": Tensor(r1), "relation": Tensor(r2)},
            Tensor(a),
            ("word", "relation"),
        )
        expected = a[:, :1] * r1 + a[:, 1:] * r2
        npt.assert_allclose(out.data, expected, rtol=1e-14, atol=1e-15)

    def test_missing_stream_is_internal_error(self):
        with pytest.raises(MulComError, match="missing stream"):
            organize({"word": Tensor(np.zeros((2, 4)))},
                     Tensor(np.ones((2, 2))), ("word", "sentence"))


class TestPredictLogits:
    def test_zero_predictor_gives_half_scores(self):
        model = build_model(tiny_cfg(streams=("word",)), seed=4)
        for _, t in model.predictor.named("p"):
            t.data[...] = 0.0
        doc = tiny_doc()
        logits = forward_logits(model, [doc])
        npt.assert_array_equal(logits.data, np.zeros((1, 3)))
        npt.assert_allclose(forward(model, [doc]), np.full((1, 3), 0.5), rtol=0, atol=0)

    def test_matches_mlp_oracle(self):
        rng = rng_from_seed(73)
        model = build_model(tiny_cfg(), seed=5)
        mixed = rng.standard_normal((3, 8))
        out = predict_logits(model, Tensor(mixed))
        z = np.concatenate([mixed, model.E.data], axis=-1)
        npt.assert_allclose(
            out.data, mlp_oracle(z, model.predictor).reshape(-1),
            rtol=1e-12, atol=1e-14,
        )

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

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValidationError):
            bce_loss(Tensor(np.zeros((1, 1))), np.array([[0.5]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bce_loss(Tensor(np.zeros((1, 2))), np.array([[1]]))


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
        model.predictor.layers[-1].b.data[...] = -800.0  # exp(800) overflows
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
        model.E.data[...] = np.inf
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
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    def test_rejects_deeply_nested_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataFormatError, match=r"invalid JSON.*deep\.json"):
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
