"""The batched forward pass checked against the per-document oracle.

One ragged batch holds a zero-entity doc, a one-sentence doc and a doc
cut by `max_word_tokens`, so every stream pads and masks. Logits and
every parameter gradient must match the per-document pass within 1e-12.
A derandomized property draws the model and such batches as well.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perdoc_oracle
from composite_oracle import stack
from mulcom.config import STREAM_NAMES
from mulcom.errors import ValidationError
from mulcom.graph import EntityMentions, FeatureDoc, label_matrix
from mulcom.model import (
    ModelConfig, bce_loss, build_model, forward_logits, score_dataset,
)
from mulcom.numerics import Tape, backward, rng_from_seed

TOL = 1e-12
MAX_TOKENS = 6
D_W, D_S = 5, 4

STREAM_SETS = (
    ("word",),
    ("sentence",),
    ("relation",),
    ("word", "relation"),
    ("word", "sentence", "relation"),
)


def doc(doc_id, n_tokens, n_sents, mentions, labels, seed):
    rng = rng_from_seed(seed, stream=90)
    return FeatureDoc(
        doc_id=doc_id,
        word_feats=rng.standard_normal((n_tokens, D_W)),
        sent_feats=rng.standard_normal((n_sents, D_S)),
        entities=[EntityMentions(eid, tuple(s)) for eid, s in mentions.items()],
        labels=labels,
    )


def ragged_batch():
    return [
        doc("plain", 5, 3, {"A": (0, 1), "B": (0,), "C": (2,)}, (0, 2), seed=1),
        doc("no-entities", 4, 2, {}, (1,), seed=2),
        doc("one-sentence", 2, 1, {"A": (0,), "B": (0,)}, (), seed=3),
        doc("cut", 9, 4, {"A": (0, 3), "B": (1,), "C": (1, 2), "D": (3,)}, (0, 1, 2),
            seed=4),
    ]


def model_for(streams, reasoner):
    cfg = ModelConfig(
        num_tropes=3, d_w=D_W, d_s=D_S, d_f=8, d_a=8, d_h=8,
        reasoner_steps=2, reasoner_heads=2, relation_reasoner=reasoner,
        streams=streams, max_word_tokens=MAX_TOKENS,
    )
    return build_model(cfg, seed=5)


def logits_and_grads(model, docs, forward):
    params = model.named_parameters()
    for t in params.values():
        t.zero_grad()
    tape = Tape()
    with tape:
        logits = forward()
        loss = bce_loss(logits, label_matrix(docs, model.cfg.num_tropes), 2.0)
    backward(loss, tape)
    # rrn leaves the step attention off the tape, so it gets no gradient
    return logits.data, {k: None if t.grad is None else t.grad.copy()
                         for k, t in params.items()}


@pytest.mark.parametrize("reasoner", ("msrrn", "rrn"))
@pytest.mark.parametrize("streams", STREAM_SETS, ids=",".join)
def test_logits_and_gradients_match_per_doc_oracle(streams, reasoner, caplog):
    model = model_for(streams, reasoner)
    docs = ragged_batch()
    with caplog.at_level("WARNING"):
        got, got_grads = logits_and_grads(
            model, docs, lambda: forward_logits(model, docs))
    want, want_grads = logits_and_grads(
        model, docs,
        lambda: stack([perdoc_oracle.forward_logits(model, d) for d in docs], axis=0))
    assert np.isfinite(got).all()
    npt.assert_allclose(got, want, rtol=0, atol=TOL)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        if want_grads[name] is None:
            assert g is None, name
            continue
        assert np.isfinite(g).all(), name
        npt.assert_allclose(g, want_grads[name], rtol=0, atol=TOL, err_msg=name)
    if "relation" in streams:
        assert "no entities" in caplog.text


@st.composite
def models_and_batches(draw):
    """A small model and a ragged batch for it.

    Docs may have no entities (or entities without mentions), one
    sentence, or more tokens than `max_word_tokens` keeps.
    """
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        num_tropes=draw(st.integers(1, 4)),
        d_w=draw(st.integers(1, 4)),
        d_s=draw(st.integers(1, 4)),
        d_f=draw(st.integers(1, 6)),
        d_a=draw(st.integers(1, 6)),
        d_h=heads * draw(st.integers(1, 3)),
        reasoner_steps=draw(st.integers(1, 3)),
        reasoner_heads=heads,
        relation_reasoner=draw(st.sampled_from(("msrrn", "rrn"))),
        streams=tuple(draw(st.lists(st.sampled_from(STREAM_NAMES), min_size=1,
                                    max_size=3, unique=True))),
        max_word_tokens=draw(st.integers(1, 5)),
    )
    docs = []
    for i in range(draw(st.integers(1, 5))):
        n_sents = draw(st.integers(1, 4))
        mentions = draw(st.lists(st.lists(st.integers(0, n_sents - 1), max_size=3),
                                 max_size=4))
        rng = rng_from_seed(draw(st.integers(0, 2**32)), stream=91)
        docs.append(FeatureDoc(
            doc_id=f"doc{i}",
            word_feats=rng.standard_normal((draw(st.integers(1, 8)), cfg.d_w)),
            sent_feats=rng.standard_normal((n_sents, cfg.d_s)),
            entities=[EntityMentions(f"e{j}", tuple(s)) for j, s in enumerate(mentions)],
            labels=tuple(draw(st.sets(st.integers(0, cfg.num_tropes - 1)))),
        ))
    order = draw(st.permutations(range(len(docs))))
    mates = draw(st.lists(st.sampled_from(range(len(docs))), min_size=1, unique=True))
    return build_model(cfg, seed=draw(st.integers(0, 99))), docs, order, mates


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(models_and_batches())
def test_drawn_models_and_batches_match_the_oracle(case):
    model, docs, order, mates = case
    got, got_grads = logits_and_grads(model, docs, lambda: forward_logits(model, docs))
    want, want_grads = logits_and_grads(
        model, docs,
        lambda: stack([perdoc_oracle.forward_logits(model, d) for d in docs], axis=0))
    assert np.isfinite(got).all()
    npt.assert_allclose(got, want, rtol=0, atol=TOL)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():  # None on both sides when nothing reaches it
        assert (g is None) == (want_grads[name] is None), name
        if g is not None:
            assert np.isfinite(g).all(), name
            npt.assert_allclose(g, want_grads[name], rtol=0, atol=TOL, err_msg=name)
    # permuting the batch permutes the logits, and other batch mates change none
    for pick in (order, mates):
        npt.assert_allclose(forward_logits(model, [docs[i] for i in pick]).data,
                            got[pick], rtol=0, atol=TOL)


@pytest.mark.parametrize("streams", STREAM_SETS[3:], ids=",".join)
def test_doc_logits_ignore_batch_mates_and_order(streams):
    model = model_for(streams, "msrrn")
    docs = ragged_batch()
    whole = forward_logits(model, docs).data
    for i, d in enumerate(docs):
        npt.assert_allclose(forward_logits(model, [d]).data[0], whole[i],
                            rtol=0, atol=TOL)
    order = [2, 0, 3, 1]
    shuffled = forward_logits(model, [docs[i] for i in order]).data
    npt.assert_allclose(shuffled, whole[order], rtol=0, atol=TOL)
    npt.assert_allclose(forward_logits(model, docs[1:3]).data, whole[1:3],
                        rtol=0, atol=TOL)


def test_long_word_views_score_as_each_doc_alone():
    """A ragged chunk of 180-210 token word views, padded together, scores as each doc does."""
    cfg = ModelConfig(num_tropes=5, d_w=16, d_s=D_S, d_f=32, d_a=32,
                      streams=("word", "sentence"))
    model = build_model(cfg, seed=7)
    rng = rng_from_seed(8, stream=92)
    docs = [
        FeatureDoc(f"long{i}", rng.standard_normal((n, cfg.d_w)),
                   rng.standard_normal((n // 11, D_S)), [], ())
        for i, n in enumerate(rng.integers(180, 211, size=12))
    ]
    assert len({d.n_tokens for d in docs}) > 1  # ragged, so the chunk is masked
    whole = score_dataset(model, docs)
    for i, d in enumerate(docs):
        npt.assert_allclose(score_dataset(model, [d])[0], whole[i], rtol=0, atol=TOL)


def test_zero_token_doc_is_named():
    # such a doc cannot be made, so no forward pass sees it
    with pytest.raises(ValidationError, match="doc tokenless: record has no word tokens"):
        doc("tokenless", 0, 1, {"A": (0,)}, (), seed=6)


def test_empty_batch_is_rejected():
    with pytest.raises(ValidationError, match="empty batch"):
        forward_logits(model_for(("word",), "msrrn"), [])
