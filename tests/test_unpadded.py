"""Batches with nothing to pad, read as views, checked against the padded layout.

A lone document's word and sentence views, and the node rows of a batch
whose docs all have the same entity count, are read as they are: no
zero-filled copy, no layout map, no scatter. `padded_reference` keeps
the padding code they skip. Swapped in, it must give the same logits,
gradients and tape records, bit for bit, since that padding was never
present and was only ever copied. The feature arrays those views read
belong to the documents, so scoring and training must never write them.
"""

import numpy as np
import pytest

import padded_reference
from mulcom import model as M
from mulcom import streams
from mulcom.config import STREAM_NAMES, SynthSpec, TrainConfig
from mulcom.data import synth_generate
from mulcom.graph import graph_batch, label_matrix
from mulcom.model import ModelConfig, build_model, forward_logits, score_dataset, train
from mulcom.numerics import Tape, backward

STREAM_SETS = {
    "word": (("word",), "msrrn"),
    "word+relation": (("word", "relation"), "msrrn"),
    "all-three": (STREAM_NAMES, "msrrn"),
    "rrn": (STREAM_NAMES, "rrn"),
}


@pytest.fixture(scope="module")
def corpus():
    """Planted docs, every one with the same number of entities."""
    ds = synth_generate(21, SynthSpec(docs=12, val_frac=0.0))
    docs = ds.split("train")
    assert len(set(graph_batch(docs).node_counts.tolist())) == 1
    return ds.num_tropes, docs


def model_for(num_tropes, streams_, reasoner):
    cfg = ModelConfig(num_tropes=num_tropes, d_w=16, d_s=16, d_f=8, d_a=8, d_h=8,
                      reasoner_steps=2, reasoner_heads=2, relation_reasoner=reasoner,
                      streams=streams_)
    return build_model(cfg, seed=7)


def logits_grads_records(model, docs):
    params = model.named_parameters()
    for t in params.values():
        t.zero_grad()
    tape = Tape()
    with tape:
        logits = forward_logits(model, docs)
        loss = M.bce_loss(logits, label_matrix(docs, model.cfg.num_tropes), 2.0)
    backward(loss, tape)
    grads = {k: None if t.grad is None else t.grad.copy() for k, t in params.items()}
    return logits.data.copy(), grads, len(tape)


def refuse(*args, **kwargs):
    raise AssertionError("an unpadded batch reached the padding code")


@pytest.mark.parametrize("n_docs", (1, 4), ids=("one-doc", "equal-entity-batch"))
@pytest.mark.parametrize("case", list(STREAM_SETS))
def test_views_match_the_padded_layout_bit_for_bit(corpus, case, n_docs, monkeypatch):
    num_tropes, docs = corpus
    docs = docs[:n_docs]
    model = model_for(num_tropes, *STREAM_SETS[case])
    with monkeypatch.context() as m:
        m.setattr(streams, "scatter_rows", refuse)  # only the padded relation view uses it
        if n_docs == 1:
            m.setattr(streams, "_layout", refuse)
        got, got_grads, got_records = logits_grads_records(model, docs)
    with monkeypatch.context() as m:
        m.setattr(streams, "_pad", padded_reference.pad)
        m.setattr(M, "relation_stream", padded_reference.relation_stream)
        want, want_grads, want_records = logits_grads_records(model, docs)
    assert np.array_equal(got, want)
    assert got_records == want_records
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        assert (g is None) == (want_grads[name] is None), name
        assert g is None or np.array_equal(g, want_grads[name]), name
    assert any(g is not None and g.any() for g in got_grads.values())


def test_a_lone_view_is_read_in_place():
    view = np.arange(12.0).reshape(4, 3)
    feats, mask = streams._pad([view])
    assert feats.shape == (1, 4, 3) and mask is None
    assert np.shares_memory(feats, view)


@pytest.mark.parametrize("reasoner", ("msrrn", "rrn"))
def test_scoring_and_training_never_write_into_a_document(reasoner):
    ds = synth_generate(20211, SynthSpec(docs=14, val_frac=0.3))
    train_docs, val_docs = ds.split("train"), ds.split("val")
    arrays = [a for doc in train_docs + val_docs for a in (doc.word_feats, doc.sent_feats)]
    for a in arrays:
        a.flags.writeable = False
    before = [a.copy() for a in arrays]
    model = model_for(ds.num_tropes, STREAM_NAMES, reasoner)
    one_by_one = np.concatenate([score_dataset(model, [doc]) for doc in val_docs])
    np.testing.assert_allclose(one_by_one, score_dataset(model, val_docs), rtol=0, atol=1e-12)
    train(model, train_docs, TrainConfig(epochs=1, batch_size=4), val_docs=val_docs)
    for a, b in zip(arrays, before):
        assert not a.flags.writeable
        assert np.array_equal(a, b)
