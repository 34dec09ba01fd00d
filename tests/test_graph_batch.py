"""`graph_batch` against the per-document loop it replaced, byte for byte.

`tests/perdoc_oracle.py` keeps the old construction: one dict-and-loop
pass per document that adds one sentence row at a time, then a
concatenation of the per-document graphs. The batched builder must
produce the same arrays, signed zeros and summation order included, on
derandomized ragged batches; `select` of any members must equal a fresh
build of those members' documents; and a mention outside its document's
sentences must be a typed error wherever it enters.
"""

import logging
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mulcom.model
import perdoc_oracle as oracle
from mulcom.errors import ValidationError
from mulcom.graph import EntityMentions, FeatureDoc, GraphBatch, graph_batch
from mulcom.model import ModelConfig, TrainConfig, build_model, score_dataset, train

ARRAYS = ("x", "recv", "send", "efeat", "node_counts", "pair_counts")
NO_MENTIONS = "keeping isolated zero node"

# Summands of very different magnitudes, so that adding them in any other
# order than left to right changes the result; and both signed zeros.
VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 1e-3, 3.5, 1e16, -1e16, 2.0**-1074]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def _settings(examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def feature_docs(draw, d_s, name):
    """A document whose mention lists may be empty, unsorted or duplicated.

    Its shape also forces one of: every entity in sentence 0 (a clique, or
    a self-loop when there is one entity), two entities sharing three or
    more sentences, or an entity mentioned in nine or more sentences.
    """
    n_sents = draw(st.integers(1, 12))
    sent = st.integers(0, n_sents - 1)
    table = draw(st.lists(
        st.one_of(st.just([]), st.lists(sent, min_size=1, max_size=4),
                  st.lists(sent, min_size=9, max_size=14)),
        max_size=6,
    ))
    shape = draw(st.sampled_from(["plain", "clique", "shared", "long"]))
    if shape == "clique":
        table = [sents + [0] for sents in table]
    elif shape == "shared" and n_sents >= 3:
        shared = draw(st.lists(sent, min_size=3, max_size=6, unique=True))
        table = [shared[::-1], shared + shared[:1]] + table
    elif shape == "long" and n_sents >= 9:
        table.append(draw(st.lists(sent, min_size=9, max_size=14, unique=True)))
    flat = draw(st.lists(VALUES, min_size=n_sents * d_s, max_size=n_sents * d_s))
    return FeatureDoc(
        doc_id=name,
        word_feats=np.zeros((1, 2)),
        sent_feats=np.array(flat, dtype=np.float64).reshape(n_sents, d_s),
        entities=[EntityMentions(f"{name}-e{i}", tuple(s)) for i, s in enumerate(table)],
        labels=(),
    )


@st.composite
def ragged_batches(draw):
    d_s = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6))
    return [draw(feature_docs(d_s, f"doc{b}")) for b in range(size)]


def assert_same_graphs(got: GraphBatch, want: GraphBatch) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.entity_ids == want.entity_ids


@contextmanager
def graph_warnings():
    """Messages the graph module logs at WARNING or above inside the block."""
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    logger = logging.getLogger("mulcom.graph")
    handler = Collect(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


@_settings(250)
@given(docs=ragged_batches(), data=st.data())
def test_graph_batch_equals_the_per_doc_loop(docs, data):
    with graph_warnings() as messages:
        got = graph_batch(docs)
    empty = sum(not ent.sents for doc in docs for ent in doc.entities)
    assert sum(NO_MENTIONS in m for m in messages) == empty

    singles = [oracle.build_graph(doc) for doc in docs]
    assert_same_graphs(got, oracle.batch_graphs(singles))
    assert got.node_counts.tolist() == [len(doc.entities) for doc in docs]
    assert got.pair_counts.tolist() == [g.recv.size for g in singles]
    assert got.n_members == len(docs)

    members = data.draw(st.permutations(range(len(docs))))
    members = members[: data.draw(st.integers(1, len(docs)))]
    assert_same_graphs(got.select(members), graph_batch([docs[i] for i in members]))


def test_sums_run_left_to_right():
    # In the first column (a + b) + c is 1.0 while a + (b + c) is 0.0. A and
    # B share sentences 0-2, so both nodes and their edge sum all three.
    # C alone in sentence 3 is a self-loop whose lone summand keeps its
    # -0.0, while its node sum starts from +0.0.
    doc = FeatureDoc(
        doc_id="assoc",
        word_feats=np.zeros((1, 2)),
        sent_feats=np.array([[1e16, 2.0], [-1e16, 0.5], [1.0, 0.25], [-0.0, -0.0]]),
        entities=[EntityMentions("A", (2, 0, 1)), EntityMentions("B", (1, 2, 0, 2)),
                  EntityMentions("C", (3,))],
        labels=(),
    )
    g = graph_batch([doc])
    assert g.x.tolist() == [[1.0, 2.75], [1.0, 2.75], [0.0, 0.0]]
    assert not np.signbit(g.x[2]).any()
    assert list(zip(g.recv.tolist(), g.send.tolist())) == [(0, 1), (1, 0), (2, 2)]
    assert g.efeat[:2].tolist() == [[1.0, 2.75]] * 2
    assert np.signbit(g.efeat[2]).all()
    assert_same_graphs(g, oracle.build_graph(doc))


def test_a_doc_without_sentences_keeps_its_unmentioned_entities():
    doc = FeatureDoc("no-sents", np.zeros((1, 2)), np.zeros((0, 3)),
                     [EntityMentions("A", ())], ())
    assert_same_graphs(graph_batch([doc]), oracle.build_graph(doc))
    assert graph_batch([doc]).x.tolist() == [[0.0, 0.0, 0.0]]


def test_empty_batch_is_a_validation_error():
    with pytest.raises(ValidationError, match="empty batch"):
        graph_batch([])


def _doc_mentioning(sentence, name="bad-doc"):
    rng = np.random.default_rng(0)
    return FeatureDoc(
        doc_id=name,
        word_feats=rng.standard_normal((3, 4)),
        sent_feats=rng.standard_normal((2, 3)),
        entities=[EntityMentions("ok", (0, 1)), EntityMentions("stray", (0, sentence))],
        labels=(0,),
    )


@pytest.mark.parametrize("sentence", [-1, 2])
class TestOutOfRangeMentions:
    def test_graph_batch_names_the_doc_and_the_entity(self, sentence):
        good = _doc_mentioning(1, name="good-doc")
        with pytest.raises(ValidationError, match=f"bad-doc: entity 'stray' mentions sentence {sentence}"):
            graph_batch([good, _doc_mentioning(sentence)])

    def test_score_dataset_raises_it_too(self, sentence):
        cfg = ModelConfig(num_tropes=2, d_w=4, d_s=3, d_f=4, d_a=4, d_h=4,
                          reasoner_steps=1, reasoner_heads=1, streams=("word", "relation"))
        with pytest.raises(ValidationError, match="bad-doc: entity 'stray'"):
            score_dataset(build_model(cfg, seed=0), [_doc_mentioning(sentence)])


def test_train_builds_each_splits_graphs_once(monkeypatch):
    calls = []

    def counting(docs):
        calls.append(len(docs))
        return graph_batch(docs)

    monkeypatch.setattr(mulcom.model, "graph_batch", counting)
    rng = np.random.default_rng(1)
    docs = [
        FeatureDoc(f"d{i}", rng.standard_normal((3, 4)), rng.standard_normal((3, 3)),
                   [EntityMentions("a", (0, 1)), EntityMentions("b", (1, 2))], (i % 2,))
        for i in range(10)
    ]
    cfg = ModelConfig(num_tropes=2, d_w=4, d_s=3, d_f=4, d_a=4, d_h=4,
                      reasoner_steps=1, reasoner_heads=1, streams=("word", "relation"))
    result = train(build_model(cfg, seed=0), docs[:7],
                   TrainConfig(epochs=2, batch_size=2, seed=0), val_docs=docs[7:])
    assert result.epochs_run == 2
    assert calls == [7, 3]  # the train split, then the val split; not per step or epoch
