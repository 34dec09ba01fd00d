"""`graph_batch` against the per-document loop it replaced, byte for byte.

`tests/perdoc_oracle.py` keeps the old construction: one dict-and-loop
pass per document that adds one sentence row at a time, then a
concatenation of the per-document graphs. The batched builder must
produce the same arrays, signed zeros and summation order included, on
derandomized ragged batches; `select` of any members must equal a fresh
build of those members' documents; and a mention outside its document's
sentences must be a typed error before any graph is built. `graph_batch`
has two builders, a per-document pass for small batches and an array
pass for large ones, and on batches either side of the size that picks
between them both must give the same arrays, and neither may warn.
"""

import dataclasses
import logging
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mulcom.graph
import mulcom.model
import perdoc_oracle as oracle
from mulcom.errors import ValidationError
from mulcom.graph import (
    ARRAY_PASS_MIN_DOCS,
    EntityMentions,
    FeatureDoc,
    GraphBatch,
    _array_pass,
    _per_doc_pass,
    graph_batch,
)
from mulcom.model import ModelConfig, TrainConfig, build_model, score_dataset, train

ARRAYS = ("x", "recv", "send", "efeat", "node_counts", "pair_counts")

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
    assert messages == []  # an entity without mentions was logged when its doc was made

    singles = [oracle.build_graph(doc) for doc in docs]
    assert_same_graphs(got, oracle.batch_graphs(singles))
    assert got.node_counts.tolist() == [len(doc.entities) for doc in docs]
    assert got.pair_counts.tolist() == [g.recv.size for g in singles]
    assert got.n_members == len(docs)

    members = data.draw(st.permutations(range(len(docs))))
    members = members[: data.draw(st.integers(1, len(docs)))]
    assert_same_graphs(got.select(members), graph_batch([docs[i] for i in members]))


@st.composite
def threshold_batches(draw):
    """A batch of one doc fewer than the array pass takes, or exactly as many.

    Besides ragged docs it always holds a doc without entities and a
    crowded doc: three entities share a sentence of -0.0 features and a
    fourth has no mentions.
    """
    d_s = draw(st.integers(1, 3))
    size = draw(st.sampled_from([ARRAY_PASS_MIN_DOCS - 1, ARRAY_PASS_MIN_DOCS]))
    docs = [draw(feature_docs(d_s, f"doc{b}")) for b in range(size - 2)]
    n_sents = draw(st.integers(1, 4))
    flat = draw(st.lists(VALUES, min_size=n_sents * d_s, max_size=n_sents * d_s))
    sent_feats = np.array(flat, dtype=np.float64).reshape(n_sents, d_s)
    sent_feats[0] = -0.0
    crowded = FeatureDoc(
        "crowded", np.zeros((1, 2)), sent_feats,
        [EntityMentions("c-a", (0, n_sents - 1)), EntityMentions("c-b", (n_sents - 1, 0, 0)),
         EntityMentions("c-c", (0,)), EntityMentions("c-none", ())],
        (),
    )
    lonely = dataclasses.replace(draw(feature_docs(d_s, "no-entities")), entities=())
    for doc in (crowded, lonely):
        docs.insert(draw(st.integers(0, len(docs))), doc)
    return docs


@_settings(150)
@given(docs=threshold_batches(), data=st.data())
def test_both_builders_and_select_agree_at_the_threshold(docs, data):
    with graph_warnings() as messages:
        arrays, per_doc = _array_pass(docs), _per_doc_pass(docs)
        graph_batch(docs)
    assert messages == []
    assert_same_graphs(arrays, per_doc)
    members = data.draw(st.permutations(range(len(docs))))
    members = members[: data.draw(st.integers(1, len(docs)))]
    assert_same_graphs(arrays.select(members), _per_doc_pass([docs[i] for i in members]))


@pytest.mark.parametrize("size, pass_name", [(ARRAY_PASS_MIN_DOCS - 1, "_per_doc_pass"),
                                             (ARRAY_PASS_MIN_DOCS, "_array_pass")])
def test_batch_size_picks_the_builder(monkeypatch, size, pass_name):
    calls = []
    for name in ("_per_doc_pass", "_array_pass"):
        build = getattr(mulcom.graph, name)
        monkeypatch.setattr(mulcom.graph, name,
                            lambda docs, name=name, build=build: calls.append(name) or build(docs))
    graph_batch([_doc_mentioning(1, name=f"d{b}") for b in range(size)])
    assert calls == [pass_name]


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
    # The doc cannot be made, so neither builder nor scorer ever sees it.
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


@pytest.mark.parametrize("dev", [[], ["-X", "dev"]], ids=["plain", "dev-mode"])
def test_a_failing_hypothesis_example_is_one_failure(tmp_path, dev):
    # Hypothesis's failure report imports libcst, which warns on import; with
    # warnings as errors that once ended the whole session as an INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, *dev, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", pyproject,
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed")
