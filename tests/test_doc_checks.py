"""A document is checked once, where it is made.

`FeatureDoc` and `EntityMentions` make every check a document's own
content needs. A derandomized property draws valid documents, gives one
of them one defect (a feature array of the wrong rank, ragged, with a
NaN or infinity, no rows or no columns; a bool, string or fractional
label or mention; a negative label or a mention past the doc's
sentences; an entity that is no `EntityMentions`; an id that is no
string; labels that are not iterable), or gives a batch mixed feature
widths, and feeds the batch to the constructors and to every consumer.
Only a `MulComError` may escape. The inputs that once failed untyped
are explicit examples of the property.
"""

import copy
import dataclasses
import math
import pickle
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mulcom.config import STREAM_NAMES
from mulcom.data import Dataset, load_dataset, save_dataset
from mulcom.errors import MulComError, ValidationError
from mulcom.graph import EntityMentions, FeatureDoc, graph_batch
from mulcom.model import (
    ModelConfig, TrainConfig, build_model, forward, score_dataset, train,
)
from mulcom.numerics import rng_from_seed

D_W, D_S, TROPES = 3, 2, 3
CFG = ModelConfig(num_tropes=TROPES, d_w=D_W, d_s=D_S, d_f=4, d_a=4, d_h=4,
                  reasoner_steps=1, reasoner_heads=1, streams=STREAM_NAMES)


def _save(docs):
    with tempfile.TemporaryDirectory() as out:
        save_dataset(Dataset([f"t{i}" for i in range(TROPES)], {"train": docs}), out)


CONSUMERS = {
    "graph_batch": graph_batch,
    "forward": lambda docs: forward(build_model(CFG), docs),
    "score_dataset": lambda docs: score_dataset(build_model(CFG), docs),
    "train": lambda docs: train(build_model(CFG), docs, TrainConfig(epochs=1, batch_size=2)),
    "save_dataset": _save,
}


@dataclasses.dataclass
class Raw:
    """An entity passed to `FeatureDoc` as it is, not as an `EntityMentions`."""

    obj: object


def valid_fields(doc_id, n_tokens, n_sents, mentions, labels, seed):
    rng = rng_from_seed(seed, stream=93)
    return {
        "doc_id": doc_id,
        "word_feats": rng.standard_normal((n_tokens, D_W)),
        "sent_feats": rng.standard_normal((n_sents, D_S)),
        "entities": [(f"e{j}", list(s)) for j, s in enumerate(mentions)],
        "labels": list(labels),
    }


def make(fields):
    """The doc `fields` describe; an (id, sents) entity becomes an `EntityMentions`."""
    entities = fields["entities"]
    if isinstance(entities, Raw):
        entities = entities.obj
    else:
        entities = [e.obj if isinstance(e, Raw) else EntityMentions(*e) for e in entities]
    return FeatureDoc(fields["doc_id"], fields["word_feats"], fields["sent_feats"],
                      entities, fields["labels"])


def consume_all(batch):
    """Make the batch and feed it to every consumer; only a MulComError may escape."""
    for consume in CONSUMERS.values():
        try:
            consume([make(f) for f in batch])
        except MulComError:
            pass


BAD_ORDINALS = [True, False, np.True_, "1", 0.5, math.nan, math.inf, None, [0]]
FEATURES = ("word_feats", "sent_feats")


def _feature_defect(draw, fields):
    name = draw(st.sampled_from(FEATURES))
    x = fields[name]
    kind = draw(st.sampled_from(["rank", "ragged", "non-finite", "no-rows", "no-width"]))
    if kind == "rank":
        bad = draw(st.sampled_from([x[0], x[None], x[0, 0], x.tolist()[0]]))
    elif kind == "ragged":
        rows = x.tolist()
        bad = rows + [rows[0] + [0.0]]
    elif kind == "non-finite":
        bad = x.copy()
        bad[draw(st.integers(0, x.shape[0] - 1)), draw(st.integers(0, x.shape[1] - 1))] = (
            draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif kind == "no-rows":
        bad = draw(st.sampled_from([np.zeros((0, x.shape[1])), [], np.zeros(0)]))
    else:
        bad = np.zeros((x.shape[0], 0))
    return {**fields, name: bad}, fields["doc_id"]


def _ordinal_defect(draw, fields):
    doc_id = fields["doc_id"]
    at = draw(st.sampled_from(["label"] + [eid for eid, _ in fields["entities"]]))
    if at == "label":  # a label's upper bound is the trope count, not the doc's
        bad = draw(st.sampled_from(BAD_ORDINALS + [-1, -(2**70)]))
        return {**fields, "labels": fields["labels"] + [bad]}, doc_id
    n_sents = fields["sent_feats"].shape[0]
    bad = draw(st.sampled_from(BAD_ORDINALS + [-1, n_sents, n_sents + 3, 2**70]))
    entities = [(eid, sents + [bad] if eid == at else sents)
                for eid, sents in fields["entities"]]
    # an entity rejects a non-ordinal itself; the doc, a sentence it does not have
    named = f"{doc_id}: entity '{at}'" if type(bad) is int else f"entity '{at}'"
    return {**fields, "entities": entities}, named


def _type_defect(draw, fields):
    kind = draw(st.sampled_from(["entity", "doc-id", "entity-id", "labels", "entities"]))
    if kind == "entity":
        raw = draw(st.sampled_from([("e9", (0,)), {"id": "e9", "sents": [0]}, None, "e9"]))
        return {**fields, "entities": fields["entities"] + [Raw(raw)]}, fields["doc_id"]
    if kind == "doc-id":
        return {**fields, "doc_id": draw(st.sampled_from([5, None, b"d", ("d",)]))}, "doc_id"
    if kind == "entity-id":
        return {**fields, "entities": fields["entities"] + [(7, [0])]}, "entity id"
    if kind == "labels":
        return {**fields, "labels": draw(st.sampled_from([3, None, 1.5]))}, fields["doc_id"]
    return {**fields, "entities": Raw(5)}, fields["doc_id"]


@st.composite
def defective_batches(draw):
    """Valid docs, one of them given one defect, and what the error must name.

    For mixed widths no single doc is at fault, and the name is None.
    """
    batch = []
    for i in range(draw(st.integers(1, 4))):
        n_sents = draw(st.integers(1, 3))
        mentions = draw(st.lists(st.lists(st.integers(0, n_sents - 1), max_size=3),
                                 min_size=1, max_size=3))
        labels = draw(st.lists(st.integers(0, TROPES - 1), max_size=3))
        batch.append(valid_fields(f"doc{i}", draw(st.integers(1, 4)), n_sents, mentions,
                                  labels, draw(st.integers(0, 2**16))))
    at = draw(st.integers(0, len(batch) - 1))
    kind = draw(st.sampled_from(["feature", "ordinal", "type", "mixed-widths"]))
    if kind == "mixed-widths":
        name = draw(st.sampled_from(FEATURES))
        x = batch[at][name]
        batch.append({**batch[at], "doc_id": "wide",
                      name: np.ones((x.shape[0], x.shape[1] + draw(st.integers(1, 2))))})
        return batch, None
    defect = {"feature": _feature_defect, "ordinal": _ordinal_defect,
              "type": _type_defect}[kind]
    batch[at], named = defect(draw, batch[at])
    return batch, named


def _probe(**change):
    """One valid doc's fields with `change` applied, as a one-doc batch."""
    fields = valid_fields("probe", 3, 2, [[0, 1]], [0], seed=1)
    for key, value in change.items():
        fields[key] = value(fields) if callable(value) else value
    return [fields]


# the inputs that once failed untyped or not at all, each with its whole message
@example((_probe(word_feats=lambda f: f["word_feats"][0]),
          "doc probe: feature arrays must be rectangular 2-d"))
@example((_probe(labels=("a",)), "doc probe: label must be an integer, got 'a'"))
@example((_probe(entities=[("e0", [0, 0.5])]),
          "entity 'e0': sentence ordinal must be an integer, got 0.5"))
@example((_probe(entities=[("e0", [0, True])]),
          "entity 'e0': sentence ordinal must be an integer, got True"))
@example((_probe(sent_feats=lambda f: np.full_like(f["sent_feats"], np.nan)),
          "doc probe: sent_feats holds non-finite values"))
@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(defective_batches())
def test_a_defect_fails_typed_wherever_it_goes(case):
    batch, named = case
    if named is None:  # every doc is fine alone; the batch is not
        docs = [make(f) for f in batch]
        for name in ("forward", "score_dataset", "train", "save_dataset"):
            with pytest.raises(ValidationError):
                CONSUMERS[name](docs)
    else:
        with pytest.raises(ValidationError, match=named):
            [make(f) for f in batch]
    consume_all(batch)


class TestNumpyIntegers:
    def test_numpy_labels_and_mentions_round_trip_as_ints(self, tmp_path):
        rng = rng_from_seed(2, stream=93)
        labels = tuple(np.flatnonzero(np.array([1, 0, 1])))
        doc = FeatureDoc("np", rng.standard_normal((2, D_W)), rng.standard_normal((3, D_S)),
                         [EntityMentions("e", np.array([2, 0], dtype=np.int64))], labels)
        assert doc.labels == (0, 2) and doc.entities[0].sents == (0, 2)
        made = [doc.labels, doc.entities[0].sents]
        ds = Dataset([f"t{i}" for i in range(TROPES)], {"train": [doc]})
        back, = load_dataset(save_dataset(ds, str(tmp_path))).split("train")
        loaded = [back.labels, back.entities[0].sents]
        assert loaded == made
        assert all(type(v) is int for ordinals in made + loaded for v in ordinals)
        assert back.doc_id == doc.doc_id and back.entities == doc.entities
        npt.assert_array_equal(back.word_feats, doc.word_feats)
        npt.assert_array_equal(back.sent_feats, doc.sent_feats)

    @pytest.mark.parametrize("flag", [True, np.True_, False, np.False_],
                             ids=["True", "np.True_", "False", "np.False_"])
    def test_bools_are_no_ordinals(self, flag):
        with pytest.raises(ValidationError, match="doc d: label must be an integer"):
            FeatureDoc("d", np.zeros((1, 1)), np.zeros((1, 1)), [], [flag])
        with pytest.raises(ValidationError, match="entity 'e': sentence ordinal must be"):
            EntityMentions("e", [flag])

    @pytest.mark.parametrize("kind", [float, np.float16, np.float32, np.float64],
                             ids=["float", "np.float16", "np.float32", "np.float64"])
    def test_integral_floats_of_every_width_are_ordinals(self, kind):
        doc = FeatureDoc("d", np.zeros((1, 1)), np.zeros((3, 1)),
                         [EntityMentions("e", [kind(2.0), kind(0.0)])], [kind(1.0)])
        assert doc.labels == (1,) and doc.entities[0].sents == (0, 2)
        assert all(type(v) is int for v in doc.labels + doc.entities[0].sents)
        for bad in (kind(0.5), kind("nan"), kind("inf")):
            with pytest.raises(ValidationError, match="doc d: label must be an integer"):
                FeatureDoc("d", np.zeros((1, 1)), np.zeros((1, 1)), [], [bad])
            with pytest.raises(ValidationError, match="entity 'e': sentence ordinal must be"):
                EntityMentions("e", [bad])


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda doc: pickle.loads(pickle.dumps(doc))}


class TestImmutable:
    def test_stored_arrays_are_read_only(self):
        doc = make(valid_fields("d", 2, 2, [[0]], [1], seed=3))
        for x in (doc.word_feats, doc.sent_feats):
            assert not x.flags.writeable and x.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 1.0

    def test_the_arrays_cannot_be_made_writeable_again(self):
        doc = make(valid_fields("d", 2, 2, [[0]], [1], seed=3))
        for x in (doc.word_feats, doc.sent_feats):
            with pytest.raises(ValueError, match="WRITEABLE"):
                x.flags.writeable = True
            assert not x.flags.writeable

    @pytest.mark.parametrize("how", list(COPIES))
    def test_copies_are_equal_and_read_only(self, how):
        doc = make(valid_fields("d", 2, 3, [[2, 0], [1]], [1, 0], seed=6))
        twin = COPIES[how](doc)
        assert twin is not doc
        assert (twin.doc_id, twin.entities, twin.labels) == (doc.doc_id, doc.entities, doc.labels)
        for got, want in ((twin.word_feats, doc.word_feats), (twin.sent_feats, doc.sent_feats)):
            npt.assert_array_equal(got, want)
            assert got.dtype == np.float64 and not np.shares_memory(got, want)
            with pytest.raises(ValueError, match="WRITEABLE"):
                got.flags.writeable = True

    def test_an_edited_pickle_fails_the_checks(self):
        fields = valid_fields("d", 2, 2, [[0]], [1], seed=7)
        fields["word_feats"][1, 2] = 1234.5
        payload = pickle.dumps(make(fields))
        mark = np.float64(1234.5).tobytes()
        assert payload.count(mark) == 1
        with pytest.raises(ValidationError, match="doc d: word_feats holds non-finite values"):
            pickle.loads(payload.replace(mark, np.float64(np.nan).tobytes()))

    def test_a_write_to_the_source_does_not_reach_the_doc(self):
        fields = valid_fields("d", 2, 2, [[0]], [1], seed=4)
        source = fields["word_feats"]
        doc = make(fields)
        before = doc.word_feats.copy()
        source[:] = np.nan
        npt.assert_array_equal(doc.word_feats, before)

    def test_replace_checks_again_and_assignment_raises(self):
        doc = make(valid_fields("d", 2, 2, [[0]], [1], seed=5))
        with pytest.raises(ValidationError, match="doc d: word_feats holds non-finite values"):
            dataclasses.replace(doc, word_feats=np.full((2, D_W), np.inf))
        with pytest.raises(ValidationError, match="doc d: label must be an integer"):
            dataclasses.replace(doc, labels=[0.5])
        with pytest.raises(ValidationError, match="entity 'e': sentence ordinal must be"):
            dataclasses.replace(doc.entities[0], entity_id="e", sents=["0"])
        for name in ("word_feats", "labels", "doc_id"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(doc, name, getattr(doc, name))
