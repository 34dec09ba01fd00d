"""Dataset I/O, statistics, and planted-generator construction checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mulcom.data
from mulcom.data import (
    Dataset,
    SynthSpec,
    cooccurrence_iou,
    corpus_stats,
    load_dataset,
    save_dataset,
    synth_generate,
    trope_prevalence,
)
from mulcom.errors import ConfigError, DataFormatError, ValidationError
from mulcom.graph import EntityMentions, FeatureDoc, build_graph
from mulcom.numerics import rng_from_seed

from test_graph import make_doc

DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit


def small_spec(**kw):
    base = dict(docs=30, token_tropes=2, motif_tropes=2, vocab=24,
                d_w=6, d_s=5, filler_sents=2, filler_sent_len=3)
    base.update(kw)
    return SynthSpec(**base)


def recover_tokens(doc, word_table):
    """Map feature rows back to vocab ids by exact table lookup."""
    out = []
    for row in doc.word_feats:
        hits = np.flatnonzero((word_table == row).all(axis=1))
        assert len(hits) == 1
        out.append(int(hits[0]))
    return out


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        ds = synth_generate(11, small_spec())
        manifest = save_dataset(ds, str(tmp_path / "ds"))
        back = load_dataset(manifest)
        assert back.trope_names == ds.trope_names
        assert set(back.splits) == set(ds.splits)
        for split in ds.splits:
            assert len(back.splits[split]) == len(ds.splits[split])
            for a, b in zip(ds.splits[split], back.splits[split]):
                assert a.doc_id == b.doc_id
                assert a.labels == b.labels
                npt.assert_array_equal(a.word_feats, b.word_feats)
                npt.assert_array_equal(a.sent_feats, b.sent_feats)
                assert [(e.entity_id, e.sents) for e in a.entities] == [
                    (e.entity_id, e.sents) for e in b.entities
                ]

    def test_two_saves_are_byte_identical(self, tmp_path):
        ds = synth_generate(12, small_spec())
        p1 = save_dataset(ds, str(tmp_path / "a"))
        p2 = save_dataset(ds, str(tmp_path / "b"))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert (
            (tmp_path / "a" / "train.jsonl").read_bytes()
            == (tmp_path / "b" / "train.jsonl").read_bytes()
        )


class TestLoadErrors:
    def write_manifest(self, tmp_path, splits, tropes=("t0", "t1")):
        man = {
            "format": "mulcom-dataset",
            "version": 1,
            "trope_names": list(tropes),
            "trope_categories": None,
            "splits": splits,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(man))
        return str(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_dataset(str(tmp_path / "nope.json"))

    def test_empty_split_map_is_valid(self, tmp_path):
        path = self.write_manifest(tmp_path, {})
        ds = load_dataset(path)
        assert ds.num_tropes == 2
        assert ds.splits == {}

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"format": "other", "trope_names": ["a"]}')
        with pytest.raises(DataFormatError, match="format"):
            load_dataset(str(path))

    def test_bad_json_line_reports_line_number(self, tmp_path):
        rec = {
            "doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
            "entities": [], "labels": [],
        }
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n{broken\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError, match="train.jsonl:2"):
            load_dataset(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        rec = {
            "doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
            "entities": [], "labels": [2],
        }
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(ValidationError, match="d0"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("labels", [1.9]),
        ("labels", [True]),
        ("labels", ["1"]),
        ("sents", [0.7]),
        ("sents", [False]),
        ("sents", ["0"]),
        ("id", 5),
    ])
    def test_non_integer_label_ordinal_or_entity_id_names_the_record(
            self, tmp_path, field, value):
        good = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
                "entities": [{"id": "e", "sents": [0]}], "labels": [1]}
        bad = dict(good, doc_id="d1")
        if field == "labels":
            bad["labels"] = value
        else:
            bad["entities"] = [dict(good["entities"][0], **{field: value})]
        (tmp_path / "train.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError, match=r"doc d1: .*train\.jsonl:2\)"):
            load_dataset(path)

    def test_integral_float_label_and_ordinal_load_as_ints(self, tmp_path):
        rec = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
               "entities": [{"id": "e", "sents": [0.0]}], "labels": [1.0]}
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        doc, = load_dataset(self.write_manifest(tmp_path, {"train": ["train.jsonl"]})).split("train")
        assert doc.labels == (1,) and type(doc.labels[0]) is int
        assert doc.entities[0].sents == (0,) and type(doc.entities[0].sents[0]) is int

    def load_one(self, tmp_path, entities, labels):
        rec = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0], [1.0]],
               "entities": entities, "labels": labels}
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        return load_dataset(self.write_manifest(tmp_path, {"train": ["train.jsonl"]}))

    def test_duplicate_labels_load_sorted_and_count_once(self, tmp_path):
        ds = self.load_one(tmp_path, [], [1, 0, 1])
        doc, = ds.split("train")
        assert doc.labels == (0, 1)
        assert trope_prevalence([doc], 2) == [100.0, 100.0]
        assert corpus_stats(ds)["train"]["tropes"]["max"] == 2.0

    def test_duplicate_mentions_load_sorted_and_count_once(self, tmp_path):
        ds = self.load_one(tmp_path, [{"id": "e", "sents": [1, 1, 0]}], [])
        doc, = ds.split("train")
        assert doc.entities[0].sents == (0, 1)
        assert corpus_stats(ds)["train"]["corefs"]["max"] == 2.0

    def test_built_doc_with_repeats_counts_each_once_and_round_trips(self, tmp_path):
        doc = FeatureDoc("d0", np.zeros((1, 1)), np.zeros((2, 1)),
                         [EntityMentions("e", (1, 0, 1))], (1, 1))
        ds = Dataset(["t0", "t1"], {"train": [doc]}, trope_categories={"t1": "motif"})
        assert trope_prevalence([doc], 2) == [0.0, 100.0]
        assert corpus_stats(ds)["train"]["corefs"]["max"] == 2.0
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        loaded, = back.split("train")
        assert (loaded.labels, loaded.entities) == ((1,), (EntityMentions("e", (0, 1)),))
        assert back.trope_categories == {"t1": "motif"}

    def test_label_wider_than_64_bits_names_the_doc(self, tmp_path):
        # the reader loads it as the nearest float, which is out of range too
        rec = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
               "entities": [], "labels": [12345678901234567890123]}
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(ValidationError, match="d0: label index"):
            load_dataset(path)

    @pytest.mark.parametrize("bad, error", [
        ({"labels": [5]}, "d0: label index 5 outside [0, 2)"),
        ({"labels": [-1]}, "d0: label index -1 is negative"),
        ({"entities": [{"id": "e", "sents": [1]}]},
         "d0: entity 'e' mentions sentence 1, but document has 1 sentences"),
        ({"doc_id": "v0"}, "doc v0 appears in both 'val' and 'train'"),
        ({"word_feats": [[0.0, 1.0]]}, "doc d0: feature dims (2, 1) differ from (1, 1)"),
    ], ids=["label-bound", "negative-label", "mention", "duplicate-id", "dims"])
    def test_record_errors_name_the_file_and_line(self, tmp_path, bad, error):
        ok = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        (tmp_path / "val.jsonl").write_text(json.dumps({**ok, "doc_id": "v0"}) + "\n")
        (tmp_path / "train.jsonl").write_text(json.dumps({**ok, **bad}) + "\n")
        path = self.write_manifest(tmp_path, {"val": ["val.jsonl"], "train": ["train.jsonl"]})
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{error} ({tmp_path / 'train.jsonl'}:1)"

    def test_duplicate_doc_id_across_splits(self, tmp_path):
        rec = {
            "doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
            "entities": [], "labels": [],
        }
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        (tmp_path / "val.jsonl").write_text(json.dumps(rec) + "\n")
        path = self.write_manifest(
            tmp_path, {"train": ["train.jsonl"], "val": ["val.jsonl"]}
        )
        with pytest.raises(ValidationError, match="d0"):
            load_dataset(path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        r1 = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        r2 = {"doc_id": "d1", "word_feats": [[0.0, 1.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        (tmp_path / "train.jsonl").write_text(
            json.dumps(r1) + "\n" + json.dumps(r2) + "\n"
        )
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(ValidationError, match="dims"):
            load_dataset(path)

    def test_ragged_features_rejected(self, tmp_path):
        rec = {"doc_id": "d0", "word_feats": [[0.0], [0.0, 1.0]],
               "sent_feats": [[0.0]], "entities": [], "labels": []}
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["word_feats", "sent_feats"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_features_rejected(self, tmp_path, field, bad):
        ok = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        rec = json.dumps({**ok, "doc_id": "d1"}).replace(
            f'"{field}": [[0.0]]', f'"{field}": [[{bad}]]')
        (tmp_path / "train.jsonl").write_text(json.dumps(ok) + "\n" + rec + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError,
                           match=rf"doc d1: {field} holds non-finite.*train.jsonl:2"):
            load_dataset(path)

    @pytest.mark.parametrize("field, what", [("word_feats", "word tokens"),
                                             ("sent_feats", "sentences")])
    def test_empty_record_is_named(self, tmp_path, field, what):
        ok = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        empty = {**ok, "doc_id": "d1", field: []}
        (tmp_path / "train.jsonl").write_text(
            json.dumps(ok) + "\n" + json.dumps(empty) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError,
                           match=rf"doc d1: record has no {what}.*train.jsonl:2"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["word_feats", "sent_feats"])
    def test_zero_width_features_are_named(self, tmp_path, field):
        ok = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
              "entities": [], "labels": []}
        empty_rows = {**ok, "doc_id": "d1", field: [[], []]}
        (tmp_path / "train.jsonl").write_text(
            json.dumps(ok) + "\n" + json.dumps(empty_rows) + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError,
                           match=rf"doc d1: {field} rows have no features.*train.jsonl:2"):
            load_dataset(path)

    @pytest.mark.parametrize("manifest", [
        ["train.jsonl"],
        {"splits": ["train.jsonl"]},
        {"splits": {"train": "train.jsonl"}},
        {"splits": {"train": [3]}},
        {"trope_names": "t0"},
        {"trope_categories": 5},
        {"trope_categories": ["t0"]},
        {"trope_categories": {"t0": 1}},
        {"trope_categories": {"t9": "motif"}},
    ], ids=["list", "splits-list", "files-not-list", "file-not-name", "tropes-not-list",
            "categories-number", "categories-list", "category-not-string", "category-of-no-trope"])
    def test_malformed_manifest_is_data_format_error(self, tmp_path, manifest):
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        if isinstance(manifest, dict):
            manifest = {**json.loads(Path(path).read_text()), **manifest}
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(DataFormatError, match="manifest.json"):
            load_dataset(path)

    def test_missing_records_file(self, tmp_path):
        path = self.write_manifest(tmp_path, {"train": ["gone.jsonl"]})
        with pytest.raises(DataFormatError, match="gone.jsonl"):
            load_dataset(path)

    @pytest.mark.parametrize("version", [2, "drop", True, 1.5])
    def test_unsupported_manifest_version(self, tmp_path, version):
        path = self.write_manifest(tmp_path, {})
        manifest = json.loads(Path(path).read_text())
        if version == "drop":
            del manifest["version"]
        else:
            manifest["version"] = version
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(DataFormatError, match=r"unsupported manifest version.*manifest\.json"):
            load_dataset(path)

    def test_deeply_nested_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(DEEP)
        with pytest.raises(DataFormatError, match=r"manifest is not valid JSON.*manifest\.json"):
            load_dataset(str(path))

    def test_deeply_nested_record_line(self, tmp_path):
        rec = {"doc_id": "d0", "word_feats": [[0.0]], "sent_feats": [[0.0]],
               "entities": [], "labels": []}
        (tmp_path / "train.jsonl").write_text(json.dumps(rec) + "\n" + DEEP + "\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]})
        with pytest.raises(DataFormatError, match=r"invalid JSON record.*train\.jsonl:2"):
            load_dataset(path)

    def test_records_read_as_utf8_whatever_the_locale(self, tmp_path):
        rec = {"doc_id": "café-1", "word_feats": [[0.0]], "sent_feats": [[0.0]],
               "entities": [{"id": "Zoë", "sents": [0]}], "labels": [0]}
        (tmp_path / "train.jsonl").write_bytes(
            json.dumps(rec, ensure_ascii=False).encode("utf-8") + b"\n")
        path = self.write_manifest(tmp_path, {"train": ["train.jsonl"]}, tropes=("trope_à",))
        code = ("import sys\nfrom mulcom.data import load_dataset\n"
                "ds = load_dataset(sys.argv[1])\ndoc = ds.split('train')[0]\n"
                "print(ascii([ds.trope_names, doc.doc_id, doc.entities[0].entity_id]))\n")
        src = os.path.dirname(os.path.dirname(mulcom.data.__file__))
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, path], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ascii([["trope_à"], "café-1", "Zoë"])


def stats_oracle(docs):
    """Naive sorted-list statistics for one field list."""
    def five(vals):
        vals = sorted(vals)
        n = len(vals)
        mid = n // 2
        median = vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2
        avg = sum(vals) / n
        var = sum((v - avg) ** 2 for v in vals) / n
        return {
            "median": float(median), "average": avg,
            "min": float(vals[0]), "max": float(vals[-1]),
            "std": var ** 0.5,
        }
    return {
        "tropes": five([len(d.labels) for d in docs]),
        "words": five([d.n_tokens for d in docs]),
        "sentences": five([d.n_sents for d in docs]),
        "roles": five([len(d.entities) for d in docs]),
        "corefs": five([sum(len(e.sents) for e in d.entities) for d in docs]),
    }


class TestCorpusStats:
    def test_single_doc_degenerate_stats(self):
        doc = make_doc({"A": [0, 1], "B": [1]}, n_sents=2, labels=(0,))
        ds = Dataset(trope_names=["t0", "t1"], splits={"train": [doc]})
        s = corpus_stats(ds)["train"]
        for fieldname in ("tropes", "words", "sentences", "roles", "corefs"):
            st = s[fieldname]
            assert st["median"] == st["average"] == st["min"] == st["max"]
            assert st["std"] == 0.0
        assert s["roles"]["max"] == 2.0
        assert s["corefs"]["max"] == 3.0

    def test_median_of_skewed_counts(self):
        docs = [
            make_doc({"A": [0]}, n_sents=1, labels=tuple(range(k)))
            for k in (1, 8, 68)
        ]
        ds = Dataset(trope_names=[f"t{i}" for i in range(68)],
                     splits={"train": docs})
        assert corpus_stats(ds)["train"]["tropes"]["median"] == 8.0

    def test_matches_naive_oracle(self):
        rng = rng_from_seed(600)
        docs = []
        for i in range(9):
            table = {
                f"e{j}": sorted(
                    set(rng.integers(0, 4, size=rng.integers(1, 4)).tolist())
                )
                for j in range(int(rng.integers(0, 4)))
            }
            doc = make_doc(table, n_sents=4, seed=601 + i,
                           labels=tuple(range(int(rng.integers(0, 3)))))
            docs.append(doc)
        ds = Dataset(trope_names=["a", "b", "c"], splits={"train": docs})
        got = corpus_stats(ds)["train"]
        want = stats_oracle(docs)
        for fieldname, stats in want.items():
            for k, v in stats.items():
                assert got[fieldname][k] == pytest.approx(v, abs=1e-12), (
                    fieldname, k,
                )

    def test_empty_split_omitted(self):
        ds = Dataset(trope_names=["a"], splits={"train": [], "val": []})
        assert corpus_stats(ds) == {}


class TestPrevalence:
    def test_extremes(self):
        docs = [make_doc({"A": [0]}, n_sents=1, labels=(0,)) for _ in range(4)]
        prev = trope_prevalence(docs, num_tropes=2)
        assert prev == [100.0, 0.0]

    def test_fraction(self):
        docs = [
            make_doc({"A": [0]}, n_sents=1, labels=(0,) if i < 3 else ())
            for i in range(4)
        ]
        assert trope_prevalence(docs, 1) == [75.0]


def iou_oracle(docs, num_tropes):
    sets = [set() for _ in range(num_tropes)]
    for i, d in enumerate(docs):
        for t in d.labels:
            sets[t].add(i)
    out = {}
    for a in range(num_tropes):
        for b in range(num_tropes):
            if a == b:
                continue
            union = sets[a] | sets[b]
            out[(a, b)] = len(sets[a] & sets[b]) / len(union) if union else 0.0
    return out


class TestCooccurrence:
    def test_identical_and_disjoint_sets(self):
        docs = [
            make_doc({"A": [0]}, n_sents=1, labels=(0, 1)),
            make_doc({"A": [0]}, n_sents=1, labels=(0, 1)),
            make_doc({"A": [0]}, n_sents=1, labels=(2,)),
        ]
        pairs = cooccurrence_iou(docs, 3)
        top = pairs[0]
        assert (top[0], top[1], top[2]) == (0, 1, 1.0)
        rest = {(a, b): v for a, b, v in pairs}
        assert rest[(0, 2)] == 0.0 and rest[(1, 2)] == 0.0

    def test_matches_brute_force_and_symmetric(self):
        rng = rng_from_seed(610)
        docs = [
            make_doc({"A": [0]}, n_sents=1,
                     labels=tuple(np.flatnonzero(rng.random(3) < 0.5)))
            for _ in range(8)
        ]
        got = {(a, b): v for a, b, v in cooccurrence_iou(docs, 3)}
        want = iou_oracle(docs, 3)
        for (a, b), v in got.items():
            assert v == want[(a, b)] == want[(b, a)]

    def test_sorted_descending(self):
        rng = rng_from_seed(611)
        docs = [
            make_doc({"A": [0]}, n_sents=1,
                     labels=tuple(np.flatnonzero(rng.random(4) < 0.4)))
            for _ in range(10)
        ]
        vals = [v for _, _, v in cooccurrence_iou(docs, 4)]
        assert vals == sorted(vals, reverse=True)


class TestSynthGenerate:
    def test_same_seed_bit_identical(self):
        a = synth_generate(20, small_spec())
        b = synth_generate(20, small_spec())
        for split in a.splits:
            for d1, d2 in zip(a.splits[split], b.splits[split]):
                assert d1.doc_id == d2.doc_id
                assert d1.labels == d2.labels
                npt.assert_array_equal(d1.word_feats, d2.word_feats)
                npt.assert_array_equal(d1.sent_feats, d2.sent_feats)

    def test_token_trope_labels_match_trigger_presence(self):
        spec = small_spec()
        ds = synth_generate(21, spec)
        word_table = rng_from_seed(21, stream=2).standard_normal(
            (spec.vocab, spec.d_w)
        )
        for doc in ds.split("train") + ds.split("val"):
            tokens = recover_tokens(doc, word_table)
            for k in range(spec.token_tropes):
                assert (spec.trigger_token(k) in tokens) == (k in doc.labels)

    def test_motif_trope_labels_match_comention(self):
        spec = small_spec()
        ds = synth_generate(22, spec)
        for doc in ds.split("train"):
            sents_of = {e.entity_id: set(e.sents) for e in doc.entities}
            for m in range(spec.motif_tropes):
                shared = sents_of[f"pair{m}_a"] & sents_of[f"pair{m}_b"]
                on = (spec.token_tropes + m) in doc.labels
                assert bool(shared) == on

    def test_word_multiset_blind_to_motif_labels(self):
        # Entity-name tokens appear exactly once each regardless of the
        # motif label, so the word view cannot separate on from off.
        spec = small_spec()
        ds = synth_generate(23, spec)
        word_table = rng_from_seed(23, stream=2).standard_normal(
            (spec.vocab, spec.d_w)
        )
        for doc in ds.split("train")[:10]:
            tokens = recover_tokens(doc, word_table)
            for m in range(spec.motif_tropes):
                a_tok, b_tok = spec.entity_tokens(m)
                assert tokens.count(a_tok) == 1
                assert tokens.count(b_tok) == 1
            n_on_token = sum(
                1 for k in range(spec.token_tropes) if k in doc.labels
            )
            expected = (
                spec.filler_sents * spec.filler_sent_len
                + n_on_token
                + 6 * spec.motif_tropes
            )
            assert len(tokens) == expected

    def test_on_doc_has_pair_edge_off_doc_does_not(self):
        spec = small_spec()
        ds = synth_generate(24, spec)
        motif0 = spec.token_tropes
        on = next(d for d in ds.split("train") if motif0 in d.labels)
        off = next(d for d in ds.split("train") if motif0 not in d.labels)
        for doc, expect_edge in ((on, True), (off, False)):
            g = build_graph(doc)
            ia = g.entity_ids.index("pair0_a")
            ib = g.entity_ids.index("pair0_b")
            has_edge = any(
                {i, j} == {ia, ib}
                for i, j in zip(g.recv.tolist(), g.send.tolist()) if i != j
            )
            assert has_edge == expect_edge

    def test_split_sizes_and_disjoint_ids(self):
        spec = small_spec(docs=50, val_frac=0.2)
        ds = synth_generate(25, spec)
        assert len(ds.split("val")) == 10
        assert len(ds.split("train")) == 40
        train_ids = {d.doc_id for d in ds.split("train")}
        val_ids = {d.doc_id for d in ds.split("val")}
        assert not train_ids & val_ids

    def test_prevalence_near_trigger_prob(self):
        spec = small_spec(docs=400)
        ds = synth_generate(26, spec)
        docs = ds.split("train") + ds.split("val")
        prev = trope_prevalence(docs, spec.num_tropes)
        for p in prev:
            assert abs(p - 40.0) < 5.0

    def test_docs_pass_validation(self):
        # construction checks the rest; a label's upper bound is the loader's
        spec = small_spec()
        ds = synth_generate(27, spec)
        for doc in ds.split("train"):
            assert set(doc.labels) <= set(range(spec.num_tropes))

    @pytest.mark.parametrize("kw", [{"docs": "10"}, {"vocab": 30.5}, {"val_frac": None}])
    def test_wrong_types_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            small_spec(**kw)

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigError, match="vocab"):
            small_spec(vocab=7)

    def test_bad_trigger_prob_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(trigger_prob=1.0)

    def test_unknown_split_access_raises(self):
        ds = synth_generate(28, small_spec(val_frac=0.0))
        with pytest.raises(ValidationError, match="val"):
            ds.split("val")
