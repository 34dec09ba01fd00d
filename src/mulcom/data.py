"""Dataset ingestion, statistics, and the planted synthetic generator.

On-disk layout: a JSON manifest naming the tropes and per-split record
files, plus line-delimited JSON record files (one document per line,
dense float arrays inline). The `FeatureDoc` and `EntityMentions`
constructors check a record's own content, and a record they reject is
a DataFormatError at its path and line; a doc that clashes with the
dataset (a label past the trope count, a repeated id, other feature
widths) is a ValidationError there. The synthetic generator plants two
kinds of label rules: a trope tied to a reserved token appearing in
entity-free sentences (word-level signal only), and a trope tied to
the co-mention of a fixed entity pair in one sentence (graph-level
signal). Off documents for a pair trope mention both entities in
separate sentences, so an on and an off document carry identical word
token multisets and only the graph can tell them apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import SynthSpec
from .errors import DataFormatError, ValidationError
from .graph import EntityMentions, FeatureDoc, check_labels, label_matrix
from .ioutil import (atomic_write_text, canonical_json, read_envelope, read_json_lines,
                     write_json)
from .numerics import rng_from_seed

Array = np.ndarray

MANIFEST_FORMAT = "mulcom-dataset"
MANIFEST_VERSION = 1
_CATEGORIES_RULE = "'trope_categories' must be null or map trope names to strings"


def _categories_ok(categories, trope_names: list[str]) -> bool:
    """Whether `categories` is None or maps some of `trope_names` to strings."""
    return categories is None or (
        isinstance(categories, dict)
        and set(categories) <= set(trope_names)
        and all(isinstance(c, str) for c in categories.values())
    )


@dataclass
class Dataset:
    trope_names: list[str]
    splits: dict[str, list[FeatureDoc]]
    trope_categories: dict[str, str] | None = None

    @property
    def num_tropes(self) -> int:
        return len(self.trope_names)

    def split(self, name: str) -> list[FeatureDoc]:
        if name not in self.splits:
            raise ValidationError(
                f"dataset has no {name!r} split; available: {sorted(self.splits)}"
            )
        return self.splits[name]


def _doc_to_record(doc: FeatureDoc) -> dict:
    return {
        "doc_id": doc.doc_id,
        "word_feats": doc.word_feats.tolist(),
        "sent_feats": doc.sent_feats.tolist(),
        "entities": [
            {"id": e.entity_id, "sents": list(e.sents)} for e in doc.entities
        ],
        "labels": list(doc.labels),
    }


class _DocChecks:
    """The checks of each doc against the dataset: a ValidationError if one fails.

    A doc's labels lie below the trope count, its id appears in no other
    split or earlier in its own, and its feature widths are those of the
    first doc. `load_dataset` and `save_dataset` both run it.
    """

    def __init__(self, num_tropes: int):
        self.num_tropes = num_tropes
        self.splits: dict[str, str] = {}  # each doc id seen, and its split
        self.dims: tuple[int, int] | None = None

    def __call__(self, doc: FeatureDoc, split: str) -> None:
        check_labels(doc, self.num_tropes)
        if doc.doc_id in self.splits:
            raise ValidationError(
                f"doc {doc.doc_id} appears in both {self.splits[doc.doc_id]!r} and {split!r}"
            )
        dims = (doc.word_feats.shape[1], doc.sent_feats.shape[1])
        if self.dims is not None and dims != self.dims:
            raise ValidationError(f"doc {doc.doc_id}: feature dims {dims} differ from {self.dims}")
        self.splits[doc.doc_id] = split
        self.dims = dims


def _record_to_doc(rec: dict, path: str, line: int) -> FeatureDoc:
    """The doc a record holds; a DataFormatError at `path:line` if its content makes none."""
    if not isinstance(rec, dict):
        raise DataFormatError(
            f"record must be a JSON object, got {type(rec).__name__}", path=path, line=line
        )
    doc_id = rec.get("doc_id")
    try:
        try:
            entities = [EntityMentions(e["id"], e["sents"]) for e in rec["entities"]]
        except ValidationError as exc:  # an entity cannot name its doc
            raise ValidationError(f"doc {doc_id}: {exc}") from None
        return FeatureDoc(doc_id, rec["word_feats"], rec["sent_feats"], entities, rec["labels"])
    except ValidationError as exc:  # a ValueError, so caught before the clause below
        raise DataFormatError(str(exc), path=path, line=line) from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(
            f"doc {doc_id}: bad document record: {exc!r}", path=path, line=line
        ) from exc


def load_dataset(manifest_path: str) -> Dataset:
    """Read a manifest and all its record files, validating every doc."""
    manifest = read_envelope(manifest_path, "manifest", MANIFEST_FORMAT, MANIFEST_VERSION)
    trope_names = manifest.get("trope_names", [])
    if not (isinstance(trope_names, list) and all(isinstance(t, str) for t in trope_names)):
        raise DataFormatError("manifest 'trope_names' must be a list of strings",
                              path=manifest_path)
    if not trope_names:
        raise DataFormatError("manifest lists no tropes", path=manifest_path)
    split_files = manifest.get("splits", {})
    if not isinstance(split_files, dict):
        raise DataFormatError(
            "manifest 'splits' must map split names to lists of record files",
            path=manifest_path,
        )
    for split, files in split_files.items():
        if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
            raise DataFormatError(
                f"manifest split {split!r} must be a list of record file names",
                path=manifest_path,
            )
    categories = manifest.get("trope_categories")
    if not _categories_ok(categories, trope_names):
        raise DataFormatError(f"manifest {_CATEGORIES_RULE}", path=manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    splits: dict[str, list[FeatureDoc]] = {}
    check = _DocChecks(len(trope_names))
    for split, files in split_files.items():
        docs: list[FeatureDoc] = []
        for rel in files:
            path = os.path.join(base, rel)
            for lineno, rec in read_json_lines(path, "record"):
                doc = _record_to_doc(rec, path, lineno)
                try:
                    check(doc, split)
                except ValidationError as exc:
                    raise ValidationError(f"{exc} ({path}:{lineno})") from None
                docs.append(doc)
        splits[split] = docs
    return Dataset(
        trope_names=trope_names,
        splits=splits,
        trope_categories=categories,
    )


def save_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write manifest + one records file per split; returns manifest path.

    A dataset that `load_dataset` would reject raises a ValidationError
    before any write: bad categories, or a doc with a label past the
    trope count, an id used twice or feature widths of its own. The
    checks are the loader's; a doc's own content was checked when it was made.
    """
    if not _categories_ok(dataset.trope_categories, dataset.trope_names):
        raise ValidationError(f"dataset {_CATEGORIES_RULE}")
    check = _DocChecks(dataset.num_tropes)
    for split, docs in dataset.splits.items():
        for doc in docs:
            check(doc, split)
    os.makedirs(out_dir, exist_ok=True)
    split_files: dict[str, list[str]] = {}
    for split, docs in dataset.splits.items():
        fname = f"{split}.jsonl"
        lines = [canonical_json(_doc_to_record(d)) for d in docs]
        atomic_write_text(os.path.join(out_dir, fname), "\n".join(lines) + "\n")
        split_files[split] = [fname]
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "trope_names": dataset.trope_names,
        "trope_categories": dataset.trope_categories,
        "splits": split_files,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


# ---------------------------------------------------------------------------
# corpus statistics and co-occurrence
# ---------------------------------------------------------------------------

STAT_FIELDS = ("tropes", "words", "sentences", "roles", "corefs")


def _five_numbers(values: list[float]) -> dict[str, float]:
    a = np.asarray(values, dtype=np.float64)
    return {
        "median": float(np.median(a)),
        "average": float(a.mean()),
        "min": float(a.min()),
        "max": float(a.max()),
        "std": float(a.std()),  # population
    }


def corpus_stats(dataset: Dataset) -> dict[str, dict[str, dict[str, float]]]:
    """Per split: order statistics of doc-level counts.

    roles counts distinct entities per doc; corefs counts mention
    links (entity, sentence) per doc.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for split, docs in dataset.splits.items():
        if not docs:
            continue
        per_field = {f: [] for f in STAT_FIELDS}
        for doc in docs:
            per_field["tropes"].append(len(doc.labels))
            per_field["words"].append(doc.n_tokens)
            per_field["sentences"].append(doc.n_sents)
            per_field["roles"].append(len(doc.entities))
            per_field["corefs"].append(sum(len(e.sents) for e in doc.entities))
        out[split] = {f: _five_numbers(v) for f, v in per_field.items()}
    return out


def trope_prevalence(docs: list[FeatureDoc], num_tropes: int) -> list[float]:
    """Percentage of docs carrying each trope."""
    if not docs:
        raise ValidationError("trope_prevalence: empty document list")
    return (100.0 * label_matrix(docs, num_tropes).sum(axis=0) / len(docs)).tolist()


def cooccurrence_iou(
    docs: list[FeatureDoc], num_tropes: int
) -> list[tuple[int, int, float]]:
    """All unordered trope pairs with Jaccard overlap of their doc sets,
    sorted by descending IoU (ties by pair index)."""
    if not docs:
        raise ValidationError("cooccurrence_iou: empty document list")
    y = label_matrix(docs, num_tropes)
    a, b = np.triu_indices(num_tropes, k=1)
    inter = (y.T @ y)[a, b]
    counts = y.sum(axis=0)
    union = counts[a] + counts[b] - inter  # 0 only where inter is 0 too
    pairs = list(zip(a.tolist(), b.tolist(), (inter / np.maximum(union, 1)).tolist()))
    pairs.sort(key=lambda p: (-p[2], p[0], p[1]))
    return pairs


# ---------------------------------------------------------------------------
# synthetic planted-pattern generator
# ---------------------------------------------------------------------------

def _synth_doc(
    spec: SynthSpec,
    index: int,
    labels: Array,
    word_table: Array,
    sent_table: Array,
    rng: np.random.Generator,
) -> FeatureDoc:
    filler_lo = spec.token_tropes + 2 * spec.motif_tropes
    fillers = lambda k: rng.integers(filler_lo, spec.vocab, size=k).tolist()

    sentences: list[list[int]] = []
    sent_ents: list[list[str]] = []
    for _ in range(spec.filler_sents):
        sentences.append(fillers(spec.filler_sent_len))
        sent_ents.append([])
    for k in range(spec.token_tropes):
        if labels[k]:
            target = int(rng.integers(0, spec.filler_sents))
            sentences[target].append(spec.trigger_token(k))
    for m in range(spec.motif_tropes):
        a_tok, b_tok = spec.entity_tokens(m)
        a_id, b_id = f"pair{m}_a", f"pair{m}_b"
        extra = fillers(4)
        if labels[spec.token_tropes + m]:
            sentences.append([a_tok, b_tok] + extra)
            sent_ents.append([a_id, b_id])
        else:
            sentences.append([a_tok] + extra[:2])
            sent_ents.append([a_id])
            sentences.append([b_tok] + extra[2:])
            sent_ents.append([b_id])

    perm = rng.permutation(len(sentences))
    sentences = [sentences[p] for p in perm]
    sent_ents = [sent_ents[p] for p in perm]

    mentions: dict[str, list[int]] = {}
    for s, ents in enumerate(sent_ents):
        for eid in ents:
            mentions.setdefault(eid, []).append(s)
    entities = [
        EntityMentions(entity_id=eid, sents=sents)
        for eid, sents in sorted(mentions.items())
    ]

    tokens = [t for sent in sentences for t in sent]
    word_feats = word_table[tokens]
    sent_feats = np.stack([sent_table[sent].sum(axis=0) for sent in sentences])
    return FeatureDoc(
        doc_id=f"synth-{index:05d}",
        word_feats=word_feats,
        sent_feats=sent_feats,
        entities=entities,
        labels=np.flatnonzero(labels).tolist(),
    )


def synth_generate(seed: int, spec: SynthSpec) -> Dataset:
    """Planted corpus, bit-deterministic in (seed, spec).

    Label t is on iff its trigger was planted; token triggers appear
    only in entity-free sentences, and pair triggers keep the document
    token multiset identical whether on or off.
    """
    rng = rng_from_seed(seed, stream=2)
    word_table = rng.standard_normal((spec.vocab, spec.d_w))
    sent_table = rng.standard_normal((spec.vocab, spec.d_s))

    label_mat = rng.random((spec.docs, spec.num_tropes)) < spec.trigger_prob
    docs = [
        _synth_doc(spec, i, label_mat[i], word_table, sent_table, rng)
        for i in range(spec.docs)
    ]

    order = rng.permutation(spec.docs)
    n_val = int(round(spec.val_frac * spec.docs))
    val_idx = set(order[:n_val].tolist())
    splits = {"train": [d for i, d in enumerate(docs) if i not in val_idx]}
    if n_val:
        splits["val"] = [d for i, d in enumerate(docs) if i in val_idx]
    return Dataset(trope_names=spec.trope_names(), splits=splits)
