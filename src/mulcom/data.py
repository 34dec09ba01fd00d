"""Dataset ingestion, statistics, and the planted synthetic generator.

On-disk layout: a JSON manifest naming the tropes and per-split record
files, plus line-delimited JSON record files (one document per line,
dense float arrays inline). The synthetic generator plants two kinds
of label rules: a trope tied to a reserved token appearing in
entity-free sentences (word-level signal only), and a trope tied to
the co-mention of a fixed entity pair in one sentence (graph-level
signal). Off documents for a pair trope mention both entities in
separate sentences, so an on and an off document carry identical word
token multisets and only the graph can tell them apart.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import SynthSpec
from .errors import DataFormatError, ValidationError
from .graph import EntityMentions, FeatureDoc
from .ioutil import atomic_write_text, canonical_json, loads, read_json
from .numerics import rng_from_seed

Array = np.ndarray

MANIFEST_FORMAT = "mulcom-dataset"
MANIFEST_VERSION = 1

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


def _ordinals(values, what: str) -> Iterator[int]:
    """`values` as ints; `FeatureDoc` sorts and dedupes them.

    A TypeError unless each is an int or an integral float: a bool or a
    string is no ordinal. A float is allowed because the reader loads an
    integer literal wider than 64 bits as one.
    """
    out = tuple(values)
    for v in out:
        if type(v) is not int and not (type(v) is float and v.is_integer()):
            raise TypeError(f"{what} must be an integer, got {v!r}")
    return map(int, out)


def _entity(e: dict) -> EntityMentions:
    if not isinstance(e["id"], str):
        raise TypeError(f"entity id must be a string, got {e['id']!r}")
    return EntityMentions(entity_id=e["id"], sents=_ordinals(e["sents"], "sentence ordinal"))


def _record_to_doc(rec: dict, path: str, line: int) -> FeatureDoc:
    if not isinstance(rec, dict):
        raise DataFormatError(
            f"record must be a JSON object, got {type(rec).__name__}", path=path, line=line
        )
    doc_id = rec.get("doc_id")
    if not isinstance(doc_id, str):
        raise DataFormatError(
            f"record 'doc_id' must be a string, got {doc_id!r}", path=path, line=line
        )
    try:
        word_feats = np.asarray(rec["word_feats"], dtype=np.float64)
        sent_feats = np.asarray(rec["sent_feats"], dtype=np.float64)
        entities = [_entity(e) for e in rec["entities"]]
        labels = _ordinals(rec["labels"], "label")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(
            f"doc {doc_id}: bad document record: {exc!r}", path=path, line=line
        ) from exc
    for name, feats, what in (("word_feats", word_feats, "word tokens"),
                              ("sent_feats", sent_feats, "sentences")):
        if feats.shape[:1] == (0,):
            raise DataFormatError(
                f"doc {doc_id}: record has no {what} ({name} is empty)",
                path=path, line=line,
            )
    if word_feats.ndim != 2 or sent_feats.ndim != 2:
        raise DataFormatError(
            f"doc {doc_id}: feature arrays must be rectangular 2-d",
            path=path, line=line,
        )
    for name, feats in (("word_feats", word_feats), ("sent_feats", sent_feats)):
        if feats.shape[1] == 0:
            raise DataFormatError(
                f"doc {doc_id}: {name} rows have no features (width 0)", path=path, line=line
            )
        if not np.isfinite(feats).all():
            raise DataFormatError(
                f"doc {doc_id}: {name} holds non-finite values", path=path, line=line
            )
    return FeatureDoc(
        doc_id=doc_id,
        word_feats=word_feats,
        sent_feats=sent_feats,
        entities=entities,
        labels=labels,
    )


def _record_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line of record file `path`.

    Lines are read one at a time, with universal newlines, so a split's
    whole text is never held at once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isspace():
                    yield lineno, raw
    except FileNotFoundError:
        raise DataFormatError(f"record file not found: {path}", path=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read record file: {exc}", path=path)


def load_dataset(manifest_path: str) -> Dataset:
    """Read a manifest and all its record files, validating every doc."""
    try:
        manifest = read_json(manifest_path)
    except FileNotFoundError:
        raise DataFormatError(f"manifest not found: {manifest_path}",
                              path=manifest_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read manifest: {exc}", path=manifest_path)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"manifest is not valid JSON: {exc}",
                              path=manifest_path)
    if not isinstance(manifest, dict):
        raise DataFormatError(
            f"manifest must be a JSON object, got {type(manifest).__name__}",
            path=manifest_path,
        )
    if manifest.get("format") != MANIFEST_FORMAT:
        raise DataFormatError(
            f"unexpected manifest format {manifest.get('format')!r}",
            path=manifest_path,
        )
    version = manifest.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        raise DataFormatError(
            f"unsupported manifest version {version!r}", path=manifest_path
        )
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
    if categories is not None and not (
        isinstance(categories, dict)
        and set(categories) <= set(trope_names)
        and all(isinstance(c, str) for c in categories.values())
    ):
        raise DataFormatError(
            "manifest 'trope_categories' must be null or map trope names to strings",
            path=manifest_path,
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    splits: dict[str, list[FeatureDoc]] = {}
    num_tropes = len(trope_names)
    dims: tuple[int, int] | None = None
    seen_ids: dict[str, str] = {}
    for split, files in split_files.items():
        docs: list[FeatureDoc] = []
        for rel in files:
            path = os.path.join(base, rel)
            for lineno, raw in _record_lines(path):
                try:
                    rec = loads(raw)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(
                        f"invalid JSON record: {exc}", path=path, line=lineno
                    )
                try:
                    doc = _record_to_doc(rec, path, lineno)
                    if doc.labels and doc.labels[-1] >= num_tropes:
                        raise ValidationError(f"{doc.doc_id}: label index {doc.labels[-1]} "
                                              f"outside [0, {num_tropes})")
                    if doc.doc_id in seen_ids:
                        raise ValidationError(
                            f"doc {doc.doc_id} appears in both "
                            f"{seen_ids[doc.doc_id]!r} and {split!r}"
                        )
                    d = (doc.word_feats.shape[1], doc.sent_feats.shape[1])
                    if dims is not None and d != dims:
                        raise ValidationError(
                            f"doc {doc.doc_id}: feature dims {d} differ from {dims}"
                        )
                except ValidationError as exc:
                    raise ValidationError(f"{exc} ({path}:{lineno})") from None
                seen_ids[doc.doc_id] = split
                dims = d
                docs.append(doc)
        splits[split] = docs
    return Dataset(
        trope_names=trope_names,
        splits=splits,
        trope_categories=categories,
    )


def save_dataset(dataset: Dataset, out_dir: str) -> str:
    """Write manifest + one records file per split; returns manifest path."""
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
    atomic_write_text(manifest_path, canonical_json(manifest) + "\n")
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
    counts = [0] * num_tropes
    for doc in docs:
        for t in doc.labels:
            counts[t] += 1
    return [100.0 * c / len(docs) for c in counts]


def cooccurrence_iou(
    docs: list[FeatureDoc], num_tropes: int
) -> list[tuple[int, int, float]]:
    """All unordered trope pairs with Jaccard overlap of their doc sets,
    sorted by descending IoU (ties by pair index)."""
    if not docs:
        raise ValidationError("cooccurrence_iou: empty document list")
    doc_sets: list[set[int]] = [set() for _ in range(num_tropes)]
    for i, doc in enumerate(docs):
        for t in doc.labels:
            doc_sets[t].add(i)
    pairs = []
    for a in range(num_tropes):
        for b in range(a + 1, num_tropes):
            union = len(doc_sets[a] | doc_sets[b])
            inter = len(doc_sets[a] & doc_sets[b])
            iou = 0.0 if union == 0 else inter / union
            pairs.append((a, b, iou))
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
