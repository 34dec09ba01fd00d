"""Entity-relation graphs built from precomputed synopsis features.

A document arrives as per-token word features, per-sentence features,
and coreference entity mentions. Entities become nodes; two entities
mentioned in the same sentence share an edge whose feature is the sum
of those sentences' features. A sentence mentioning exactly one entity
contributes a self-loop for it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ValidationError

log = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class EntityMentions:
    """One coreference entity and the sentences that mention it."""

    entity_id: str
    sents: tuple[int, ...]  # sorted, unique sentence ordinals


@dataclass
class FeatureDoc:
    """One synopsis as precomputed features plus gold labels."""

    doc_id: str
    word_feats: Array  # [n_tokens, d_w]
    sent_feats: Array  # [n_sents, d_s]
    entities: list[EntityMentions]
    labels: tuple[int, ...]  # sorted trope indices

    @property
    def n_tokens(self) -> int:
        return self.word_feats.shape[0]

    @property
    def n_sents(self) -> int:
        return self.sent_feats.shape[0]


def validate_doc(doc: FeatureDoc, num_tropes: int) -> None:
    """Raise ValidationError (tagged with doc_id) on any invariant breach."""
    if doc.sent_feats.ndim != 2 or doc.word_feats.ndim != 2:
        raise ValidationError(f"{doc.doc_id}: feature arrays must be 2-d")
    if doc.n_sents < 1:
        raise ValidationError(f"{doc.doc_id}: document has no sentences")
    for ent in doc.entities:
        for s in ent.sents:
            if not 0 <= s < doc.n_sents:
                raise ValidationError(
                    f"{doc.doc_id}: entity {ent.entity_id!r} mentions sentence {s}, "
                    f"but document has {doc.n_sents} sentences"
                )
    for t in doc.labels:
        if not 0 <= t < num_tropes:
            raise ValidationError(
                f"{doc.doc_id}: label index {t} outside [0, {num_tropes})"
            )


@dataclass
class SynopsisGraph:
    """Entity nodes and the directed pairs that message passing reads.

    Every undirected i != j edge is two pair rows, (i, j) then (j, i),
    with the same feature; a self-loop is one (i, i) row.
    """

    entity_ids: list[str]
    x: Array  # [n, d_s] node features
    recv: Array  # [P] receiving node
    send: Array  # [P] sending node
    efeat: Array  # [P, d_s] edge feature

    @property
    def n_nodes(self) -> int:
        return len(self.entity_ids)

    def directed_pairs(self) -> tuple[Array, Array, Array]:
        """(receiver, sender, edge_feature) rows for message passing."""
        return self.recv, self.send, self.efeat


@dataclass
class GraphBatch:
    """Disjoint union of several graphs, reasoned over in one pass.

    Node rows are the member graphs' rows in order and pair indices are
    offset to match, so no message crosses from one member to another.
    """

    x: Array  # [N, d_s] node features of every member
    recv: Array
    send: Array
    efeat: Array

    def directed_pairs(self) -> tuple[Array, Array, Array]:
        return self.recv, self.send, self.efeat


def batch_graphs(graphs: Sequence[SynopsisGraph]) -> GraphBatch:
    sizes = [g.n_nodes for g in graphs]
    offsets = np.cumsum(sizes) - sizes
    pairs = [g.directed_pairs() for g in graphs]
    return GraphBatch(
        x=np.concatenate([g.x for g in graphs]),
        recv=np.concatenate([r + o for (r, _, _), o in zip(pairs, offsets)]),
        send=np.concatenate([s + o for (_, s, _), o in zip(pairs, offsets)]),
        efeat=np.concatenate([f for _, _, f in pairs]),
    )


def build_graph(doc: FeatureDoc) -> SynopsisGraph:
    """Build the entity graph of one document.

    Node features sum the sentence features of every sentence mentioning
    the entity. An i != j edge exists iff some sentence mentions both,
    with feature equal to the sum over all such shared sentences. A
    self-loop exists iff some sentence mentions that entity and no other.
    All sums run in ascending sentence order for bit determinism.
    """
    n = len(doc.entities)
    d_s = doc.sent_feats.shape[1]

    sentence_entities: dict[int, list[int]] = {}
    for ei, ent in enumerate(doc.entities):
        if not ent.sents:
            log.warning(
                "doc %s: entity %r has no mentions; keeping isolated zero node",
                doc.doc_id, ent.entity_id,
            )
        for s in ent.sents:
            sentence_entities.setdefault(s, []).append(ei)

    x = np.zeros((n, d_s))
    for ei, ent in enumerate(doc.entities):
        for s in sorted(set(ent.sents)):
            x[ei] += doc.sent_feats[s]

    pair_feats: dict[tuple[int, int], Array] = {}
    for s in sorted(sentence_entities):
        members = sorted(set(sentence_entities[s]))
        if len(members) == 1:
            keys = [(members[0], members[0])]
        else:
            keys = list(combinations(members, 2))
        for key in keys:
            if key in pair_feats:
                pair_feats[key] = pair_feats[key] + doc.sent_feats[s]
            else:
                pair_feats[key] = doc.sent_feats[s].copy()

    # pair rows follow the edges in (i, j) order, so they are deterministic
    recv: list[int] = []
    send: list[int] = []
    feats: list[Array] = []
    for i, j in sorted(pair_feats):
        e = pair_feats[(i, j)]
        if i == j:
            recv.append(i)
            send.append(i)
            feats.append(e)
        else:
            recv += (i, j)
            send += (j, i)
            feats += (e, e)

    return SynopsisGraph(
        entity_ids=[ent.entity_id for ent in doc.entities],
        x=x,
        recv=np.asarray(recv, dtype=np.intp),
        send=np.asarray(send, dtype=np.intp),
        efeat=np.stack(feats) if feats else np.zeros((0, d_s)),
    )


def label_matrix(docs: Sequence[FeatureDoc], num_tropes: int) -> Array:
    """Binary [len(docs), num_tropes] gold matrix."""
    y = np.zeros((len(docs), num_tropes), dtype=np.int64)
    for row, doc in enumerate(docs):
        for t in doc.labels:
            y[row, t] = 1
    return y


def graph_stats(graph: SynopsisGraph) -> dict[str, float]:
    """Node count and density; self-loops do not count toward density."""
    n = graph.n_nodes
    plain = int(np.count_nonzero(graph.recv != graph.send)) // 2  # two rows each
    density = 0.0 if n < 2 else plain / (n * (n - 1) / 2)
    return {"node_count": float(n), "density": density}
