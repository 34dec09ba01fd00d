"""Entity-relation graphs built from precomputed synopsis features.

A document arrives as per-token word features, per-sentence features,
and coreference entity mentions. Entities become nodes; two entities
mentioned in the same sentence share an edge whose feature is the sum
of those sentences' features. A sentence mentioning exactly one entity
contributes a self-loop for it.

One builder, `graph_batch`, makes the disjoint union of a batch's
graphs, a `GraphBatch`; one document's graph (`build_graph`) is the
one-member case, and `GraphBatch.select` takes members out of a built
union without building them again. The builder does its integer
bookkeeping in one Python pass and its float sums as a few numpy ops
over the whole batch, one rank at a time: every sum's first summand,
then every sum's second, and so on. Each feature is therefore summed
in ascending sentence order, left to right, exactly as a loop over one
document adds it, and a graph's bits do not depend on its batch mates.
`np.add.reduceat` or a `.sum` per group would take fewer ops, but both
may reassociate (numpy sums pairwise and unrolled; `reduceat` returned
r0 + (r1 + r2) for some three-row groups), and that changes last bits.
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


def _mention_error(doc: FeatureDoc, ent: EntityMentions, s: int) -> str:
    return (f"{doc.doc_id}: entity {ent.entity_id!r} mentions sentence {s}, "
            f"but document has {doc.n_sents} sentences")


def validate_doc(doc: FeatureDoc, num_tropes: int) -> None:
    """Raise ValidationError (tagged with doc_id) on any invariant breach."""
    if doc.sent_feats.ndim != 2 or doc.word_feats.ndim != 2:
        raise ValidationError(f"{doc.doc_id}: feature arrays must be 2-d")
    if doc.n_sents < 1:
        raise ValidationError(f"{doc.doc_id}: document has no sentences")
    for ent in doc.entities:
        for s in ent.sents:
            if not 0 <= s < doc.n_sents:
                raise ValidationError(_mention_error(doc, ent, s))
    for t in doc.labels:
        if not 0 <= t < num_tropes:
            raise ValidationError(
                f"{doc.doc_id}: label index {t} outside [0, {num_tropes})"
            )


@dataclass
class GraphBatch:
    """Disjoint union of the entity graphs of a batch of documents.

    Node rows are the members' entities in order, and pair indices
    address those rows, so no message crosses from one member to
    another. Every undirected i != j edge is two pair rows, (i, j) then
    (j, i), with the same feature; a self-loop is one (i, i) row. A
    member's pair rows follow its edges in (i, j) order, and members
    follow one another in order.
    """

    entity_ids: list[str]  # [N]
    x: Array  # [N, d_s] node features
    recv: Array  # [P] receiving node
    send: Array  # [P] sending node
    efeat: Array  # [P, d_s] edge feature
    node_counts: Array  # [B] nodes of each member
    pair_counts: Array  # [B] pair rows of each member

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def n_members(self) -> int:
        return self.node_counts.shape[0]

    def directed_pairs(self) -> tuple[Array, Array, Array]:
        """(receiver, sender, edge_feature) rows for message passing."""
        return self.recv, self.send, self.efeat

    def select(self, members: Sequence[int]) -> GraphBatch:
        """The union of the given members' graphs, in the given order.

        Equal, array for array, to `graph_batch` of those members' docs.
        """
        m = np.asarray(members, dtype=np.intp)
        node_counts, pair_counts = self.node_counts.take(m), self.pair_counts.take(m)
        node_from = _starts(self.node_counts).take(m)
        nodes = _ranges(node_from, node_counts)
        pairs = _ranges(_starts(self.pair_counts).take(m), pair_counts)
        moved = (node_from - _starts(node_counts)).repeat(pair_counts)
        return GraphBatch(
            entity_ids=[self.entity_ids[i] for i in nodes.tolist()],
            x=self.x.take(nodes, axis=0),
            recv=self.recv.take(pairs) - moved,
            send=self.send.take(pairs) - moved,
            efeat=self.efeat.take(pairs, axis=0),
            node_counts=node_counts,
            pair_counts=pair_counts,
        )


# One document's graph is a one-member batch. perfbench/layer_trace.py
# wraps `SynopsisGraph.directed_pairs` by this name.
SynopsisGraph = GraphBatch


def _starts(counts: Array) -> Array:
    return counts.cumsum() - counts


def _ranges(starts: Array, sizes: Array) -> Array:
    """The concatenated index ranges [starts[b], starts[b] + sizes[b])."""
    return np.arange(sizes.sum(), dtype=np.intp) + (starts - _starts(sizes)).repeat(sizes)


def _ordered_sums(feats: Array, sums: list[list[int]]) -> Array:
    """Row t is feats[sums[t][0]] + feats[sums[t][1]] + ..., left to right.

    An empty sum is 0. The first summand of every sum is one gather, then
    every sum's second is one add, and so on, rank by rank: each sum is
    added in its own order, with a few numpy ops per rank for all sums.
    """
    if not feats.shape[0]:  # no sentences, so every sum is empty
        return np.zeros((len(sums), feats.shape[1]))
    firsts = [rows[0] if rows else 0 for rows in sums]
    empty: list[int] = []
    ranks: list[tuple[list[int], list[int]]] = []  # rank r >= 1: (targets, rows)
    for t in [t for t, rows in enumerate(sums) if len(rows) != 1]:
        rows = sums[t]
        if not rows:
            empty.append(t)
        for r in range(1, len(rows)):
            if r > len(ranks):
                ranks.append(([], []))
            ranks[r - 1][0].append(t)
            ranks[r - 1][1].append(rows[r])
    out = feats.take(firsts, axis=0)
    if empty:
        out[empty] = 0.0
    for targets, rows in ranks:
        out[targets] += feats.take(rows, axis=0)
    return out


def graph_batch(docs: Sequence[FeatureDoc]) -> GraphBatch:
    """Build the disjoint union of the entity graphs of `docs`.

    Node features sum the sentence features of every sentence mentioning
    the entity, from zero. An i != j edge exists iff some sentence
    mentions both, with feature equal to the sum over all such shared
    sentences. A self-loop exists iff some sentence mentions that entity
    and no other. All sums run in ascending sentence order.

    One Python pass does the integer bookkeeping: each node's mention
    rows, the entities of each sentence, the edges, their pair order and
    each pair row's summand rows. The float sums then run over the whole
    batch at once, rank by rank (`_ordered_sums`). A mention outside its
    document's sentences is a ValidationError naming the doc and entity.
    """
    if not docs:
        raise ValidationError("graph_batch: empty batch")
    entity_ids: list[str] = []
    node_counts: list[int] = []
    pair_counts: list[int] = []
    node_sums: list[list[int]] = []  # per node: its sentences' rows of `feats`
    pair_sums: list[list[int]] = []  # per pair row: its edge's sentences' rows
    recv: list[int] = []
    send: list[int] = []
    node0 = row0 = 0
    for doc in docs:
        n_sents = doc.n_sents
        sentence_entities: dict[int, list[int]] = {}
        for node, ent in enumerate(doc.entities, node0):
            entity_ids.append(ent.entity_id)
            sents = sorted(set(ent.sents))
            if not sents:
                log.warning(
                    "doc %s: entity %r has no mentions; keeping isolated zero node",
                    doc.doc_id, ent.entity_id,
                )
            elif sents[0] < 0 or sents[-1] >= n_sents:
                bad = sents[0] if sents[0] < 0 else sents[-1]
                raise ValidationError(_mention_error(doc, ent, bad))
            node_sums.append([row0 + s for s in sents])
            for s in sents:
                sentence_entities.setdefault(s, []).append(node)

        edges: dict[tuple[int, int], list[int]] = {}  # (i, j) -> its sentences' rows
        for s in sorted(sentence_entities):
            members = sentence_entities[s]  # ascending, each entity once
            keys = [(members[0],) * 2] if len(members) == 1 else combinations(members, 2)
            for key in keys:
                edges.setdefault(key, []).append(row0 + s)

        first_pair = len(recv)
        for (i, j), rows in sorted(edges.items()):
            if i == j:
                recv.append(i)
                send.append(i)
                pair_sums.append(rows)
            else:
                recv += (i, j)
                send += (j, i)
                pair_sums += (rows, rows)
        node_counts.append(len(doc.entities))
        pair_counts.append(len(recv) - first_pair)
        node0 += len(doc.entities)
        row0 += n_sents

    feats = docs[0].sent_feats if len(docs) == 1 else np.concatenate(
        [doc.sent_feats for doc in docs])
    x = _ordered_sums(feats, node_sums)
    x += 0.0  # as if summed from +0.0, so a -0.0 sum is +0.0
    return GraphBatch(
        entity_ids=entity_ids,
        x=x,
        recv=np.array(recv, dtype=np.intp),
        send=np.array(send, dtype=np.intp),
        efeat=_ordered_sums(feats, pair_sums),  # from the first summand: a lone -0.0 stays
        node_counts=np.array(node_counts, dtype=np.intp),
        pair_counts=np.array(pair_counts, dtype=np.intp),
    )


def build_graph(doc: FeatureDoc) -> GraphBatch:
    """The entity graph of one document: `graph_batch([doc])`."""
    return graph_batch([doc])


def label_matrix(docs: Sequence[FeatureDoc], num_tropes: int) -> Array:
    """Binary [len(docs), num_tropes] gold matrix."""
    y = np.zeros((len(docs), num_tropes), dtype=np.int64)
    for row, doc in enumerate(docs):
        for t in doc.labels:
            y[row, t] = 1
    return y


def graph_stats(graph: GraphBatch) -> dict[str, float]:
    """Node count and density; self-loops do not count toward density."""
    n = graph.n_nodes
    plain = int(np.count_nonzero(graph.recv != graph.send)) // 2  # two rows each
    density = 0.0 if n < 2 else plain / (n * (n - 1) / 2)
    return {"node_count": float(n), "density": density}
