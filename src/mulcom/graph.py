"""Entity-relation graphs built from precomputed synopsis features.

A document arrives as per-token word features, per-sentence features,
and coreference entity mentions. Entities become nodes; two entities
mentioned in the same sentence share an edge whose feature is the sum
of those sentences' features. A sentence mentioning exactly one entity
contributes a self-loop for it.

`graph_batch` makes the disjoint union of a batch's graphs, a
`GraphBatch`; one document's graph (`build_graph`) is the one-member
case, and `GraphBatch.select` takes members out of a built union
without building them again. It has two builders, picked by the number
of docs:

- the per-doc pass, for batches of fewer than `ARRAY_PASS_MIN_DOCS`
  docs, single-doc scoring among them: one Python pass of dicts and
  loops does the integer bookkeeping;
- the array pass, for larger batches: a fixed number of numpy ops over
  the whole batch flattens every entity's mentions, already ordered by
  node, then sentence, pairs each sentence's members, and groups the
  pair rows by edge.

On planted corpus docs (8 entities, 7-9 sentences; one core of a
2-vCPU Xeon container, best of 40 interleaved timings), the per-doc
pass takes about 9 us plus 13-14 us a doc, and the array pass about
58 us plus 3-4 us a doc at small batches, 7 us a doc at 160 docs.
On two corpus seeds their best times and their medians each cross
between 4 and 6 docs; at 6 docs, `ARRAY_PASS_MIN_DOCS`, the array pass
is the faster by both.

Neither builder adds a float itself. Each lists every node's and every
edge's sentence rows in ascending sentence order and hands both lists
to one `numerics.Segments`, which adds each group left to right for
the whole batch at once; an undirected edge is summed once and its sum
fills both of its pair rows. Every feature is therefore summed as a
loop over one document adds it, and a graph's bits depend neither on
its batch mates nor on the builder.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .numerics import Segments

log = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class EntityMentions:
    """One coreference entity and the sentences that mention it."""

    entity_id: str
    sents: tuple[int, ...]  # sorted, unique sentence ordinals

    def __post_init__(self) -> None:
        self.sents = tuple(sorted(set(self.sents)))


@dataclass
class FeatureDoc:
    """One synopsis as precomputed features plus gold labels.

    Construction sets up the invariants every consumer relies on, for
    loaded and hand-built docs alike: `entities` becomes a tuple in the
    given order, `labels` a sorted tuple of distinct indices, and a
    negative label or a mention outside the doc's sentences is a
    ValidationError naming the doc (and the entity). An entity with no
    mentions is logged once here and stays an isolated zero node.
    """

    doc_id: str
    word_feats: Array  # [n_tokens, d_w]
    sent_feats: Array  # [n_sents, d_s]
    entities: tuple[EntityMentions, ...]
    labels: tuple[int, ...]  # sorted, unique trope indices

    def __post_init__(self) -> None:
        self.entities = tuple(self.entities)
        self.labels = tuple(sorted(set(self.labels)))
        if self.labels and self.labels[0] < 0:
            raise ValidationError(f"{self.doc_id}: label index {self.labels[0]} is negative")
        n_sents = self.n_sents
        for ent in self.entities:
            sents = ent.sents
            if not sents:
                log.warning(
                    "doc %s: entity %r has no mentions; keeping isolated zero node",
                    self.doc_id, ent.entity_id,
                )
            elif sents[0] < 0 or sents[-1] >= n_sents:
                bad = sents[0] if sents[0] < 0 else sents[-1]
                raise ValidationError(
                    f"{self.doc_id}: entity {ent.entity_id!r} mentions sentence {bad}, "
                    f"but document has {n_sents} sentences"
                )

    @property
    def n_tokens(self) -> int:
        return self.word_feats.shape[0]

    @property
    def n_sents(self) -> int:
        return self.sent_feats.shape[0]


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


def _runs(keys: Array) -> tuple[Array, Array]:
    """Start and length of each run of equal values in `keys`."""
    cut = np.empty(keys.shape[0] + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=cut[1:-1])
    bounds = cut.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _sentence_rows(docs: Sequence[FeatureDoc]) -> Array:
    """Every doc's sentence features, one doc after another."""
    if len(docs) == 1:
        return docs[0].sent_feats
    return np.concatenate([doc.sent_feats for doc in docs])


# Batches of at least this many docs take the array pass; smaller ones,
# single-doc scoring among them, the per-doc pass. See the module
# docstring for the measured crossover.
ARRAY_PASS_MIN_DOCS = 6


def graph_batch(docs: Sequence[FeatureDoc]) -> GraphBatch:
    """Build the disjoint union of the entity graphs of `docs`.

    Node features sum the sentence features of every sentence mentioning
    the entity, from zero. An i != j edge exists iff some sentence
    mentions both, with feature equal to the sum over all such shared
    sentences. A self-loop exists iff some sentence mentions that entity
    and no other. All sums run in ascending sentence order.

    A batch of `ARRAY_PASS_MIN_DOCS` docs or more is built by
    `_array_pass`, a smaller one by `_per_doc_pass`; both give the same
    arrays, bit for bit.
    """
    if not docs:
        raise ValidationError("graph_batch: empty batch")
    if len(docs) >= ARRAY_PASS_MIN_DOCS:
        return _array_pass(docs)
    return _per_doc_pass(docs)


def _per_doc_pass(docs: Sequence[FeatureDoc]) -> GraphBatch:
    """`graph_batch` by one Python pass over the docs, then one `Segments` sum.

    The pass does the integer bookkeeping: each node's mention rows, the
    entities of each sentence, the edges in (i, j) order, each edge's
    sentence rows and its pair rows. The float sums then run over the
    whole batch at once, nodes and edges together, each edge once.
    """
    entity_ids: list[str] = []
    node_counts: list[int] = []
    pair_counts: list[int] = []
    node_rows: list[int] = []  # each node's sentences' rows of `feats`, node after node
    edge_rows: list[int] = []  # each edge's sentences' rows, edge after edge
    node_sizes: list[int] = []
    edge_sizes: list[int] = []
    pair_edge: list[int] = []  # the edge of each pair row
    recv: list[int] = []
    send: list[int] = []
    node0 = row0 = 0
    for doc in docs:
        sentence_entities: dict[int, list[int]] = {}
        for node, ent in enumerate(doc.entities, node0):
            entity_ids.append(ent.entity_id)
            node_rows += [row0 + s for s in ent.sents]
            node_sizes.append(len(ent.sents))
            for s in ent.sents:
                sentence_entities.setdefault(s, []).append(node)

        edges: dict[tuple[int, int], list[int]] = {}  # (i, j) -> its sentences' rows
        for s in sorted(sentence_entities):
            members = sentence_entities[s]  # ascending, each entity once
            keys = [(members[0],) * 2] if len(members) == 1 else combinations(members, 2)
            for key in keys:
                edges.setdefault(key, []).append(row0 + s)

        first_pair = len(recv)
        for edge, ((i, j), rows) in enumerate(sorted(edges.items()), len(edge_sizes)):
            edge_rows += rows
            edge_sizes.append(len(rows))
            if i == j:
                recv.append(i)
                send.append(i)
                pair_edge.append(edge)
            else:
                recv += (i, j)
                send += (j, i)
                pair_edge += (edge, edge)
        node_counts.append(len(doc.entities))
        pair_counts.append(len(recv) - first_pair)
        node0 += len(doc.entities)
        row0 += doc.n_sents

    sums = Segments(node_rows + edge_rows, node_sizes + edge_sizes).sum(_sentence_rows(docs))
    return GraphBatch(
        entity_ids=entity_ids,
        x=sums[:node0] + 0.0,  # as if summed from +0.0, so a -0.0 sum is +0.0
        recv=np.array(recv, dtype=np.intp),
        send=np.array(send, dtype=np.intp),
        efeat=sums[node0:].take(pair_edge, axis=0),  # from the first summand: a lone -0.0 stays
        node_counts=np.array(node_counts, dtype=np.intp),
        pair_counts=np.array(pair_counts, dtype=np.intp),
    )


def _array_pass(docs: Sequence[FeatureDoc]) -> GraphBatch:
    """`graph_batch` as a fixed number of numpy ops over the whole batch.

    Every entity's mentions are flattened once into (node, row) pairs,
    rows counting sentences across the batch; as `FeatureDoc` keeps
    mentions, they come ordered by node, then row, each once. Ordered by
    row instead (stably, so members stay ascending), each sentence's run
    of members gives a self-loop for a lone member, otherwise every
    member paired with each later one. A stable sort of those (i, j, row)
    entries by edge groups them in (i, j) order with rows ascending. One
    `Segments` then sums the node groups and the edge groups together, as
    the per-doc pass does.
    """
    mentions = [ent.sents for doc in docs for ent in doc.entities]
    node_sizes = np.fromiter(map(len, mentions), np.intp, len(mentions))
    sents = np.fromiter(chain.from_iterable(mentions), np.intp, int(node_sizes.sum()))
    node_counts = np.fromiter((len(doc.entities) for doc in docs), np.intp, len(docs))
    sent_counts = np.fromiter((doc.sent_feats.shape[0] for doc in docs), np.intp, len(docs))
    n_nodes, width = len(mentions), max(len(mentions), 1)
    n_rows = max(int(sent_counts.sum()), 1)
    node_doc = np.arange(len(docs)).repeat(node_counts)
    node = np.arange(n_nodes).repeat(node_sizes)
    node_rows = sents + _starts(sent_counts).take(node_doc).repeat(node_sizes)  # by node, then row

    per_sent = np.bincount(node_rows, minlength=n_rows)
    by_row = node_rows.argsort(kind="stable")
    node, row = node.take(by_row), node_rows.take(by_row)
    at = np.arange(row.shape[0])
    later = (per_sent.cumsum() - 1).take(row) - at  # members after each in its sentence
    lone = per_sent.take(row) == 1
    i = np.concatenate([node[lone], node.repeat(later)])
    j = np.concatenate([node[lone], node.take(_ranges(at + 1, later))])
    row = np.concatenate([row[lone], row.repeat(later)])
    edge = i * width + j
    by_edge = edge.argsort(kind="stable")  # rows stay ascending within an edge
    edge, edge_rows = edge.take(by_edge), row.take(by_edge)
    starts, edge_sizes = _runs(edge)
    i, j = np.divmod(edge.take(starts), width)
    keep = np.ones((i.shape[0], 2), dtype=bool)
    keep[:, 1] = i != j  # rows (i, j) then (j, i) per edge; a self-loop is one row
    keep = keep.ravel()
    recv = np.array([i, j]).T.ravel()[keep]
    groups = Segments(np.concatenate([node_rows, edge_rows]),
                      np.concatenate([node_sizes, edge_sizes]))
    sums = groups.sum(_sentence_rows(docs))
    return GraphBatch(
        entity_ids=[ent.entity_id for doc in docs for ent in doc.entities],
        x=sums[:n_nodes] + 0.0,  # as if summed from +0.0, so a -0.0 sum is +0.0
        recv=recv,
        send=(i + j).repeat(2)[keep] - recv,  # each row's other end
        efeat=sums[n_nodes:].repeat(2, axis=0)[keep],
        node_counts=node_counts,
        pair_counts=np.bincount(node_doc.take(recv), minlength=len(docs)),
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
