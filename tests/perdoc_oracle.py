"""The per-document forward pass, kept as the reference for the batched one.

This is the model's forward pass as it ran before batching: one tape
segment per document, no padding and no masks, each graph reasoned over
on its own, and the head is `composite_oracle.head_logits`, the
composition of primitives the fused head replaced.
`tests/test_batched.py` requires the batched path to match it in
logits and in every parameter gradient.

`build_graph` and `batch_graphs` are the entity-graph construction as it
ran before `mulcom.graph.graph_batch`: a dict-and-loop pass per document
that adds one sentence row at a time, then a concatenation of the
per-document graphs. `tests/test_graph_batch.py` requires `graph_batch`
to equal it byte for byte.
"""

import math
from itertools import combinations

import numpy as np

from composite_oracle import head_logits
from mulcom.errors import EmptyDocumentError
from mulcom.graph import GraphBatch
from mulcom.msrrn import run_msrrn, run_rrn
from mulcom.numerics import (
    Tensor,
    affine,
    concat,
    lstm_cell,
    matmul,
    scale,
    softmax,
    transpose,
)


def build_graph(doc):
    n = len(doc.entities)
    d_s = doc.sent_feats.shape[1]

    sentence_entities = {}
    for ei, ent in enumerate(doc.entities):
        for s in ent.sents:
            sentence_entities.setdefault(s, []).append(ei)

    x = np.zeros((n, d_s))
    for ei, ent in enumerate(doc.entities):
        for s in sorted(set(ent.sents)):
            x[ei] += doc.sent_feats[s]

    pair_feats = {}
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

    recv, send, feats = [], [], []
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

    return GraphBatch(
        x=x,
        recv=np.asarray(recv, dtype=np.intp),
        send=np.asarray(send, dtype=np.intp),
        efeat=np.stack(feats) if feats else np.zeros((0, d_s)),
        node_counts=np.array([n], dtype=np.intp),
        pair_counts=np.array([len(recv)], dtype=np.intp),
    )


def batch_graphs(graphs):
    sizes = [g.n_nodes for g in graphs]
    offsets = np.cumsum(sizes) - sizes
    return GraphBatch(
        x=np.concatenate([g.x for g in graphs]),
        recv=np.concatenate([g.recv + o for g, o in zip(graphs, offsets)]),
        send=np.concatenate([g.send + o for g, o in zip(graphs, offsets)]),
        efeat=np.concatenate([g.efeat for g in graphs]),
        node_counts=np.concatenate([g.node_counts for g in graphs]),
        pair_counts=np.concatenate([g.pair_counts for g in graphs]),
    )


def attend(e, feats, p):
    if feats.shape[0] == 0:
        raise EmptyDocumentError("attend: no positions to attend over")
    d_a = p.query_proj.w.shape[1]
    q = affine(e, p.query_proj.w, p.query_proj.b)
    k = affine(feats, p.key_proj.w, p.key_proj.b)
    v = affine(feats, p.value_proj.w, p.value_proj.b)
    weights = softmax(scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_a)), axis=-1)
    return affine(matmul(weights, v), p.out_proj.w, p.out_proj.b)


def word_stream(doc, e, p, max_tokens):
    if doc.n_tokens == 0:
        raise EmptyDocumentError(f"doc {doc.doc_id}: no word tokens")
    return attend(e, Tensor(doc.word_feats[:max_tokens]), p)


def sentence_stream(doc, e, p):
    d_a = p.sent_rnn.hidden_dim
    h = Tensor(np.zeros((1, d_a)))
    c = Tensor(np.zeros((1, d_a)))
    states = []
    for s in range(doc.n_sents):
        h, c = lstm_cell(h, c, Tensor(doc.sent_feats[s : s + 1]), p.sent_rnn)
        states.append(h)
    return attend(e, concat(states, axis=0), p)


def relation_stream(graph, e, reasoner, p, kind):
    if graph.n_nodes == 0:
        return Tensor(np.zeros((e.shape[0], p.out_proj.w.shape[1])))
    run = run_msrrn if kind == "msrrn" else run_rrn
    return attend(e, run(graph, reasoner), p)


def forward_logits(model, doc, graph=None):
    """Raw per-trope logits [num_tropes] for one document."""
    cfg = model.cfg
    outs = {}
    for name in cfg.streams:
        p = model.streams[name]
        if name == "word":
            outs[name] = word_stream(doc, model.E, p, cfg.max_word_tokens)
        elif name == "sentence":
            outs[name] = sentence_stream(doc, model.E, p)
        else:
            g = graph if graph is not None else build_graph(doc)
            outs[name] = relation_stream(g, model.E, model.reasoner, p,
                                         cfg.relation_reasoner)
    return head_logits(model, outs)
