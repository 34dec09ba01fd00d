"""The per-document forward pass, kept as the reference for the batched one.

This is the model's forward pass as it ran before batching: one tape
segment per document, no padding and no masks, each graph reasoned over
on its own. `tests/test_batched.py` requires the batched path to match
it in logits and in every parameter gradient.
"""

import math

import numpy as np

from mulcom.errors import EmptyDocumentError
from mulcom.graph import build_graph
from mulcom.model import organize, stream_attention
from mulcom.msrrn import run_msrrn, run_rrn
from mulcom.numerics import (
    Tensor,
    affine,
    concat,
    lstm_cell,
    matmul,
    mlp_apply,
    reshape,
    scale,
    softmax,
    transpose,
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
    mixed = organize(outs, stream_attention(model), cfg.streams)
    z = concat([mixed, model.E], axis=-1)
    return reshape(mlp_apply(z, model.predictor), (cfg.num_tropes,))
