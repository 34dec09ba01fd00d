"""Per-trope comprehension streams over a batch of documents.

Each stream pools one view of each document (raw word features,
LSTM-encoded sentence features, or reasoner node states) into one
vector per trope. The trope embedding is projected to a query, the
view rows to keys and values, and the softmax-weighted value sum is
projected back to the trope dim, so every stream emits [B x num_tropes
x d_f] regardless of the views' lengths. Views of different lengths
are zero-padded to the longest and the padding is masked out of the
attention, so a document's result does not depend on its batch mates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyDocumentError
from .graph import FeatureDoc, SynopsisGraph, batch_graphs
from .msrrn import ReasonerParams, run_msrrn, run_rrn
from .numerics import (
    AffineParams,
    LSTMParams,
    Tensor,
    add,
    affine,
    init_affine,
    init_lstm,
    lstm_cell,
    matmul,
    scale,
    scatter_rows,
    softmax,
    stack,
    transpose,
)

log = logging.getLogger(__name__)

Array = np.ndarray

MAX_WORD_TOKENS = 4096


@dataclass
class StreamParams:
    query_proj: AffineParams  # d_f -> d_a
    key_proj: AffineParams  # view dim -> d_a
    value_proj: AffineParams  # view dim -> d_a
    out_proj: AffineParams  # d_a -> d_f
    sent_rnn: LSTMParams | None = None  # sentence stream only

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.query_proj.named(f"{prefix}.query_proj")
        yield from self.key_proj.named(f"{prefix}.key_proj")
        yield from self.value_proj.named(f"{prefix}.value_proj")
        yield from self.out_proj.named(f"{prefix}.out_proj")
        if self.sent_rnn is not None:
            yield from self.sent_rnn.named(f"{prefix}.sent_rnn")


def init_stream(
    rng: np.random.Generator,
    view_dim: int,
    d_f: int,
    d_a: int,
    rnn_input: int | None = None,
) -> StreamParams:
    """`rnn_input` set => sentence stream; its view is the d_a RNN states."""
    return StreamParams(
        query_proj=init_affine(rng, d_f, d_a),
        key_proj=init_affine(rng, view_dim, d_a),
        value_proj=init_affine(rng, view_dim, d_a),
        out_proj=init_affine(rng, d_a, d_f),
        sent_rnn=None if rnn_input is None else init_lstm(rng, rnn_input, d_a),
    )


def attend(
    e: Tensor,
    feats: Tensor,
    p: StreamParams,
    mask: Array | None = None,
    return_weights: bool = False,
):
    """Trope-query attention pooling of `feats` rows, one result per trope.

    `feats` is one view [L, d] or a padded batch of views [B, L, d]; the
    result is [num_tropes, d_f] or [B, num_tropes, d_f]. `mask` [B, 1, L]
    holds 0 at real positions and -inf at padding, so padding gets a
    softmax weight of exactly 0; every row must keep a real position.
    """
    if feats.shape[-2] == 0:
        raise EmptyDocumentError("attend: no positions to attend over")
    d_a = p.query_proj.w.shape[1]
    q = affine(e, p.query_proj.w, p.query_proj.b)
    k = affine(feats, p.key_proj.w, p.key_proj.b)
    v = affine(feats, p.value_proj.w, p.value_proj.b)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_a))
    if mask is not None:
        scores = add(scores, Tensor(mask))
    weights = softmax(scores, axis=-1)  # [..., num_tropes, L]
    out = affine(matmul(weights, v), p.out_proj.w, p.out_proj.b)
    if return_weights:
        return out, weights
    return out


def _layout(lengths: Array) -> tuple[Array, Array | None]:
    """Where a ragged batch's items sit in the padded [B, L_max] layout.

    Returns the boolean map of real positions, whose row-major order is
    the batch order of the items, and the additive attention mask, which
    is None when no row is padded.
    """
    valid = np.arange(lengths.max()) < lengths[:, None]
    if valid.all():
        return valid, None
    return valid, np.where(valid, 0.0, -np.inf)[:, None, :]


def _pad(views: Sequence[Array]) -> tuple[Array, Array | None]:
    """Zero-padded [B, L_max, d] stack of [L_b, d] views, and its mask."""
    valid, mask = _layout(np.array([v.shape[0] for v in views]))
    out = np.zeros(valid.shape + views[0].shape[1:])
    for row, v in zip(out, views):
        row[: v.shape[0]] = v
    return out, mask


def word_stream(
    docs: Sequence[FeatureDoc],
    e: Tensor,
    p: StreamParams,
    max_tokens: int = MAX_WORD_TOKENS,
) -> Tensor:
    """Attention over raw word features, truncated to `max_tokens`; [B, T, d_f]."""
    for doc in docs:
        if doc.n_tokens == 0:
            raise EmptyDocumentError(f"doc {doc.doc_id}: no word tokens")
    feats, mask = _pad([doc.word_feats[:max_tokens] for doc in docs])
    return attend(e, Tensor(feats), p, mask)


def sentence_stream(docs: Sequence[FeatureDoc], e: Tensor, p: StreamParams) -> Tensor:
    """Attention over forward-LSTM states of each sentence sequence; [B, T, d_f].

    The LSTM steps every row to the longest sequence. States past a
    doc's last sentence are masked out of the attention, and an LSTM
    state depends only on earlier steps, so they change nothing.
    """
    for doc in docs:
        if doc.n_sents == 0:
            raise EmptyDocumentError(f"doc {doc.doc_id}: no sentences")
    if p.sent_rnn is None:
        raise ValueError("sentence stream params lack an RNN")
    feats, mask = _pad([doc.sent_feats for doc in docs])
    d_a = p.sent_rnn.hidden_dim
    h = Tensor(np.zeros((len(docs), d_a)))
    c = Tensor(np.zeros((len(docs), d_a)))
    states = []
    for s in range(feats.shape[1]):
        h, c = lstm_cell(h, c, Tensor(feats[:, s]), p.sent_rnn)
        states.append(h)
    return attend(e, stack(states, axis=1), p, mask)


def relation_stream(
    graphs: Sequence[SynopsisGraph],
    e: Tensor,
    reasoner: ReasonerParams,
    p: StreamParams,
    kind: str = "msrrn",
) -> Tensor:
    """Attention over reasoner node states; [B, T, d_f].

    The reasoner runs once on the disjoint union of the graphs. A graph
    without nodes yields a zero row block and takes no part in attention.
    """
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.intp)
    out_shape = (len(graphs), e.shape[0], p.out_proj.w.shape[1])
    present = np.flatnonzero(sizes)
    if present.size < sizes.size:
        log.warning("%d of %d graphs have no entities; relation stream emits zeros "
                    "for them", sizes.size - present.size, sizes.size)
    if present.size == 0:
        return Tensor(np.zeros(out_shape))
    run = run_msrrn if kind == "msrrn" else run_rrn
    # a single graph is its own union
    union = graphs[0] if len(graphs) == 1 else batch_graphs(graphs)
    nodes = run(union, reasoner)  # [N, d_h], members in order
    valid, mask = _layout(sizes[present])
    view = scatter_rows(nodes, valid, valid.shape + nodes.shape[-1:])
    pooled = attend(e, view, p, mask)
    if present.size < len(graphs):
        pooled = scatter_rows(pooled, present, out_shape)
    return pooled
