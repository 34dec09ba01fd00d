"""Per-trope comprehension streams over a batch of documents.

Each stream pools one view of each document (raw word features,
LSTM-encoded sentence features, or reasoner node states) into one
vector per trope. The trope embedding is projected to a query, the
view rows to keys and values, and the softmax-weighted value sum is
projected back to the trope dim, so every stream emits [B x num_tropes
x d_f] regardless of the views' lengths. Views of different lengths
are zero-padded to the longest and the padding is masked out of the
attention, so a document's result does not depend on its batch mates.
The pooling, `attend`, is one tape record with a hand-derived backward
pass, like the sentence LSTM and the reasoner it reads from.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyDocumentError
from .graph import FeatureDoc, GraphBatch
from .msrrn import ReasonerParams, run_msrrn, run_rrn
from .numerics import (
    AffineParams,
    LSTMParams,
    Tensor,
    _accum,
    _emit,
    init_affine,
    init_lstm,
    # Not called here. perfbench/layer_trace.py looks this name up to count
    # sentence-LSTM calls, which read 0 now that the LSTM is one record.
    lstm_cell,  # noqa: F401
    lstm_sequence,
    scatter_rows,
)

log = logging.getLogger(__name__)

Array = np.ndarray


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
    `return_weights` also returns the softmax weights [..., num_tropes, L]
    as an untracked tensor.

    One tape record. The forward pass is the composition of affine,
    scaled product, mask, softmax and affine primitives, op for op, so
    its values are theirs bit for bit. The backward pass folds the batch
    axis into the rows of one GEMM per weight, and of one for the query.
    """
    if feats.shape[-2] == 0:
        raise EmptyDocumentError("attend: no positions to attend over")
    qp, kp, vp, op = p.query_proj, p.key_proj, p.value_proj, p.out_proj
    d_a = qp.w.shape[1]
    c = 1.0 / math.sqrt(d_a)
    q = e.data @ qp.w.data + qp.b.data
    k = feats.data @ kp.w.data + kp.b.data
    v = feats.data @ vp.w.data + vp.b.data
    scores = (q @ np.swapaxes(k, -1, -2)) * c
    if mask is not None:
        scores = scores + mask
    z = scores - scores.max(axis=-1, keepdims=True)
    w = np.exp(z)
    w = w / w.sum(axis=-1, keepdims=True)  # [..., num_tropes, L]
    ctx = w @ v
    out = Tensor(ctx @ op.w.data + op.b.data)

    def backward_fn(gout: Array) -> None:
        n_t, n_l, d_f = e.shape[0], feats.shape[-2], out.shape[-1]
        n_b = feats.size // (n_l * feats.shape[-1])
        g = gout.reshape(n_b * n_t, d_f)
        d_ctx = (g @ op.w.data.T).reshape(n_b, n_t, d_a)
        w3 = w.reshape(n_b, n_t, n_l)
        dw = d_ctx @ np.swapaxes(v.reshape(n_b, n_l, d_a), -1, -2)
        ds = w3 * (dw - (dw * w3).sum(axis=-1, keepdims=True))
        ds *= c  # d loss / d scores before scaling; the mask takes none
        dq = ds.transpose(1, 0, 2).reshape(n_t, n_b * n_l) @ k.reshape(n_b * n_l, d_a)
        dk = (np.swapaxes(ds, -1, -2) @ q).reshape(n_b * n_l, d_a)
        dv = (np.swapaxes(w3, -1, -2) @ d_ctx).reshape(n_b * n_l, d_a)
        rows = feats.data.reshape(n_b * n_l, -1)
        ones = np.ones(n_b * n_l)  # a GEMV sums the rows several times faster than .sum
        grads = {
            id(op.w): ctx.reshape(n_b * n_t, d_a).T @ g,
            id(op.b): g.sum(axis=0),
            id(qp.w): e.data.T @ dq,
            id(qp.b): dq.sum(axis=0),
            id(kp.w): rows.T @ dk,
            id(kp.b): ones @ dk,
            id(vp.w): rows.T @ dv,
            id(vp.b): ones @ dv,
        }
        for leaf in inputs[2:]:
            if leaf.tracked:
                _accum(leaf, grads[id(leaf)], fresh=True)
        if e.tracked:
            _accum(e, dq @ qp.w.data.T, fresh=True)
        if feats.tracked:
            d_feats = dk @ kp.w.data.T
            d_feats += dv @ vp.w.data.T
            _accum(feats, d_feats.reshape(feats.shape), fresh=True)

    inputs = (e, feats, qp.w, qp.b, kp.w, kp.b, vp.w, vp.b, op.w, op.b)
    out = _emit(inputs, out, backward_fn)
    if return_weights:
        return out, Tensor(w)
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
    max_tokens: int,
) -> Tensor:
    """Attention over raw word features, truncated to `max_tokens`; [B, T, d_f]."""
    for doc in docs:
        if doc.n_tokens == 0:
            raise EmptyDocumentError(f"doc {doc.doc_id}: no word tokens")
    feats, mask = _pad([doc.word_feats[:max_tokens] for doc in docs])
    return attend(e, Tensor(feats), p, mask)


def sentence_stream(docs: Sequence[FeatureDoc], e: Tensor, p: StreamParams) -> Tensor:
    """Attention over forward-LSTM states of each sentence sequence; [B, T, d_f].

    The LSTM runs every row to the longest sequence, as one sequence
    primitive. States past a doc's last sentence are masked out of the
    attention, and an LSTM state depends only on earlier steps, so they
    change nothing.
    """
    for doc in docs:
        if doc.n_sents == 0:
            raise EmptyDocumentError(f"doc {doc.doc_id}: no sentences")
    if p.sent_rnn is None:
        raise ValueError("sentence stream params lack an RNN")
    feats, mask = _pad([doc.sent_feats for doc in docs])
    return attend(e, lstm_sequence(Tensor(feats), p.sent_rnn), p, mask)


def relation_stream(
    graphs: GraphBatch,
    e: Tensor,
    reasoner: ReasonerParams,
    p: StreamParams,
    kind: str = "msrrn",
) -> Tensor:
    """Attention over reasoner node states; [B, T, d_f].

    The reasoner runs once on `graphs`, the disjoint union of the
    batch's graphs. A member without nodes yields a zero row block and
    takes no part in attention.
    """
    sizes = graphs.node_counts
    out_shape = (graphs.n_members, e.shape[0], p.out_proj.w.shape[1])
    present = np.flatnonzero(sizes)
    if present.size < sizes.size:
        log.warning("%d of %d graphs have no entities; relation stream emits zeros "
                    "for them", sizes.size - present.size, sizes.size)
    if present.size == 0:
        return Tensor(np.zeros(out_shape))
    run = run_msrrn if kind == "msrrn" else run_rrn
    nodes = run(graphs, reasoner)  # [N, d_h], members in order
    valid, mask = _layout(sizes[present])
    view = scatter_rows(nodes, valid, valid.shape + nodes.shape[-1:])
    pooled = attend(e, view, p, mask)
    if present.size < sizes.size:
        pooled = scatter_rows(pooled, present, out_shape)
    return pooled
