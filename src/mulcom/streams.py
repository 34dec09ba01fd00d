"""Per-trope comprehension streams over a batch of documents.

Each stream pools one view of each document (raw word features,
LSTM-encoded sentence features, or reasoner node states) into one
vector per trope. The trope embedding is projected to a query, the
softmax over the query's scores against the view rows weights those
rows, and the weighted row sum is projected to values and back to the
trope dim, so every stream emits [B x num_tropes x d_f] regardless of
the views' lengths. Views of different lengths are zero-padded to the
longest and the padding is masked out of the attention, so a
document's result does not depend on its batch mates. A batch with
nothing to pad skips that: a lone document's word and sentence views
are read in place as [1, L, d], and when every document has the same
number of entities, the reasoner's node rows are read as one
[B, n, d_h] view. Neither needs a mask, and values and gradients are
the padded path's bit for bit, since that path only copied such views.
The pooling, `attend`, is one tape record with a hand-derived backward
pass, like the sentence LSTM and the reasoner it reads from. It forms
neither keys nor values per position. The key projection is folded into the
queries, which depend only on the tropes, and the scores read the view
rows directly. The key bias adds the same term to every score of a
trope, which the softmax cancels, so it stays a parameter (checkpoints
keep it) with a gradient of exactly zero. The value projection runs
after the pooling, on one row per trope: every softmax row sums to 1,
so pooling and projecting commute, bias included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyDocumentError
from .graph import FeatureDoc, GraphBatch
from .msrrn import ReasonerParams, run_msrrn, run_rrn
from .numerics import (
    AffineParams,
    Derived,
    LSTMParams,
    Params,
    Tensor,
    init_affine,
    init_lstm,
    # Not called here. perfbench/layer_trace.py looks this name up to count
    # sentence-LSTM calls, which read 0 now that the LSTM is one record.
    lstm_cell,  # noqa: F401
    lstm_sequence,
    record,
    scatter_rows,
)

log = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class StreamParams(Params):
    query_proj: AffineParams  # d_f -> d_a
    key_proj: AffineParams  # view dim -> d_a
    value_proj: AffineParams  # view dim -> d_a
    out_proj: AffineParams  # d_a -> d_f
    sent_rnn: LSTMParams | None = None  # sentence stream only

    def __post_init__(self) -> None:
        self.queries = Derived(_queries)  # of (e, query w, query b, key w): `attend`'s


def _queries(e: Tensor, w_q: Tensor, b_q: Tensor, w_k: Tensor) -> tuple[Array, Array]:
    """The trope queries q = e W_q + b_q [num_tropes, d_a] and q W_k^T [num_tropes, d]."""
    q = e.data @ w_q.data + b_q.data
    return q, q @ w_k.data.T


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

    One tape record. The scores q (F W_k + b_k)^T / sqrt(d_a) are
    computed as (q W_k^T) F^T / sqrt(d_a): the queries q and the
    [num_tropes, d] product q W_k^T depend on the parameters alone, so
    they are formed once per weight state and kept on `p`
    (`StreamParams.queries`), and q . b_k, constant along the positions,
    is dropped, as the softmax cancels it. The context
    w (F W_v + b_v) is computed as (w F) W_v + b_v, since each row of w
    sums to 1. So no [..., L, d_a] key or value buffer exists, and the
    values agree with the composite of affine, scaled product, mask,
    softmax and affine primitives to rounding, not bit for bit.

    Cost, with T = num_tropes and d the view dim: per position, the
    scores and the pooling w F cost 2 T d multiply-adds. Keys would add
    d d_a + T d_a - T d to that, and so would values, projected per
    position and then pooled. Per trope row, the value projection of
    w F costs d d_a. With d = d_a the folded values do less work
    exactly when L > T, and with d < d_a at shorter L. Word views, tens
    to hundreds of tokens long, gain most; a sentence or entity view
    shorter than T pays a little more.

    The softmax runs in place in the one [..., num_tropes, L] buffer the
    score product returns: scale, mask add, max subtraction, exp and
    normalization. The backward pass folds the batch axis into the rows
    of one GEMM per weight. It forms d(w F) = d_ctx W_v^T once, on
    [B * num_tropes, d] rows, from which the weights' gradient
    dw = d(w F) F^T, the value weight's (w F)^T d_ctx and the view's
    value-path term w^T d(w F) follow; the value bias's is the row sum
    of d_ctx. The score gradient ds is formed in place as
    (dw - sum(dw * w)) * w, and d(q W_k^T) = ds F once, from which the
    query and key-weight gradients follow; the view's gradient adds
    ds^T (q W_k^T), and the key bias's is zero.
    """
    if feats.shape[-2] == 0:
        raise EmptyDocumentError("attend: no positions to attend over")
    qp, kp, vp, op = p.query_proj, p.key_proj, p.value_proj, p.out_proj
    d_a = qp.w.shape[1]
    c = 1.0 / math.sqrt(d_a)
    q, qk = p.queries(e, qp.w, qp.b, kp.w)  # qk: the key projection, folded into the queries
    w = qk @ np.swapaxes(feats.data, -1, -2)  # the scores, then the softmax weights in place
    w *= c
    if mask is not None:
        w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)  # [..., num_tropes, L]
    wf = w @ feats.data  # [..., num_tropes, d]: the view rows pooled before the value projection
    ctx = wf @ vp.w.data + vp.b.data  # each row of w sums to 1, so w @ 1 b_v = b_v
    out = Tensor(ctx @ op.w.data + op.b.data)

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        n_t, n_l, d_f = e.shape[0], feats.shape[-2], out.shape[-1]
        n_b = feats.size // (n_l * feats.shape[-1])
        g = gout.reshape(n_b * n_t, d_f)
        d_ctx = g @ op.w.data.T  # [B*T, d_a]
        d_wf = (d_ctx @ vp.w.data.T).reshape(n_b, n_t, -1)  # d loss / d (w F)
        rows = feats.data.reshape(n_b * n_l, -1)
        w3 = w.reshape(n_b, n_t, n_l)
        ds = d_wf @ np.swapaxes(rows.reshape(n_b, n_l, -1), -1, -2)  # d loss / d w
        ds -= (ds * w3).sum(axis=-1, keepdims=True)
        ds *= w3
        ds *= c  # d loss / d scores before scaling; the mask takes none
        d_qk = ds.transpose(1, 0, 2).reshape(n_t, n_b * n_l) @ rows
        dq = d_qk @ kp.w.data
        grads = {
            op.w: ctx.reshape(n_b * n_t, d_a).T @ g,
            op.b: g.sum(axis=0),
            qp.w: e.data.T @ dq,
            qp.b: dq.sum(axis=0),
            kp.w: d_qk.T @ q,
            kp.b: np.zeros_like(kp.b.data),  # the softmax cancels q . b_k
            vp.w: wf.reshape(n_b * n_t, -1).T @ d_ctx,
            vp.b: np.ones(n_b * n_t) @ d_ctx,  # a GEMV sums the rows faster than .sum
        }
        if e.tracked:
            grads[e] = dq @ qp.w.data.T
        if feats.tracked:
            d_feats = np.swapaxes(ds, -1, -2) @ qk  # [B, L, d]
            d_feats += np.swapaxes(w3, -1, -2) @ d_wf
            grads[feats] = d_feats.reshape(feats.shape)
        return grads

    inputs = (e, feats, qp.w, qp.b, kp.w, kp.b, vp.w, vp.b, op.w, op.b)
    out = record(inputs, out, grads_fn)
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
    """Zero-padded [B, L_max, d] stack of [L_b, d] views, and its mask.

    A lone view has nothing to pad: it comes back as a [1, L, d] view of
    itself, with no mask.
    """
    if len(views) == 1:
        return views[0][None], None
    valid, mask = _layout(np.array([v.shape[0] for v in views]))
    out = np.zeros(valid.shape + views[0].shape[1:])
    for row, v in zip(out, views):
        row[: v.shape[0]] = v
    return out, mask


def _member_rows(nodes: Tensor, n_members: int) -> Tensor:
    """The node rows [N, d_h] of `n_members` equal-size members, viewed as [B, n, d_h].

    One tape record; the backward pass reshapes the gradient back into
    a fresh [N, d_h] array.
    """
    view = Tensor(nodes.data.reshape(n_members, -1, nodes.shape[-1]))
    return record((nodes,), view, lambda g: {nodes: g.reshape(nodes.shape).copy()})


def word_stream(
    docs: Sequence[FeatureDoc],
    e: Tensor,
    p: StreamParams,
    max_tokens: int,
) -> Tensor:
    """Attention over raw word features, truncated to `max_tokens`; [B, T, d_f]."""
    feats, mask = _pad([doc.word_feats[:max_tokens] for doc in docs])
    return attend(e, Tensor(feats), p, mask)


def sentence_stream(docs: Sequence[FeatureDoc], e: Tensor, p: StreamParams) -> Tensor:
    """Attention over forward-LSTM states of each sentence sequence; [B, T, d_f].

    The LSTM runs every row to the longest sequence, as one sequence
    primitive. States past a doc's last sentence are masked out of the
    attention, and an LSTM state depends only on earlier steps, so they
    change nothing.
    """
    if p.sent_rnn is None:
        raise ConfigError("sentence stream: its params have no sentence LSTM (sent_rnn)")
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
    batch's graphs. When every member has the same number of nodes, its
    node rows are the [B, n, d_h] view; otherwise they are scattered
    into a zero-padded layout, masked. A member without nodes yields a
    zero row block and takes no part in attention.
    """
    sizes = graphs.node_counts
    run = run_msrrn if kind == "msrrn" else run_rrn
    if sizes[0] and (sizes == sizes[0]).all():  # nothing to pad, so no mask
        return attend(e, _member_rows(run(graphs, reasoner), sizes.size), p)
    out_shape = (graphs.n_members, e.shape[0], p.out_proj.w.shape[1])
    present = np.flatnonzero(sizes)
    if present.size < sizes.size:
        log.warning("%d of %d graphs have no entities; relation stream emits zeros "
                    "for them", sizes.size - present.size, sizes.size)
    if present.size == 0:
        return Tensor(np.zeros(out_shape))
    nodes = run(graphs, reasoner)  # [N, d_h], members in order
    valid, mask = _layout(sizes[present])
    view = scatter_rows(nodes, valid, valid.shape + nodes.shape[-1:])
    pooled = attend(e, view, p, mask)
    if present.size < sizes.size:
        pooled = scatter_rows(pooled, present, out_shape)
    return pooled
