"""The LSTM sequence, the reasoner, stream pooling and the head as compositions of primitives.

These are the blocks as they were before fusion: one `lstm_cell` call
per time step, a reasoner step loop of `message_pass` (gathers,
message MLP, scatter-add) and `lstm_cell`, followed by per-head step
attention, trope-query pooling as a chain of affine, product, scale,
mask, softmax and affine records, and the head as a stream-mix
softmax, one slice, product and sum per stream, and the predictor MLP
on concat(mixed, embedding). `lstm_cell` and `multi_head_attention`
are the library's own composite definitions, one tape record per gate
affine, activation, product and head. `tests/test_fused.py` requires
the fused primitives in `mulcom.numerics`, `mulcom.msrrn`,
`mulcom.streams` and `mulcom.model` to match these in values and in
every input and parameter gradient.

`neg`, `softplus`, `reduce_sum`, `reduce_mean`, `stack` and `reshape`
are primitives that only these compositions and the tests use, written
on `numerics.record`, and `bce_loss` is the loss as the composite of
them that `mulcom.model.bce_loss` repeats in one record.
"""

import math

import numpy as np

from mulcom.errors import ShapeMismatchError
from mulcom.numerics import (
    Tensor,
    add,
    affine,
    concat,
    expit,
    gather_rows,
    lstm_cell,
    matmul,
    mlp_apply,
    multi_head_attention,
    mul,
    record,
    scale,
    scatter_add_rows,
    slice_last,
    softmax,
    transpose,
)


def neg(x):
    return record((x,), Tensor(-x.data), lambda g: {x: -g})


def softplus(x):
    """log(1 + exp(x)) in the overflow-safe log-sum-exp form."""
    return record((x,), Tensor(np.logaddexp(0.0, x.data)), lambda g: {x: g * expit(x.data)})


def reduce_sum(x, axis=None):
    """Sum over every element, or over `axis`."""

    def grads_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return {x: np.broadcast_to(g, x.shape).copy()}

    return record((x,), Tensor(x.data.sum(axis=axis)), grads_fn)


def reduce_mean(x):
    """Mean over every element."""
    return scale(reduce_sum(x), 1.0 / x.size)


def stack(parts, axis=0):
    """Stack same-shape tensors along a new axis."""
    if not parts:
        raise ShapeMismatchError("stack: need at least one part")
    for p in parts[1:]:
        if p.shape != parts[0].shape:
            raise ShapeMismatchError(f"stack: shapes differ: {parts[0].shape} and {p.shape}")
    parts = tuple(parts)

    def grads_fn(g):
        grads = {}
        for p, gp in zip(parts, np.moveaxis(g, axis, 0)):
            grads[p] = grads[p] + gp if p in grads else gp.copy()
        return grads

    return record(parts, Tensor(np.stack([p.data for p in parts], axis=axis)), grads_fn)


def reshape(x, shape):
    return record((x,), Tensor(x.data.reshape(shape)), lambda g: {x: g.reshape(x.shape).copy()})


def bce_loss(logits, targets, pos_weight=1.0):
    """Mean positively-weighted binary cross entropy, one record per op."""
    y = np.asarray(targets, dtype=np.float64)
    pos = mul(Tensor(pos_weight * y), softplus(neg(logits)))
    off = mul(Tensor(1.0 - y), softplus(logits))
    return reduce_mean(add(pos, off))


def lstm_sequence(x, p):
    """Hidden states [B, S, h] over x [B, S, d], one `lstm_cell` per step."""
    n_b, n_s, d = x.shape
    h = Tensor(np.zeros((n_b, p.hidden_dim)))
    c = Tensor(np.zeros((n_b, p.hidden_dim)))
    steps = transpose(x, (1, 0, 2))
    states = []
    for s in range(n_s):
        h, c = lstm_cell(h, c, reshape(gather_rows(steps, [s]), (n_b, d)), p)
        states.append(h)
    return stack(states, axis=1)


def message_pass(graph, h, p):
    """Per-pair MLP(edge, receiver state, sender state), summed per receiver."""
    recv, send, efeat = graph.directed_pairs()
    e_proj = affine(Tensor(efeat), p.edge_in.w, p.edge_in.b)
    pair_in = concat([e_proj, gather_rows(h, recv), gather_rows(h, send)], axis=-1)
    return scatter_add_rows(mlp_apply(pair_in, p.message_mlp), recv, graph.x.shape[0])


def reasoner_trace(graph, p):
    """Hidden state after each reasoner step, starting from zero h and c."""
    n = graph.x.shape[0]
    x_proj = affine(Tensor(graph.x), p.node_in.w, p.node_in.b)
    h = Tensor(np.zeros((n, p.hidden_dim)))
    c = Tensor(np.zeros((n, p.hidden_dim)))
    states = []
    for _ in range(p.steps):
        m = message_pass(graph, h, p)
        h, c = lstm_cell(h, c, concat([x_proj, m], axis=-1), p.cell)
        states.append(h)
    return states


def run_msrrn(graph, p):
    omega = stack(reasoner_trace(graph, p), axis=1)  # [n, T, d_h]
    attended = multi_head_attention(omega, omega, omega, p.step_attention)
    return reduce_sum(attended, axis=1)


def run_rrn(graph, p):
    return reasoner_trace(graph, p)[-1]


def attend(e, feats, p, mask=None, return_weights=False):
    """Trope-query pooling of `feats` [L, d] or [B, L, d], one record per op."""
    d_a = p.query_proj.w.shape[1]
    q = affine(e, p.query_proj.w, p.query_proj.b)
    k = affine(feats, p.key_proj.w, p.key_proj.b)
    v = affine(feats, p.value_proj.w, p.value_proj.b)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_a))
    if mask is not None:
        scores = add(scores, Tensor(mask))
    weights = softmax(scores, axis=-1)
    out = affine(matmul(weights, v), p.out_proj.w, p.out_proj.b)
    if return_weights:
        return out, weights
    return out


def head_logits(model, outs):
    """Logits [..., num_tropes] from the streams' pooled rows, one record per op."""
    attn = softmax(mlp_apply(model.E, model.stream_attn_mlp), axis=-1)
    mixed = None
    for s_idx, name in enumerate(model.cfg.streams):
        weighted = mul(slice_last(attn, s_idx, s_idx + 1), outs[name])
        mixed = weighted if mixed is None else add(mixed, weighted)
    e = add(Tensor(np.zeros(mixed.shape)), model.E)  # E broadcast over the batch
    z = concat([mixed, e], axis=-1)
    return reshape(mlp_apply(z, model.predictor), mixed.shape[:-1])
