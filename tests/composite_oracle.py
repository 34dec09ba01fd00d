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

The `rowmajor_` functions at the end are the LSTM gate update, its
backward pass, the LSTM sequence and the pooling as fused records, the
way they were before the gate activations went gate-major and the
pooling softmax in place; `tests/test_fused.py` requires the current
records to match them bit for bit.

`neg`, `softplus`, `reduce_sum`, `reduce_mean`, `stack` and `reshape`
are primitives that only these compositions and the tests use, written
on `numerics.record`, and `bce_loss` is the loss as the composite of
them that `mulcom.model.bce_loss` repeats in one record.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from mulcom.errors import EmptyDocumentError, ShapeMismatchError
from mulcom.numerics import (
    LSTMParams,
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
from mulcom.streams import StreamParams

Array = np.ndarray


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


# ---------------------------------------------------------------------------
# The fused records as they stood before the gate-major rewrite: the LSTM
# gate activations row-major [n, 4h], each step halving its own sigmoid
# columns, and the pooling softmax in fresh temporaries. Frozen verbatim
# (only renamed) as the bit-for-bit reference of `numerics.lstm_update`,
# `numerics.lstm_update_backward` and `numerics.lstm_sequence`, which
# compute the same operations in the same order, and as the 1e-12
# reference of `streams.attend`, which folds the key projection into the
# queries.
# ---------------------------------------------------------------------------

def rowmajor_lstm_update(a: Array, c_prev: Array | None, c: Array, tc: Array, h: Array) -> None:
    """One LSTM state update of the fused recurrences, written in place.

    `a` [n, 4h] holds the pre-activations of gates i, f, o and g, and
    becomes the gate activations: all four take one tanh, the sigmoid
    ones as sigmoid(z) = (1 + tanh(z/2)) / 2. Then c = f*c_prev + i*g
    (`c_prev` None is the zero state), tc = tanh(c) and h = o*tc. `c` may
    be the `c_prev` buffer, since f*c_prev is formed before i*g is added.
    """
    hd = a.shape[-1] // 4
    sig = a[:, : 3 * hd]
    sig *= 0.5
    np.tanh(a, out=a)
    sig *= 0.5
    sig += 0.5
    if c_prev is None:
        np.multiply(a[:, :hd], a[:, 3 * hd :], out=c)
    else:
        np.multiply(a[:, hd : 2 * hd], c_prev, out=c)
        c += a[:, :hd] * a[:, 3 * hd :]
    np.tanh(c, out=tc)
    np.multiply(a[:, 2 * hd : 3 * hd], tc, out=h)


def rowmajor_lstm_update_backward(
    act: Array, c: Array, tc: Array, gh: Array, step: Callable[[int, Array], Array | None]
) -> Array:
    """Pre-activation gradients [T, n, 4h] of `lstm_update` run T steps from zero state.

    `act`, `c` and `tc` are every step's gate activations, c and tanh(c);
    `gh` [T, n, h] is the gradient reaching each step's h from outside the
    recurrence. Walking back from the last step, `step(t, d_t)` gets step
    t's finished pre-activation gradient [n, 4h] and returns the gradient
    reaching h_{t-1} through step t's pre-activations (ignored at t = 0).
    """
    n_t, hd = act.shape[0], c.shape[-1]
    i, f, o, g = (act[..., k * hd : (k + 1) * hd] for k in range(4))
    # d act_k / d pre-activation_k, times what multiplies act_k in
    # c_t = f * c_{t-1} + i * g, or in h_t = o * tanh(c_t) for the o gate;
    # the loop scales step t's by the gradient reaching c_t or h_t
    d_act = act * (1.0 - act)  # the sigmoid derivative; the g block is redone
    d_act[..., :hd] *= g
    d_act[0, :, hd : 2 * hd] = 0.0  # c_{-1} = 0
    d_act[1:, :, hd : 2 * hd] *= c[:-1]
    d_act[..., 2 * hd : 3 * hd] *= tc
    np.multiply(i, 1.0 - g * g, out=d_act[..., 3 * hd :])
    dc_dh = o * (1.0 - tc * tc)  # d c_t / d h_t through tanh(c_t), times o
    d4 = d_act.reshape(act.shape[:2] + (4, hd))
    dh = dc = None  # gradients reaching h_t and c_t through step t+1
    for t in range(n_t - 1, -1, -1):
        dht = gh[t] if dh is None else gh[t] + dh
        dct = dht * dc_dh[t]
        if dc is not None:
            dct += dc
        d4[t, :, :2] *= dct[:, None]
        d4[t, :, 2] *= dht  # o feeds h, not c
        d4[t, :, 3] *= dct
        dh = step(t, d_act[t])
        if t:
            dc = dct * f[t]
    return d_act


def rowmajor_lstm_sequence(x: Tensor, p: LSTMParams) -> Tensor:
    """Hidden states [B, S, h] of an LSTM run over `x` [B, S, d_in] from zero state.

    The recurrence of `lstm_cell` stepped over axis 1, as one tape record.
    It reads the gates' stored joined weight [fan_in, 4h] and bias (order
    i, f, o, g), and every step's input pre-activation is one GEMM over
    the time-major [S*B, d_in] rows, so only the [B, h] @ [h, 4h]
    recurrent product and `lstm_update` run per step. Its one tanh for
    all four gates makes states agree with `lstm_cell` to rounding, not
    bit for bit. The backward pass is `lstm_update_backward`, whose step
    adds one recurrent product; the weight, bias and input gradients are
    one product or sum each, and each gate takes its column block of them.
    """
    w, hd = p.w.data, p.hidden_dim
    if x.ndim != 3 or x.shape[-1] + hd != w.shape[0]:
        raise ShapeMismatchError(
            f"lstm_sequence: input {x.shape} does not fit gate fan-in {w.shape[0]}"
        )
    n_b, n_s, d_in = x.shape
    w_h, w_x = w[:hd], w[hd:]
    xt = x.data.transpose(1, 0, 2).reshape(n_s * n_b, d_in)  # time-major rows
    act = xt @ w_x
    act += p.b.data
    act = act.reshape(n_s, n_b, 4 * hd)  # pre-activations, then activations in place
    c = np.empty((n_s, n_b, hd))
    tc = np.empty((n_s, n_b, hd))  # tanh(c)
    hs = np.empty((n_s, n_b, hd))
    for t in range(n_s):
        a = act[t]
        if t:
            a += hs[t - 1] @ w_h
        rowmajor_lstm_update(a, c[t - 1] if t else None, c[t], tc[t], hs[t])
    out = Tensor(np.ascontiguousarray(hs.transpose(1, 0, 2)))

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        d_act = rowmajor_lstm_update_backward(
            act, c, tc, gout.transpose(1, 0, 2), lambda t, d: d @ w_h.T if t else None
        )
        flat = d_act.reshape(n_s * n_b, 4 * hd)
        dw = np.empty_like(w)
        dw[hd:] = xt.T @ flat
        dw[:hd] = hs[:-1].reshape(-1, hd).T @ flat[n_b:]
        grads = {p.w: dw, p.b: flat.sum(axis=0)}  # the gates take their blocks
        if x.tracked:
            grads[x] = (flat @ w_x.T).reshape(n_s, n_b, d_in).transpose(1, 0, 2)
        return grads

    return record((x, *p.inputs), out, grads_fn)


def rowmajor_attend(
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

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
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
            op.w: ctx.reshape(n_b * n_t, d_a).T @ g,
            op.b: g.sum(axis=0),
            qp.w: e.data.T @ dq,
            qp.b: dq.sum(axis=0),
            kp.w: rows.T @ dk,
            kp.b: ones @ dk,
            vp.w: rows.T @ dv,
            vp.b: ones @ dv,
        }
        if e.tracked:
            grads[e] = dq @ qp.w.data.T
        if feats.tracked:
            d_feats = dk @ kp.w.data.T
            d_feats += dv @ vp.w.data.T
            grads[feats] = d_feats.reshape(feats.shape)
        return grads

    inputs = (e, feats, qp.w, qp.b, kp.w, kp.b, vp.w, vp.b, op.w, op.b)
    out = record(inputs, out, grads_fn)
    if return_weights:
        return out, Tensor(w)
    return out
