"""The reasoner's single tape record as it ran before its parameter-only folds.

Each step halved its gate pre-activations with one multiply by
`gate_scale`, ran message layer 2 on every pair row and added its bias
there, staged the summed messages in a buffer and multiplied them by the
cell's message block; the edge projection and message layer 1's edge
block were two products per call, and the step attention formed its
scores one key step at a time. `tests/test_reasoner_folds.py` requires
`mulcom.msrrn`'s reasoner, which folds those products into per-weight-state
caches, to give outputs and parameter gradients within 1e-12 of these.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mulcom.graph import GraphBatch
from mulcom.msrrn import ReasonerParams
from mulcom.numerics import (
    Segments,
    Tensor,
    gate_scale,
    lstm_update,
    lstm_update_backward,
    record,
    recording,
    retain_heap,
)

Array = np.ndarray


@functools.cache
def _head_sum(heads: int, d_head: int) -> Array:
    """[heads * d_head, heads] 0/1 matrix summing each head's columns; read-only."""
    out = np.repeat(np.eye(heads), d_head, axis=0)
    out.flags.writeable = False
    return out


def reason(graph: GraphBatch, p: ReasonerParams, attend: bool) -> Tensor:
    """The reasoner's [N, h] node output as one tape record.

    `attend` gives the step-attended states summed over steps (MSRRN);
    otherwise the last step's states (RRN), and the step attention's
    parameters stay off the tape. States start at zero h and c. Each
    receiver adds its messages in pair order, as a scatter-add would.
    The cell runs `lstm_update` and its backward pass
    `lstm_update_backward`, as `lstm_sequence` does.
    """
    retain_heap()
    recv, send, efeat = graph.directed_pairs()
    x = np.asarray(graph.x, dtype=np.float64)
    n, hd, n_t = x.shape[0], p.hidden_dim, p.steps
    (l1, l2), mha = p.message_mlp.layers, p.step_attention
    inputs = p.inputs if attend else p.inputs[:-4]
    keep = recording(inputs)
    segs = Segments.by_index(recv, n)

    w1, w2, b2 = l1.w.data, l2.w.data, l2.b.data
    w_cell = p.cell.w.data  # rows: h, x_proj, m
    w_msg = w_cell[2 * hd :]
    w_step = np.concatenate([w1[hd : 2 * hd], w1[2 * hd :], w_cell[:hd]], axis=1)

    x_proj = x @ p.node_in.w.data + p.node_in.b.data
    e_proj = efeat @ p.edge_in.w.data + p.edge_in.b.data
    pre_e = e_proj @ w1[:hd] + l1.b.data  # the edge block of message layer 1
    act_x = x_proj @ w_cell[hd : 2 * hd]
    act_x += p.cell.b.data

    # Without a tape every step reuses one slot; only h is kept for attention.
    slot = list(range(n_t)) if keep else [0] * n_t
    depth = n_t if keep else 1
    n_p = recv.shape[0]
    act = np.empty((depth, 4, n, hd))  # gate activations, gate-major
    c = np.empty((depth, n, hd))
    tc = np.empty((depth, n, hd))  # tanh(c)
    relu = np.empty((depth, n_p, hd))  # message layer 1 after relu
    msg = np.empty((depth, n, hd))  # summed messages
    hs = np.empty((n_t, n, hd))
    y = np.empty((n, 6 * hd))
    a = np.empty((n, 4 * hd))  # the step's gate pre-activations
    a4 = a.reshape(n, 4, hd).transpose(1, 0, 2)  # gate-major view, what `lstm_update` reads
    half = gate_scale(hd)
    for t in range(n_t):
        s = slot[t]
        if t:
            np.matmul(hs[t - 1], w_step, out=y)
            pre = pre_e + y[recv, :hd]
            pre += y[send, hd : 2 * hd]
            np.maximum(pre, 0.0, out=relu[s])
            np.add(act_x, y[:, 2 * hd :], out=a)
        else:
            np.maximum(pre_e, 0.0, out=relu[s])
            a[...] = act_x
        per_pair = relu[s] @ w2
        per_pair += b2
        msg[s] = segs.sum(per_pair)
        a += msg[s] @ w_msg
        a *= half  # the sigmoid gates' halved, as `lstm_update` takes them
        lstm_update(a4, act[s], c[slot[t - 1]] if t else None, c[s], tc[s], hs[t])

    if attend:
        heads = mha.heads
        d_head = hd // heads
        scale = 1.0 / math.sqrt(d_head)
        head_sum = _head_sum(heads, d_head)
        w_qkv = mha.w_qkv.data
        h_flat = hs.reshape(n_t * n, hd)
        qkv = (h_flat @ w_qkv).reshape(n_t, n, 3, heads, d_head)
        q, k, v = qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]  # [T, N, heads, d_head]
        scores = np.empty((n_t, n_t * n, heads))  # [key step, query step * N, heads]
        for j in range(n_t):
            np.matmul((q * k[j]).reshape(n_t * n, hd), head_sum, out=scores[j])
        scores = scores.reshape(n_t, n_t, n, heads)
        scores *= scale
        scores -= scores.max(axis=0)
        attn = np.exp(scores)
        attn /= attn.sum(axis=0)
        weight = attn.sum(axis=1)  # each key step's weight summed over query steps
        ctx = (weight[..., None] * v).sum(axis=0).reshape(n, hd)
        out = Tensor(ctx @ mha.w_o.data)
    else:
        out = Tensor(hs[-1])
    if not keep:
        return out

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        grads: dict[Tensor, Array] = {}
        if attend:
            grads[mha.w_o] = ctx.T @ gout
            d_ctx = (gout @ mha.w_o.data.T).reshape(n, heads, d_head)
            d_qkv = np.empty_like(qkv)
            dq, dk, dv = d_qkv[:, :, 0], d_qkv[:, :, 1], d_qkv[:, :, 2]
            np.multiply(weight[..., None], d_ctx, out=dv)
            d_weight = ((v * d_ctx).reshape(n_t * n, hd) @ head_sum).reshape(n_t, n, heads)
            d_scores = attn * (d_weight[:, None] - (attn * d_weight[:, None]).sum(axis=0))
            d_scores *= scale
            for j in range(n_t):
                d_j = d_scores[j, ..., None]
                if j:
                    dq += d_j * k[j]
                else:
                    np.multiply(d_j, k[j], out=dq)
                np.sum(d_j * q, axis=0, out=dk[j])
            d_flat = d_qkv.reshape(n_t * n, 3 * hd)
            grads[mha.w_qkv] = h_flat.T @ d_flat
            gh = (d_flat @ w_qkv.T).reshape(n_t, n, hd)
            # dead from here; freed before the recurrence's backward allocates
            del d_qkv, dq, dk, dv, d_flat, d_scores, d_j, d_weight, d_ctx
        else:
            gh = np.zeros((n_t, n, hd))
            gh[-1] = gout

        d_pair = np.empty((n_t, n_p, hd))  # d loss / d message MLP output
        d_pre = np.empty((n_t, n_p, hd))  # d loss / d message layer 1 pre-relu
        d_step = np.empty((max(n_t - 1, 0), n, 6 * hd))  # d loss / d (h_{t-1} @ w_step)
        send_segs = Segments.by_index(send, n) if n_t > 1 else None

        def step(t: int, d_act_t: Array) -> Array | None:
            """Back through step t's messages; the gradient reaching h_{t-1}."""
            d_pair[t] = (d_act_t @ w_msg.T)[recv]
            np.multiply(d_pair[t] @ w2.T, relu[t] > 0.0, out=d_pre[t])
            if not t:
                return None
            ds_t = d_step[t - 1]
            ds_t[:, :hd] = segs.sum(d_pre[t])
            ds_t[:, hd : 2 * hd] = send_segs.sum(d_pre[t])
            ds_t[:, 2 * hd :] = d_act_t
            return ds_t @ w_step.T

        d_act = lstm_update_backward(act, c, tc, gh, step)
        flat = d_act.reshape(n_t * n, 4 * hd)
        d_act_x = d_act.sum(axis=0)
        dw_cell = np.empty_like(w_cell)
        dw_cell[hd : 2 * hd] = x_proj.T @ d_act_x
        dw_cell[2 * hd :] = msg.reshape(n_t * n, hd).T @ flat
        dw1 = np.empty_like(w1)
        if n_t > 1:
            dw_step = hs[:-1].reshape(-1, hd).T @ d_step.reshape(-1, 6 * hd)
            dw1[hd:] = np.concatenate([dw_step[:, :hd], dw_step[:, hd : 2 * hd]])
            dw_cell[:hd] = dw_step[:, 2 * hd :]
        else:  # the only step reads h = 0
            dw1[hd:] = 0.0
            dw_cell[:hd] = 0.0
        d_pre_e = d_pre.sum(axis=0)
        dw1[:hd] = e_proj.T @ d_pre_e
        grads[p.cell.w] = dw_cell
        grads[p.cell.b] = d_act_x.sum(axis=0)
        grads[l1.w] = dw1
        grads[l1.b] = d_pre_e.sum(axis=0)
        grads[l2.w] = relu.reshape(-1, hd).T @ d_pair.reshape(-1, hd)
        grads[l2.b] = d_pair.sum(axis=(0, 1))
        d_e_proj = d_pre_e @ w1[:hd].T
        grads[p.edge_in.w] = efeat.T @ d_e_proj
        grads[p.edge_in.b] = d_e_proj.sum(axis=0)
        d_x_proj = d_act_x @ w_cell[hd : 2 * hd].T
        grads[p.node_in.w] = x.T @ d_x_proj
        grads[p.node_in.b] = d_x_proj.sum(axis=0)
        return grads

    return record(inputs, out, grads_fn)


def run_msrrn(graph: GraphBatch, p: ReasonerParams) -> Tensor:
    return reason(graph, p, attend=True)


def run_rrn(graph: GraphBatch, p: ReasonerParams) -> Tensor:
    return reason(graph, p, attend=False)
