"""The LSTM cell, the LSTM sequence, multi-head attention and the reasoner as compositions.

These are the blocks as they were before fusion: one tape record per
gate affine, activation and product, one fused `lstm_cell` call per
time step, one slice-matmul-softmax chain per attention head, and a
reasoner step loop of gathers, message MLP, scatter-add and fused cell
followed by batched-head step attention. `tests/test_fused.py` requires
the fused primitives in `mulcom.numerics` and `mulcom.msrrn` to match
them in values and in every input and parameter gradient.
"""

import math

import numpy as np

from mulcom import numerics as nm
from mulcom.numerics import (
    Tensor,
    add,
    affine,
    concat,
    gather_rows,
    matmul,
    mlp_apply,
    mul,
    reduce_sum,
    reshape,
    scale,
    scatter_add_rows,
    sigmoid,
    slice_last,
    softmax,
    stack,
    tanh,
    transpose,
)


def lstm_cell(h, c, x, p):
    z = concat([h, x], axis=-1)
    i = sigmoid(affine(z, p.gate_i.w, p.gate_i.b))
    f = sigmoid(affine(z, p.gate_f.w, p.gate_f.b))
    o = sigmoid(affine(z, p.gate_o.w, p.gate_o.b))
    g = tanh(affine(z, p.gate_g.w, p.gate_g.b))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def lstm_sequence(x, p):
    """Hidden states [B, S, h] over x [B, S, d], one `lstm_cell` per step."""
    n_b, n_s, d = x.shape
    h = Tensor(np.zeros((n_b, p.hidden_dim)))
    c = Tensor(np.zeros((n_b, p.hidden_dim)))
    steps = transpose(x, (1, 0, 2))
    states = []
    for s in range(n_s):
        h, c = nm.lstm_cell(h, c, reshape(gather_rows(steps, [s]), (n_b, d)), p)
        states.append(h)
    return stack(states, axis=1)


def multi_head_attention(q, k, v, p):
    dh = q.shape[-1] // p.heads
    qp = matmul(q, p.w_q)
    kp = matmul(k, p.w_k)
    vp = matmul(v, p.w_v)
    outs = []
    for h in range(p.heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = slice_last(qp, lo, hi)
        kh = slice_last(kp, lo, hi)
        vh = slice_last(vp, lo, hi)
        scores = scale(matmul(qh, transpose(kh)), 1.0 / math.sqrt(dh))
        outs.append(matmul(softmax(scores, axis=-1), vh))
    return matmul(concat(outs, axis=-1), p.w_o)


def _messages(h, recv, send, e_proj, num_nodes, p):
    """Per-pair MLP(edge, receiver state, sender state), summed per receiver."""
    h_recv = gather_rows(h, recv)
    h_send = gather_rows(h, send)
    pair_in = concat([e_proj, h_recv, h_send], axis=-1)
    per_pair = mlp_apply(pair_in, p.message_mlp)
    return scatter_add_rows(per_pair, recv, num_nodes)


def reasoner_trace(graph, p):
    """Hidden state after each reasoner step, starting from zero h and c."""
    n = graph.x.shape[0]
    d_h = p.hidden_dim
    recv, send, efeat = graph.directed_pairs()
    x_proj = affine(Tensor(graph.x), p.node_in.w, p.node_in.b)
    e_proj = affine(Tensor(efeat), p.edge_in.w, p.edge_in.b)
    h = Tensor(np.zeros((n, d_h)))
    c = Tensor(np.zeros((n, d_h)))
    states = []
    for _ in range(p.steps):
        m = _messages(h, recv, send, e_proj, n, p)
        h, c = nm.lstm_cell(h, c, concat([x_proj, m], axis=-1), p.cell)
        states.append(h)
    return states


def run_msrrn(graph, p):
    omega = stack(reasoner_trace(graph, p), axis=1)  # [n, T, d_h]
    attended = nm.multi_head_attention(omega, omega, omega, p.step_attention)
    return reduce_sum(attended, axis=1)


def run_rrn(graph, p):
    return reasoner_trace(graph, p)[-1]
