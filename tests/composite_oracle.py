"""The LSTM cell, the LSTM sequence and multi-head attention as compositions.

These are the blocks as they were before fusion: one tape record per
gate affine, activation and product, one fused `lstm_cell` call per
time step, and one slice-matmul-softmax chain per attention head.
`tests/test_fused.py` requires the fused primitives in
`mulcom.numerics` to match them in values and in every input and
parameter gradient.
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
    mul,
    reshape,
    scale,
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
