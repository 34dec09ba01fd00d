"""Iterative relational reasoning over entity graphs.

Node states exchange messages along edges and an LSTM cell folds each
node's summed incoming message together with its own projected input,
for a fixed number of steps with shared weights. The multi-step
reasoner keeps every intermediate state, lets each node attend over
its own step history with multi-head self-attention, and sums the
attended states. The plain recurrent baseline returns the final step
only.

Both variants run as one tape record with a hand-derived backward pass
through the steps (`_reason`), whose cell is the sentence LSTM's gate
update (`numerics.lstm_update`). What no step changes is computed once
per call: the node and edge input projections, the node-input block of
the cell's gate pre-activations (one [N, 4h] product) and the edge
block of the message MLP's first layer. A step then runs one product
of the states with the receiver, sender and recurrent weight blocks,
gathers its receiver and sender rows per pair, applies the message
MLP's second layer, sums the messages per receiver over pairs sorted
by receiver, and updates the cell. The cell keeps its gate activations
gate-major ([T, 4, N, h]), so its elementwise passes, forward and
backward, run on contiguous [N, h] blocks. Each step halves the sigmoid
gates' columns of its [N, 4h] pre-activations, as `lstm_update` takes
them, with one contiguous multiply by a cached [4h] vector of 0.5s and
1s; with two or three steps over a few nodes that pass is short. The
step attention projects every step's states with one [N*T, h] @
[h, 3h] product and sums over steps before the output projection,
since the sum of ctx_t @ W_o over t is (sum of ctx_t) @ W_o. The
cell's gates and the attention's q, k and v projections are stored
joined ([3h, 4h] and [h, 3h]), so the record reads them as they are. The step weight, which takes rows of the
message MLP and of the cell, is joined once per weight state and kept
on the parameters (`ReasonerParams.step_weight`). The parameters'
names and shapes stay those of the composite blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .graph import GraphBatch
from .numerics import (
    AffineParams,
    Derived,
    LSTMParams,
    MHAParams,
    MLPParams,
    Params,
    Segments,
    Tensor,
    gate_scale,
    init_affine,
    init_lstm,
    init_mha,
    init_mlp,
    lstm_update,
    lstm_update_backward,
    record,
    recording,
    retain_heap,
    # Not called since the reasoner became one record. perfbench/layer_trace.py
    # wraps these names on this module to time the reasoner's parts, and
    # cannot install without them.
    gather_rows,  # noqa: F401
    lstm_cell,  # noqa: F401
    mlp_apply,  # noqa: F401
    multi_head_attention,  # noqa: F401
    scatter_add_rows,  # noqa: F401
)

Array = np.ndarray


@dataclass
class ReasonerParams(Params):
    """Shared-across-steps parameters of both reasoner variants."""

    node_in: AffineParams  # d_s -> d_h
    edge_in: AffineParams  # d_s -> d_h
    message_mlp: MLPParams  # 3*d_h -> d_h -> d_h
    cell: LSTMParams  # input 2*d_h, hidden d_h
    step_attention: MHAParams
    steps: int

    def __post_init__(self) -> None:
        # `_reason`'s tape inputs in `named` order, the step attention's four last
        self.inputs = tuple(t for _, t in self.named())
        self.step_weight = Derived(_step_weight)  # of (message layer 1 w, cell w)

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    def named(self, prefix: str = "reasoner") -> Iterator[tuple[str, Tensor]]:
        return super().named(prefix)


def init_reasoner(
    rng: np.random.Generator,
    d_s: int,
    d_h: int,
    steps: int,
    heads: int,
) -> ReasonerParams:
    if steps < 1:
        raise ConfigError(f"reasoner needs steps >= 1, got {steps}")
    if d_h % heads != 0:
        raise ConfigError(f"hidden dim {d_h} not divisible by {heads} heads")
    return ReasonerParams(
        node_in=init_affine(rng, d_s, d_h),
        edge_in=init_affine(rng, d_s, d_h),
        message_mlp=init_mlp(rng, (3 * d_h, d_h, d_h)),
        cell=init_lstm(rng, 2 * d_h, d_h),
        step_attention=init_mha(rng, d_h, heads),
        steps=steps,
    )


def _step_weight(w1: Tensor, w_cell: Tensor) -> tuple[Array]:
    """[h, 6h]: what a step multiplies h by, the receiver, sender and recurrent blocks."""
    hd = w_cell.shape[1] // 4
    w1, w_cell = w1.data, w_cell.data
    return (np.concatenate([w1[hd : 2 * hd], w1[2 * hd :], w_cell[:hd]], axis=1),)


@functools.cache
def _head_sum(heads: int, d_head: int) -> Array:
    """[heads * d_head, heads] 0/1 matrix summing each head's columns; read-only."""
    out = np.repeat(np.eye(heads), d_head, axis=0)
    out.flags.writeable = False
    return out


def _reason(graph: GraphBatch, p: ReasonerParams, attend: bool) -> Tensor:
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
    (w_step,) = p.step_weight(l1.w, p.cell.w)

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
    """All-step reasoner: self-attention over each node's step history.

    Returns [n, d_h]: the attended step states summed over steps.
    """
    return _reason(graph, p, attend=True)


def run_rrn(graph: GraphBatch, p: ReasonerParams) -> Tensor:
    """Last-step-only baseline, same iteration as run_msrrn."""
    return _reason(graph, p, attend=False)
