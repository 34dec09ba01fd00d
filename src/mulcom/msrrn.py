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
update (`numerics.lstm_update`), which takes the sigmoid gates'
pre-activations halved. What depends on the parameters alone is formed
once per weight state and kept on them (`ReasonerParams.folded`):
W_rs = [W1_recv | W1_send] ([h, 2h]), message layer 1's receiver and
sender blocks side by side; the gate product W_mh = [W2 W_m ; W_h]
([2h, 4h]), message layer 2 folded through the cell's message block
over the cell's recurrent block; the prologue product
W_aug = [W_x ; b2 W_m ; b_cell] ([h+2, 4h]), the cell's node-input
block over the folded message bias and the cell bias; and the edge
projection folded through message layer 1's edge block. W_mh and W_aug
have the sigmoid gates' columns halved, which is exact, so each step's
pre-activations come out halved with no pass of their own.

What no step changes is computed once per call: the node input
projection x_proj, the edge block of message layer 1 (one [P, d_s] @
[d_s, h] product), and, in one product of the rows
[x_proj | in-degree | 1] with W_aug, every step's pre-activations but
the message and recurrent parts, biases and each node's count of
received pairs times the folded message bias included. The node input
projection stays unfolded: through the cell's block it would be
x @ [d_s, 4h], less work only while 3 d_s < 4 h. The folds reassociate
products, so the states agree with the unfolded order to rounding, not
bit for bit. A step multiplies h_{t-1} by W_rs, gathers its receiver
and sender halves per pair, sums the relu'd rows per receiver over
pairs sorted by receiver, copies the sums and h_{t-1} side by side
into the rows Z_t = [summed_t | h_{t-1}], and multiplies Z_t by W_mh
straight into the pre-activations (the first step, with h_{-1} = 0,
multiplies the sums by W_mh's message block alone); then the
prologue's product is added and the cell updated. One [N, 2h] buffer
holds Z_t for every step; the sums and the states are kept apart,
each [T, N, h] and contiguous, as the backward and the attention
read them. The cell keeps its gate activations gate-major
([T, 4, N, h]), so its elementwise passes, forward and backward, run on
contiguous [N, h] blocks. The step attention projects q, k and v as
three contiguous [T*N, h] blocks, one batched product of the states
with the [3, h, h] view of the joined [h, 3h] weight; it scores every
(key step, query step) pair in one product on contiguous rows, spreads
each head's weight over its columns with one product, and sums over
steps before the output projection, since the sum of ctx_t @ W_o over
t is (sum of ctx_t) @ W_o. The cell's gates and the attention's q, k
and v projections are stored joined ([3h, 4h] and [h, 3h]), so the
record reads them as they are.

The backward pass gives each parameter of the composite blocks its own
gradient, so their names, shapes and checkpoints are unchanged. The
step attention's query and key gradients are two products batched over
(node, head), of the score gradient, node-major [N, heads, key step,
query step], with the keys or queries, [N, heads, T, d_head], written
into the joined [T*N, 3h] gradient that w_qkv's weight and input
gradients read in one product each; then its forward buffers are
dropped before the recurrence's backward allocates. Each step's gate
gradient meets the cell in one product with (W_mh unhalved)^T,
[4h, 2h] and formed once per backward: its first h columns are the
summed messages' gradient, which goes back through the pairs, and its
last h the recurrent gradient reaching h_{t-1}. The per-step gradient
kept for the weights holds only message layer 1's receiver and sender
blocks ([T-1, N, 2h]). One product of the kept sums with the gate
gradients gives the summed messages' weight gradient, one of the
states with the next steps' gate gradients the cell's recurrent
block's, and one of the prologue rows with the gate gradients summed
over steps the node-input block's, the folded message bias's and the
cell bias's. These products group sums
differently from one key step at a time, so the gradients agree with
that order to rounding, not bit for bit.
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
        self.folded = Derived(_folded)  # of the tensors `_folded` takes, in order

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


def _folded(
    w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    w_cell: Tensor, b_cell: Tensor, w_edge: Tensor, b_edge: Tensor,
) -> tuple[Array, ...]:
    """The reasoner's parameter-only products, the cell's sigmoid gate columns halved.

    Of message layers 1 (`w1`, `b1`) and 2 (`w2`, `b2`), the cell and the
    edge projection: the receiver and sender blocks of message layer 1
    side by side ([h, 2h], what a step multiplies h_{t-1} by), the gate
    product [W2 W_m ; W_h] ([2h, 4h], what a step multiplies [summed |
    h_{t-1}] by), the prologue product [W_x ; b2 W_m ; b_cell] ([h+2, 4h],
    what [x_proj | in-degree | 1] is multiplied by once per call), and
    the edge projection through message layer 1 ([d_s, h] and [h]).
    """
    hd = w2.shape[0]
    half = gate_scale(hd)
    w1, w_cell = w1.data, w_cell.data
    w1_e, w_msg = w1[:hd], w_cell[2 * hd :] * half
    w_mh = np.empty((2 * hd, 4 * hd))
    np.matmul(w2.data, w_msg, out=w_mh[:hd])
    np.multiply(w_cell[:hd], half, out=w_mh[hd:])
    w_aug = np.empty((hd + 2, 4 * hd))
    np.multiply(w_cell[hd : 2 * hd], half, out=w_aug[:hd])
    np.matmul(b2.data, w_msg, out=w_aug[hd])
    np.multiply(b_cell.data, half, out=w_aug[hd + 1])
    return (
        np.concatenate([w1[hd : 2 * hd], w1[2 * hd :]], axis=1),
        w_mh,
        w_aug,
        w_edge.data @ w1_e,
        b_edge.data @ w1_e + b1.data,
    )


@functools.cache
def _head_sum(heads: int, d_head: int) -> Array:
    """[heads * d_head, heads] 0/1 matrix summing each head's columns; read-only."""
    out = np.repeat(np.eye(heads), d_head, axis=0)
    out.flags.writeable = False
    return out


def _by_head(a: Array, heads: int) -> Array:
    """[T, N, h] step-major rows viewed node-major as [N, heads, T, d_head]."""
    n_t, n, hd = a.shape
    return a.reshape(n_t, n, heads, hd // heads).transpose(1, 2, 0, 3)


def _reason(graph: GraphBatch, p: ReasonerParams, attend: bool) -> Tensor:
    """The reasoner's [N, h] node output as one tape record.

    `attend` gives the step-attended states summed over steps (MSRRN);
    otherwise the last step's states (RRN), and the step attention's
    parameters stay off the tape. States start at zero h and c. Each
    receiver adds its pairs' rows in pair order, as a scatter-add would.
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
    w_rs, w_mh, w_aug, w_e, b_e = p.folded(
        l1.w, l1.b, l2.w, l2.b, p.cell.w, p.cell.b, p.edge_in.w, p.edge_in.b
    )

    # the prologue rows [x_proj | in-degree | 1]: one product gives every step's
    # pre-activations but the message and recurrent parts, biases included
    x_aug = np.empty((n, hd + 2))
    x_aug[:, :hd] = x @ p.node_in.w.data + p.node_in.b.data  # x_proj
    x_aug[:, hd] = segs.counts
    x_aug[:, hd + 1] = 1.0
    act_x = x_aug @ w_aug
    pre_e = efeat @ w_e + b_e  # the edge block of message layer 1

    # Without a tape every step reuses one slot; only the states are kept for attention.
    slot = list(range(n_t)) if keep else [0] * n_t
    depth = n_t if keep else 1
    act = np.empty((depth, 4, n, hd))  # gate activations, gate-major
    c = np.empty((depth, n, hd))
    tc = np.empty((depth, n, hd))  # tanh(c)
    relu = np.empty((depth, recv.shape[0], hd))  # message layer 1 after relu
    summed = np.empty((depth, n, hd))  # per-receiver sums of `relu`
    hs = np.empty((n_t, n, hd))
    z = np.empty((n, 2 * hd))  # the step's gate-product rows [summed_t | h_{t-1}]
    y = np.empty((n, 2 * hd))
    a = np.empty((n, 4 * hd))  # the step's gate pre-activations, the sigmoid gates' halved
    a4 = a.reshape(n, 4, hd).transpose(1, 0, 2)  # gate-major view, what `lstm_update` reads
    for t in range(n_t):
        s = slot[t]
        if t:
            np.matmul(hs[t - 1], w_rs, out=y)
            pre = y[recv, :hd]
            pre += pre_e
            pre += y[send, hd:]
            np.maximum(pre, 0.0, out=relu[s])
            z[:, :hd] = segs.sum(relu[s], out=summed[s])
            z[:, hd:] = hs[t - 1]
            np.matmul(z, w_mh, out=a)
        else:  # h_{-1} = 0: the message block alone
            np.maximum(pre_e, 0.0, out=relu[s])
            np.matmul(segs.sum(relu[s], out=summed[s]), w_mh[:hd], out=a)
        a += act_x
        lstm_update(a4, act[s], c[slot[t - 1]] if t else None, c[s], tc[s], hs[t])

    if attend:
        heads = mha.heads
        d_head = hd // heads
        scale = 1.0 / math.sqrt(d_head)
        head_sum = _head_sum(heads, d_head)
        w_qkv = mha.w_qkv.data
        h_flat = hs.reshape(n_t * n, hd)
        # q, k and v as three contiguous [T*N, h] blocks, one product batched over them
        qkv = np.matmul(h_flat, w_qkv.reshape(hd, 3, hd).transpose(1, 0, 2))
        q, k, v = qkv.reshape(3, n_t, n, hd)
        # [key step, query step, N, heads], every pair of steps in one product
        scores = (k[:, None] * q[None]).reshape(n_t * n_t * n, hd) @ head_sum
        attn = scores.reshape(n_t, n_t, n, heads)
        attn *= scale
        attn -= attn.max(axis=0)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=0)
        weight = attn.sum(axis=1)  # each key step's weight summed over query steps
        spread = (weight.reshape(n_t * n, heads) @ head_sum.T).reshape(n_t, n, hd)
        spread *= v
        ctx = spread.sum(axis=0)
        out = Tensor(ctx @ mha.w_o.data)
        # the backward's only references, dropped before the recurrence's backward allocates
        held = [qkv, attn, weight]
    else:
        out = Tensor(hs[-1])
    if not keep:
        return out
    half = gate_scale(hd)

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        grads: dict[Tensor, Array] = {}
        if attend:
            qkv, attn, weight = held
            q, k, v = qkv.reshape(3, n_t, n, hd)
            grads[mha.w_o] = ctx.T @ gout
            d_ctx = gout @ mha.w_o.data.T
            # joined as w_qkv's columns, so its weight and input gradients are one product each
            d_qkv = np.empty((n_t * n, 3 * hd))
            dq, dk, dv = d_qkv.reshape(n_t, n, 3, hd).transpose(2, 0, 1, 3)
            np.matmul(weight.reshape(n_t * n, heads), head_sum.T, out=dv.reshape(n_t * n, hd))
            dv *= d_ctx
            d_weight = ((v * d_ctx).reshape(n_t * n, hd) @ head_sum).reshape(n_t, n, heads)
            d_scores = attn * (d_weight[:, None] - (attn * d_weight[:, None]).sum(axis=0))
            d_scores *= scale
            # node-major: scores [N, heads, key step, query step], q, k and their
            # gradients [N, heads, step, d_head], one product over (node, head) each
            ds = d_scores.transpose(2, 3, 0, 1)
            np.matmul(ds.swapaxes(2, 3), _by_head(k, heads), out=_by_head(dq, heads))
            np.matmul(ds, _by_head(q, heads), out=_by_head(dk, heads))
            grads[mha.w_qkv] = h_flat.T @ d_qkv
            gh = (d_qkv @ w_qkv.T).reshape(n_t, n, hd)
            held.clear()
            del qkv, q, k, v, attn, weight, d_qkv, dq, dk, dv, d_scores, ds
            del d_weight, d_ctx
        else:
            gh = np.zeros((n_t, n, hd))
            gh[-1] = gout

        # `lstm_update_backward` gives the gradients of the unhalved pre-activations,
        # so the steps read the gate product unhalved, `w_mh` doubled back exactly.
        # One product of a step's gate gradient with its transpose gives the summed
        # messages' gradient (its first h columns) and the recurrent gradient
        # reaching h_{t-1} (its last h).
        w1, w2, w_cell = l1.w.data, l2.w.data, p.cell.w.data  # rows of w_cell: h, x_proj, m
        w_msg = w_cell[2 * hd :]
        w_gate = (w_mh / half).T  # [4h, 2h]
        w_rs_t = w_rs.T  # message layer 1's receiver and sender blocks
        d_pre = np.empty((n_t, recv.shape[0], hd))  # d loss / d message layer 1 pre-relu
        d_step = np.empty((max(n_t - 1, 0), n, 2 * hd))  # d loss / d (h_{t-1} @ w_rs)
        send_segs = Segments.by_index(send, n) if n_t > 1 else None

        def step(t: int, d_act_t: Array) -> Array | None:
            """Back through step t's messages; the gradient reaching h_{t-1}."""
            if not t:  # the first step reads h = 0
                np.multiply((d_act_t @ w_gate[:, :hd])[recv], relu[0] > 0.0, out=d_pre[0])
                return None
            d_gate = d_act_t @ w_gate
            np.multiply(d_gate[recv, :hd], relu[t] > 0.0, out=d_pre[t])
            ds_t = d_step[t - 1]
            segs.sum(d_pre[t], out=ds_t[:, :hd])
            send_segs.sum(d_pre[t], out=ds_t[:, hd:])
            d_h = ds_t @ w_rs_t
            d_h += d_gate[:, hd:]
            return d_h

        d_act = lstm_update_backward(act, c, tc, gh, step)
        d_act_x = d_act.sum(axis=0)
        # Σ_t segsum(relu_t)^T d_t, what the message fold's weights read
        d_sum = summed.reshape(n_t * n, hd).T @ d_act.reshape(n_t * n, 4 * hd)
        # x_proj's block, Σ_t deg^T d_t and the cell bias's gradient
        d_aug = x_aug.T @ d_act_x
        d_deg = d_aug[hd]
        dw_cell = np.empty_like(w_cell)
        if n_t > 1:  # the recurrent block's Σ_t h_{t-1}^T d_t, h_{-1} = 0
            np.matmul(hs[:-1].reshape(-1, hd).T, d_act[1:].reshape(-1, 4 * hd), out=dw_cell[:hd])
        else:
            dw_cell[:hd] = 0.0
        dw_cell[hd : 2 * hd] = d_aug[:hd]
        np.matmul(w2.T, d_sum, out=dw_cell[2 * hd :])
        dw_cell[2 * hd :] += np.outer(l2.b.data, d_deg)
        dw1 = np.empty_like(w1)
        if n_t > 1:
            dw_rs = hs[:-1].reshape(-1, hd).T @ d_step.reshape(-1, 2 * hd)
            dw1[hd : 2 * hd] = dw_rs[:, :hd]
            dw1[2 * hd :] = dw_rs[:, hd:]
        else:  # the only step reads h = 0
            dw1[hd:] = 0.0
        d_pre_e = d_pre.sum(axis=0)
        d_b1 = d_pre_e.sum(axis=0)
        d_w_e = efeat.T @ d_pre_e  # [d_s, h], what the edge fold's weights read
        w1_e = w1[:hd]
        dw1[:hd] = p.edge_in.w.data.T @ d_w_e
        dw1[:hd] += np.outer(p.edge_in.b.data, d_b1)
        grads[p.cell.w] = dw_cell
        grads[p.cell.b] = d_aug[hd + 1].copy()  # a view would keep all of d_aug alive
        grads[l1.w] = dw1
        grads[l1.b] = d_b1
        grads[l2.w] = d_sum @ w_msg.T
        grads[l2.b] = d_deg @ w_msg.T
        grads[p.edge_in.w] = d_w_e @ w1_e.T
        grads[p.edge_in.b] = d_b1 @ w1_e.T
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
