"""Iterative relational reasoning over entity graphs.

Node states exchange messages along edges and an LSTM cell folds each
node's summed incoming message together with its own projected input,
for a fixed number of steps with shared weights. The multi-step
reasoner keeps every intermediate state, lets each node attend over
its own step history with multi-head self-attention, and sums the
attended states. The plain recurrent baseline returns the final step
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .graph import GraphBatch, SynopsisGraph
from .numerics import (
    AffineParams,
    LSTMParams,
    MHAParams,
    MLPParams,
    Tensor,
    affine,
    concat,
    gather_rows,
    init_affine,
    init_lstm,
    init_mha,
    init_mlp,
    lstm_cell,
    mlp_apply,
    multi_head_attention,
    reduce_sum,
    scatter_add_rows,
    stack,
)

Array = np.ndarray

# One graph, or the disjoint union of a batch's graphs; nothing here
# tells them apart, since no pair crosses from one member to another.
Graph = SynopsisGraph | GraphBatch


@dataclass
class ReasonerParams:
    """Shared-across-steps parameters of both reasoner variants."""

    node_in: AffineParams  # d_s -> d_h
    edge_in: AffineParams  # d_s -> d_h
    message_mlp: MLPParams  # 3*d_h -> d_h -> d_h
    cell: LSTMParams  # input 2*d_h, hidden d_h
    step_attention: MHAParams
    steps: int

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    def named(self, prefix: str = "reasoner") -> Iterator[tuple[str, Tensor]]:
        yield from self.node_in.named(f"{prefix}.node_in")
        yield from self.edge_in.named(f"{prefix}.edge_in")
        yield from self.message_mlp.named(f"{prefix}.message_mlp")
        yield from self.cell.named(f"{prefix}.cell")
        yield from self.step_attention.named(f"{prefix}.step_attention")


def init_reasoner(
    rng: np.random.Generator,
    d_s: int,
    d_h: int = 64,
    steps: int = 3,
    heads: int = 4,
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


def _messages(
    h: Tensor,
    recv: Array,
    send: Array,
    e_proj: Tensor,
    num_nodes: int,
    p: ReasonerParams,
) -> Tensor:
    """Per-pair MLP(edge, receiver state, sender state), summed per receiver."""
    h_recv = gather_rows(h, recv)
    h_send = gather_rows(h, send)
    pair_in = concat([e_proj, h_recv, h_send], axis=-1)
    per_pair = mlp_apply(pair_in, p.message_mlp)
    return scatter_add_rows(per_pair, recv, num_nodes)


def message_pass(graph: Graph, h: Tensor, p: ReasonerParams) -> Tensor:
    recv, send, efeat = graph.directed_pairs()
    e_proj = affine(Tensor(efeat), p.edge_in.w, p.edge_in.b)
    return _messages(h, recv, send, e_proj, graph.x.shape[0], p)


def _trace(graph: Graph, p: ReasonerParams) -> list[Tensor]:
    """Hidden state after each step, starting from zero h and c."""
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
        h, c = lstm_cell(h, c, concat([x_proj, m], axis=-1), p.cell)
        states.append(h)
    return states


def run_msrrn(graph: Graph, p: ReasonerParams) -> Tensor:
    """All-step reasoner: self-attention over each node's step history.

    Returns [n, d_h]: the attended step states summed over steps.
    """
    omega = stack(_trace(graph, p), axis=1)  # [n, T, d_h]
    attended = multi_head_attention(omega, omega, omega, p.step_attention)
    return reduce_sum(attended, axis=1)


def run_rrn(graph: Graph, p: ReasonerParams) -> Tensor:
    """Last-step-only baseline, same iteration as run_msrrn."""
    return _trace(graph, p)[-1]
