"""The streams' padding as it ran before unpadded batches were read as views.

Every batch, a lone document included, went through the same layout:
`pad` copied each view into a zero-filled [B, L_max, d] array, and
`relation_stream` scattered the reasoner's node rows into a zero-filled
[B, n_max, d_h] layout with `scatter_rows`, a boolean map from `layout`
giving each member's real positions. `tests/test_unpadded.py` swaps
these in for `mulcom.streams._pad` and `mulcom.model.relation_stream`
and requires the views the streams now read, where nothing is padded,
to give the same logits and gradients bit for bit.
"""

import logging

import numpy as np

from mulcom.msrrn import run_msrrn, run_rrn
from mulcom.numerics import Tensor, scatter_rows
from mulcom.streams import attend

log = logging.getLogger(__name__)


def layout(lengths):
    """The boolean map of real positions in [B, L_max], and the additive
    attention mask, which is None when no row is padded."""
    valid = np.arange(lengths.max()) < lengths[:, None]
    if valid.all():
        return valid, None
    return valid, np.where(valid, 0.0, -np.inf)[:, None, :]


def pad(views):
    """Zero-padded [B, L_max, d] copy of [L_b, d] views, and its mask."""
    valid, mask = layout(np.array([v.shape[0] for v in views]))
    out = np.zeros(valid.shape + views[0].shape[1:])
    for row, v in zip(out, views):
        row[: v.shape[0]] = v
    return out, mask


def relation_stream(graphs, e, reasoner, p, kind="msrrn"):
    """Attention over reasoner node states scattered into a padded layout."""
    sizes = graphs.node_counts
    out_shape = (graphs.n_members, e.shape[0], p.out_proj.w.shape[1])
    present = np.flatnonzero(sizes)
    if present.size < sizes.size:
        log.warning("%d of %d graphs have no entities", sizes.size - present.size, sizes.size)
    if present.size == 0:
        return Tensor(np.zeros(out_shape))
    run = run_msrrn if kind == "msrrn" else run_rrn
    nodes = run(graphs, reasoner)
    valid, mask = layout(sizes[present])
    view = scatter_rows(nodes, valid, valid.shape + nodes.shape[-1:])
    pooled = attend(e, view, p, mask)
    if present.size < sizes.size:
        pooled = scatter_rows(pooled, present, out_shape)
    return pooled
