"""Finite-difference audits of every parameterized block.

Each check builds a small random fixture, runs the tape backward pass,
and compares against central differences through the real code paths
(`message_pass`, the stream entry points, the full model forward on a
ragged batch, so the padded and masked path is audited too).
Deterministic in the seed, so a green run stays green.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import GradcheckConfig
from .graph import EntityMentions, FeatureDoc, build_graph, graph_batch, label_matrix
from .model import ModelConfig, bce_loss, build_model, forward_logits, predict_logits, stream_attention
from .msrrn import init_reasoner, message_pass
from .numerics import (
    Tensor,
    add,
    grad_check,
    init_lstm,
    init_mha,
    lstm_cell,
    mul,
    multi_head_attention,
    param,
    reduce_sum,
    rng_from_seed,
)
from .streams import init_stream, relation_stream, sentence_stream, word_stream

Array = np.ndarray


@dataclass
class CheckResult:
    name: str
    max_err: float
    seconds: float

    def ok(self, tol: float = GradcheckConfig.tolerance) -> bool:
        return self.max_err < tol


def _tiny_doc(rng: np.random.Generator, d_w: int, d_s: int) -> FeatureDoc:
    # ent_a/ent_b share sentence 1 (an edge); ent_c sits alone in
    # sentence 3 (self-loop only), so both pair kinds get gradients.
    return FeatureDoc(
        doc_id="gradcheck-doc",
        word_feats=rng.standard_normal((5, d_w)),
        sent_feats=rng.standard_normal((4, d_s)),
        entities=[
            EntityMentions("ent_a", (0, 1)),
            EntityMentions("ent_b", (1, 2)),
            EntityMentions("ent_c", (3,)),
        ],
        labels=(0, 2),
    )


def _weighted_sum(out: Tensor, w: Tensor) -> Tensor:
    return reduce_sum(mul(out, w))


def _check_message_mlp(rng, eps, max_coords):
    d_s, d_h = 5, 6
    p = init_reasoner(rng, d_s=d_s, d_h=d_h, steps=1, heads=2)
    graph = build_graph(_tiny_doc(rng, 4, d_s))
    h = param(rng.standard_normal((graph.n_nodes, d_h)))
    w = Tensor(rng.standard_normal((graph.n_nodes, d_h)))
    params = {"h": h}
    params.update(p.edge_in.named("edge_in"))
    params.update(p.message_mlp.named("message_mlp"))
    return grad_check(
        lambda: _weighted_sum(message_pass(graph, h, p), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _check_lstm_cell(rng, eps, max_coords):
    d_in, d_h, n = 5, 6, 3
    p = init_lstm(rng, d_in, d_h)
    h = param(rng.standard_normal((n, d_h)))
    c = param(rng.standard_normal((n, d_h)))
    x = param(rng.standard_normal((n, d_in)))
    wh = Tensor(rng.standard_normal((n, d_h)))
    wc = Tensor(rng.standard_normal((n, d_h)))
    params = {"h": h, "c": c, "x": x}
    params.update(p.named("cell"))

    def f():
        h2, c2 = lstm_cell(h, c, x, p)
        return add(_weighted_sum(h2, wh), _weighted_sum(c2, wc))

    return grad_check(f, params, eps=eps, max_coords=max_coords, rng=rng)


def _check_multi_head_attention(rng, eps, max_coords):
    d, heads, n, length = 6, 2, 2, 4
    p = init_mha(rng, d, heads)
    x = param(rng.standard_normal((n, length, d)))
    w = Tensor(rng.standard_normal((n, length, d)))
    params = {"x": x}
    params.update(p.named("mha"))
    return grad_check(
        lambda: _weighted_sum(multi_head_attention(x, x, x, p), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _check_word_stream(rng, eps, max_coords):
    d_w, d_s, d_f, d_a, tropes = 4, 5, 6, 5, 3
    doc = _tiny_doc(rng, d_w, d_s)
    p = init_stream(rng, d_w, d_f, d_a)
    e = param(rng.standard_normal((tropes, d_f)))
    w = Tensor(rng.standard_normal((tropes, d_f)))
    params = {"trope_embedding": e}
    params.update(p.named("word"))
    return grad_check(
        lambda: _weighted_sum(word_stream([doc], e, p, ModelConfig.max_word_tokens), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _check_sentence_stream(rng, eps, max_coords):
    d_w, d_s, d_f, d_a, tropes = 4, 5, 6, 5, 3
    doc = _tiny_doc(rng, d_w, d_s)
    p = init_stream(rng, d_a, d_f, d_a, rnn_input=d_s)
    e = param(rng.standard_normal((tropes, d_f)))
    w = Tensor(rng.standard_normal((tropes, d_f)))
    params = {"trope_embedding": e}
    params.update(p.named("sentence"))
    return grad_check(
        lambda: _weighted_sum(sentence_stream([doc], e, p), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _check_relation_stream(rng, eps, max_coords):
    d_w, d_s, d_f, d_a, d_h, tropes = 4, 5, 6, 5, 6, 3
    graphs = graph_batch([_tiny_doc(rng, d_w, d_s)])
    reasoner = init_reasoner(rng, d_s=d_s, d_h=d_h, steps=2, heads=2)
    p = init_stream(rng, d_h, d_f, d_a)
    e = param(rng.standard_normal((tropes, d_f)))
    w = Tensor(rng.standard_normal((tropes, d_f)))
    params = {"trope_embedding": e}
    params.update(p.named("relation"))
    params.update(reasoner.named("reasoner"))
    return grad_check(
        lambda: _weighted_sum(relation_stream(graphs, e, reasoner, p), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _tiny_model(seed: int):
    cfg = ModelConfig(
        num_tropes=3, d_w=4, d_s=5, d_f=8, d_a=8, d_h=8,
        reasoner_steps=2, reasoner_heads=2,
    )
    return build_model(cfg, seed=seed)


def _check_stream_attention(rng, eps, max_coords):
    model = _tiny_model(seed=7)
    w = Tensor(rng.standard_normal((3, len(model.cfg.streams))))
    named = model.named_parameters()
    params = {
        k: v for k, v in named.items()
        if k == "trope_embedding" or k.startswith("stream_attn.")
    }
    return grad_check(
        lambda: _weighted_sum(stream_attention(model), w),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _check_predictor(rng, eps, max_coords):
    model = _tiny_model(seed=8)
    mixed = param(rng.standard_normal((3, model.cfg.d_f)))
    targets = np.array([1.0, 0.0, 1.0])
    named = model.named_parameters()
    params = {
        k: v for k, v in named.items()
        if k == "trope_embedding" or k.startswith("predictor.")
    }
    params["mixed"] = mixed
    return grad_check(
        lambda: bce_loss(predict_logits(model, mixed), targets, pos_weight=1.7),
        params, eps=eps, max_coords=max_coords, rng=rng,
    )


def _ragged_docs(rng: np.random.Generator, d_w: int, d_s: int) -> list[FeatureDoc]:
    # Token, sentence and entity counts all differ, so every stream pads
    # and masks; the last doc has one sentence and one self-loop entity.
    return [
        _tiny_doc(rng, d_w, d_s),
        FeatureDoc(
            doc_id="gradcheck-doc-2",
            word_feats=rng.standard_normal((3, d_w)),
            sent_feats=rng.standard_normal((2, d_s)),
            entities=[EntityMentions("ent_a", (0, 1)), EntityMentions("ent_b", (1,))],
            labels=(1,),
        ),
        FeatureDoc(
            doc_id="gradcheck-doc-3",
            word_feats=rng.standard_normal((7, d_w)),
            sent_feats=rng.standard_normal((1, d_s)),
            entities=[EntityMentions("ent_a", (0,))],
            labels=(0, 1, 2),
        ),
    ]


def _check_full_model(rng, eps, max_coords):
    model = _tiny_model(seed=9)
    docs = _ragged_docs(rng, model.cfg.d_w, model.cfg.d_s)
    graphs = graph_batch(docs)
    targets = label_matrix(docs, model.cfg.num_tropes)
    return grad_check(
        lambda: bce_loss(forward_logits(model, docs, graphs), targets, pos_weight=2.0),
        model.named_parameters(), eps=eps, max_coords=max_coords, rng=rng,
    )


CHECKS: tuple[tuple[str, Callable], ...] = (
    ("message_mlp", _check_message_mlp),
    ("lstm_cell", _check_lstm_cell),
    ("multi_head_attention", _check_multi_head_attention),
    ("word_stream", _check_word_stream),
    ("sentence_stream", _check_sentence_stream),
    ("relation_stream", _check_relation_stream),
    ("stream_attention", _check_stream_attention),
    ("predictor", _check_predictor),
    ("full_model", _check_full_model),
)


def run_gradcheck(
    seed: int = 0,
    eps: float = GradcheckConfig.eps,
    max_coords: int = GradcheckConfig.max_coords,
) -> list[CheckResult]:
    """Run every check; results carry per-check max error and runtime."""
    results = []
    for i, (name, fn) in enumerate(CHECKS):
        rng = rng_from_seed(seed, stream=50 + i)
        t0 = time.perf_counter()
        err = fn(rng, eps, max_coords)
        results.append(CheckResult(name, float(err), time.perf_counter() - t0))
    return results
