"""Finite-difference audits of every parameter group, through the model's forward.

Every check probes the same loss: the weighted BCE of a tiny three-stream
MSRRN model's `forward_logits` on a ragged batch, so the padded and
masked path is audited too. A check differs only in which parameters it
probes, chosen by name prefix; `full_model` probes them all. The
component checks therefore audit the records the model runs (the fused
reasoner, the sentence LSTM sequence, the pooled streams and the head),
and a wrong gradient fails under the name of the block it belongs to.
Deterministic in the seed, so a green run stays green.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import GradcheckConfig
from .graph import EntityMentions, FeatureDoc, graph_batch, label_matrix
from .model import ModelConfig, bce_loss, build_model, forward_logits
from .numerics import grad_check, rng_from_seed


@dataclass
class CheckResult:
    name: str
    max_err: float
    seconds: float

    def ok(self, tol: float = GradcheckConfig.tolerance) -> bool:
        return self.max_err < tol


# Each component and the parameter-name prefixes it probes.
CHECKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("message_mlp", ("reasoner.edge_in.", "reasoner.message_mlp.")),
    ("lstm_cell", ("reasoner.cell.", "stream.sentence.sent_rnn.")),
    ("multi_head_attention", ("reasoner.step_attention.",)),
    ("word_stream", ("stream.word.",)),
    ("sentence_stream", ("stream.sentence.",)),
    ("relation_stream", ("stream.relation.", "reasoner.")),
    ("stream_attention", ("trope_embedding", "stream_attn.")),
    ("predictor", ("trope_embedding", "predictor.")),
    ("full_model", ("",)),
)


def _tiny_model(seed: int):
    cfg = ModelConfig(
        num_tropes=3, d_w=4, d_s=5, d_f=8, d_a=8, d_h=8,
        reasoner_steps=2, reasoner_heads=2,
    )
    return build_model(cfg, seed=seed)


def _ragged_docs(rng: np.random.Generator, d_w: int, d_s: int) -> list[FeatureDoc]:
    # Token, sentence and entity counts all differ, so every stream pads
    # and masks. In the first doc ent_a/ent_b share sentence 1 (an edge)
    # and ent_c sits alone in sentence 3 (self-loop only), so both pair
    # kinds get gradients; the last doc has one sentence and one entity.
    shapes = (
        (5, 4, {"ent_a": (0, 1), "ent_b": (1, 2), "ent_c": (3,)}, (0, 2)),
        (3, 2, {"ent_a": (0, 1), "ent_b": (1,)}, (1,)),
        (7, 1, {"ent_a": (0,)}, (0, 1, 2)),
    )
    return [
        FeatureDoc(
            doc_id=f"gradcheck-doc-{i}",
            word_feats=rng.standard_normal((n_words, d_w)),
            sent_feats=rng.standard_normal((n_sents, d_s)),
            entities=[EntityMentions(e, sents) for e, sents in entities.items()],
            labels=labels,
        )
        for i, (n_words, n_sents, entities, labels) in enumerate(shapes)
    ]


def run_gradcheck(
    seed: int = 0,
    eps: float = GradcheckConfig.eps,
    max_coords: int = GradcheckConfig.max_coords,
) -> list[CheckResult]:
    """Run every check; results carry per-check max error and runtime."""
    rngs = [rng_from_seed(seed, stream=50 + i) for i in range(len(CHECKS))]
    model = _tiny_model(seed=9)
    # The batch is drawn from full_model's stream, which then picks its coordinates.
    docs = _ragged_docs(rngs[-1], model.cfg.d_w, model.cfg.d_s)
    graphs = graph_batch(docs)
    targets = label_matrix(docs, model.cfg.num_tropes)
    named = model.named_parameters()

    def loss():
        return bce_loss(forward_logits(model, docs, graphs), targets, pos_weight=2.0)

    results = []
    for (name, prefixes), rng in zip(CHECKS, rngs):
        params = {k: t for k, t in named.items() if k.startswith(prefixes)}
        t0 = time.perf_counter()
        err = grad_check(loss, params, eps=eps, max_coords=max_coords, rng=rng)
        results.append(CheckResult(name, float(err), time.perf_counter() - t0))
    return results
