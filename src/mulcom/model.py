"""Model head and training loop for multi-label trope detection.

A learned trope embedding queries each enabled comprehension stream,
a per-trope softmax over streams mixes the pooled results, and a
shared two-layer predictor maps concat(mixed, embedding) to one logit
per trope. Training minimizes positively-reweighted binary cross
entropy with Adam.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import STREAM_NAMES, ModelConfig, TrainConfig  # noqa: F401 (re-exported)
from .errors import ConfigError, DataFormatError, MulComError, ValidationError
from .graph import FeatureDoc, GraphBatch, graph_batch, label_matrix
# Not called here. perfbench/layer_trace.py looks this name up on this module
# to time graph building, which reads 0 now that batches build their graphs.
from .graph import build_graph  # noqa: F401
from .ioutil import atomic_write_text, canonical_json, read_json
from .metrics import f1 as f1_metric
from .msrrn import ReasonerParams, init_reasoner
from .numerics import (
    MLPParams,
    Tensor,
    add,
    backward,
    concat,
    init_mlp,
    mlp_apply,
    mul,
    neg,
    param,
    reduce_mean,
    reshape,
    retain_heap,
    rng_from_seed,
    slice_last,
    softmax,
    softplus,
    Tape,
)
from .streams import (
    StreamParams,
    init_stream,
    relation_stream,
    sentence_stream,
    word_stream,
)

log = logging.getLogger(__name__)

Array = np.ndarray

CHECKPOINT_FORMAT = "mulcom-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(eq=False)
class MulComModel:
    """Parameter container; all computation lives in module functions."""

    cfg: ModelConfig
    E: Tensor
    streams: dict[str, StreamParams]
    reasoner: ReasonerParams | None
    stream_attn_mlp: MLPParams
    predictor: MLPParams

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {"trope_embedding": self.E}
        for name in self.cfg.streams:
            out.update(self.streams[name].named(f"stream.{name}"))
        if self.reasoner is not None:
            out.update(self.reasoner.named("reasoner"))
        out.update(dict(self.stream_attn_mlp.named("stream_attn")))
        out.update(dict(self.predictor.named("predictor")))
        return out


def build_model(cfg: ModelConfig, seed: int = 0) -> MulComModel:
    rng = rng_from_seed(seed, stream=1)
    E = param(rng.standard_normal((cfg.num_tropes, cfg.d_f)) / math.sqrt(cfg.d_f))
    streams: dict[str, StreamParams] = {}
    reasoner = None
    for name in cfg.streams:
        if name == "word":
            streams[name] = init_stream(rng, cfg.d_w, cfg.d_f, cfg.d_a)
        elif name == "sentence":
            streams[name] = init_stream(
                rng, cfg.d_a, cfg.d_f, cfg.d_a, rnn_input=cfg.d_s
            )
        else:
            reasoner = init_reasoner(
                rng, cfg.d_s, cfg.d_h, cfg.reasoner_steps, cfg.reasoner_heads
            )
            streams[name] = init_stream(rng, cfg.d_h, cfg.d_f, cfg.d_a)
    attn_mlp = init_mlp(rng, (cfg.d_f, cfg.d_f, len(cfg.streams)))
    predictor = init_mlp(rng, (2 * cfg.d_f, cfg.d_f, 1))
    return MulComModel(cfg, E, streams, reasoner, attn_mlp, predictor)


def stream_attention(model: MulComModel) -> Tensor:
    """Per-trope softmax over enabled streams, [num_tropes, n_streams]."""
    return softmax(mlp_apply(model.E, model.stream_attn_mlp), axis=-1)


def organize(
    outputs: dict[str, Tensor], attn: Tensor, order: Sequence[str]
) -> Tensor:
    """Mix per-stream pooled rows with per-trope attention weights."""
    missing = [s for s in order if s not in outputs]
    if missing:
        raise MulComError(f"organize: missing stream outputs {missing}")
    mixed = None
    for s_idx, name in enumerate(order):
        weighted = mul(slice_last(attn, s_idx, s_idx + 1), outputs[name])
        mixed = weighted if mixed is None else add(mixed, weighted)
    return mixed


def predict_logits(model: MulComModel, mixed: Tensor) -> Tensor:
    """One raw logit per trope from concat(mixed row, embedding row).

    `mixed` is [num_tropes, d_f] or a batch [B, num_tropes, d_f]; the
    logits drop the last axis.
    """
    e = add(Tensor(np.zeros(mixed.shape)), model.E)  # E broadcast over the batch
    z = concat([mixed, e], axis=-1)
    return reshape(mlp_apply(z, model.predictor), mixed.shape[:-1])


def bce_loss(logits: Tensor, targets: Array, pos_weight: float = 1.0) -> Tensor:
    """Mean over all cells of p*y*log-loss(+) + (1-y)*log-loss(-).

    Uses softplus identities -log sigmoid(x) = softplus(-x) and
    -log(1 - sigmoid(x)) = softplus(x), so large logits cannot overflow.
    """
    targets = np.asarray(targets)
    if not np.isin(targets, (0, 1)).all():
        raise ValidationError("bce_loss targets must be binary")
    if pos_weight <= 0:
        raise ValidationError(f"pos_weight must be positive, got {pos_weight}")
    y = targets.astype(np.float64)
    if logits.shape != y.shape:
        raise ValidationError(
            f"bce_loss shapes differ: logits {logits.shape}, targets {y.shape}"
        )
    pos = mul(Tensor(pos_weight * y), softplus(neg(logits)))
    neg_term = mul(Tensor(1.0 - y), softplus(logits))
    return reduce_mean(add(pos, neg_term))


def forward_logits(
    model: MulComModel,
    docs: Sequence[FeatureDoc],
    graphs: GraphBatch | None = None,
) -> Tensor:
    """Raw per-trope logits [len(docs), num_tropes], recorded on one tape.

    `graphs`, when given, is the union of the entity graphs of `docs`,
    one member per doc in order; otherwise it is built here when the
    relation stream needs it.
    """
    retain_heap()
    if not docs:
        raise ValidationError("forward_logits: empty batch")
    if graphs is not None and graphs.n_members != len(docs):
        raise ValidationError(
            f"forward_logits: {graphs.n_members} graphs for {len(docs)} docs"
        )
    cfg = model.cfg
    outs: dict[str, Tensor] = {}
    for name in cfg.streams:
        if name == "word":
            outs[name] = word_stream(
                docs, model.E, model.streams[name], cfg.max_word_tokens
            )
        elif name == "sentence":
            outs[name] = sentence_stream(docs, model.E, model.streams[name])
        else:
            outs[name] = relation_stream(
                graphs if graphs is not None else graph_batch(docs),
                model.E, model.reasoner, model.streams[name], kind=cfg.relation_reasoner,
            )
    mixed = organize(outs, stream_attention(model), cfg.streams)
    return predict_logits(model, mixed)


def forward(
    model: MulComModel,
    docs: Sequence[FeatureDoc],
    graphs: GraphBatch | None = None,
) -> Array:
    """Per-trope scores in (0, 1), [len(docs), num_tropes]; no gradients."""
    logits = forward_logits(model, docs, graphs)
    with np.errstate(over="ignore"):  # exp(-logit) = inf below -709 gives score 0
        return 1.0 / (1.0 + np.exp(-logits.data))


# Docs per forward pass when scoring. Larger chunks cut per-op overhead
# but pad more; scores agree across chunk sizes to rounding (1e-12).
SCORE_CHUNK = 32


def score_dataset(
    model: MulComModel,
    docs: Sequence[FeatureDoc],
    graphs: GraphBatch | None = None,
) -> Array:
    """Scores of `docs`, a chunk at a time; `graphs` as in `forward_logits`."""
    scores = np.zeros((len(docs), model.cfg.num_tropes))
    for lo in range(0, len(docs), SCORE_CHUNK):
        hi = min(lo + SCORE_CHUNK, len(docs))
        chunk_graphs = None if graphs is None else graphs.select(range(lo, hi))
        scores[lo:hi] = forward(model, docs[lo:hi], chunk_graphs)
    return scores


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    The parameters' values move into one contiguous buffer, each
    parameter's `data` becoming a view of its segment, so a step is one
    vectorized update over every parameter that has a gradient.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        tensors = self.params.values()
        self.flat = np.concatenate([np.zeros(0)] + [t.data.reshape(-1) for t in tensors])
        self.spans: list[tuple[int, int]] = []
        lo = 0
        for t in tensors:
            self.spans.append((lo, lo + t.size))
            t.data = self.flat[lo : lo + t.size].reshape(t.shape)
            lo += t.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)  # the gathered gradient
        self._a = np.empty_like(self.flat)  # a work buffer

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        runs: list[list[int]] = []  # maximal runs of parameters with a gradient
        for t, (lo, hi) in zip(self.params.values(), self.spans):
            if t.grad is None:
                continue  # its data, m and v stay as they are
            self._g[lo:hi] = t.grad.reshape(-1)
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        for lo, hi in runs:
            m, v, g, a = self.m[lo:hi], self.v[lo:hi], self._g[lo:hi], self._a[lo:hi]
            # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, evaluated in place
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            # data -= lr * (m/b1c) / (sqrt(v/b2c) + eps), reusing g as a work buffer
            np.divide(m, b1c, out=a)
            a *= self.lr
            np.divide(v, b2c, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            a /= g
            self.flat[lo:hi] -= a

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    val_micro_f1: list[float] = field(default_factory=list)
    pos_weight: float = 1.0
    epochs_run: int = 0
    stopped_early: bool = False


def default_pos_weight(y: Array) -> float:
    """Negative/positive cell ratio of the split, clamped to [1, 20]."""
    pos = float(y.sum())
    if pos == 0:
        return 1.0
    ratio = (y.size - pos) / pos
    return float(min(max(ratio, 1.0), 20.0))


def train(
    model: MulComModel,
    docs: Sequence[FeatureDoc],
    cfg: TrainConfig,
    val_docs: Sequence[FeatureDoc] | None = None,
) -> TrainResult:
    """Mini-batch Adam on weighted BCE; optional early stop on val F1."""
    if not docs:
        raise ValidationError("train: empty training split")
    retain_heap()  # before Adam's buffers and the graphs, which live the whole run
    num_tropes = model.cfg.num_tropes
    y = label_matrix(docs, num_tropes)
    pos_weight = cfg.pos_weight if cfg.pos_weight is not None else default_pos_weight(y)
    # each split's graphs are built once; a step selects its batch's members
    relation = "relation" in model.cfg.streams
    graphs = graph_batch(docs) if relation else None
    val_graphs = graph_batch(val_docs) if relation and val_docs is not None else None
    val_y = label_matrix(val_docs, num_tropes) if val_docs is not None else None

    params = model.named_parameters()
    opt = Adam(params, lr=cfg.learning_rate)
    shuffle_rng = rng_from_seed(cfg.seed, stream=3)
    result = TrainResult(pos_weight=pos_weight)

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(docs))
        batch_losses = []
        for start in range(0, len(docs), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            batch = [docs[i] for i in idx]
            tape = Tape()
            with tape:
                logits = forward_logits(
                    model, batch, None if graphs is None else graphs.select(idx)
                )
                loss = bce_loss(logits, y[idx], pos_weight)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise MulComError(
                    f"non-finite loss {loss_val} at epoch {epoch} "
                    f"batch starting {start} (docs {[d.doc_id for d in batch]})"
                )
            backward(loss, tape)
            opt.step()
            batch_losses.append(loss_val)
        epoch_loss = float(np.mean(batch_losses))
        result.epoch_losses.append(epoch_loss)
        result.epochs_run = epoch + 1

        msg = f"epoch {epoch + 1}/{cfg.epochs} loss {epoch_loss:.4f}"
        if val_docs is not None:
            scores = score_dataset(model, val_docs, val_graphs)
            preds = (scores >= cfg.threshold).astype(np.int64)
            val_f1 = f1_metric(preds, val_y, mode="micro")
            result.val_micro_f1.append(val_f1)
            msg += f" val micro-F1 {val_f1:.2f}"
            if cfg.early_stop_f1 is not None and val_f1 >= cfg.early_stop_f1:
                log.info("%s (early stop)", msg)
                result.stopped_early = True
                break
        log.info(msg)
    return result


def save_checkpoint(model: MulComModel, path: str) -> None:
    """Bit-exact JSON container of config and every named parameter."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.cfg.to_dict(),
        "params": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in model.named_parameters().items()
        },
    }
    atomic_write_text(path, canonical_json(payload) + "\n")


def load_checkpoint(path: str) -> MulComModel:
    """Rebuild a saved model; any malformed content is a DataFormatError."""
    try:
        payload = read_json(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"checkpoint {path}: cannot read: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"checkpoint {path}: invalid JSON: {exc}", path=path)
    if not isinstance(payload, dict):
        raise DataFormatError(
            f"checkpoint {path}: expected a JSON object, got {type(payload).__name__}",
            path=path,
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(
            f"checkpoint {path}: unexpected format {payload.get('format')!r}",
            path=path,
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"checkpoint {path}: unsupported version {payload.get('version')!r}",
            path=path,
        )
    for key in ("config", "params"):
        if not isinstance(payload.get(key), dict):
            raise DataFormatError(
                f"checkpoint {path}: {key!r} is missing or not a JSON object",
                path=path,
            )
    try:
        model = build_model(ModelConfig.from_dict(payload["config"]), seed=0)
    except ConfigError as exc:
        raise DataFormatError(f"checkpoint {path}: {exc}", path=path) from exc
    params = model.named_parameters()
    stored = payload["params"]
    if set(stored) != set(params):
        raise DataFormatError(
            f"checkpoint {path}: parameter names do not match the config",
            path=path,
        )
    for name, t in params.items():
        entry = stored[name]
        try:
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(
                f"checkpoint {path}: malformed entry for {name}: {exc!r}", path=path
            ) from exc
        if shape != t.shape:
            raise DataFormatError(
                f"checkpoint {path}: {name} has shape {shape}, expected {t.shape}",
                path=path,
            )
        if data.shape != (t.size,):
            raise DataFormatError(
                f"checkpoint {path}: {name} holds data of shape {data.shape}, "
                f"expected {t.size} values",
                path=path,
            )
        if not np.isfinite(data).all():
            raise DataFormatError(
                f"checkpoint {path}: {name} holds non-finite values", path=path
            )
        t.data[...] = data.reshape(shape)
    return model
