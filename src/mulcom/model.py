"""Model head and training loop for multi-label trope detection.

A learned trope embedding queries each enabled comprehension stream,
a per-trope softmax over streams mixes the pooled results, and a
shared two-layer predictor maps concat(mixed, embedding) to one logit
per trope. The head is one tape record with a hand-derived backward
pass, like the streams' pooling. The stream mix and the predictor's
embedding half depend only on the parameters, so they are computed
once per weight state and kept on the model (`MulComModel.stream_mix`
and `MulComModel.embedding_half`): once per training step, after Adam
wrote the weights, and once for all the forward passes of a scoring
run. Training minimizes positively-reweighted binary cross entropy
with Adam.
"""

from __future__ import annotations

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
from .ioutil import read_envelope, write_json
from .metrics import f1 as f1_metric, is_binary
from .msrrn import ReasonerParams, init_reasoner
from .numerics import (
    AffineParams,
    Derived,
    MLPParams,
    Tensor,
    backward,
    expit,
    init_mlp,
    param,
    record,
    retain_heap,
    rng_from_seed,
    Tape,
    write,
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
    """Parameter container; all computation lives in module functions.

    It keeps the head's products of parameters alone: `stream_mix` of
    (E, then the stream-mix MLP's weights and biases by layer) and
    `embedding_half` of (E, then the predictor's first weight and bias).
    """

    cfg: ModelConfig
    E: Tensor
    streams: dict[str, StreamParams]
    reasoner: ReasonerParams | None
    stream_attn_mlp: MLPParams
    predictor: MLPParams

    def __post_init__(self) -> None:
        self.stream_mix = Derived(_stream_mix)
        self.embedding_half = Derived(_embedding_half)

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


def _layers(x: Array, layers: Sequence[AffineParams]) -> list[Array]:
    """Each layer's input, then the output, of the affine `layers` on `x`.

    A relu follows every layer but the last, as in `mlp_apply`, whose
    values these are bit for bit.
    """
    acts = [x]
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = acts[-1] @ layer.w.data
        z += layer.b.data
        acts.append(z if i == last else np.maximum(z, 0.0, out=z))
    return acts


def _layers_backward(
    acts: list[Array], layers: Sequence[AffineParams], g: Array, grads: dict
) -> Array:
    """Back through `_layers` from `g`, the gradient of its output rows.

    Puts each layer's weight and bias gradient in `grads`, keyed by the
    parameter, and returns the gradient of the input rows.
    """
    for i in range(len(layers) - 1, -1, -1):
        w = layers[i].w.data
        x = acts[i].reshape(-1, w.shape[0])
        grads[layers[i].w] = x.T @ g
        grads[layers[i].b] = g.sum(axis=0)
        g = g @ w.T
        if i > 0:
            g *= x > 0  # the relu after layer i - 1
    return g


def _stream_mix(e: Tensor, *wb: Tensor) -> tuple[Array, ...]:
    """The stream-mix MLP's hidden rows on `e`, then its softmax over streams.

    `wb` holds each layer's weight and bias in turn. The hidden rows are
    `_layers`' inner values, which the head's backward pass reads.
    """
    acts = _layers(e.data, [AffineParams(w, b) for w, b in zip(wb[::2], wb[1::2])])
    w = acts[-1]
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return tuple(acts[1:])


def _embedding_half(e: Tensor, w: Tensor, b: Tensor) -> tuple[Array]:
    """E @ W[d_f:] + b: the embedding's part of the predictor's first layer."""
    return (e.data @ w.data[e.shape[1] :] + b.data,)


def _stream_mix_values(model: MulComModel) -> tuple[Array, ...]:
    mlp = model.stream_attn_mlp.layers
    return model.stream_mix(model.E, *(t for layer in mlp for t in (layer.w, layer.b)))


def stream_attention(model: MulComModel) -> Array:
    """Per-trope softmax over enabled streams, [num_tropes, n_streams]; read-only."""
    return _stream_mix_values(model)[-1]


def organize(parts: Sequence[Array], attn: Array) -> Array:
    """Mix per-stream pooled rows [..., num_tropes, d_f] with weights `attn`.

    `parts` follows the column order of `attn` [num_tropes, n_streams].
    """
    mixed = attn[:, 0, None] * parts[0]
    for s in range(1, len(parts)):
        mixed += attn[:, s, None] * parts[s]
    return mixed


def predict_logits(model: MulComModel, outs: dict[str, Tensor]) -> Tensor:
    """One raw logit per trope from the streams' pooled rows.

    `outs` maps every enabled stream to its [num_tropes, d_f] rows, or a
    batch [B, num_tropes, d_f]; the logits drop the last axis. The rows
    are mixed by `stream_attention`'s weights (`organize`), and the
    predictor reads concat(mixed row, embedding row). Its first layer
    is split as mixed @ W[:d_f] + (E @ W[d_f:] + b). The stream mix and
    the bracket depend on the parameters alone, so they are taken from
    the model's caches, computed once per weight state, not per batch.

    One tape record. Its backward pass folds the batch axis into the
    rows of one GEMM per weight. The embedding takes the gradients of
    both of its paths, the predictor's and the stream mix's, and a
    stream output takes one only if it is tracked.
    """
    missing = [s for s in model.cfg.streams if s not in outs]
    if missing:
        raise MulComError(f"predict_logits: missing stream outputs {missing}")
    e = model.E
    parts = tuple(outs[s] for s in model.cfg.streams)
    *mix_hidden, attn = _stream_mix_values(model)
    mixed = organize([p.data for p in parts], attn)
    first, *rest = model.predictor.layers  # build_model gives it two layers
    n_t, d_f = e.shape
    w_mix, w_emb = first.w.data[:d_f], first.w.data[d_f:]
    pre = mixed @ w_mix
    pre += model.embedding_half(e, first.w, first.b)[0]
    acts = _layers(np.maximum(pre, 0.0, out=pre), rest)
    out = Tensor(acts[-1].reshape(mixed.shape[:-1]))

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        grads: dict[Tensor, Array] = {}
        g = _layers_backward(acts, rest, gout.reshape(-1, 1), grads)
        g *= acts[0].reshape(g.shape) > 0
        g_emb = g.reshape(-1, n_t, g.shape[-1]).sum(axis=0)  # E's half, summed over the batch
        grads[first.w] = np.concatenate(
            [mixed.reshape(-1, d_f).T @ g, e.data.T @ g_emb])
        grads[first.b] = g_emb.sum(axis=0)
        d_mixed = (g @ w_mix.T).reshape(mixed.shape)
        d_attn = np.stack(
            [(d_mixed * p.data).reshape(-1, n_t, d_f).sum(axis=(0, 2)) for p in parts],
            axis=1,
        )
        d_z = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        mix = model.stream_attn_mlp.layers
        d_e = _layers_backward([e.data, *mix_hidden], mix, d_z, grads)
        d_e += g_emb @ w_emb.T
        grads[e] = d_e
        for s, p in enumerate(parts):
            if p.tracked:
                grads[p] = attn[:, s, None] * d_mixed
        return grads

    inputs = (e, *parts) + tuple(
        t for layer in (*model.stream_attn_mlp.layers, *model.predictor.layers)
        for t in (layer.w, layer.b)
    )
    return record(inputs, out, grads_fn)


def bce_loss(logits: Tensor, targets: Array, pos_weight: float = 1.0) -> Tensor:
    """Mean over all cells of p*y*log-loss(+) + (1-y)*log-loss(-), as one tape record.

    Uses softplus identities -log sigmoid(x) = softplus(-x) and
    -log(1 - sigmoid(x)) = softplus(x), so large logits cannot overflow.
    The value and the logits gradient repeat, op for op, the composite
    of neg, softplus, products, sum and mean, so they are its bit for bit.
    """
    targets = np.asarray(targets)
    if not is_binary(targets):
        raise ValidationError("bce_loss targets must be binary")
    if not (math.isfinite(pos_weight) and pos_weight > 0):
        raise ValidationError(f"pos_weight must be finite and positive, got {pos_weight}")
    y = targets.astype(np.float64)
    if logits.shape != y.shape:
        raise ValidationError(
            f"bce_loss shapes differ: logits {logits.shape}, targets {y.shape}"
        )
    x, pos, off, c = logits.data, pos_weight * y, 1.0 - y, 1.0 / y.size
    out = Tensor((pos * np.logaddexp(0.0, -x) + off * np.logaddexp(0.0, x)).sum() * c)

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        gc = gout * c
        return {logits: (gc * off) * expit(x) - (gc * pos) * expit(-x)}

    return record((logits,), out, grads_fn)


def forward_logits(
    model: MulComModel,
    docs: Sequence[FeatureDoc],
    graphs: GraphBatch | None = None,
) -> Tensor:
    """Raw per-trope logits [len(docs), num_tropes], recorded on one tape.

    `graphs`, when given, is the union of the entity graphs of `docs`,
    one member per doc in order; otherwise it is built here when the
    relation stream needs it. Each doc's features must be as wide as the
    model's `d_w` (read by the word stream) and `d_s` (read by the
    sentence and relation streams), for the streams it enables.
    """
    retain_heap()
    if not docs:
        raise ValidationError("forward_logits: empty batch")
    if graphs is not None and graphs.n_members != len(docs):
        raise ValidationError(
            f"forward_logits: {graphs.n_members} graphs for {len(docs)} docs"
        )
    cfg = model.cfg
    for key, feats, readers in (("d_w", "word_feats", {"word"}),
                                ("d_s", "sent_feats", {"sentence", "relation"})):
        if readers.isdisjoint(cfg.streams):
            continue
        want = getattr(cfg, key)
        for doc in docs:
            got = getattr(doc, feats).shape[1]
            if got != want:
                raise ValidationError(
                    f"doc {doc.doc_id} has {key}={got}, the model has {key}={want}")
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
    return predict_logits(model, outs)


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
    """Scores of `docs`, a chunk of `SCORE_CHUNK` at a time.

    `graphs`, when given, is the union of the entity graphs of `docs`, one
    member per doc in order. Otherwise, when the relation stream needs
    them, the union of all the docs' graphs is built here once, and each
    chunk `select`s its members from it.
    """
    if graphs is not None and graphs.n_members != len(docs):
        raise ValidationError(
            f"score_dataset: {graphs.n_members} graphs for {len(docs)} docs"
        )
    if graphs is None and docs and "relation" in model.cfg.streams:
        graphs = graph_batch(docs)
    scores = np.zeros((len(docs), model.cfg.num_tropes))
    for lo in range(0, len(docs), SCORE_CHUNK):
        hi = min(lo + SCORE_CHUNK, len(docs))
        chunk_graphs = graphs
        if graphs is not None and hi - lo < len(docs):
            chunk_graphs = graphs.select(range(lo, hi))
        scores[lo:hi] = forward(model, docs[lo:hi], chunk_graphs)
    return scores


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    The values move into one contiguous buffer, one segment per storage
    array: a tensor's own, or the array it is a `join`ed block of. Each
    tensor becomes the same view of its segment, so the fused records
    read what a step writes. The segments are grouped in order into
    blocks of at most `BLOCK` floats; an array wider than that is a
    block of its own. A step updates one block at a time: it gathers the
    block's gradients with one copy each into the scratch `_g`, then runs
    the vectorized update over the block's m, v and data with the work
    buffer `_a`. Both scratch buffers are as wide as the widest block,
    not the whole buffer, and each block's passes stay in cache. Every
    element sees the same operations as in one pass over the buffer, so
    the result is the same bit for bit. A parameter without a gradient
    gets zeros in `_g`, and its data, m and v back after its block.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    BLOCK = 32768  # floats; 256 KiB per block-wide buffer

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        arrays = {id(t.base or t): t.base or t for t in self.params.values()}
        if sum(t.size for t in self.params.values()) != sum(s.size for s in arrays.values()):
            raise ConfigError("Adam: the parameters must hold each block of their arrays once")
        self.flat = np.concatenate([np.zeros(0)] + [s.data.reshape(-1) for s in arrays.values()])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        spans, starts, lo = {}, [0], 0  # each array's block start and its span of the buffer
        for key, s in arrays.items():
            if lo > starts[-1] and lo + s.size - starts[-1] > self.BLOCK:
                starts.append(lo)
            spans[key] = (starts[-1], lo, lo + s.size)
            s.data = self.flat[lo : lo + s.size].reshape(s.shape)
            lo += s.size
        ends = starts[1:] + [lo]
        width = max(hi - lo for lo, hi in zip(starts, ends))
        self._g = np.zeros(width)  # a block's gathered gradient
        self._a = np.empty(width)  # a work buffer
        # each block's span of the buffer and its tensors' views of _g, m, v and flat
        blocks = {lo: (lo, hi, []) for lo, hi in zip(starts, ends)}
        for t in self.params.values():
            start, lo, hi = spans[id(t.base or t)]
            shape = (t.base or t).shape
            segment = [self._g[lo - start : hi - start], self.m[lo:hi], self.v[lo:hi], self.flat[lo:hi]]
            at = [b.reshape(shape)[t.index] for b in segment]
            t.data = at[-1]
            blocks[start][2].append((t, at))
        self.blocks = list(blocks.values())

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for lo, hi, places in self.blocks:
            kept = []  # the m, v and data of each parameter without a gradient
            for t, (g, *state) in places:
                if t.grad is None:
                    g[...] = 0.0  # keeps every pass below finite
                    kept += [(s, s.copy()) for s in state]
                else:
                    g[...] = t.grad
            m, v, data = self.m[lo:hi], self.v[lo:hi], self.flat[lo:hi]
            g, a = self._g[: hi - lo], self._a[: hi - lo]
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
            data -= a
            for s, saved in kept:
                s[...] = saved
        for t in self.params.values():
            write(t)  # the values moved through `flat`; each takes a new version

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
    """Mini-batch Adam on weighted BCE; optional early stop on val F1.

    An empty `val_docs` is no validation split, as None is.
    """
    if not docs:
        raise ValidationError("train: empty training split")
    val_docs = val_docs or None
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
    write_json(path, payload)


def load_checkpoint(path: str) -> MulComModel:
    """Rebuild a saved model; any malformed content is a DataFormatError."""
    payload = read_envelope(path, "checkpoint", CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    for key in ("config", "params"):
        if not isinstance(payload.get(key), dict):
            raise DataFormatError(f"checkpoint {key!r} is missing or not a JSON object", path=path)
    try:
        model = build_model(ModelConfig.from_dict(payload["config"]), seed=0)
    except ConfigError as exc:
        raise DataFormatError(f"checkpoint config: {exc}", path=path) from exc
    params = model.named_parameters()
    stored = payload["params"]
    if set(stored) != set(params):
        raise DataFormatError("checkpoint parameter names do not match the config", path=path)
    for name, t in params.items():
        entry = stored[name]
        try:
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"checkpoint entry for {name} is malformed: {exc!r}",
                                  path=path) from exc
        if shape != t.shape:
            raise DataFormatError(f"checkpoint {name} has shape {shape}, expected {t.shape}",
                                  path=path)
        if data.shape != (t.size,):
            raise DataFormatError(f"checkpoint {name} holds data of shape {data.shape}, "
                                  f"expected {t.size} values", path=path)
        if not np.isfinite(data).all():
            raise DataFormatError(f"checkpoint {name} holds non-finite values", path=path)
        write(t, data.reshape(shape))
    return model
