"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable computation in the package (message passing, LSTM
updates, attention pooling, the classifier head) is composed from the
primitives here. Gradient checks against central finite differences are
the primary correctness instrument, so all arithmetic stays in float64.

A forward pass records primitives on the innermost active :class:`Tape`;
``backward`` replays the records in exact reverse order. Tapes are
rebuilt per forward pass (graphs differ per batch) and are confined
to a single thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError

Array = np.ndarray


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator keyed by (seed, stream); the only randomness source.

    Distinct streams give independent, reproducible substreams of one
    64-bit run seed (model init, shuffling, synthesis, ...).
    """
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)])


class Tensor:
    """Dense float64 value with an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "tracked")

    def __init__(self, data, tracked: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.tracked = bool(tracked)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.tracked})"


def param(data) -> Tensor:
    """A tracked leaf tensor (trainable parameter)."""
    return Tensor(data, tracked=True)


class Tape:
    """Ordered record of primitive applications.

    ``backward`` visits the records in exact reverse order of recording,
    accumulating gradients into every tracked input it encounters.
    Activate with ``with Tape() as tape: ...``; ops applied while no tape
    is active are not recorded (pure evaluation).
    """

    def __init__(self):
        self.records: list[tuple[tuple[Tensor, ...], Tensor, Callable[[Array], None]]] = []

    def __len__(self) -> int:
        return len(self.records)

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _STATE.stack.pop()
        return False


class _State(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []


_STATE = _State()


def active_tape() -> Tape | None:
    return _STATE.stack[-1] if _STATE.stack else None


def _emit(inputs: tuple[Tensor, ...], out: Tensor, backward_fn: Callable[[Array], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.tracked for t in inputs):
        out.tracked = True
        tape.records.append((inputs, out, backward_fn))
    return out


def _accum(t: Tensor, g: Array, fresh: bool = False) -> None:
    """Add `g` into `t.grad`, adopting it as the first gradient.

    `g` is copied on adoption unless `fresh` says nothing else refers to
    it (a result computed for this call, not a view or an upstream
    gradient), so later in-place sums cannot reach another buffer.
    """
    if t.grad is None:
        t.grad = np.asarray(g) if fresh else np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _swap2(x: Array) -> Array:
    return np.swapaxes(x, -1, -2)


def _norm_axis(axis: int, ndim: int, op: str) -> int:
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise ShapeMismatchError(f"{op}: axis {axis} out of range for rank {ndim}")
    return axis


# ---------------------------------------------------------------------------
# elementwise and linear primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward_fn(g: Array) -> None:
        if a.tracked:
            _accum(a, _unbroadcast(g, a.shape))
        if b.tracked:
            _accum(b, _unbroadcast(g, b.shape))

    return _emit((a, b), out, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward_fn(g: Array) -> None:
        if a.tracked:
            _accum(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.tracked:
            _accum(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _emit((a, b), out, backward_fn)


def neg(x: Tensor) -> Tensor:
    out = Tensor(-x.data)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, -g, fresh=True)

    return _emit((x,), out, backward_fn)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    out = Tensor(x.data * c)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g * c, fresh=True)

    return _emit((x,), out, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands broadcast numpy-style."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward_fn(g: Array) -> None:
        if a.tracked:
            _accum(a, _unbroadcast(g @ _swap2(b.data), a.shape), fresh=True)
        if b.tracked:
            if b.ndim == 2 and a.ndim > 2:
                # one GEMM over the folded stack, not a stack of products
                k, m = b.shape
                _accum(b, a.data.reshape(-1, k).T @ g.reshape(-1, m), fresh=True)
            else:
                _accum(b, _unbroadcast(_swap2(a.data) @ g, b.shape), fresh=True)

    return _emit((a, b), out, backward_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.maximum(x.data, 0.0))  # propagates NaN instead of hiding it

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g * mask, fresh=True)

    return _emit((x,), out, backward_fn)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g * (1.0 - t * t), fresh=True)

    return _emit((x,), out, backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise 1/(1+exp(-x)); saturates without overflow."""
    s = _sigmoid_raw(x.data)
    out = Tensor(s)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g * s * (1.0 - s), fresh=True)

    return _emit((x,), out, backward_fn)


def _sigmoid_raw(x: Array) -> Array:
    # exp only ever sees non-positive arguments: 1/(1+z) for x >= 0, z/(1+z) below
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) in the overflow-safe log-sum-exp form."""
    out = Tensor(np.logaddexp(0.0, x.data))

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g * _sigmoid_raw(x.data), fresh=True)

    return _emit((x,), out, backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along `axis`, stabilized by max-subtraction."""
    axis = _norm_axis(axis, x.ndim, "softmax")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            dot = (g * s).sum(axis=axis, keepdims=True)
            _accum(x, s * (g - dot), fresh=True)

    return _emit((x,), out, backward_fn)


# ---------------------------------------------------------------------------
# shape and indexing primitives
# ---------------------------------------------------------------------------

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeMismatchError("concat: need at least one part")
    axis = _norm_axis(axis, parts[0].ndim, "concat")
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as exc:
        raise ShapeMismatchError(
            f"concat: incompatible extents {[p.shape for p in parts]} on axis {axis}"
        ) from exc
    parts = tuple(parts)

    def backward_fn(g: Array) -> None:
        index: list = [slice(None)] * g.ndim
        lo = 0
        for p in parts:
            hi = lo + p.shape[axis]
            if p.tracked:
                index[axis] = slice(lo, hi)
                _accum(p, g[tuple(index)])
            lo = hi

    return _emit(parts, out, backward_fn)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    if not parts:
        raise ShapeMismatchError("stack: need at least one part")
    for p in parts[1:]:
        if p.shape != parts[0].shape:
            raise ShapeMismatchError(
                f"stack: shapes differ: {parts[0].shape} and {p.shape}"
            )
    out = Tensor(np.stack([p.data for p in parts], axis=axis))
    parts = tuple(parts)

    def backward_fn(g: Array) -> None:
        slices = np.moveaxis(g, axis, 0)
        for p, gs in zip(parts, slices):
            if p.tracked:
                _accum(p, gs)

    return _emit(parts, out, backward_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(n) for n in shape)
    out = Tensor(x.data.reshape(shape))

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g.reshape(x.shape))

    return _emit((x,), out, backward_fn)


def transpose(
    x: Tensor, axes: Sequence[int] | None = None, contiguous: bool = False
) -> Tensor:
    """Swap the last two axes by default, or permute by `axes`.

    The result is a view unless `contiguous`, which copies it into its own
    memory order: stacked products of many tiny matrices run several
    times faster on such operands than on permuted views.
    """
    if axes is None:
        if x.ndim < 2:
            raise ShapeMismatchError(f"transpose: rank {x.ndim} < 2")
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    axes = tuple(axes)
    data = x.data.transpose(axes)
    out = Tensor(np.ascontiguousarray(data) if contiguous else data)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g.transpose(np.argsort(axes)))

    return _emit((x,), out, backward_fn)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    d = x.shape[-1]
    if not 0 <= start <= stop <= d:
        raise ShapeMismatchError(f"slice_last: [{start}:{stop}] out of range for extent {d}")
    out = Tensor(x.data[..., start:stop])

    def backward_fn(g: Array) -> None:
        if x.tracked:
            buf = np.zeros_like(x.data)
            buf[..., start:stop] = g
            _accum(x, buf, fresh=True)

    return _emit((x,), out, backward_fn)


def gather_rows(x: Tensor, index: Sequence[int]) -> Tensor:
    """Select rows (axis 0) by integer index, repeats allowed."""
    idx = np.asarray(index, dtype=np.intp)
    out = Tensor(x.data[idx])

    def backward_fn(g: Array) -> None:
        if x.tracked:
            buf = np.zeros_like(x.data)
            np.add.at(buf, idx, g)
            _accum(x, buf, fresh=True)

    return _emit((x,), out, backward_fn)


def scatter_add_rows(x: Tensor, index: Sequence[int], num_rows: int) -> Tensor:
    """Sum rows of `x` into `num_rows` output rows: out[index[p]] += x[p]."""
    idx = np.asarray(index, dtype=np.intp)
    data = np.zeros((num_rows,) + x.shape[1:], dtype=np.float64)
    np.add.at(data, idx, x.data)
    out = Tensor(data)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g[idx], fresh=True)

    return _emit((x,), out, backward_fn)


def scatter_rows(x: Tensor, index, shape: Sequence[int]) -> Tensor:
    """Place the rows of `x` in a zero tensor of `shape`: out[index] = x.

    `index` is a numpy index into the leading axes of the output (an
    integer array, a tuple of them, or a boolean map) and must address
    distinct rows, so the backward pass is the gather g[index].
    """
    data = np.zeros(tuple(shape), dtype=np.float64)
    data[index] = x.data
    out = Tensor(data)

    def backward_fn(g: Array) -> None:
        if x.tracked:
            _accum(x, g[index], fresh=True)

    return _emit((x,), out, backward_fn)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    if axis is None:
        out = Tensor(x.data.sum())

        def backward_fn(g: Array) -> None:
            if x.tracked:
                _accum(x, np.broadcast_to(g, x.shape))

    else:
        axis = _norm_axis(axis, x.ndim, "reduce_sum")
        out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

        def backward_fn(g: Array) -> None:
            if x.tracked:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                _accum(x, np.broadcast_to(g, x.shape))

    return _emit((x,), out, backward_fn)


def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.size if axis is None else x.shape[_norm_axis(axis, x.ndim, "reduce_mean")]
    return scale(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias broadcast over leading axes."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# parameter blocks and composite cells
# ---------------------------------------------------------------------------

@dataclass
class AffineParams:
    """One affine layer: weight [fan_in x fan_out], bias [fan_out]."""

    w: Tensor
    b: Tensor

    def named(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


@dataclass
class MLPParams:
    """Stacked affine layers with relu between (none after the last)."""

    layers: list[AffineParams]

    def named(self, prefix: str):
        for i, layer in enumerate(self.layers):
            yield from layer.named(f"{prefix}.layer{i}")


@dataclass
class LSTMParams:
    """Four gate blocks, each mapping concat(h, input) to the hidden dim."""

    gate_i: AffineParams
    gate_f: AffineParams
    gate_o: AffineParams
    gate_g: AffineParams

    @property
    def hidden_dim(self) -> int:
        return self.gate_i.b.shape[0]

    def named(self, prefix: str):
        for name in ("gate_i", "gate_f", "gate_o", "gate_g"):
            yield from getattr(self, name).named(f"{prefix}.{name}")


@dataclass
class MHAParams:
    """Projection matrices [d x d] for multi-head attention; no biases."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int

    def named(self, prefix: str):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            yield f"{prefix}.{name}", getattr(self, name)


def init_affine(rng: np.random.Generator, fan_in: int, fan_out: int) -> AffineParams:
    """Weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero bias."""
    bound = 1.0 / math.sqrt(fan_in)
    return AffineParams(
        w=param(rng.uniform(-bound, bound, size=(fan_in, fan_out))),
        b=param(np.zeros(fan_out)),
    )


def init_mlp(rng: np.random.Generator, dims: Sequence[int]) -> MLPParams:
    layers = [init_affine(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    return MLPParams(layers=layers)


def init_lstm(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> LSTMParams:
    fan_in = hidden_dim + input_dim
    return LSTMParams(
        gate_i=init_affine(rng, fan_in, hidden_dim),
        gate_f=init_affine(rng, fan_in, hidden_dim),
        gate_o=init_affine(rng, fan_in, hidden_dim),
        gate_g=init_affine(rng, fan_in, hidden_dim),
    )


def init_mha(rng: np.random.Generator, dim: int, heads: int) -> MHAParams:
    if dim % heads != 0:
        raise ConfigError(f"attention dim {dim} not divisible by {heads} heads")
    bound = 1.0 / math.sqrt(dim)

    def mat() -> Tensor:
        return param(rng.uniform(-bound, bound, size=(dim, dim)))

    return MHAParams(w_q=mat(), w_k=mat(), w_v=mat(), w_o=mat(), heads=heads)


def mlp_apply(x: Tensor, p: MLPParams) -> Tensor:
    out = x
    last = len(p.layers) - 1
    for i, layer in enumerate(p.layers):
        out = affine(out, layer.w, layer.b)
        if i < last:
            out = relu(out)
    return out


def lstm_cell(h: Tensor, c: Tensor, x: Tensor, p: LSTMParams) -> tuple[Tensor, Tensor]:
    """One LSTM update on row-aligned state matrices.

    c' = f*c + i*g and h' = o*tanh(c') with sigmoid gates i, f, o and tanh
    candidate g, each computed from concat(h, x) by its own affine block.
    The cell is two tape records, c' then h'. The h' record passes the o
    gate's output gradient to the c' record, whose backward runs all four
    gates, so a loss through h' only or c' only is handled alike.
    """
    gates = (p.gate_i, p.gate_f, p.gate_o, p.gate_g)
    z = np.concatenate([h.data, x.data], axis=-1)
    i, f, o = (_sigmoid_raw(z @ q.w.data + q.b.data) for q in gates[:3])
    g = np.tanh(z @ p.gate_g.w.data + p.gate_g.b.data)
    c_next = Tensor(f * c.data + i * g)
    tc = np.tanh(c_next.data)
    h_next = Tensor(o * tc)
    o_grad: list[Array | None] = [None]  # d loss / d o, left by the h' record

    def c_backward(gc: Array) -> None:
        do, o_grad[0] = o_grad[0], None
        # pre-activation gradients, in the order a per-gate tape would visit them
        pre = [(p.gate_g, (gc * i) * (1.0 - g * g))]
        if do is not None:
            pre.append((p.gate_o, (do * o) * (1.0 - o)))
        pre.append((p.gate_f, ((gc * c.data) * f) * (1.0 - f)))
        pre.append((p.gate_i, ((gc * g) * i) * (1.0 - i)))
        if c.tracked:
            _accum(c, gc * f, fresh=True)
        z2 = z.reshape(-1, z.shape[-1])
        dz = None
        for q, da in pre:
            if q.w.tracked:
                _accum(q.w, z2.T @ da.reshape(-1, da.shape[-1]), fresh=True)
            if q.b.tracked:
                _accum(q.b, _unbroadcast(da, q.b.shape), fresh=True)
            if h.tracked or x.tracked:
                if dz is None:
                    dz = da @ q.w.data.T
                else:
                    dz += da @ q.w.data.T
        if h.tracked:
            _accum(h, dz[..., : h.shape[-1]], fresh=True)
        if x.tracked:
            _accum(x, dz[..., h.shape[-1] :], fresh=True)

    def h_backward(gh: Array) -> None:
        o_grad[0] = gh * tc
        _accum(c_next, (gh * o) * (1.0 - tc * tc), fresh=True)

    inputs = (h, c, x) + tuple(t for q in gates for t in (q.w, q.b))
    _emit(inputs, c_next, c_backward)
    return _emit((c_next,), h_next, h_backward), c_next


def lstm_sequence(x: Tensor, p: LSTMParams) -> Tensor:
    """Hidden states [B, S, h] of an LSTM run over `x` [B, S, d_in] from zero state.

    The recurrence of `lstm_cell` stepped over axis 1, as one tape record.
    The four gate blocks are joined once per call into [fan_in, 4h] (order
    i, f, o, g), and every step's input pre-activation is one GEMM over
    the time-major [S*B, d_in] rows, so only the [B, h] @ [h, 4h]
    recurrent product and the gate activations run per step. All four
    gates take one tanh, the sigmoid ones as sigmoid(a) = (1 + tanh(a/2)) / 2
    on pre-activations halved by exact power-of-two weight scaling, so
    states agree with `lstm_cell` to rounding, not bit for bit. The
    backward pass forms every step's local gate derivatives at once and
    loops only for the state gradients; the weight, bias and input
    gradients are one product or sum each.
    """
    if x.ndim != 3 or x.shape[-1] + p.hidden_dim != p.gate_i.w.shape[0]:
        raise ShapeMismatchError(
            f"lstm_sequence: input {x.shape} does not fit gate fan-in {p.gate_i.w.shape[0]}"
        )
    gates = (p.gate_i, p.gate_f, p.gate_o, p.gate_g)
    hd = p.hidden_dim
    n_b, n_s, d_in = x.shape
    w = np.concatenate([q.w.data for q in gates], axis=1)  # [fan_in, 4h]
    w_h, w_x = w[:hd], w[hd:]
    half = np.ones(4 * hd)
    half[: 3 * hd] = 0.5  # the sigmoid gates' tanh argument
    xt = x.data.transpose(1, 0, 2).reshape(n_s * n_b, d_in)  # time-major rows
    act = xt @ (w_x * half)
    act += np.concatenate([q.b.data for q in gates]) * half
    act = act.reshape(n_s, n_b, 4 * hd)  # pre-activations, then activations in place
    w_rec = w_h * half
    c = np.empty((n_s, n_b, hd))
    tc = np.empty((n_s, n_b, hd))  # tanh(c)
    hs = np.empty((n_s, n_b, hd))
    for t in range(n_s):
        a = act[t]
        if t:
            a += hs[t - 1] @ w_rec
        np.tanh(a, out=a)
        sig = a[:, : 3 * hd]
        sig *= 0.5
        sig += 0.5
        np.multiply(a[:, :hd], a[:, 3 * hd :], out=c[t])
        if t:
            c[t] += a[:, hd : 2 * hd] * c[t - 1]
        np.tanh(c[t], out=tc[t])
        np.multiply(a[:, 2 * hd : 3 * hd], tc[t], out=hs[t])
    out = Tensor(np.ascontiguousarray(hs.transpose(1, 0, 2)))

    def backward_fn(gout: Array) -> None:
        i, f, o, g = (act[..., k * hd : (k + 1) * hd] for k in range(4))
        # d act_k / d pre-activation_k, times what multiplies act_k in
        # c_t = f * c_{t-1} + i * g, or in h_t = o * tanh(c_t) for the o gate
        local = act * (1.0 - act)  # the sigmoid derivative; the g block is redone
        local[..., :hd] *= g
        local[0, :, hd : 2 * hd] = 0.0  # c_{-1} = 0
        local[1:, :, hd : 2 * hd] *= c[:-1]
        local[..., 2 * hd : 3 * hd] *= tc
        np.multiply(i, 1.0 - g * g, out=local[..., 3 * hd :])
        dc_dh = o * (1.0 - tc * tc)  # d c_t / d h_t through tanh(c_t), times o
        l4 = local.reshape(n_s, n_b, 4, hd)
        gh = gout.transpose(1, 0, 2)  # [S, B, h]
        d_act = np.empty_like(act)
        d4 = d_act.reshape(n_s, n_b, 4, hd)
        dh = dc = None  # gradients reaching h_t and c_t through step t+1
        for t in range(n_s - 1, -1, -1):
            dht = gh[t] if dh is None else gh[t] + dh
            dct = dht * dc_dh[t]
            if dc is not None:
                dct += dc
            np.multiply(l4[t], dct[:, None, :], out=d4[t])
            np.multiply(l4[t, :, 2], dht, out=d4[t, :, 2])  # o feeds h, not c
            if t:
                dc = dct * f[t]
                dh = d_act[t] @ w_h.T
        flat = d_act.reshape(n_s * n_b, 4 * hd)
        dw = np.empty_like(w)
        dw[hd:] = xt.T @ flat
        dw[:hd] = hs[:-1].reshape(-1, hd).T @ flat[n_b:]
        db = flat.sum(axis=0)
        for k, q in enumerate(gates):
            cols = slice(k * hd, (k + 1) * hd)
            if q.w.tracked:
                _accum(q.w, dw[:, cols])
            if q.b.tracked:
                _accum(q.b, db[cols])
        if x.tracked:
            dx = (flat @ w_x.T).reshape(n_s, n_b, d_in)
            _accum(x, dx.transpose(1, 0, 2), fresh=True)

    inputs = (x,) + tuple(t for q in gates for t in (q.w, q.b))
    return _emit(inputs, out, backward_fn)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, p: MHAParams) -> Tensor:
    """Scaled dot-product attention with `p.heads` heads.

    Inputs are [..., L, d] with shared leading batch axes; each head h
    computes softmax(Qh Kh^T / sqrt(d_head)) Vh on its slice of the
    projected inputs, heads are concatenated and output-projected. All
    heads run as one batched product over a [..., heads, L, d_head] layout.
    """
    d = q.shape[-1]
    if d % p.heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {p.heads} heads")
    dh = d // p.heads

    def split_heads(t: Tensor, w: Tensor, keys: bool = False) -> Tensor:
        """Project [..., L, d] to [..., heads, L, dh], or [..., heads, dh, L] for keys."""
        proj = matmul(t, w)
        n = proj.ndim - 2
        split = reshape(proj, proj.shape[:-1] + (p.heads, dh))  # [..., L, heads, dh]
        last = (n + 2, n) if keys else (n, n + 2)
        return transpose(split, tuple(range(n)) + (n + 1,) + last, contiguous=True)

    qh = split_heads(q, p.w_q)
    kt = split_heads(k, p.w_k, keys=True)
    vh = split_heads(v, p.w_v)
    scores = scale(matmul(qh, kt), 1.0 / math.sqrt(dh))
    ctx = matmul(softmax(scores, axis=-1), vh)  # [..., heads, Lq, dh]
    n = ctx.ndim - 3
    merged = transpose(ctx, tuple(range(n)) + (n + 1, n, n + 2))
    return matmul(reshape(merged, ctx.shape[:-3] + (ctx.shape[-2], d)), p.w_o)


# ---------------------------------------------------------------------------
# backward pass and finite-difference verification
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grad buffers of every tracked tensor reachable from `loss`.

    Tracked leaves that appear on the tape but receive no gradient flow
    end up with zero-filled buffers.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.tracked:
        raise ValueError("backward: loss does not depend on any tracked tensor")
    loss.grad = np.ones_like(loss.data)
    for _, out, backward_fn in reversed(tape.records):
        if out.grad is not None:
            backward_fn(out.grad)
    for inputs, _, _ in tape.records:
        for t in inputs:
            if t.tracked and t.grad is None:
                t.grad = np.zeros_like(t.data)


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords: int = 64,
    rng: np.random.Generator | None = None,
    exclude: Callable[[str, int], bool] | None = None,
) -> float:
    """Max relative error of tape gradients vs central finite differences.

    `f` rebuilds the scalar loss from the tensors in `params` and must be
    deterministic for fixed parameter values. At most `max_coords` flat
    coordinates are probed per tensor; `exclude(name, flat_index)` can
    veto coordinates sitting on non-differentiable points (relu kinks).
    Relative error is |a - n| / max(1e-8, |a| + |n|).
    """
    for t in params.values():
        t.zero_grad()
    tape = Tape()
    with tape:
        loss = f()
    backward(loss, tape)
    analytic = {
        name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy()).reshape(-1)
        for name, t in params.items()
    }
    for t in params.values():
        t.zero_grad()
    if rng is None:
        rng = np.random.default_rng(0)
    # One loss evaluation carries rounding noise of about an ulp, so the
    # central difference cannot resolve gradients much below ulp/(2*eps).
    # Coordinates where analytic and numeric both sit under that floor
    # are unmeasurable by this method rather than wrong; skip them.
    resolution = np.spacing(max(abs(float(loss.data)), 0.5)) / (2.0 * eps)
    min_signal = 1e5 * resolution
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = range(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        for idx in coords:
            idx = int(idx)
            if exclude is not None and exclude(name, idx):
                continue
            orig = flat[idx]
            flat[idx] = orig + eps
            loss_plus = float(f().data)
            flat[idx] = orig - eps
            loss_minus = float(f().data)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(analytic[name][idx])
            if abs(a) < min_signal and abs(numeric) < min_signal:
                continue
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
