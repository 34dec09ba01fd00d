"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every op goes on a tape the same way, through `record`: the op
computes its output and returns, from a `grads_fn` it hands to
`record`, one gradient per input; `record` alone checks which inputs
are tracked, delivers the gradients and appends to the tape. The model
makes seven records, each with a hand-derived backward pass: the LSTM
sequence `lstm_sequence` here, the reasoner `_reason` in
`mulcom.msrrn`, which shares its gate update `lstm_update` and
`lstm_update_backward`, the trope-query pooling `attend` and the
reasoner's node-row view `_member_rows` in `mulcom.streams`, the
padded layout `scatter_rows` of the relation stream, the per-trope
head `mulcom.model.predict_logits` and the loss `mulcom.model.bce_loss`.
The LSTM gates and the attention's q, k and v projections are stored
as the fused records read them, each block a view of one joined array
(`join`).

The two LSTM recurrences keep their gate activations gate-major,
[4, n, h] per step in order i, f, o, g, so the elementwise passes of
`lstm_update` and `lstm_update_backward` run on contiguous [n, h]
blocks rather than on strided column slices of a row-major [n, 4h]
buffer, which numpy runs 2-3x slower. The pre-activations stay
row-major, as the GEMMs produce and read them: the update's one tanh
reads them through a [4, n, h] view and writes the gate-major block,
and the backward pass writes each step's [n, 4h] gradient once. The
sigmoid gates take their tanh at half the pre-activation, which the
caller has already halved; halving by a power of two is exact, so
folding it into weights or sums changes no bit.

The other primitives below remain for the composites `lstm_cell`,
`multi_head_attention`, `mlp_apply`, `gather_rows` and
`scatter_add_rows`, which the model no longer calls: the benchmark's
tracer looks them up on the modules that import them, and the tests'
composite oracles build the unfused blocks from them. Gradient checks
against central finite differences are the primary correctness
instrument, so all arithmetic stays in float64.

Parameters change in place only through `write`, which gives the
tensor a new `version`. A `Derived` cache keeps arrays computed from
parameters alone (the streams' trope queries, the head's stream mix,
the LSTM's halved weights, the reasoner's folded products) on the block
that owns them, and computes them again only when an input's version
moved: once per scoring run, once per training step.

A forward pass records primitives on the innermost active :class:`Tape`;
``backward`` replays the records in exact reverse order. Tapes are
rebuilt per forward pass (graphs differ per batch) and are confined
to a single thread. The model's forward pass, the reasoner and the
training loop call `retain_heap` first, so the memory a tape or a
forward pass frees stays mapped for the next batch instead of going
back to the OS.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError

Array = np.ndarray


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def retain_heap() -> tuple[int, ...]:
    """Keep freed tape memory in the process heap, on glibc; once per process.

    By default glibc serves arrays above a dynamic threshold with their
    own mmap and returns the free top of the heap to the OS, so the
    memory each batch's tape frees is unmapped and faulted in again by
    the next batch. This serves arrays up to 32 MiB from the heap and
    trims it only past 256 MiB of free top. Setting either one stops
    glibc from raising its mmap threshold as large arrays are freed, so
    both are set. Returns mallopt's results (1 on success), or () where
    there is no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20))


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator keyed by (seed, stream); the only randomness source.

    Distinct streams give independent, reproducible substreams of one
    64-bit run seed (model init, shuffling, synthesis, ...).
    """
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)])


class Tensor:
    """Dense float64 value with an optional same-shape gradient buffer.

    A block that `join` made of a larger array has that array's tensor as
    `base`, and its data is `base.data[index]`. `version` counts the
    writes `write` made to the values, so a `Derived` value knows when to
    compute again.
    """

    __slots__ = ("data", "grad", "tracked", "base", "index", "version")

    def __init__(self, data, tracked: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.tracked = bool(tracked)
        self.base: Tensor | None = None
        self.index = ...
        self.version = 0

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


def write(t: Tensor, value=None, index=...) -> None:
    """Set `t.data[index] = value` in place and give `t` a new version.

    The one way the package changes a tensor's values in place: Adam's
    step, the gradient check's probes and the checkpoint loader all go
    through it. The array `t` is a `join`ed block of gets a new version
    too, so every `Derived` value read from either is computed again.
    `value` None writes nothing: the caller has changed the values
    through another view of the same memory, as `Adam.step` does through
    its flat buffer, and only the versions move.
    """
    if value is not None:
        t.data[index] = value
    t.version += 1
    if t.base is not None:
        t.base.version += 1


_versions = operator.attrgetter("version")


class Derived:
    """Arrays computed from the values of some tensors alone, kept until one is written.

    `cache(*inputs)` returns `fn(*inputs)`, a tuple of arrays that `fn`
    makes for the call. It computes them again only when the inputs are
    other tensors, or the same tensors at other versions, than those of
    the arrays it holds: since `write` is the one way to change values in
    place, the held arrays are those `fn` would return now. Every caller
    shares them, so they are read-only. The products of parameters alone
    that every forward pass reads are kept this way on the parameter
    block that owns them; a scoring pass computes each once, a training
    step, after Adam wrote, once per step. A write through a `join`ed
    block moves the joined array's version too, so a cache may take the
    joined array as its input; parameters are written as their blocks.
    """

    __slots__ = ("fn", "state")

    def __init__(self, fn: Callable[..., tuple[Array, ...]]):
        self.fn = fn
        # (inputs, their versions, the arrays), replaced as one, so a
        # reader never pairs the arrays with the versions of others
        self.state: tuple = ((), (), ())

    def __call__(self, *inputs: Tensor) -> tuple[Array, ...]:
        versions = tuple(map(_versions, inputs))
        held, held_versions, values = self.state
        if versions != held_versions or inputs != held:
            values = self.fn(*inputs)
            for v in values:
                v.flags.writeable = False
            self.state = (inputs, versions, values)
        return values


def join(parts: Sequence[Tensor]) -> Tensor:
    """An untracked tensor of `parts` joined along their last axis, in order.

    Each part keeps its value and becomes the view of its block.
    """
    base = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    lo = 0
    for p in parts:
        p.base, p.index = base, (..., slice(lo, lo + p.shape[-1]))
        p.data = base.data[p.index]
        lo += p.shape[-1]
    return base


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


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on `inputs` goes on the tape: one is active and an input is tracked."""
    return bool(_STATE.stack) and any(t.tracked for t in inputs)


def record(
    inputs: tuple[Tensor, ...], out: Tensor, grads_fn: Callable[[Array], dict[Tensor, Array]]
) -> Tensor:
    """Put `out` on the active tape as one record over `inputs`, if `recording(inputs)`.

    The one way onto a tape, for the fused records and the primitives
    alike. `grads_fn(gout)` maps each tracked input to its gradient,
    given the gradient `gout` of `out`; entries for untracked inputs are
    ignored. A `join`ed block takes its own entry when there is one, and
    otherwise its block of its base's. Every array it returns must be
    computed for this call, so that nothing else refers to it (a block
    counts when no other block overlaps it): each is adopted as a first
    gradient without a copy, so a gradient that would be a view of
    `gout` is returned as a copy. An input listed twice is one input,
    delivered once: its entry must hold the sum of its paths.
    """
    if not recording(inputs):
        return out

    def backward_fn(gout: Array) -> None:
        grads = grads_fn(gout)
        for t in dict.fromkeys(inputs):
            if t.tracked:
                g = grads.get(t)
                _accum(t, grads[t.base][t.index] if g is None else g)

    out.tracked = True
    active_tape().records.append((inputs, out, backward_fn))
    return out


def _accum(t: Tensor, g: Array) -> None:
    """Add `g` into `t.grad`, adopting it as the first gradient.

    `g` was computed for its record (see `record`), so nothing else
    refers to it and later in-place sums cannot reach another buffer.
    """
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad += g


def _summed(pairs: Sequence[tuple[Tensor, Array]]) -> dict[Tensor, Array]:
    """(input, gradient) pairs as `record`'s map, an input given twice taking the sum."""
    grads: dict[Tensor, Array] = {}
    for t, g in pairs:
        held = grads.get(t)
        grads[t] = g if held is None else held + g
    return grads


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

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        # copies: `_unbroadcast` returns `g` itself where no axis was broadcast
        return _summed(((a, np.array(_unbroadcast(g, a.shape))),
                        (b, np.array(_unbroadcast(g, b.shape)))))

    return record((a, b), out, grads_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        return _summed(((a, _unbroadcast(g * b.data, a.shape)),
                        (b, _unbroadcast(g * a.data, b.shape))))

    return record((a, b), out, grads_fn)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    out = Tensor(x.data * c)
    return record((x,), out, lambda g: {x: g * c})


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands broadcast numpy-style."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        ga = _unbroadcast(g @ _swap2(b.data), a.shape)
        if b.ndim == 2 and a.ndim > 2:
            # one GEMM over the folded stack, not a stack of products
            k, m = b.shape
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
        else:
            gb = _unbroadcast(_swap2(a.data) @ g, b.shape)
        return _summed(((a, ga), (b, gb)))

    return record((a, b), out, grads_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.maximum(x.data, 0.0))  # propagates NaN instead of hiding it
    return record((x,), out, lambda g: {x: g * mask})


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)
    return record((x,), out, lambda g: {x: g * (1.0 - t * t)})


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise 1/(1+exp(-x)); saturates without overflow."""
    s = expit(x.data)
    out = Tensor(s)
    return record((x,), out, lambda g: {x: g * s * (1.0 - s)})


def expit(x: Array) -> Array:
    """Elementwise 1/(1+exp(-x)) of an array; saturates without overflow."""
    # exp only ever sees non-positive arguments: 1/(1+z) for x >= 0, z/(1+z) below
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along `axis`, stabilized by max-subtraction."""
    axis = _norm_axis(axis, x.ndim, "softmax")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        dot = (g * s).sum(axis=axis, keepdims=True)
        return {x: s * (g - dot)}

    return record((x,), out, grads_fn)


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

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        index: list = [slice(None)] * g.ndim
        blocks, lo = [], 0
        for p in parts:
            hi = lo + p.shape[axis]
            index[axis] = slice(lo, hi)
            blocks.append((p, np.array(g[tuple(index)])))  # a copy, not a view of `g`
            lo = hi
        return _summed(blocks)

    return record(parts, out, grads_fn)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Swap the last two axes by default, or permute by `axes`; a view."""
    if axes is None:
        if x.ndim < 2:
            raise ShapeMismatchError(f"transpose: rank {x.ndim} < 2")
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes))
    return record((x,), out, lambda g: {x: np.array(g.transpose(np.argsort(axes)))})


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    d = x.shape[-1]
    if not 0 <= start <= stop <= d:
        raise ShapeMismatchError(f"slice_last: [{start}:{stop}] out of range for extent {d}")
    out = Tensor(x.data[..., start:stop])

    def grads_fn(g: Array) -> dict[Tensor, Array]:
        buf = np.zeros_like(x.data)
        buf[..., start:stop] = g
        return {x: buf}

    return record((x,), out, grads_fn)


def _row_index(index: Sequence[int], n: int, op: str) -> Array:
    """`index` as an integer array, every entry a row in [0, n)."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.size and not (idx.min() >= 0 and idx.max() < n):
        raise ShapeMismatchError(f"{op}: index outside [0, {n})")
    return idx


class Segments:
    """Grouped row sums in a fixed order: out[g] = rows[order[s]] + rows[order[s + 1]] + ...

    The groups' summand rows lie in `order` group after group, `counts[g]`
    of them for group g, whose run starts at s = counts[0] + ... +
    counts[g - 1]. Each group adds its rows left to right from its first
    row, so a group of one -0.0 row sums to -0.0; a group with no rows
    sums to +0.0. It is the one place that adds grouped rows: the
    reasoner's messages and their gradients (grouped `by_index`) and
    both graph builders' node and edge features, so their bits depend
    only on the summands and their order.

    The sums go one rank at a time: every group's first row is one
    gather, every group's second row one gathered add, and so on. That
    keeps each group's order whatever its neighbours, which
    `np.add.reduceat` and `.sum` do not: both may reassociate, as numpy
    sums pairwise and unrolled, and `reduceat` returned r0 + (r1 + r2)
    for some three-row groups. It takes one gather per rank where
    `np.add.at` works an element at a time; entity graphs have few ranks.
    """

    def __init__(self, order: Sequence[int], counts: Sequence[int]):
        order = np.asarray(order, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.intp)
        self.n = counts.shape[0]
        self.counts = counts  # each group's number of rows
        starts = counts.cumsum()
        total = int(starts[-1]) if self.n else 0
        if total != order.shape[0]:
            raise ShapeMismatchError(f"Segments: counts sum to {total}, not {order.shape[0]}")
        starts -= counts
        live = counts.nonzero()[0]  # the groups with a row of this rank
        first = starts if live.shape[0] == self.n else starts.take(live)
        self.ranks = [(live, order.take(first))]  # (groups, their rows of this rank)
        left, rank = order.shape[0] - live.shape[0], 1
        while left:
            live = (counts > rank).nonzero()[0]
            self.ranks.append((live, order.take(starts.take(live) + rank)))
            left, rank = left - live.shape[0], rank + 1

    @classmethod
    def by_index(cls, index: Sequence[int], n: int) -> Segments:
        """Group g holds the rows p with index[p] == g, for g in [0, n), in row order.

        Its sums are those of `np.add.at(zeros, index, rows)`, bit for
        bit, up to the sign of a zero.
        """
        index = _row_index(index, n, "Segments")
        return cls(index.argsort(kind="stable"), np.bincount(index, minlength=n))

    def sum(self, rows: Array, out: Array | None = None) -> Array:
        """Per-group row sums, [n, ...], in the dtype of `rows`; written into `out` if given.

        Into `out` the first rank gathers fresh and copies: `take` with
        `out` and its default bounds check buffers `out` first, which
        timed slower than the copy.
        """
        (groups, first), *rest = self.ranks
        if groups.shape[0] == self.n:
            if out is None:
                out = rows.take(first, axis=0)
            else:
                out[...] = rows.take(first, axis=0)
        else:
            if out is None:
                out = np.zeros((self.n,) + rows.shape[1:], dtype=rows.dtype)
            else:
                out.fill(0.0)
            out[groups] = rows.take(first, axis=0)
        for groups, idx in rest:
            out[groups] += rows.take(idx, axis=0)
        return out


def gather_rows(x: Tensor, index: Sequence[int]) -> Tensor:
    """Select rows (axis 0) by integer index in [0, rows), repeats allowed."""
    idx = _row_index(index, x.shape[0], "gather_rows")
    out = Tensor(x.data[idx])
    return record((x,), out, lambda g: {x: Segments.by_index(idx, x.shape[0]).sum(g)})


def scatter_add_rows(x: Tensor, index: Sequence[int], num_rows: int) -> Tensor:
    """Sum rows of `x` into `num_rows` output rows: out[index[p]] += x[p]."""
    idx = np.asarray(index, dtype=np.intp)
    out = Tensor(Segments.by_index(idx, num_rows).sum(x.data))
    return record((x,), out, lambda g: {x: g[idx]})


def scatter_rows(x: Tensor, index, shape: Sequence[int]) -> Tensor:
    """Place the rows of `x` in a zero tensor of `shape`: out[index] = x.

    `index` is a numpy index into the leading axes of the output (an
    integer array, a tuple of them, or a boolean map) and must address
    distinct rows, so the backward pass is the gather g[index].
    """
    data = np.zeros(tuple(shape), dtype=np.float64)
    data[index] = x.data
    out = Tensor(data)
    return record((x,), out, lambda g: {x: g[index]})


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias broadcast over leading axes."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# parameter blocks and composite cells
# ---------------------------------------------------------------------------

class Params:
    """A parameter block: a dataclass whose fields hold its parameters."""

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        """(`prefix.field`, tensor) of every parameter, in field declaration order.

        A nested block extends the prefix, and a list of blocks names its
        items `layer0`, `layer1`, ...; other values (counts, None) hold none.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                yield f"{prefix}.{f.name}", value
            elif isinstance(value, Params):
                yield from value.named(f"{prefix}.{f.name}")
            elif isinstance(value, list):
                for i, block in enumerate(value):
                    yield from block.named(f"{prefix}.layer{i}")


@dataclass
class AffineParams(Params):
    """One affine layer: weight [fan_in x fan_out], bias [fan_out]."""

    w: Tensor
    b: Tensor


@dataclass
class MLPParams(Params):
    """Stacked affine layers with relu between (none after the last)."""

    layers: list[AffineParams]


@dataclass
class LSTMParams(Params):
    """Four gate blocks, each mapping concat(h, input) to the hidden dim.

    Stored as the fused records read them: the gates' weights and biases
    are the column blocks, in order i, f, o, g, of `w` [fan_in, 4h] and `b`.
    """

    gate_i: AffineParams
    gate_f: AffineParams
    gate_o: AffineParams
    gate_g: AffineParams

    def __post_init__(self) -> None:
        gates = (self.gate_i, self.gate_f, self.gate_o, self.gate_g)
        self.w = join([q.w for q in gates])
        self.b = join([q.b for q in gates])
        self.inputs = tuple(t for q in gates for t in (q.w, q.b))  # in `named` order
        self.halved = Derived(_halved)  # of (w, b): `lstm_sequence`'s weights

    @property
    def hidden_dim(self) -> int:
        return self.gate_i.b.shape[0]


@dataclass
class MHAParams(Params):
    """Projection matrices [d x d] for multi-head attention; no biases.

    `w_q`, `w_k` and `w_v` are the column blocks of `w_qkv` [d, 3d].
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int

    def __post_init__(self) -> None:
        self.w_qkv = join([self.w_q, self.w_k, self.w_v])


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
    """One LSTM update on row-aligned state matrices, composed from primitives.

    c' = f*c + i*g and h' = o*tanh(c') with sigmoid gates i, f, o and tanh
    candidate g, each computed from concat(h, x) by its own affine block.
    """
    z = concat([h, x], axis=-1)
    i = sigmoid(affine(z, p.gate_i.w, p.gate_i.b))
    f = sigmoid(affine(z, p.gate_f.w, p.gate_f.b))
    o = sigmoid(affine(z, p.gate_o.w, p.gate_o.b))
    g = tanh(affine(z, p.gate_g.w, p.gate_g.b))
    c_next = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c_next)), c_next


def _halved(w: Tensor, b: Tensor) -> tuple[Array, Array]:
    """The joined LSTM weight and bias with the sigmoid gates' columns halved."""
    half = gate_scale(b.shape[0] // 4)
    return w.data * half, b.data * half


@functools.cache
def gate_scale(hd: int) -> Array:
    """[4h] column factors of the gate pre-activations: 0.5 for i, f and o, 1 for g; read-only.

    `lstm_update` takes the sigmoid gates' pre-activations halved; one
    contiguous multiply by this vector halves them. Scaling by 0.5 or 1
    is exact.
    """
    out = np.full(4 * hd, 0.5)
    out[3 * hd :] = 1.0
    out.flags.writeable = False
    return out


def lstm_update(
    z: Array, act: Array, c_prev: Array | None, c: Array, tc: Array, h: Array
) -> None:
    """One LSTM state update of the fused recurrences, written in place.

    `z` [4, n, h] is the gate-major view of a row-major [n, 4h] buffer
    holding the pre-activations of gates i, f, o and g, where the caller
    has already halved those of the sigmoid gates i, f and o (exactly:
    see `lstm_sequence`). One tanh reads `z` and writes the activations
    gate-major into the contiguous `act` [4, n, h], and the sigmoid gates
    then become sigmoid(z) = (1 + tanh(z/2)) / 2. Then c = f*c_prev + i*g
    (`c_prev` None is the zero state), tc = tanh(c) and h = o*tc, all on
    contiguous [n, h] blocks. `c` may be the `c_prev` buffer, since
    f*c_prev is formed before i*g is added.
    """
    np.tanh(z, out=act)
    sig = act[:3]
    sig *= 0.5
    sig += 0.5
    if c_prev is None:
        np.multiply(act[0], act[3], out=c)
    else:
        np.multiply(act[1], c_prev, out=c)
        c += act[0] * act[3]
    np.tanh(c, out=tc)
    np.multiply(act[2], tc, out=h)


def lstm_update_backward(
    act: Array, c: Array, tc: Array, gh: Array, step: Callable[[int, Array], Array | None]
) -> Array:
    """Pre-activation gradients [T, n, 4h] of `lstm_update` run T steps from zero state.

    `act` [T, 4, n, h] holds every step's gate activations gate-major,
    `c` and `tc` [T, n, h] every step's c and tanh(c); `gh` [T, n, h] is
    the gradient reaching each step's h from outside the recurrence. The
    gradients are of the unhalved pre-activations, the ones the weights
    produce. The gate derivatives are formed for all steps at once on
    contiguous [T, 4, n, h] blocks, and the loop scales step t's by the
    gradients reaching c_t and h_t, still gate-major, then writes them
    once into the row-major [n, 4h] gradient that the step callback and
    the weight GEMMs read. Walking back from the last step, `step(t, d_t)`
    gets that gradient and returns the gradient reaching h_{t-1} through
    step t's pre-activations (ignored at t = 0).
    """
    n_t, _, n, hd = act.shape
    i, f, o, g = act.transpose(1, 0, 2, 3)  # each [T, n, h]
    # d act_k / d pre-activation_k, times what multiplies act_k in
    # c_t = f * c_{t-1} + i * g, or in h_t = o * tanh(c_t) for the o gate;
    # the loop scales step t's by the gradient reaching c_t or h_t. Each
    # factor is formed in place, with no temporaries. The sigmoid
    # derivative runs over all four gates, so its two passes read and
    # write whole contiguous blocks; the g gate's block is overwritten.
    d_act = np.subtract(1.0, act)
    d_act *= act
    d_act[:, 0] *= g
    d_act[0, 1] = 0.0  # c_{-1} = 0
    d_act[1:, 1] *= c[:-1]
    d_act[:, 2] *= tc
    d_g = d_act[:, 3]
    np.multiply(g, g, out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    d_g *= i
    dc_dh = np.multiply(tc, tc)  # d c_t / d h_t through tanh(c_t), times o
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    d_pre = np.empty((n_t, n, 4 * hd))
    d_pre4 = d_pre.reshape(n_t, n, 4, hd).transpose(0, 2, 1, 3)  # gate-major view
    dh = dc = None  # gradients reaching h_t and c_t through step t+1
    for t in range(n_t - 1, -1, -1):
        dht = gh[t] if dh is None else gh[t] + dh
        dct = dht * dc_dh[t]
        if dc is not None:
            dct += dc
        d_t = d_act[t]
        d_t[:2] *= dct
        d_t[2] *= dht  # o feeds h, not c
        d_t[3] *= dct
        d_pre4[t] = d_t
        dh = step(t, d_pre[t])
        if t:
            dc = dct * f[t]
    return d_pre


def lstm_sequence(x: Tensor, p: LSTMParams) -> Tensor:
    """Hidden states [B, S, h] of an LSTM run over `x` [B, S, d_in] from zero state.

    The recurrence of `lstm_cell` stepped over axis 1, as one tape record.
    It reads the gates' stored joined weight [fan_in, 4h] and bias (order
    i, f, o, g), and every step's input pre-activation is one GEMM over
    the time-major [S*B, d_in] rows, so only the [B, h] @ [h, 4h]
    recurrent product and `lstm_update` run per step.

    `lstm_update` takes the sigmoid gates' pre-activations halved. The
    all-steps projection and the recurrent product read a copy of the
    weight and bias with those gates' columns halved, made once per
    weight state and kept on the parameters (`LSTMParams.halved`), so no
    step scales by 0.5. This is exact: halving only lowers the exponent, so
    every product and partial sum of x @ (W/2) + b/2 is exactly half of
    the one of x @ W + b, and rounds to exactly half of its rounding
    (barring subnormals). The states are therefore, bit for bit, those
    of halving each step's pre-activations. The gate activations are kept
    gate-major ([S, 4, B, h]). Their one tanh for all four gates makes
    states agree with `lstm_cell` to rounding, not bit for bit.

    The backward pass is `lstm_update_backward`, whose step adds one
    recurrent product with the unhalved weight; the weight, bias and
    input gradients are one product or sum each, and each gate takes its
    column block of them.
    """
    w, hd = p.w.data, p.hidden_dim
    if x.ndim != 3 or x.shape[-1] + hd != w.shape[0]:
        raise ShapeMismatchError(
            f"lstm_sequence: input {x.shape} does not fit gate fan-in {w.shape[0]}"
        )
    n_b, n_s, d_in = x.shape
    w_h, w_x = w[:hd], w[hd:]
    w_half, b_half = p.halved(p.w, p.b)  # the sigmoid gates' columns halved, g's kept
    xt = x.data.transpose(1, 0, 2).reshape(n_s * n_b, d_in)  # time-major rows
    pre = xt @ w_half[hd:]
    pre += b_half
    pre = pre.reshape(n_s, n_b, 4 * hd)  # pre-activations, the recurrent part added per step
    pre4 = pre.reshape(n_s, n_b, 4, hd).transpose(0, 2, 1, 3)  # gate-major view
    w_h_half = w_half[:hd]
    act = np.empty((n_s, 4, n_b, hd))  # gate activations, gate-major
    c = np.empty((n_s, n_b, hd))
    tc = np.empty((n_s, n_b, hd))  # tanh(c)
    hs = np.empty((n_s, n_b, hd))
    for t in range(n_s):
        if t:
            a = pre[t]
            a += hs[t - 1] @ w_h_half
        lstm_update(pre4[t], act[t], c[t - 1] if t else None, c[t], tc[t], hs[t])
    out = Tensor(np.ascontiguousarray(hs.transpose(1, 0, 2)))

    def grads_fn(gout: Array) -> dict[Tensor, Array]:
        d_act = lstm_update_backward(
            act, c, tc, gout.transpose(1, 0, 2), lambda t, d: d @ w_h.T if t else None
        )
        flat = d_act.reshape(n_s * n_b, 4 * hd)
        dw = np.empty_like(w)
        dw[hd:] = xt.T @ flat
        dw[:hd] = hs[:-1].reshape(-1, hd).T @ flat[n_b:]
        grads = {p.w: dw, p.b: flat.sum(axis=0)}  # the gates take their blocks
        if x.tracked:
            grads[x] = (flat @ w_x.T).reshape(n_s, n_b, d_in).transpose(1, 0, 2)
        return grads

    return record((x, *p.inputs), out, grads_fn)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, p: MHAParams) -> Tensor:
    """Scaled dot-product attention with `p.heads` heads, composed from primitives.

    Inputs are [..., L, d] with shared leading batch axes; head j computes
    softmax(Qj Kj^T / sqrt(d_head)) Vj on its column slice of the
    projected inputs, and the heads are concatenated and output-projected.
    """
    d = q.shape[-1]
    if d % p.heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {p.heads} heads")
    dh = d // p.heads
    qp, kp, vp = matmul(q, p.w_q), matmul(k, p.w_k), matmul(v, p.w_v)
    outs = []
    for j in range(p.heads):
        lo, hi = j * dh, (j + 1) * dh
        qh = slice_last(qp, lo, hi)
        kh = slice_last(kp, lo, hi)
        vh = slice_last(vp, lo, hi)
        scores = scale(matmul(qh, transpose(kh)), 1.0 / math.sqrt(dh))
        outs.append(matmul(softmax(scores, axis=-1), vh))
    return matmul(concat(outs, axis=-1), p.w_o)


# ---------------------------------------------------------------------------
# backward pass and finite-difference verification
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grad buffers of every tracked tensor reachable from `loss`.

    A tracked tensor that no gradient reaches keeps `grad` None, as a
    tracked leaf off the tape does.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.tracked:
        raise ValueError("backward: loss does not depend on any tracked tensor")
    loss.grad = np.ones_like(loss.data)
    for _, out, backward_fn in reversed(tape.records):
        if out.grad is not None:
            backward_fn(out.grad)


# A probe whose one-sided slopes disagree by more than this fraction of
# their size has a kink (a relu at 0) within eps, so no derivative to check.
KINK_TOL = 1e-4


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error of tape gradients vs central finite differences.

    `f` rebuilds the scalar loss from the tensors in `params` and must be
    deterministic for fixed parameter values. At most `max_coords` flat
    coordinates are probed per tensor. A probe is skipped when its
    forward and backward one-sided slopes disagree by more than
    `KINK_TOL` of their size: a non-differentiable point (a relu kink)
    lies within eps. Relative error is |a - n| / max(1e-8, |a| + |n|).
    """
    if max_coords < 1:
        raise ConfigError(f"max_coords must be >= 1, got {max_coords}")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be finite and positive, got {eps}")
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
    f0 = float(loss.data)
    # One loss evaluation carries rounding noise of about an ulp, so the
    # central difference cannot resolve gradients much below ulp/(2*eps).
    # Coordinates where analytic and numeric both sit under that floor
    # are unmeasurable by this method rather than wrong; skip them.
    resolution = np.spacing(max(abs(f0), 0.5)) / (2.0 * eps)
    min_signal = 1e5 * resolution
    worst = 0.0
    for name, t in params.items():
        n = t.size
        if n <= max_coords:
            coords = range(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        for idx in coords:
            idx = int(idx)
            # in place, so a view (a `join`ed block) perturbs what it views
            at = np.unravel_index(idx, t.shape)
            orig = t.data[at]
            write(t, orig + eps, at)
            loss_plus = float(f().data)
            write(t, orig - eps, at)
            loss_minus = float(f().data)
            write(t, orig, at)
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(analytic[name][idx])
            if abs(a) < min_signal and abs(numeric) < min_signal:
                continue
            up, down = (loss_plus - f0) / eps, (f0 - loss_minus) / eps
            if abs(up - down) > KINK_TOL * max(1e-8, abs(up) + abs(down)):
                continue
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
