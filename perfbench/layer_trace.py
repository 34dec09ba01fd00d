"""Spans and tape-record attribution recorded from outside the package.

The benchmark never edits ``src/``. It measures the layers by replacing
module attributes with timing wrappers while a run is traced, so each
wrapper sits where the *calling* module looks the function up (for
example ``mulcom.streams.lstm_cell`` is the sentence LSTM, while
``mulcom.msrrn.lstm_cell`` is the reasoner cell). Spans live in memory
as ``[name, start, end, parent]`` and are written out when the run ends.

Tape records are charged to the innermost span that was open while they
were emitted: a wrapped call remembers the tape length before and after
it ran and claims every index in that range that no nested call claimed
first. When the training loop calls ``backward``, each record's callback
is wrapped so its time is charged to the same span.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

import mulcom.data
import mulcom.graph
import mulcom.metrics
import mulcom.model
import mulcom.msrrn
import mulcom.streams
from mulcom.numerics import active_tape

from host_speed import clock

# (module or class, attribute, span name). Span names put the layer first,
# so aggregating by prefix gives per-layer totals.
LAYER_SPANS = (
    (mulcom.data, "load_dataset", "data.load_dataset"),
    (mulcom.model, "build_graph", "graph.build_graph"),
    (mulcom.graph.SynopsisGraph, "directed_pairs", "graph.directed_pairs"),
    (mulcom.model, "forward_logits", "model.forward"),
    (mulcom.model, "word_stream", "streams.word"),
    (mulcom.model, "sentence_stream", "streams.sentence"),
    (mulcom.model, "relation_stream", "streams.relation"),
    (mulcom.streams, "attend", "streams.attend"),
    (mulcom.streams, "run_msrrn", "msrrn.run"),
    (mulcom.streams, "run_rrn", "msrrn.run"),
    (mulcom.msrrn, "mlp_apply", "msrrn.message_mlp"),
    (mulcom.msrrn, "lstm_cell", "msrrn.cell"),
    (mulcom.msrrn, "multi_head_attention", "msrrn.step_attention"),
    (mulcom.msrrn, "gather_rows", "msrrn.gather_scatter"),
    (mulcom.msrrn, "scatter_add_rows", "msrrn.gather_scatter"),
    (mulcom.model, "stream_attention", "model.head.stream_attention"),
    (mulcom.model, "organize", "model.head.organize"),
    (mulcom.model, "predict_logits", "model.head.predict_logits"),
    (mulcom.model, "bce_loss", "model.bce"),
    (mulcom.model, "save_checkpoint", "model.checkpoint_save"),
    (mulcom.model, "load_checkpoint", "model.checkpoint_load"),
    (mulcom.metrics, "evaluate", "metrics.evaluate"),
)

# Counted, not timed: one call per sentence is too fine for a span, and its
# time belongs to the sentence stream's self time.
LAYER_COUNTS = ((mulcom.streams, "lstm_cell", "streams.sentence.lstm_cell"),)

STEP = "train.step"
ADAM = "model.adam"


@contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set attributes for the duration of the block, then restore them."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with tape-record and backward attribution."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        # id(tape) -> (tape, owner span index per record, None if unclaimed)
        self._owners: dict[int, tuple[object, list[int | None]]] = {}
        self.records: Counter[int | None] = Counter()  # owner span -> records
        self.bwd_s: defaultdict[int | None, float] = defaultdict(float)
        self.record_elems = 0
        self._step_span: int | None = None

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span `idx` and any span left open inside it by an exception."""
        now = clock()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def durations(self, name: str, lo: int = 0, hi: int | None = None) -> list[float]:
        """Durations in seconds of the spans called `name` in spans[lo:hi]."""
        return [e - s for n, s, e, _ in self.spans[lo:hi] if n == name]

    # -- wrappers -------------------------------------------------------------

    def _claim(self, tape, r0: int, r1: int, idx: int) -> None:
        entry = self._owners.get(id(tape))
        if entry is None or entry[0] is not tape:
            entry = self._owners[id(tape)] = (tape, [])
        owners = entry[1]
        if len(owners) < r1:
            owners.extend([None] * (r1 - len(owners)))
        for i in range(r0, r1):
            if owners[i] is None:
                owners[i] = idx

    def timed(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tape = active_tape()
            r0 = 0 if tape is None else len(tape.records)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if tape is not None and len(tape.records) > r0:
                    tracer._claim(tape, r0, len(tape.records), idx)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_backward(self, fn: Callable) -> Callable:
        """Charge each record's backward callback to the span that emitted it."""
        tracer = self

        def charge(callback: Callable, owner: int | None) -> Callable:
            def timed_callback(g):
                t0 = clock()
                callback(g)
                tracer.bwd_s[owner] += clock() - t0

            return timed_callback

        @wraps(fn)
        def wrapper(loss, tape):
            _, owners = tracer._owners.pop(id(tape), (None, []))
            owners = owners + [None] * (len(tape.records) - len(owners))
            for i, (inputs, out, callback) in enumerate(tape.records):
                tracer.records[owners[i]] += 1
                tracer.record_elems += out.size
                tape.records[i] = (inputs, out, charge(callback, owners[i]))
            with tracer.span("numerics.backward"):
                return fn(loss, tape)

        return wrapper

    def step_clock(self) -> list[tuple[object, str, object]]:
        """Replacements that time every optimizer step of ``model.train``.

        A step runs from ``Adam.zero_grad`` to the end of ``Adam.step``;
        both are looked up on the class, so the wrappers see every step.
        The Adam update itself is a child span, so the layer wrappers need
        not wrap ``Adam.step`` a second time.
        """
        tracer = self
        adam = mulcom.model.Adam
        zero_grad, step = adam.zero_grad, adam.step

        def timed_zero_grad(opt):
            tracer._step_span = tracer.open(STEP)
            zero_grad(opt)

        def timed_step(opt):
            with tracer.span(ADAM):
                step(opt)
            tracer.close(tracer._step_span)

        return [(adam, "zero_grad", timed_zero_grad), (adam, "step", timed_step)]

    def layer_wrappers(self) -> list[tuple[object, str, object]]:
        out = []
        for owner, attr, name in LAYER_SPANS:
            out.append((owner, attr, self.timed(getattr(owner, attr), name)))
        for owner, attr, name in LAYER_COUNTS:
            out.append((owner, attr, self.counted(getattr(owner, attr), name)))
        backward = mulcom.model.backward
        out.append((mulcom.model, "backward", self.traced_backward(backward)))
        return out

    # -- aggregation ----------------------------------------------------------

    def ancestry(self, idx: int | None) -> list[str]:
        """Names of span `idx` and of every span enclosing it, innermost first."""
        names = []
        while idx is not None and idx >= 0:
            name, _, _, parent = self.spans[idx]
            names.append(name)
            idx = parent
        return names

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name within spans[lo:hi]: calls, inclusive and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            agg = out[name]
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def charged(self, lo: int, hi: int) -> tuple[Counter, defaultdict]:
        """Records and backward seconds inclusive per span name, for owners in [lo, hi)."""
        records: Counter[str] = Counter()
        bwd: defaultdict[str, float] = defaultdict(float)
        for owner in set(self.records) | set(self.bwd_s):
            if owner is None or not lo <= owner < hi:
                continue
            for name in set(self.ancestry(owner)):
                records[name] += self.records[owner]
                bwd[name] += self.bwd_s[owner]
        return records, bwd

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
