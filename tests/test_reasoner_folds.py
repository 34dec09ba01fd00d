"""The reasoner with its parameter-only folds against the record it replaced.

`mulcom.msrrn` forms the edge projection through message layer 1, and
message layer 2 through the cell's message block, once per weight state,
and keeps the cell's sigmoid gate columns halved in its cached weights.
Its backward pass forms the step attention's query and key gradients in
two products batched over (node, head), and each step's gate gradient
meets the cell in one product. `reasoner_reference` keeps the record as
it ran before: per-call edge products, message layer 2 and its bias on
every pair row, a staged message buffer and a halving pass per step,
and a backward pass that loops over key steps and keeps a six-block
per-step gradient. Both must give outputs and every parameter gradient
within 1e-12 of each other, on graphs whose receivers get no pair, one
pair or several, and on ragged unions, with heads from one wide up to
the CLI-default widths, and the forward without a tape must give the
recorded output bit for bit. The step attention's forward buffers must
be gone before the recurrence's backward allocates its own.
"""

import inspect
import weakref

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reasoner_reference as reference
from composite_oracle import reduce_sum
from mulcom import msrrn
from mulcom import numerics as nm
from mulcom.config import ModelConfig
from mulcom.graph import EntityMentions, FeatureDoc, graph_batch
from mulcom.numerics import Tape, Tensor

TOL = 1e-12
D_S, D_H, N_SENTS = 5, 8, 4
RUNS = {"msrrn": (msrrn.run_msrrn, reference.run_msrrn),
        "rrn": (msrrn.run_rrn, reference.run_rrn)}


def union(tables):
    """The graph union of one doc per mention table (entity -> sentence ordinals)."""
    docs = []
    for i, table in enumerate(tables):
        rng = np.random.default_rng([i, len(table)])
        docs.append(FeatureDoc(
            doc_id=f"d{i}",
            word_feats=rng.standard_normal((2, 3)),
            sent_feats=rng.standard_normal((N_SENTS, D_S)),
            entities=[EntityMentions(f"e{j}", sents) for j, sents in enumerate(table)],
            labels=(),
        ))
    return graph_batch(docs)


def reasoner(steps, heads, seed, d_h=D_H):
    rng = np.random.default_rng([steps, heads, seed])
    p = msrrn.init_reasoner(rng, d_s=D_S, d_h=d_h, steps=steps, heads=heads)
    for name, t in p.named():  # nonzero biases exercise their gradients
        if name.endswith(".b"):
            nm.write(t, rng.uniform(-0.5, 0.5, size=t.shape))
    return p, rng


def output_and_grads(run, graph, p, w):
    """Output and every reasoner parameter gradient (None if off the tape)."""
    leaves = dict(p.named())
    for t in leaves.values():
        t.zero_grad()
    with Tape() as tape:
        out = run(graph, p)
        loss = reduce_sum(nm.mul(out, Tensor(w)))
    nm.backward(loss, tape)
    return out.data.copy(), {k: None if t.grad is None else t.grad.copy()
                             for k, t in leaves.items()}


SELF_LOOPS_ONLY = [[[0], [1], [2, 3]]]  # each sentence mentions one entity
UNREACHED_NODE = [[[0], [0], []]]  # e2 receives no pair
CLIQUE = [[[0], [0], [0, 1], [0]]]  # every node receives three pairs or more
SINGLE_NODE = [[[1]]]
RAGGED = [[[0], [0]], [[0, 1], [1], [1], [], [2]], [[3]]]
# in-degrees 3, 3, 4, 3 and 0, then 1: the prologue's degree column in every role
DEGREES = [[[0], [0], [0, 1], [0], []], [[2]]]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    tables=st.lists(
        st.lists(st.lists(st.integers(0, N_SENTS - 1), max_size=3), min_size=1, max_size=5),
        min_size=1, max_size=3),
    steps=st.integers(1, 4),
    heads=st.sampled_from([1, 2, 4, 8]),
    kind=st.sampled_from(list(RUNS)),
)
@example(tables=SELF_LOOPS_ONLY, steps=3, heads=2, kind="msrrn")
@example(tables=UNREACHED_NODE, steps=2, heads=4, kind="msrrn")
@example(tables=CLIQUE, steps=4, heads=1, kind="rrn")
@example(tables=CLIQUE, steps=2, heads=2, kind="msrrn")
@example(tables=SINGLE_NODE, steps=1, heads=1, kind="msrrn")
@example(tables=SINGLE_NODE, steps=3, heads=4, kind="rrn")
@example(tables=RAGGED, steps=3, heads=2, kind="msrrn")
@example(tables=RAGGED, steps=1, heads=4, kind="rrn")
@example(tables=RAGGED, steps=1, heads=D_H, kind="msrrn")  # one-wide heads, a 1x1 step matrix
# a single step reads summed messages alone, h_{-1} = 0, with no recurrent block
@example(tables=UNREACHED_NODE, steps=1, heads=2, kind="msrrn")
@example(tables=CLIQUE, steps=1, heads=4, kind="msrrn")
@example(tables=DEGREES, steps=1, heads=2, kind="rrn")
@example(tables=DEGREES, steps=3, heads=4, kind="msrrn")
def test_folded_reasoner_matches_the_reference(tables, steps, heads, kind):
    check_against_the_reference(tables, steps, heads, kind)


def test_the_cli_default_widths_match_the_reference():
    # the planted corpora never give a receiver more than one pair
    cfg = ModelConfig(num_tropes=1, d_w=1, d_s=D_S)  # d_h 64, 4 heads, 3 steps
    check_against_the_reference(
        CLIQUE, steps=cfg.reasoner_steps, heads=cfg.reasoner_heads, kind="msrrn", d_h=cfg.d_h)


def check_against_the_reference(tables, steps, heads, kind, d_h=D_H):
    graph = union(tables)
    p, rng = reasoner(steps, heads, seed=len(tables), d_h=d_h)
    w = rng.standard_normal((graph.n_nodes, d_h))
    run, ref_run = RUNS[kind]
    got, got_grads = output_and_grads(run, graph, p, w)
    want, want_grads = output_and_grads(ref_run, graph, p, w)
    assert got.shape == want.shape == (graph.n_nodes, d_h)
    assert np.abs(got - want).max(initial=0.0) <= TOL
    # without a tape every step reuses one slot, and the output stays bit for bit
    np.testing.assert_array_equal(run(graph, p).data, got)
    assert got_grads.keys() == want_grads.keys()
    for name, g in got_grads.items():
        if want_grads[name] is None:  # rrn leaves the step attention off the tape
            assert g is None and kind == "rrn", name
            continue
        assert g.shape == want_grads[name].shape, name
        assert np.abs(g - want_grads[name]).max(initial=0.0) <= TOL, name


def test_the_examples_cover_the_graph_shapes():
    self_loops = union(SELF_LOOPS_ONLY)
    assert (self_loops.recv == self_loops.send).all() and self_loops.recv.size
    assert 0 in np.bincount(union(UNREACHED_NODE).recv, minlength=3)
    assert np.bincount(union(CLIQUE).recv).min() >= 3
    assert union(SINGLE_NODE).n_nodes == 1
    assert np.bincount(union(DEGREES).recv, minlength=6).tolist() == [3, 3, 4, 3, 0, 1]
    ragged = union(RAGGED)
    assert len(set(ragged.node_counts.tolist())) == 3


def _chain(a):
    """`a` and every array it is a view of."""
    while a is not None:
        yield a
        a = a.base


def test_the_attention_buffers_are_freed_before_the_recurrence_backward(monkeypatch):
    graph = union(RAGGED)
    p, rng = reasoner(3, 2, seed=0)
    with Tape() as tape:
        out = msrrn.run_msrrn(graph, p)
        loss = reduce_sum(nm.mul(out, Tensor(rng.standard_normal(out.shape))))
    (backward_fn,) = [fn for _, o, fn in tape.records if o is out]
    grads_fn = inspect.getclosurevars(backward_fn).nonlocals["grads_fn"]
    held = inspect.getclosurevars(grads_fn).nonlocals["held"]
    refs = [weakref.ref(b) for a in held for b in _chain(a)]
    assert len(refs) >= 4  # the q, k, v blocks, the scores buffer and its view, weight
    del held, grads_fn, backward_fn
    assert all(r() is not None for r in refs)
    live = []
    real = msrrn.lstm_update_backward

    def checked(*args):
        live.append([r() is not None for r in refs])
        return real(*args)

    monkeypatch.setattr(msrrn, "lstm_update_backward", checked)
    nm.backward(loss, tape)
    assert live == [[False] * len(refs)]

