"""Reasoner checked against a per-pair, per-node scripted re-implementation."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from mulcom.graph import build_graph
from mulcom.msrrn import (
    ReasonerParams,
    init_reasoner,
    run_msrrn,
    run_rrn,
)
from mulcom.numerics import (
    MHAParams,
    Tensor,
    concat,
    grad_check,
    lstm_cell,
    param,
    rng_from_seed,
    write,
)

from composite_oracle import message_pass, reduce_sum
from test_graph import make_doc


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_softmax_rows(x):
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def identity_mha(dim, heads):
    """Identity projections; with a length-1 sequence attention is a no-op."""
    return MHAParams(*(param(np.eye(dim)) for _ in range(4)), heads=heads)


def directed_triples(graph, p):
    """(receiver, sender, projected edge feature), one pair row at a time."""
    out = []
    for i, j, e in zip(graph.recv.tolist(), graph.send.tolist(), graph.efeat):
        out.append((i, j, e @ p.edge_in.w.data + p.edge_in.b.data))
    return out


def oracle_messages(graph, h, p):
    n = graph.x.shape[0]
    d_h = p.hidden_dim
    l1, l2 = p.message_mlp.layers
    m = np.zeros((n, d_h))
    for i, j, ep in directed_triples(graph, p):
        z = np.concatenate([ep, h[i], h[j]])
        mid = np.maximum(z @ l1.w.data + l1.b.data, 0.0)
        m[i] += mid @ l2.w.data + l2.b.data
    return m


def oracle_states(graph, p):
    """Step-by-step hidden states from zero h and c, one node at a time."""
    n = graph.x.shape[0]
    d_h = p.hidden_dim
    x_proj = graph.x @ p.node_in.w.data + p.node_in.b.data
    h = np.zeros((n, d_h))
    c = np.zeros((n, d_h))
    states = []
    for _ in range(p.steps):
        m = oracle_messages(graph, h, p)
        nh = np.zeros_like(h)
        nc = np.zeros_like(c)
        for i in range(n):
            z = np.concatenate([h[i], x_proj[i], m[i]])
            gi = np_sigmoid(z @ p.cell.gate_i.w.data + p.cell.gate_i.b.data)
            gf = np_sigmoid(z @ p.cell.gate_f.w.data + p.cell.gate_f.b.data)
            go = np_sigmoid(z @ p.cell.gate_o.w.data + p.cell.gate_o.b.data)
            gg = np.tanh(z @ p.cell.gate_g.w.data + p.cell.gate_g.b.data)
            nc[i] = gf * c[i] + gi * gg
            nh[i] = go * np.tanh(nc[i])
        h, c = nh, nc
        states.append(h.copy())
    return states


def oracle_msrrn(graph, p):
    states = oracle_states(graph, p)
    omega = np.stack(states, axis=1)  # [n, T, d_h]
    n, T, d = omega.shape
    a = p.step_attention
    dh = d // a.heads
    out = np.zeros((n, d))
    for i in range(n):
        q = omega[i] @ a.w_q.data
        k = omega[i] @ a.w_k.data
        v = omega[i] @ a.w_v.data
        parts = []
        for hh in range(a.heads):
            sl = slice(hh * dh, (hh + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            parts.append(np_softmax_rows(scores) @ v[:, sl])
        out[i] = (np.concatenate(parts, axis=-1) @ a.w_o.data).sum(axis=0)
    return out


def path_graph(n_nodes, d_s=5, seed=0):
    """Path a0-a1-...: sentence k mentions entities k and k+1."""
    table = {f"e{i}": [] for i in range(n_nodes)}
    for s in range(n_nodes - 1):
        table[f"e{s}"].append(s)
        table[f"e{s + 1}"].append(s)
    return build_graph(make_doc(table, n_sents=max(n_nodes - 1, 1), d_s=d_s, seed=seed))


def with_x(graph, x):
    return dataclasses.replace(graph, x=x)


def zero_params(p):
    for _, t in p.named():
        write(t, 0.0)


class TestMessagePass:
    def test_zero_params_give_zero_messages(self):
        rng = rng_from_seed(1)
        g = path_graph(4)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        zero_params(p)
        h = Tensor(rng.standard_normal((4, 8)))
        m = message_pass(g, h, p)
        npt.assert_array_equal(m.data, np.zeros((4, 8)))

    def test_isolated_node_gets_zero_row(self):
        rng = rng_from_seed(2)
        doc = make_doc({"A": [0], "B": [0], "C": []}, n_sents=1, d_s=5)
        g = build_graph(doc)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
        h = Tensor(rng.standard_normal((3, 8)))
        m = message_pass(g, h, p)
        npt.assert_array_equal(m.data[2], np.zeros(8))
        assert np.abs(m.data[:2]).max() > 0

    def test_path_graph_matches_pairwise_oracle(self):
        rng = rng_from_seed(3)
        g = path_graph(3, seed=4)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
        h = rng.standard_normal((3, 8))
        m = message_pass(g, Tensor(h), p)
        npt.assert_allclose(m.data, oracle_messages(g, h, p), rtol=1e-12, atol=1e-12)


class TestReasonStep:
    def test_zero_params_zero_next_state(self):
        rng = rng_from_seed(5)
        g = path_graph(3)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
        zero_params(p)
        x_proj = Tensor(rng.standard_normal((3, 8)))
        h = Tensor(np.zeros((3, 8)))
        c = Tensor(np.zeros((3, 8)))
        m = message_pass(g, h, p)
        h1, c1 = lstm_cell(h, c, concat([x_proj, m], axis=-1), p.cell)
        npt.assert_array_equal(h1.data, np.zeros((3, 8)))
        npt.assert_array_equal(c1.data, np.zeros((3, 8)))

    def test_self_loop_node_equals_one_node_graph(self):
        # A single entity mentioned alone: its neighborhood is just itself,
        # so it should behave like the sole node of a one-node graph.
        rng = rng_from_seed(6)
        doc = make_doc({"A": [0]}, n_sents=1, d_s=5, seed=7)
        g = build_graph(doc)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        out = run_rrn(g, p)
        assert out.shape == (1, 8)
        npt.assert_allclose(
            out.data, oracle_states(g, p)[-1], rtol=1e-12, atol=1e-12
        )


class TestReasoners:
    def test_rrn_t2_matches_oracle(self):
        rng = rng_from_seed(8)
        g = path_graph(4, seed=9)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        out = run_rrn(g, p)
        npt.assert_allclose(out.data, oracle_states(g, p)[-1], rtol=1e-10, atol=1e-12)

    def test_msrrn_t3_matches_oracle(self):
        rng = rng_from_seed(10)
        g = path_graph(5, seed=11)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=3, heads=4)
        out = run_msrrn(g, p)
        npt.assert_allclose(out.data, oracle_msrrn(g, p), rtol=1e-10, atol=1e-12)

    def test_t1_identity_attention_equals_rrn_exactly(self):
        rng = rng_from_seed(12)
        g = path_graph(4, seed=13)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=1, heads=2)
        p.step_attention = identity_mha(8, 2)
        npt.assert_array_equal(run_msrrn(g, p).data, run_rrn(g, p).data)

    def test_zero_params_zero_rrn_output(self):
        rng = rng_from_seed(14)
        g = path_graph(3)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=3, heads=2)
        zero_params(p)
        npt.assert_array_equal(run_rrn(g, p).data, np.zeros((3, 8)))

    @pytest.mark.parametrize("trial", range(8))
    def test_permutation_equivariance(self, trial):
        rng = rng_from_seed(100 + trial)
        n = int(rng.integers(2, 9))
        n_sents = int(rng.integers(1, 6))
        table = {
            f"e{i}": sorted(
                set(rng.integers(0, n_sents, size=rng.integers(0, 4)).tolist())
            )
            for i in range(n)
        }
        doc = make_doc(table, n_sents=n_sents, d_s=5, seed=200 + trial)
        g = build_graph(doc)
        steps = int(rng.integers(1, 5))
        p = init_reasoner(rng, d_s=5, d_h=8, steps=steps, heads=2)

        perm = rng.permutation(n).tolist()
        doc2 = make_doc(
            {f"e{k}": table[f"e{k}"] for k in perm}, n_sents=n_sents, d_s=5,
            seed=200 + trial,
        )
        g2 = build_graph(doc2)
        new_of_old = {old: new for new, old in enumerate(perm)}

        for run in (run_msrrn, run_rrn):
            out1 = run(g, p).data
            out2 = run(g2, p).data
            remapped = np.zeros_like(out1)
            for old in range(n):
                remapped[new_of_old[old]] = out1[old]
            assert np.abs(out2 - remapped).max() < 1e-10

    def test_locality_on_path_graph(self):
        # With two steps, node i's output depends on x_j exactly for
        # neighbors and itself; a two-hop node cannot reach it yet.
        rng = rng_from_seed(15)
        g = path_graph(3, seed=16)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        base = run_msrrn(g, p).data

        def perturbed(node):
            x = g.x.copy()
            x[node] += rng.standard_normal(5)
            return run_msrrn(with_x(g, x), p).data

        far = perturbed(2)
        npt.assert_array_equal(far[0], base[0])  # two hops away: untouched
        assert np.abs(far[1] - base[1]).max() > 0
        assert np.abs(far[2] - base[2]).max() > 0
        near = perturbed(1)
        assert np.abs(near[0] - base[0]).max() > 0
        own = perturbed(0)
        assert np.abs(own[0] - base[0]).max() > 0

    def test_empty_pair_list_still_runs(self):
        rng = rng_from_seed(17)
        doc = make_doc({"A": [], "B": []}, n_sents=1, d_s=5)
        g = build_graph(doc)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        out = run_msrrn(g, p)
        assert out.shape == (2, 8)
        assert np.all(np.isfinite(out.data))


class TestGradients:
    def test_two_step_gradients_match_finite_differences(self):
        rng = rng_from_seed(18)
        g = path_graph(3, seed=19)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        params = dict(p.named())
        err = grad_check(
            lambda: reduce_sum(run_msrrn(g, p)),
            params,
            max_coords=6,
            rng=rng_from_seed(20),
        )
        assert err < 1e-4

    def test_rrn_gradients_match_finite_differences(self):
        rng = rng_from_seed(21)
        g = path_graph(3, seed=22)
        p = init_reasoner(rng, d_s=5, d_h=8, steps=2, heads=2)
        params = dict(p.named())
        err = grad_check(
            lambda: reduce_sum(run_rrn(g, p)),
            params,
            max_coords=6,
            rng=rng_from_seed(23),
        )
        assert err < 1e-4
