"""Graph construction checked against a brute-force pairwise scan."""

import numpy as np
import numpy.testing as npt
import pytest

from mulcom.errors import ValidationError
from mulcom.graph import (
    EntityMentions,
    FeatureDoc,
    build_graph,
)


def graph_stats(graph):
    """Node count and density; self-loops do not count toward density."""
    n = graph.n_nodes
    plain = int(np.count_nonzero(graph.recv != graph.send)) // 2  # two rows each
    density = 0.0 if n < 2 else plain / (n * (n - 1) / 2)
    return {"node_count": float(n), "density": density}


def make_doc(mention_table, n_sents, d_s=4, seed=0, labels=()):
    """mention_table: entity_id -> sentence indices."""
    rng = np.random.default_rng(seed)
    sent_feats = rng.standard_normal((n_sents, d_s))
    entities = [
        EntityMentions(entity_id=eid, sents=sents)
        for eid, sents in mention_table.items()
    ]
    return FeatureDoc(
        doc_id="doc0",
        word_feats=rng.standard_normal((3, 2)),
        sent_feats=sent_feats,
        entities=entities,
        labels=tuple(labels),
    )


def scan_oracle(doc):
    """O(S * E^2) enumeration of expected edges and features."""
    n = len(doc.entities)
    expected = {}
    for s in range(doc.n_sents):
        present = [
            i for i, ent in enumerate(doc.entities) if s in ent.sents
        ]
        if len(present) == 1:
            i = present[0]
            key = (i, i)
            expected[key] = expected.get(key, 0) + doc.sent_feats[s]
        else:
            for a in range(len(present)):
                for b in range(a + 1, len(present)):
                    key = (present[a], present[b])
                    expected[key] = expected.get(key, 0) + doc.sent_feats[s]
    return expected


def edge_map(graph):
    """Undirected edges {(i, j): feature}, i <= j, read off the pair rows.

    A self-loop must be one row and any other edge two rows, one per
    direction, carrying the same feature.
    """
    rows = {}
    for r, s, e in zip(graph.recv.tolist(), graph.send.tolist(), graph.efeat):
        rows.setdefault((min(r, s), max(r, s)), []).append(((r, s), e))
    edges = {}
    for (i, j), found in rows.items():
        want = [(i, j)] if i == j else [(i, j), (j, i)]
        assert sorted(pair for pair, _ in found) == want
        for _, e in found[1:]:
            npt.assert_array_equal(e, found[0][1])
        edges[(i, j)] = found[0][1]
    return edges


def neighbours(graph, i):
    """Sorted senders of the pairs node `i` receives."""
    return sorted(graph.send[graph.recv == i].tolist())


class TestBuildGraph:
    def test_one_shared_sentence(self):
        doc = make_doc({"A": [0], "B": [0]}, n_sents=1)
        g = build_graph(doc)
        assert g.entity_ids == ["A", "B"]
        edges = edge_map(g)
        assert list(edges) == [(0, 1)]
        npt.assert_array_equal(edges[(0, 1)], doc.sent_feats[0])
        npt.assert_array_equal(g.x[0], doc.sent_feats[0])

    def test_single_entity_sentence_makes_self_loop(self):
        doc = make_doc({"A": [0]}, n_sents=1)
        g = build_graph(doc)
        edges = edge_map(g)
        assert list(edges) == [(0, 0)]
        npt.assert_array_equal(edges[(0, 0)], doc.sent_feats[0])
        npt.assert_array_equal(g.x[0], doc.sent_feats[0])
        assert neighbours(g, 0) == [0]

    def test_no_self_loop_when_sentence_is_shared(self):
        doc = make_doc({"A": [0], "B": [0]}, n_sents=1)
        g = build_graph(doc)
        assert (g.recv != g.send).all()

    def test_matches_pairwise_scan_oracle(self):
        table = {
            "A": [0, 1, 3],
            "B": [0, 2],
            "C": [1, 2, 3],
        }
        doc = make_doc(table, n_sents=4, seed=3)
        g = build_graph(doc)
        expected = scan_oracle(doc)
        got = edge_map(g)
        assert set(got) == set(expected)
        for key in expected:
            npt.assert_allclose(got[key], expected[key], atol=1e-15)
        # node features: sum over mention sentences
        for ei, ent in enumerate(doc.entities):
            npt.assert_allclose(
                g.x[ei], doc.sent_feats[list(ent.sents)].sum(axis=0), atol=1e-15
            )

    def test_multi_sentence_edge_sums_features(self):
        doc = make_doc({"A": [0, 1], "B": [0, 1]}, n_sents=2)
        g = build_graph(doc)
        edges = edge_map(g)
        assert len(edges) == 1
        npt.assert_allclose(
            edges[(0, 1)], doc.sent_feats[0] + doc.sent_feats[1], atol=1e-15
        )

    def test_zero_mention_entity_kept_isolated(self):
        doc = make_doc({"A": [0], "B": []}, n_sents=1)
        g = build_graph(doc)
        npt.assert_array_equal(g.x[1], np.zeros(4))
        assert neighbours(g, 1) == []

    def test_permutation_covariance(self):
        table = {"A": [0, 2], "B": [0, 1], "C": [1, 2], "D": [3]}
        doc = make_doc(table, n_sents=4, seed=9)
        g = build_graph(doc)

        perm = [2, 0, 3, 1]  # new position of old entity k is perm.index(k)
        permuted = FeatureDoc(
            doc_id=doc.doc_id,
            word_feats=doc.word_feats,
            sent_feats=doc.sent_feats,
            entities=[doc.entities[k] for k in perm],
            labels=doc.labels,
        )
        g2 = build_graph(permuted)
        new_of_old = {old: new for new, old in enumerate(perm)}
        for ei in range(4):
            npt.assert_array_equal(g2.x[new_of_old[ei]], g.x[ei])
        remapped = {
            tuple(sorted((new_of_old[i], new_of_old[j]))): e
            for (i, j), e in edge_map(g).items()
        }
        got = edge_map(g2)
        assert set(got) == set(remapped)
        for key in got:
            npt.assert_array_equal(got[key], remapped[key])

    def test_directed_pairs_cover_both_directions(self):
        doc = make_doc({"A": [0, 1], "B": [0], "C": [2]}, n_sents=3)
        g = build_graph(doc)
        recv, send, feats = g.directed_pairs()
        pairs = set(zip(recv.tolist(), send.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs  # shared sentence 0
        assert (0, 0) in pairs  # solo sentence 1
        assert (2, 2) in pairs  # solo sentence 2
        assert feats.shape[0] == len(recv)

    def test_pair_rows_follow_sorted_edges(self):
        # rows run over the edges in (i, j) order; an i != j edge gives
        # (i, j) then (j, i)
        doc = make_doc({"A": [0, 1, 3], "B": [0, 2], "C": [1, 2, 3]}, n_sents=4, seed=3)
        g = build_graph(doc)
        pairs = []
        for i, j in sorted(scan_oracle(doc)):
            pairs += [(i, j)] if i == j else [(i, j), (j, i)]
        assert list(zip(g.recv.tolist(), g.send.tolist())) == pairs
        assert g.recv.dtype == g.send.dtype == np.intp


class TestGraphStats:
    def test_triangle_density(self):
        doc = make_doc({"A": [0, 1], "B": [0, 2], "C": [1, 2]}, n_sents=3)
        stats = graph_stats(build_graph(doc))
        assert stats["node_count"] == 3.0
        assert stats["density"] == 1.0

    def test_empty_edge_set(self):
        doc = make_doc({"A": [], "B": [], "C": []}, n_sents=1)
        stats = graph_stats(build_graph(doc))
        assert stats["density"] == 0.0

    def test_self_loops_do_not_count(self):
        doc = make_doc({"A": [0], "B": [1]}, n_sents=2)
        stats = graph_stats(build_graph(doc))
        assert stats["density"] == 0.0
        assert stats["node_count"] == 2.0

    def test_singleton_graph(self):
        doc = make_doc({"A": [0]}, n_sents=1)
        assert graph_stats(build_graph(doc))["density"] == 0.0


class TestValidation:
    """`FeatureDoc` sets up a doc's invariants when it is made."""

    @pytest.mark.parametrize("sents, want", [
        ((2, 0, 2, 1, 0), (0, 1, 2)),
        ((), ()),
        ((0, -1), "sentence -1,"),
        ((0, 3), "sentence 3,"),
        ((0, 2**70), f"sentence {2**70},"),
        ((-(2**70), 1, 5), f"sentence {-(2**70)},"),
    ], ids=["normalized", "no-mentions", "minus-1", "n_sents", "2**70", "-(2**70)"])
    def test_construction_sets_up_the_invariants(self, caplog, sents, want):
        mentions = {"A": [1], "B": list(sents)}
        if isinstance(want, str):
            with pytest.raises(ValidationError) as exc:
                make_doc(mentions, n_sents=3)
            assert str(exc.value) == f"doc0: entity 'B' mentions {want} but document has 3 sentences"
            return
        with caplog.at_level("WARNING", logger="mulcom.graph"):
            doc = make_doc(mentions, n_sents=3, labels=[2, 0, 2])
        assert doc.entities == (EntityMentions("A", (1,)), EntityMentions("B", want))
        assert doc.labels == (0, 2)
        warned = [] if want else ["doc doc0: entity 'B' has no mentions; keeping isolated zero node"]
        assert [r.getMessage() for r in caplog.records] == warned

    def test_out_of_range_mention(self):
        # raised where the doc is made, so no builder or loader sees it
        with pytest.raises(ValidationError, match="doc0: entity 'A' mentions sentence 5"):
            make_doc({"A": [5]}, n_sents=2)

    def test_label_bound(self):
        # a label's upper bound is the loader's, which knows the trope count
        with pytest.raises(ValidationError, match="doc0: label index -1 is negative"):
            make_doc({"A": [0]}, n_sents=1, labels=[3, -1])

    def test_valid_doc_passes(self):
        doc = make_doc({"A": [0]}, n_sents=1, labels=[0, 2])
        assert doc.labels == (0, 2)
        assert doc.entities == (EntityMentions("A", (0,)),)
