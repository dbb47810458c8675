"""Unit tests for CSR graph storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.csr import GraphDelta


@st.composite
def graphs_with_nodes(draw, max_nodes=30, max_edges=90):
    """A random CSR graph (self-loops and one-way entries allowed) plus
    a sorted, unique node subset of it."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    graph = CSRGraph.from_edges(
        n,
        np.asarray([u for u, _ in pairs], dtype=np.int64),
        np.asarray([v for _, v in pairs], dtype=np.int64),
        symmetrize=draw(st.booleans()),
    )
    nodes = sorted(draw(st.sets(st.integers(0, n - 1))))
    return graph, np.asarray(nodes, dtype=np.int64)


@st.composite
def graphs_with_deltas(draw, max_nodes=24, max_edges=70, max_edits=30):
    """A canonical graph (no self-loops) plus a valid delta against it.

    Insertions may repeat existing edges and deletions may name absent
    ones (both are no-ops); no undirected edge is on both sides.
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=max_edges))
    graph = CSRGraph.from_edges(
        n,
        np.asarray([u for u, _ in edges], dtype=np.int64),
        np.asarray([v for _, v in edges], dtype=np.int64),
        name="base",
    )
    existing = [(int(k) // n, int(k) % n) for k in graph.edge_keys()]
    deletions = draw(st.lists(
        st.sampled_from(existing) | pair if existing else pair,
        max_size=max_edits,
    ))
    gone = {frozenset(e) for e in deletions}
    insertions = [
        e for e in draw(st.lists(pair, max_size=max_edits))
        if frozenset(e) not in gone
    ]
    delta = GraphDelta.from_edges(
        insertions=np.asarray(insertions, dtype=np.int64).reshape(-1, 2),
        deletions=np.asarray(deletions, dtype=np.int64).reshape(-1, 2),
    )
    return graph, insertions, deletions, delta


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = CSRGraph.from_edges(3, [0], [1])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_from_edges_deduplicates(self):
        g = CSRGraph.from_edges(3, [0, 0, 1], [1, 1, 0])
        assert g.num_edges == 2

    def test_from_edges_no_symmetrize(self):
        g = CSRGraph.from_edges(3, [0], [1], symmetrize=False)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_empty(self):
        g = CSRGraph.empty(4)
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_zero_nodes(self):
        g = CSRGraph.empty(0)
        assert g.num_nodes == 0
        assert g.avg_degree == 0.0

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_rejects_indptr_indices_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [0], [5])

    def test_from_scipy_roundtrip(self, fig2):
        again = CSRGraph.from_scipy(fig2.to_scipy())
        assert np.array_equal(again.indptr, fig2.indptr)
        assert np.array_equal(again.indices, fig2.indices)

    def test_indices_sorted_within_rows(self, fig2):
        for u in range(fig2.num_nodes):
            row = fig2.neighbors(u)
            assert np.all(np.diff(row) > 0)


class TestProperties:
    def test_fig2_shape(self, fig2):
        assert fig2.num_nodes == 6
        assert fig2.num_edges == 16  # 8 undirected edges

    def test_degrees(self, fig2):
        assert fig2.degrees.sum() == fig2.num_edges
        assert fig2.degree(1) == len(fig2.neighbors(1))

    def test_max_avg_degree(self, star):
        assert star.max_degree == 5
        assert star.avg_degree == pytest.approx(10 / 6)

    def test_density(self, triangle):
        assert triangle.density == pytest.approx(6 / 9)

    def test_neighbors_bounds_checked(self, fig2):
        with pytest.raises(GraphError):
            fig2.neighbors(100)
        with pytest.raises(GraphError):
            fig2.degree(-1)

    def test_has_edge(self, fig2):
        assert fig2.has_edge(0, 1)
        assert not fig2.has_edge(0, 3)

    def test_iter_edges_count(self, fig2):
        assert sum(1 for _ in fig2.iter_edges()) == fig2.num_edges

    def test_is_symmetric(self, fig2):
        assert fig2.is_symmetric()

    def test_asymmetric_detected(self):
        g = CSRGraph.from_edges(3, [0], [1], symmetrize=False)
        assert not g.is_symmetric()


class TestSelfLoops:
    def test_with_self_loops(self, triangle):
        g = triangle.with_self_loops()
        assert g.has_self_loops()
        assert g.num_edges == triangle.num_edges + 3

    def test_with_self_loops_idempotent(self, triangle):
        g = triangle.with_self_loops()
        assert g.with_self_loops().num_edges == g.num_edges

    def test_without_self_loops(self, triangle):
        g = triangle.with_self_loops().without_self_loops()
        assert not g.has_self_loops()
        assert g.num_edges == triangle.num_edges

    def test_plain_graph_has_no_self_loops(self, fig2):
        assert not fig2.has_self_loops()


class TestPermute:
    def test_permute_preserves_structure(self, fig2):
        perm = np.array([5, 4, 3, 2, 1, 0])
        g = fig2.permute(perm)
        assert g.num_edges == fig2.num_edges
        for u, v in fig2.iter_edges():
            assert g.has_edge(int(perm[u]), int(perm[v]))

    def test_identity_permutation(self, fig2):
        g = fig2.permute(np.arange(6))
        assert np.array_equal(g.indices, fig2.indices)

    def test_rejects_non_permutation(self, fig2):
        with pytest.raises(GraphError):
            fig2.permute(np.zeros(6, dtype=int))

    def test_rejects_wrong_length(self, fig2):
        with pytest.raises(GraphError):
            fig2.permute(np.arange(3))


class TestSubgraph:
    def test_subgraph_of_triangle(self, triangle):
        sub = triangle.subgraph(np.array([0, 1]))
        assert sub.num_nodes == 2
        assert sub.num_edges == 2

    def test_subgraph_drops_external_edges(self, star):
        sub = star.subgraph(np.array([1, 2]))
        assert sub.num_edges == 0

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_nodes())
    def test_matches_dense_slice_and_is_canonical(self, case):
        graph, nodes = case
        sub = graph.subgraph(nodes)
        dense = graph.to_dense()
        assert sub.num_nodes == len(nodes)
        assert np.array_equal(sub.to_dense(), dense[np.ix_(nodes, nodes)])
        for u in range(sub.num_nodes):
            assert np.all(np.diff(sub.neighbors(u)) > 0)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_nodes(), st.data())
    def test_rejects_unsorted_or_duplicate_nodes(self, case, data):
        graph, nodes = case
        nodes = nodes.tolist()
        if len(nodes) == 0:
            nodes = [0]
        i = data.draw(st.integers(0, len(nodes) - 1), label="i")
        if len(nodes) > 1 and data.draw(st.booleans(), label="swap"):
            j = (i + 1) % len(nodes)
            nodes[i], nodes[j] = nodes[j], nodes[i]
        else:
            nodes.insert(i, nodes[i])
        with pytest.raises(GraphError):
            graph.subgraph(np.asarray(nodes, dtype=np.int64))

    def test_rejects_out_of_range_nodes(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph(np.array([1, 3]))

    def test_to_dense_matches(self, fig2):
        dense = fig2.to_dense()
        assert dense.sum() == fig2.num_edges
        assert np.array_equal(dense, dense.T)


class TestApplyDelta:
    """``apply_delta`` output is the canonical graph of the mutated edges.

    Incremental islandization and the packed-task splice both rely on
    this: an island's task is rebuilt from its members' rows, so a row
    an edit did not touch must come out of the delta byte-identical.
    """

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_deltas())
    def test_matches_from_edges_on_mutated_edge_list(self, case):
        graph, insertions, deletions, delta = case
        n = graph.num_nodes
        edges = {frozenset((int(k) // n, int(k) % n)) for k in graph.edge_keys()}
        edges |= {frozenset(e) for e in insertions}
        edges -= {frozenset(e) for e in deletions}
        pairs = np.asarray([sorted(e) for e in edges], dtype=np.int64).reshape(-1, 2)
        expected = CSRGraph.from_edges(n, pairs[:, 0], pairs[:, 1], name="base")

        mutated, ins_eff, del_eff = graph.apply_delta(delta, with_changes=True)
        assert mutated.name == graph.name
        assert mutated.indptr.dtype == expected.indptr.dtype
        assert mutated.indices.dtype == expected.indices.dtype
        assert np.array_equal(mutated.indptr, expected.indptr)
        assert np.array_equal(mutated.indices, expected.indices)
        assert mutated.fingerprint() == expected.fingerprint()

        # Effective changes: exactly the directed keys that flipped.
        before, after = set(graph.edge_keys().tolist()), set(mutated.edge_keys().tolist())
        assert ins_eff.tolist() == sorted(after - before)
        assert del_eff.tolist() == sorted(before - after)

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_deltas())
    def test_output_is_canonical(self, case):
        graph, _, _, delta = case
        mutated = graph.apply_delta(delta)
        rows = np.repeat(
            np.arange(mutated.num_nodes, dtype=np.int64), mutated.degrees
        )
        assert mutated.indptr[0] == 0
        assert mutated.indptr[-1] == len(mutated.indices)
        # Rows sorted with no duplicates: keys strictly increase.
        keys = rows * mutated.num_nodes + mutated.indices
        assert np.all(np.diff(keys) > 0)
        assert not np.any(rows == mutated.indices)  # no diagonal
        assert mutated.is_symmetric()
