"""The sorted-dedup helper, the canonical-CSR fast path it gives
``CSRGraph.from_edges``, and a guard against bare ``np.unique``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nputil import sorted_unique
from repro.graph import CSRGraph

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

int64s = st.integers(min_value=-(2**62), max_value=2**62)


def _assert_same_unique(values):
    values = np.asarray(values, dtype=np.int64)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [5],
            [-3],
            [0, 1, 2, 7, 100],
            [100, 7, 2, 1, 0],
            [4, 4, 4, 4],
            [2, 2, 1, 1, 3, 3, 1],
            [-(2**62), -5, -5, 0, 2**62, -1],
            [1, 2, 2, 3],
        ],
        ids=[
            "empty", "singleton", "negative-singleton", "sorted",
            "reversed", "all-equal", "duplicate-heavy", "negative-int64",
            "sorted-with-duplicate",
        ],
    )
    def test_matches_np_unique_on_edge_cases(self, values):
        _assert_same_unique(values)

    @given(st.lists(int64s, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        _assert_same_unique(values)

    @given(st.lists(st.integers(-8, 8), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique_duplicate_heavy(self, values):
        _assert_same_unique(values)

    @given(st.sets(int64s, max_size=60), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sorted_and_reversed_distinct(self, values, reverse):
        ordered = sorted(values, reverse=reverse)
        _assert_same_unique(ordered)

    def test_strictly_increasing_input_is_returned_as_is(self):
        keys = np.array([-4, 0, 3, 9], dtype=np.int64)
        assert sorted_unique(keys) is keys

    def test_unsorted_input_is_left_untouched(self):
        keys = np.array([3, 1, 3, 2], dtype=np.int64)
        out = sorted_unique(keys)
        assert np.array_equal(keys, [3, 1, 3, 2])
        assert not np.shares_memory(out, keys)

    def test_keeps_dtype(self):
        out = sorted_unique(np.array([3, 1, 3], dtype=np.int32))
        assert out.dtype == np.int32
        assert np.array_equal(out, [1, 3])


def _reference_csr(num_nodes, rows, cols, symmetrize):
    """``from_edges`` canonicalisation written with ``np.unique``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if symmetrize:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    keys = np.unique(rows * num_nodes + cols)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // num_nodes, minlength=num_nodes), out=indptr[1:])
    return indptr, keys % num_nodes


@st.composite
def edge_lists(draw, max_nodes=25, max_edges=80):
    """Random (unsorted, duplicate-bearing, diagonal-bearing) entries."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    rows = np.asarray([u for u, _ in pairs], dtype=np.int64)
    cols = np.asarray([v for _, v in pairs], dtype=np.int64)
    return n, rows, cols


def _raw_graph(num_nodes, rows, cols):
    """A raw CSRGraph holding the entries in the given order per row:
    rows grouped, but in-row order, duplicates and diagonals kept."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=cols[order])


class TestFromEdgesFastPath:
    @given(edge_lists(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique_reference(self, case, symmetrize):
        n, rows, cols = case
        graph = CSRGraph.from_edges(n, rows, cols, symmetrize=symmetrize)
        indptr, indices = _reference_csr(n, rows, cols, symmetrize)
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)
        assert graph.indices.dtype == np.int64

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_canonical_round_trip_is_identity(self, case):
        n, rows, cols = case
        graph = CSRGraph.from_edges(n, rows, cols, symmetrize=False)
        edge_rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        again = CSRGraph.from_edges(
            n, edge_rows, graph.indices, symmetrize=False
        )
        assert np.array_equal(again.indptr, graph.indptr)
        assert np.array_equal(again.indices, graph.indices)
        assert not np.shares_memory(again.indices, graph.indices)

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_without_self_loops_canonicalises_raw_graph(self, case):
        n, rows, cols = case
        raw = _raw_graph(n, rows, cols)
        off = rows != cols
        indptr, indices = _reference_csr(n, rows[off], cols[off], False)
        clean = raw.without_self_loops()
        assert np.array_equal(clean.indptr, indptr)
        assert np.array_equal(clean.indices, indices)

    def test_without_self_loops_fixes_each_defect(self):
        # Row 0 unsorted, row 1 duplicated, row 2 diagonal.
        raw = CSRGraph(
            indptr=np.array([0, 2, 4, 6]),
            indices=np.array([2, 1, 0, 0, 2, 0]),
        )
        clean = raw.without_self_loops()
        assert clean.indptr.tolist() == [0, 2, 3, 4]
        assert clean.indices.tolist() == [1, 2, 0, 0]


def _bare_unique_calls():
    """``np.unique(...)`` calls under src/repro with no ``return_*``."""
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                continue
            if any(
                kw.arg is not None and kw.arg.startswith("return_")
                for kw in node.keywords
            ):
                continue
            hits.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    return hits


def test_no_bare_np_unique_in_library():
    """numpy 2.x's ``np.unique`` hashes integer input — ~60x slower than
    sort+diff on edge keys.  Dedups go through ``sorted_unique``."""
    hits = _bare_unique_calls()
    assert not hits, (
        "bare np.unique (use repro.core.nputil.sorted_unique): "
        + ", ".join(hits)
    )
