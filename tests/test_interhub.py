"""The vectorised inter-hub plan against the per-edge loop it replaced."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocatorConfig, build_interhub_plan, islandize
from repro.graph import load_dataset


def _reference_directed(edges):
    """Each canonical edge (u, v), then its mirror unless u == v."""
    directed = []
    for u, v in edges.tolist():
        directed.append((u, v))
        if u != v:
            directed.append((v, u))
    if not directed:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(directed, dtype=np.int64).reshape(-1, 2)


def _check(result, add_self_loops):
    plan = build_interhub_plan(result, add_self_loops=add_self_loops)
    want = _reference_directed(np.asarray(result.interhub_edges))
    got = plan.directed_edges
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if add_self_loops:
        assert np.array_equal(plan.self_loop_hubs, result.hub_ids)
    else:
        assert len(plan.self_loop_hubs) == 0
    assert plan.num_ops == len(want) + len(plan.self_loop_hubs)


@st.composite
def edge_maps(draw):
    """Canonical (min, max) hub pairs, diagonal entries included."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=60,
        )
    )
    canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    edges = np.asarray(canon, dtype=np.int64).reshape(-1, 2)
    hubs = np.unique(edges) if len(edges) else np.zeros(0, dtype=np.int64)
    return SimpleNamespace(interhub_edges=edges, hub_ids=hubs)


@pytest.mark.parametrize("add_self_loops", [False, True])
class TestInterHubPlan:
    @given(edge_maps())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_on_random_maps(self, add_self_loops, result):
        _check(result, add_self_loops)

    def test_empty_map(self, add_self_loops):
        for edges in (np.zeros((0, 2), dtype=np.int64), np.zeros(0)):
            result = SimpleNamespace(
                interhub_edges=edges, hub_ids=np.array([3], dtype=np.int64)
            )
            _check(result, add_self_loops)

    def test_diagonal_only_map(self, add_self_loops):
        result = SimpleNamespace(
            interhub_edges=np.array([[2, 2], [5, 5]], dtype=np.int64),
            hub_ids=np.array([2, 5], dtype=np.int64),
        )
        _check(result, add_self_loops)

    def test_matches_loop_on_locator_output(self, add_self_loops):
        graph = load_dataset("cora", scale=0.2).graph.without_self_loops()
        result = islandize(graph, LocatorConfig())
        assert len(result.interhub_edges) > 0
        _check(result, add_self_loops)
