"""Tests for the columnar island table and its archive boundary.

``IslandTable`` is the one island representation from the TP-BFS
kernel to the task packer, so its operations are checked against a
plain list-of-arrays model; ``IslandizationResult.from_npz`` is where
tables enter from outside, so forged archives must be rejected there;
and archives written before the table existed must still load, compare
equal and write back byte-identically.
"""

from __future__ import annotations

import ast
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IslandTable, LocatorConfig
from repro.core.islandizer import islandize
from repro.core.islandizer_incremental import (
    IncrementalState,
    record_islandization,
    update_islandization,
)
from repro.core.types import IslandizationResult
from repro.errors import IslandizationError
from repro.graph.csr import GraphDelta
from repro.serialize import read_npz, write_npz

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
COLUMNS = ("members", "member_offsets", "hubs", "hub_offsets", "round_id")

#: The locator configuration the archives under ``tests/data`` were
#: recorded with (93-node hub-and-island graph, 26 islands over 2 rounds).
FIXTURE_CONFIG = LocatorConfig(th0=6, c_max=3, incremental=True)


# ----------------------------------------------------------------------
# Table operations against a list-of-arrays model
# ----------------------------------------------------------------------
@st.composite
def island_lists(draw, max_islands=12):
    """``[(round, members, hubs), ...]`` with disjoint members and hubs."""
    count = draw(st.integers(0, max_islands))
    rounds = sorted(draw(st.lists(
        st.integers(1, 4), min_size=count, max_size=count
    )))
    islands = []
    for r in rounds:
        members = draw(st.lists(
            st.integers(0, 39), min_size=1, max_size=5, unique=True
        ))
        hubs = draw(st.lists(
            st.integers(40, 49), max_size=4, unique=True
        ))
        islands.append((r, members, hubs))
    return islands


def build(model) -> IslandTable:
    return IslandTable.from_lists(
        [r for r, _, _ in model],
        [np.asarray(m, dtype=np.int64) for _, m, _ in model],
        [np.asarray(h, dtype=np.int64) for _, _, h in model],
    )


def assert_matches(table: IslandTable, model) -> None:
    """Every column and every ``table[i]`` view agrees with the model."""
    assert len(table) == len(model)
    for name in COLUMNS:
        assert getattr(table, name).dtype == np.int64, name
    assert table.member_offsets[0] == 0 and table.hub_offsets[0] == 0
    for i, (r, members, hubs) in enumerate(model):
        island = table[i]
        assert island.round_id == r
        assert island.members.tolist() == list(members)
        assert island.hubs.tolist() == list(hubs)
    assert table.members.tolist() == [m for _, ms, _ in model for m in ms]
    assert table.hubs.tolist() == [h for _, _, hs in model for h in hs]
    assert table.seeds.tolist() == [ms[0] for _, ms, _ in model]


class TestTableAgainstModel:
    @given(model=island_lists(), bounds=st.tuples(
        st.integers(-14, 14), st.integers(-14, 14)
    ))
    @settings(max_examples=80, deadline=None)
    def test_slicing(self, model, bounds):
        lo, hi = bounds
        assert_matches(build(model)[lo:hi], model[lo:hi])

    @given(parts=st.lists(island_lists(max_islands=5), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_concatenation(self, parts):
        table = IslandTable.concatenate(build(p) for p in parts)
        assert_matches(table, [isl for p in parts for isl in p])

    @given(model=island_lists(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_splice_gather(self, model, data):
        # The incremental splice: one gather over (clean, sub-run)
        # tables laid end to end, in an arbitrary merge order.
        cut = data.draw(st.integers(0, len(model)))
        joined = IslandTable.concatenate([build(model[:cut]), build(model[cut:])])
        ids = data.draw(st.lists(
            st.integers(0, max(len(model) - 1, 0)),
            max_size=2 * len(model),
        )) if model else []
        assert_matches(joined.take(np.asarray(ids, dtype=np.int64)),
                       [model[i] for i in ids])

    @given(model=island_lists(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_relabel(self, model, seed):
        mapping = np.random.default_rng(seed).permutation(50) + 1000
        relabelled = [
            (r, [int(mapping[m]) for m in ms], [int(mapping[h]) for h in hs])
            for r, ms, hs in model
        ]
        assert_matches(build(model).relabel(mapping), relabelled)

    def test_view_keeps_validating_constructor(self):
        table = build([(1, [3, 4], [40])])
        bad = dataclasses.replace(table, hubs=np.array([3]))
        with pytest.raises(IslandizationError, match="both member and hub"):
            bad[0]

    def test_strided_slice_rejected(self):
        with pytest.raises(IndexError):
            build([(1, [1], []), (1, [2], [])])[::2]


# ----------------------------------------------------------------------
# equals: offsets and rounds are part of the structure
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_result() -> IslandizationResult:
    return IslandizationResult.from_npz(str(DATA / "islandization_format2.npz"))


def _with_islands(result, **columns) -> IslandizationResult:
    return dataclasses.replace(
        result, islands=dataclasses.replace(result.islands, **columns),
        _membership=None,
    )


class TestEquals:
    def test_identical_copy_is_equal(self, fixture_result):
        copy = _with_islands(fixture_result, **{
            name: getattr(fixture_result.islands, name).copy()
            for name in COLUMNS
        })
        assert fixture_result.equals(copy)

    def test_member_moved_across_island_boundary(self, fixture_result):
        offsets = fixture_result.islands.member_offsets.copy()
        i = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
        offsets[i + 1] -= 1   # last member of island i joins island i+1
        moved = _with_islands(fixture_result, member_offsets=offsets)
        assert np.array_equal(moved.islands.members,
                              fixture_result.islands.members)
        assert not fixture_result.equals(moved)
        assert not moved.equals(fixture_result)

    def test_hub_moved_across_island_boundary(self, fixture_result):
        offsets = fixture_result.islands.hub_offsets.copy()
        i = int(np.flatnonzero(np.diff(offsets) >= 1)[0])
        offsets[i + 1] -= 1
        moved = _with_islands(fixture_result, hub_offsets=offsets)
        assert np.array_equal(moved.islands.hubs, fixture_result.islands.hubs)
        assert not fixture_result.equals(moved)

    def test_one_round_changed(self, fixture_result):
        rounds = fixture_result.islands.round_id.copy()
        rounds[-1] += 1
        assert not fixture_result.equals(
            _with_islands(fixture_result, round_id=rounds)
        )


# ----------------------------------------------------------------------
# Archive boundary: forged island columns are rejected on load
# ----------------------------------------------------------------------
def _forge(result, **overrides) -> io.BytesIO:
    buf = io.BytesIO()
    result.to_npz(buf)
    buf.seek(0)
    arrays, meta = read_npz(buf)
    for key, fn in overrides.items():
        arrays[key] = fn(arrays[key])
    out = io.BytesIO()
    write_npz(out, arrays, meta)
    out.seek(0)
    return out


def _swap_inner_rise(a):
    """Swap an interior increasing pair: a decrease, same first/last."""
    a = a.copy()
    i = int(np.flatnonzero(np.diff(a[1:-1]) > 0)[0]) + 1
    a[i], a[i + 1] = a[i + 1], a[i]
    return a


class TestForgedArchives:
    def test_reversed_island_rounds(self, fixture_result):
        forged = _forge(fixture_result, island_rounds=lambda a: a[::-1].copy())
        with pytest.raises(IslandizationError, match="rounds decrease"):
            IslandizationResult.from_npz(forged)

    def test_decreasing_hub_offsets(self, fixture_result):
        forged = _forge(fixture_result, island_hub_offsets=_swap_inner_rise)
        with pytest.raises(IslandizationError, match="hub offsets decrease"):
            IslandizationResult.from_npz(forged)

    def test_decreasing_member_offsets(self, fixture_result):
        forged = _forge(fixture_result, island_member_offsets=_swap_inner_rise)
        with pytest.raises(IslandizationError, match="member offsets decrease"):
            IslandizationResult.from_npz(forged)

    @pytest.mark.parametrize("key", ["island_member_offsets", "island_hub_offsets"])
    def test_offsets_must_span_flat_array(self, fixture_result, key):
        def shift(a):
            a = a.copy()
            a[-1] += 1
            return a

        with pytest.raises(IslandizationError, match="must run from 0"):
            IslandizationResult.from_npz(_forge(fixture_result, **{key: shift}))

    @pytest.mark.parametrize("key", ["island_members_flat", "island_hubs_flat"])
    @pytest.mark.parametrize("bad", [-1, 93])
    def test_node_ids_in_range(self, fixture_result, key, bad):
        def poke(a):
            a = a.copy()
            a[0] = bad
            return a

        with pytest.raises(IslandizationError, match="outside"):
            IslandizationResult.from_npz(_forge(fixture_result, **{key: poke}))

    def test_offsets_cover_every_island(self, fixture_result):
        forged = _forge(fixture_result, island_rounds=lambda a: a[:-1].copy())
        with pytest.raises(IslandizationError, match="cover"):
            IslandizationResult.from_npz(forged)


# ----------------------------------------------------------------------
# Archives written before the island table existed
# ----------------------------------------------------------------------
class TestOldArchives:
    def test_result_archive_loads_equal_and_writes_back(self, fixture_result):
        fresh = islandize(fixture_result.graph, FIXTURE_CONFIG)
        assert fixture_result.equals(fresh)
        fixture_result.validate()
        buf = io.BytesIO()
        fixture_result.to_npz(buf)
        assert buf.getvalue() == (DATA / "islandization_format2.npz").read_bytes()
        buf = io.BytesIO()
        fresh.to_npz(buf)
        assert buf.getvalue() == (DATA / "islandization_format2.npz").read_bytes()

    def test_format1_state_still_updates_exactly(self, fixture_result):
        arrays, _ = read_npz(str(DATA / "ilstate_format1.npz"))
        # The archive predates the table: it still has the dropped arrays.
        assert {"island_round", "island_seed", "island_size"} <= set(arrays)
        state = IncrementalState.from_npz(str(DATA / "ilstate_format1.npz"))
        graph = fixture_result.graph
        _, fresh = record_islandization(graph, FIXTURE_CONFIG)
        for field in dataclasses.fields(IncrementalState):
            assert np.array_equal(
                getattr(state, field.name), getattr(fresh, field.name)
            ), field.name
        delta = GraphDelta.from_edges(insertions=np.array([[44, 56]]))
        upd = update_islandization(
            graph, fixture_result, state, delta, FIXTURE_CONFIG
        )
        assert not upd.fallback and upd.dirty_nodes > 0
        assert upd.result.equals(
            islandize(graph.apply_delta(delta), FIXTURE_CONFIG)
        )


# ----------------------------------------------------------------------
# Guard: no per-island object loops outside the scalar oracle paths
# ----------------------------------------------------------------------
#: (module, enclosing function) pairs allowed to iterate ``.islands``;
#: ``None`` allows the whole module.  These are the scalar oracles.
_ALLOWED_ISLAND_LOOPS = {
    ("core/bitmap.py", None),
    ("core/consumer.py", "prepare_tasks"),
    ("core/types.py", "IslandizationResult.validate"),
    ("core/types.py", "IslandizationResult._validate_edge_coverage"),
}


def _island_loops() -> list[str]:
    """``for``/comprehension loops over an ``.islands`` attribute."""
    hits = []

    def touches_islands(expr) -> bool:
        return any(
            isinstance(node, ast.Attribute) and node.attr == "islands"
            for node in ast.walk(expr)
        )

    def visit(node, scope: list[str], module: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        if isinstance(node, ast.comprehension):
            iters.append(node.iter)
        allowed = {(module, None), (module, ".".join(scope))}
        for it in iters:
            if touches_islands(it) and not allowed & _ALLOWED_ISLAND_LOOPS:
                hits.append(f"{module}:{it.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), [], module)
    return hits


def test_no_per_island_loops_in_library():
    """Islands are columns: iterate them only in the scalar oracles."""
    hits = _island_loops()
    assert not hits, "loop over .islands outside the oracles: " + ", ".join(hits)


def test_trusted_island_constructor_stays_deleted():
    hits = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "from_trusted_arrays" in path.read_text()
    ]
    assert not hits, hits
