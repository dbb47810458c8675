"""Tests for packed-task reuse across ``Engine.update``.

An island's packed task (§3.3) depends only on its members' adjacency
rows and its attached hubs, so the batch of graph G can be carried to
G' = G + delta by gathering every island the update did not touch and
packing only the islands its sub-run produced.  The contract is exact:

* ``TaskBatch.take``, slices and splices are array-equal, field for
  field and window class for window class, to packing the same islands
  afresh;
* every report an engine serves from a carried batch equals a fresh
  engine's, in counts and functional mode, under every pipeline;
* the one retained batch is dropped by ``clear``/``close``, is never
  used by engines whose runs pack their own tasks, and a batch that does
  not match the islandization it is served with is refused.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsumerConfig, IGCNAccelerator, IslandTable, LocatorConfig
from repro.core.consumer import IslandConsumer
from repro.core.consumer_batched import TaskBatch
from repro.core.islandizer_incremental import (
    record_islandization,
    update_islandization,
)
from repro.errors import SimulationError
from repro.graph import CSRGraph, hub_island_graph
from repro.graph.csr import GraphDelta
from repro.graph.generators import CommunityProfile
from repro.models import gcn_model
from repro.runtime import Engine
from repro.runtime.engine import _islandization_key

KS = (1, 3, 6)
PROFILE = CommunityProfile(
    hub_fraction=0.04,
    island_size_mean=6.0,
    island_density=0.8,
    hub_attach_prob=0.7,
    background_fraction=0.02,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def classified(batch: TaskBatch, ks=KS) -> TaskBatch:
    for k in ks:
        batch.scan_classes(k)
    return batch


def assert_batches_equal(got: TaskBatch, want: TaskBatch) -> None:
    """Field-for-field equality, cached window classes included."""
    for f in dataclasses.fields(TaskBatch):
        if f.name == "_scan_cache":
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert np.array_equal(a, b), f.name
    assert np.array_equal(got.entry_task, want.entry_task)
    assert sorted(got._scan_cache) == sorted(want._scan_cache)
    for k, want_classes in want._scan_cache.items():
        got_classes = got._scan_cache[k]
        for f in dataclasses.fields(want_classes):
            a, b = getattr(got_classes, f.name), getattr(want_classes, f.name)
            assert a.dtype == b.dtype, (k, f.name)
            assert np.array_equal(a, b), (k, f.name)
        assert got_classes.counts == want_classes.counts, k


def random_graph(rng, n: int, avg_deg: float) -> CSRGraph:
    k = int(n * avg_deg / 2)
    rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
    keep = rows != cols
    return CSRGraph.from_edges(n, rows[keep], cols[keep], name="rnd")


def random_delta(rng, graph: CSRGraph, k_ins: int, k_del: int,
                 nodes: np.ndarray | None = None) -> GraphDelta:
    """Random insertions and deletions, optionally among ``nodes`` only."""
    n = graph.num_nodes
    pool = np.arange(n) if nodes is None else nodes
    ins = rng.choice(pool, size=(k_ins, 2))
    ins = ins[ins[:, 0] != ins[:, 1]]
    keys = graph.edge_keys()
    src, dst = keys // n, keys % n
    mask = np.isin(src, pool) & np.isin(dst, pool) & (src < dst)
    cand = np.stack([src[mask], dst[mask]], axis=1)
    dels = cand[rng.permutation(len(cand))[:k_del]]
    gone = {frozenset(e) for e in dels.tolist()}
    ins = np.asarray(
        [e for e in ins.tolist() if frozenset(e) not in gone], dtype=np.int64
    ).reshape(-1, 2)
    return GraphDelta.from_edges(insertions=ins, deletions=dels)


@st.composite
def packed_cases(draw):
    """(graph, island table) with disjoint members and arbitrary hubs.

    Members of one island need not be connected and hubs need not be
    adjacent: ``from_islands`` packs whatever entries the table's local
    sets induce, which is the part the reuse paths must preserve.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(4, 60))
    graph = random_graph(rng, n, draw(st.floats(0.5, 6.0)))
    order = rng.permutation(n)
    num_members = draw(st.integers(1, n - 1))
    members, pool = order[:num_members], order[num_members:]
    cuts = np.sort(rng.choice(
        np.arange(1, num_members), size=min(num_members - 1,
                                            draw(st.integers(0, 15))),
        replace=False,
    ))
    groups = np.split(members, cuts)
    hubs = [
        rng.choice(pool, size=min(len(pool), int(rng.integers(0, 4))),
                   replace=False)
        for _ in groups
    ]
    rounds = np.sort(rng.integers(1, 4, len(groups)))
    table = IslandTable.from_lists(rounds, groups, hubs)
    return graph, table, draw(st.booleans()), rng


# ----------------------------------------------------------------------
# take / slice / splice against fresh packing
# ----------------------------------------------------------------------
class TestBatchReuse:
    @given(case=packed_cases())
    @settings(max_examples=80, deadline=None)
    def test_take_equals_packing_the_taken_islands(self, case):
        graph, table, loops, rng = case
        whole = classified(
            TaskBatch.from_islands(graph, table, add_self_loops=loops)
        )
        ids = rng.permutation(len(table))[: int(rng.integers(0, len(table) + 1))]
        want = classified(TaskBatch.from_islands(
            graph, table.take(ids), add_self_loops=loops
        ))
        assert_batches_equal(whole.take(ids), want)

    @given(case=packed_cases(), num_cuts=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_slices_are_views_and_concatenate_back(self, case, num_cuts):
        graph, table, loops, rng = case
        whole = classified(
            TaskBatch.from_islands(graph, table, add_self_loops=loops)
        )
        bounds = [0, *sorted(rng.integers(0, len(table) + 1, num_cuts)),
                  len(table)]
        slices = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = whole[lo:hi]
            assert_batches_equal(part, classified(TaskBatch.from_islands(
                graph, table[lo:hi], add_self_loops=loops
            )))
            if part.num_tasks and len(part.entry_row):
                assert np.shares_memory(part.entry_row, whole.entry_row)
            slices.append(part)
        sizes = [s.num_tasks for s in slices]
        which = np.repeat(np.arange(len(slices)), sizes)
        rows = np.concatenate([np.arange(s) for s in sizes])
        assert_batches_equal(TaskBatch.gather(slices, which, rows), whole)

    @given(case=packed_cases())
    @settings(max_examples=80, deadline=None)
    def test_splice_equals_packing_the_new_table(self, case):
        graph, table, loops, rng = case
        whole = classified(
            TaskBatch.from_islands(graph, table, add_self_loops=loops)
        )
        ids = rng.permutation(len(table))[: int(rng.integers(0, len(table) + 1))]
        source = ids.copy()
        source[rng.random(len(ids)) < 0.3] = -1
        new_table = table.take(ids)
        want = classified(TaskBatch.from_islands(
            graph, new_table, add_self_loops=loops
        ))
        got = whole.splice(graph, new_table, source, add_self_loops=loops)
        assert_batches_equal(got, want)

    def test_splice_of_untouched_table_is_the_batch(self):
        graph = random_graph(np.random.default_rng(3), 30, 3.0)
        table = IslandTable.from_lists(
            [1, 1, 2], [np.array([0, 1]), np.array([2]), np.array([3, 4])],
            [np.array([9]), np.array([], dtype=np.int64), np.array([9, 8])],
        )
        batch = TaskBatch.from_islands(graph, table, add_self_loops=True)
        same = batch.splice(graph, table, np.arange(3), add_self_loops=True)
        assert same is batch

    def test_counts_are_column_sums_of_task_counts(self):
        graph = random_graph(np.random.default_rng(4), 40, 4.0)
        table = IslandTable.from_lists(
            [1, 1, 1],
            [np.arange(0, 8), np.arange(8, 20), np.arange(20, 24)],
            [np.array([30, 31]), np.array([32]), np.array([], dtype=np.int64)],
        )
        batch = TaskBatch.from_islands(graph, table, add_self_loops=True)
        for k in KS:
            classes = batch.scan_classes(k)
            per_task = [
                TaskBatch.from_islands(
                    graph, table[i:i + 1], add_self_loops=True
                ).scan_classes(k).counts
                for i in range(len(table))
            ]
            for name, row in zip(
                [f.name for f in dataclasses.fields(classes.counts)],
                classes.task_counts,
            ):
                assert row.tolist() == [getattr(c, name) for c in per_task]
                assert getattr(classes.counts, name) == sum(row.tolist())

    def test_check_matches_refuses_another_table(self):
        graph = random_graph(np.random.default_rng(5), 30, 3.0)
        table = IslandTable.from_lists(
            [1, 1], [np.array([0, 1]), np.array([2, 3])],
            [np.array([9]), np.array([8])],
        )
        batch = TaskBatch.from_islands(graph, table, add_self_loops=True)
        batch.check_matches(table)
        for other in (
            table[:1],                                        # fewer tasks
            IslandTable.from_lists(                           # other hub
                [1, 1], [np.array([0, 1]), np.array([2, 3])],
                [np.array([9]), np.array([7])],
            ),
            IslandTable.from_lists(                           # other member
                [1, 1], [np.array([0, 1]), np.array([2, 4])],
                [np.array([9]), np.array([8])],
            ),
            IslandTable.from_lists(                           # member moved
                [1, 1], [np.array([0]), np.array([1, 2, 3])],
                [np.array([9]), np.array([8])],
            ),
        ):
            with pytest.raises(SimulationError):
                batch.check_matches(other)


# ----------------------------------------------------------------------
# Random delta chains: every spliced batch is a fresh pack
# ----------------------------------------------------------------------
class TestDeltaChains:
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4),
                      st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1, max_size=4,
        ),
        loops=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_spliced_batch_equals_fresh_pack(self, seed, steps, loops):
        rng = np.random.default_rng(seed)
        graph, _ = hub_island_graph(120, PROFILE, seed=seed % 1000)
        graph = graph.without_self_loops()
        config = LocatorConfig(th0=8, c_max=6, incremental=True)
        result, state = record_islandization(graph, config)
        batch = classified(TaskBatch.from_result(result, add_self_loops=loops))
        for k_ins, k_del, max_dirty in steps:
            delta = random_delta(rng, graph, k_ins, k_del)
            upd = update_islandization(
                graph, result, state, delta, config,
                max_dirty_fraction=max_dirty,
            )
            new = upd.result
            want = classified(TaskBatch.from_result(new, add_self_loops=loops))
            source = upd.island_source
            if upd.fallback:
                assert source is None
                batch = want
            else:
                # Carried islands are the cached ones, unchanged.
                assert len(source) == len(new.islands)
                for i in np.flatnonzero(source >= 0).tolist():
                    old = result.islands[int(source[i])]
                    assert np.array_equal(new.islands[i].members, old.members)
                    assert np.array_equal(new.islands[i].hubs, old.hubs)
                batch = batch.splice(
                    new.graph, new.islands, source, add_self_loops=loops
                )
                assert_batches_equal(batch, want)
            graph, result, state = new.graph, new, upd.state


# ----------------------------------------------------------------------
# Engine parity across a delta chain
# ----------------------------------------------------------------------
@pytest.fixture
def layer_log(monkeypatch):
    """Per-layer ring / DHUB-PRC / HUB-XW statistics of every run."""
    log: list = []
    finalize = IslandConsumer._layer_finalize

    def spy(self, state, *args, **kwargs):
        execution = finalize(self, state, *args, **kwargs)
        log.append((
            execution.counts, execution.hub_xw_accesses,
            execution.prc_updates, tuple(execution.prc_bank_updates),
            dataclasses.replace(self.ring.stats),
        ))
        return execution

    monkeypatch.setattr(IslandConsumer, "_layer_finalize", spy)
    return log


def chain_graph() -> CSRGraph:
    graph, _ = hub_island_graph(300, PROFILE, seed=11)
    return graph.without_self_loops()


def th0_moving_delta(graph: CSRGraph, config: LocatorConfig) -> GraphDelta:
    """Edges from a near-top-degree node that move the quantile TH0."""
    th0 = config.initial_threshold(graph.degrees)
    node = int(np.argsort(graph.degrees)[-4])
    others = np.setdiff1d(np.arange(graph.num_nodes), graph.neighbors(node))
    others = others[others != node]
    for count in range(1, len(others) + 1):
        ins = np.stack([np.full(count, node), others[:count]], axis=1)
        delta = GraphDelta.from_edges(insertions=ins)
        if config.initial_threshold(graph.apply_delta(delta).degrees) != th0:
            return delta
    raise AssertionError("no insertion set moves TH0")


class TestEngineParity:
    CONFIG = LocatorConfig(c_max=8, incremental=True)  # quantile TH0

    def _report(self, engine, graph, model, features, log):
        engine.store.clear("report")  # compute, never serve a cached one
        start = len(log)
        if features is None:
            report = engine.simulate("igcn", graph, model)
        else:
            report = engine.simulate(
                "igcn", graph, model, features=features, functional=True
            )
        return report, log[start:]

    def _assert_same(self, got, want):
        report, layers = got
        ref, ref_layers = want
        assert layers == ref_layers
        assert report.layers == ref.layers
        assert report.meter.reads == ref.meter.reads
        assert report.meter.writes == ref.meter.writes
        assert report.summary() == ref.summary()
        assert report.base_summary() == ref.base_summary()
        assert (report.locator_cycles, report.consumer_cycles,
                report.total_cycles) == (
            ref.locator_cycles, ref.consumer_cycles, ref.total_cycles)
        if ref.outputs is not None:
            assert report.outputs.tobytes() == ref.outputs.tobytes()
        if ref.event is not None:
            assert report.event.makespan == ref.event.makespan
            assert (report.island_p50_us, report.island_p99_us) == (
                ref.island_p50_us, ref.island_p99_us)

    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("pipeline", ["streamed", "event", "staged"])
    def test_chain_matches_fresh_engines(self, pipeline, functional, layer_log):
        config = self.CONFIG
        consumer = ConsumerConfig(pipeline=pipeline)
        model = gcn_model(8, 4)
        rng = np.random.default_rng(21)
        base = chain_graph()
        small = np.flatnonzero(base.degrees < 10)
        features = (
            np.random.default_rng(1).random((base.num_nodes, 8))
            if functional else None
        )
        engine = Engine(locator=config, consumer=consumer)

        def slot_key():
            return engine._packed[0] if engine._packed is not None else None

        def step(graph, delta, max_dirty=1.0):
            upd = engine.update(graph, delta, max_dirty_fraction=max_dirty)
            new_graph = upd.result.graph
            spliced = slot_key() == _islandization_key(new_graph, config)
            held = engine._packed
            if spliced:  # window classes came along, none recomputed
                assert list(held[2]._scan_cache) == [consumer.preagg_k]
            got = self._report(engine, new_graph, model, features, layer_log)
            if spliced:
                assert engine._packed is held  # served, not re-packed
            assert slot_key() == _islandization_key(new_graph, config)
            assert list(engine._packed[2]._scan_cache) == [consumer.preagg_k]
            fresh = Engine(locator=config, consumer=consumer)
            want = self._report(fresh, new_graph, model, features, layer_log)
            self._assert_same(got, want)
            return upd, spliced

        self._report(engine, base, model, features, layer_log)  # fills
        graph = base
        # Clean splices.
        for _ in range(2):
            upd, spliced = step(graph, random_delta(rng, graph, 2, 2, small))
            assert not upd.fallback and spliced
            assert (upd.island_source < 0).any()
            graph = upd.result.graph
        # A no-op delta (an existing edge) carries every island.
        u = int(small[0])
        existing = GraphDelta.from_edges(
            insertions=np.array([[u, int(graph.neighbors(u)[0])]])
        )
        upd, spliced = step(graph, existing)
        assert spliced and upd.dirty_nodes == 0
        assert np.array_equal(upd.island_source, np.arange(len(upd.result.islands)))
        graph = upd.result.graph
        # A forced fallback re-records: simulate re-packs.
        upd, spliced = step(graph, random_delta(rng, graph, 2, 2, small), 0.0)
        assert upd.fallback and upd.island_source is None and not spliced
        graph = upd.result.graph
        # A delta that moves TH0 falls back too.
        upd, spliced = step(graph, th0_moving_delta(graph, config))
        assert "threshold moved" in upd.fallback_reason and not spliced
        graph = upd.result.graph
        # After a re-pack the next clean delta splices again.
        upd, spliced = step(graph, random_delta(rng, graph, 2, 2, small))
        assert not upd.fallback and spliced
        parent = upd.result.graph
        # Two deltas on one parent: the second misses the slot.
        upd, spliced = step(parent, random_delta(rng, parent, 2, 1, small))
        assert spliced
        upd, spliced = step(parent, random_delta(rng, parent, 1, 2, small))
        assert not upd.fallback and not spliced


# ----------------------------------------------------------------------
# Slot lifecycle and bypass
# ----------------------------------------------------------------------
class TestSlotLifecycle:
    def _setup(self):
        graph = chain_graph()
        return graph, gcn_model(8, 4), random_delta(
            np.random.default_rng(2), graph, 2, 2,
            np.flatnonzero(graph.degrees < 10),
        )

    def test_clear_and_close_drop_the_batch(self):
        graph, model, _ = self._setup()
        engine = Engine(locator=LocatorConfig(incremental=True))
        engine.simulate("igcn", graph, model)
        assert engine._packed is not None
        engine.clear()
        assert engine._packed is None
        engine.simulate("igcn", graph, model)
        assert engine._packed is not None
        engine.close()
        assert engine._packed is None

    @pytest.mark.parametrize("locator, consumer", [
        (LocatorConfig(incremental=True), ConsumerConfig(backend="scalar")),
        (LocatorConfig(incremental=True, partitions=2), ConsumerConfig()),
    ])
    def test_bypassing_engines_never_fill_or_splice(self, locator, consumer):
        graph, model, delta = self._setup()
        with Engine(locator=locator, consumer=consumer) as engine:
            engine.simulate("igcn", graph, model)
            upd = engine.update(graph, delta)
            report = engine.simulate("igcn", upd.result.graph, model)
            assert engine._packed is None
            plain = IGCNAccelerator(locator=locator, consumer=consumer).run(
                upd.result.graph, model, islandization=upd.result
            )
        assert report.summary() == plain.summary()
        assert report.layers == plain.layers
        assert report.meter.reads == plain.meter.reads

    def test_non_incremental_engine_never_fills(self):
        graph, model, _ = self._setup()
        engine = Engine()
        report = engine.simulate("igcn", graph, model)
        assert engine._packed is None
        plain = IGCNAccelerator().run(
            graph, model, islandization=engine.islandization(graph)
        )
        assert report.summary() == plain.summary()
        assert report.layers == plain.layers

    def test_run_refuses_a_batch_for_another_result(self):
        graph, model, delta = self._setup()
        engine = Engine(locator=LocatorConfig(incremental=True))
        result = engine.islandization(graph)
        other = engine.update(graph, delta).result
        batch = TaskBatch.from_result(result, add_self_loops=True)
        accelerator = IGCNAccelerator()
        with pytest.raises(SimulationError):
            accelerator.run(
                other.graph, model, islandization=other, task_batch=batch
            )
        with pytest.raises(SimulationError):
            accelerator.run(graph, model, task_batch=batch)
        with pytest.raises(SimulationError):
            IGCNAccelerator(consumer=ConsumerConfig(backend="scalar")).run(
                graph, model, islandization=result, task_batch=batch
            )
        # The matching pair runs, and equals a run that packs its own.
        served = accelerator.run(
            graph, model, islandization=result, task_batch=batch
        )
        own = accelerator.run(graph, model, islandization=result)
        assert served.summary() == own.summary()
        assert served.layers == own.layers
