"""Conformance battery for the discrete-event pipeline simulator.

Four contracts (ISSUE 10):

* **causality** — every trace replays cleanly through
  :func:`~repro.core.event_sim.validate_trace`: no island starts before
  its release, no release outside its round's locator span, no PE
  serves two units at once, port grants respect the one-per-cycle
  ring/PRC capacity, hub-cache occupancy never exceeds the capacity;
* **determinism** — two runs of the same config produce byte-identical
  traces (:meth:`EventSimResult.trace_bytes`);
* **degenerate graphs** — 0-node, 0-edge, and single-island inputs all
  simulate, validate, and keep the sandwich bound;
* **rejection** — a deliberately corrupted trace raises
  :class:`~repro.errors.SimulationError` (the validator is a real
  check, not a formality).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig
from repro.core.event_sim import (
    EventSimResult,
    simulate_events,
    validate_trace,
)
from repro.errors import SimulationError
from repro.graph import CSRGraph, hub_island_graph
from repro.graph.generators import CommunityProfile
from repro.models import gcn_model

MODEL = gcn_model(16, 4)


def _graph(num_nodes=400, seed=7, **profile):
    graph, _ = hub_island_graph(
        num_nodes, CommunityProfile(**profile), seed=seed
    )
    return graph.without_self_loops()


def _run(graph, pipeline, **consumer_kwargs):
    accelerator = IGCNAccelerator(
        locator=LocatorConfig(c_max=16),
        consumer=ConsumerConfig(pipeline=pipeline, **consumer_kwargs),
    )
    return accelerator.run(graph, MODEL)


def _edge_graph(num_nodes, src=(), dst=()):
    return CSRGraph.from_edges(
        num_nodes,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Causality + port invariants (via the independent replay)
# ----------------------------------------------------------------------
class TestCausality:
    def test_trace_validates_on_hub_island_graph(self):
        report = _run(_graph(), "event")
        assert report.event is not None
        validate_trace(report.event)

    def test_releases_inside_round_spans(self):
        sim = _run(_graph(), "event").event
        for unit in sim.units:
            r = unit.round_id - 1
            lo = sim.round_starts[r]
            hi = lo + sim.round_cycles[r]
            assert lo - 1e-6 <= unit.release <= hi + 1e-6
            assert unit.start >= unit.release - 1e-6
            assert unit.completion >= unit.start - 1e-6

    def test_no_pe_serves_two_units_at_once(self):
        # Reconstruct per-PE intervals straight from the records: the
        # primary PE is busy [start, completion] at minimum.
        sim = _run(_graph(), "event").event
        by_pe: dict[int, list[tuple[float, float]]] = {}
        for unit in sim.units:
            by_pe.setdefault(unit.pe, []).append(
                (unit.start, unit.completion)
            )
        for intervals in by_pe.values():
            intervals.sort()
            for (_, a1), (b0, _) in zip(intervals, intervals[1:]):
                assert b0 >= a1 - 1e-6

    def test_work_conservation(self):
        sim = _run(_graph(), "event").event
        assert np.isclose(sim.work_total, sim.consumer_cycles)
        assert np.isclose(
            sim.busy_pe_cycles, sim.num_pes * sim.work_total
        )

    def test_cache_occupancy_bounded(self):
        sim = _run(_graph(hub_fraction=0.08), "event").event
        assert sim.cache_max_occupancy <= sim.cache_entries
        for event in sim.trace:
            if event[0] == "cache":
                assert event[4] <= sim.cache_entries

    def test_port_grants_spaced_one_cycle(self):
        sim = _run(_graph(hub_fraction=0.08), "event").event
        ring_last: dict[int, float] = {}
        bank_last: dict[int, float] = {}
        for event in sim.trace:
            if event[0] == "ring":
                _, grant, _, _, src, _, _ = event
                if src in ring_last:
                    assert grant >= ring_last[src] + 1.0 - 1e-6
                ring_last[src] = grant
            elif event[0] == "prc":
                _, grant, _, bank, _ = event
                if bank in bank_last:
                    assert grant >= bank_last[bank] + 1.0 - 1e-6
                bank_last[bank] = grant
        assert ring_last and bank_last  # the fixture exercises both


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_traces_byte_identical(self):
        graph = _graph()
        a = _run(graph, "event").event
        b = _run(graph, "event").event
        assert a.trace_bytes() == b.trace_bytes()
        assert a.makespan == b.makespan
        assert a.units == b.units

    def test_percentiles_reproducible(self):
        graph = _graph()
        a = _run(graph, "event")
        b = _run(graph, "event")
        assert a.island_p50_us == b.island_p50_us
        assert a.island_p99_us == b.island_p99_us
        assert a.island_p50_us is not None
        assert a.island_p99_us >= a.island_p50_us


# ----------------------------------------------------------------------
# Degenerate graphs + sandwich bound
# ----------------------------------------------------------------------
class TestDegenerate:
    @pytest.mark.parametrize(
        "graph",
        [
            _edge_graph(0),                              # 0 nodes
            _edge_graph(1),                              # single node
            _edge_graph(5),                              # 0 edges
            _edge_graph(3, [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2]),
        ],
        ids=["empty", "one-node", "edgeless", "triangle"],
    )
    def test_degenerate_graphs_simulate_and_validate(self, graph):
        staged = _run(graph, "staged")
        streamed = _run(graph, "streamed")
        event = _run(graph, "event")
        validate_trace(event.event)
        assert (
            streamed.total_cycles - 1e-6
            <= event.total_cycles
            <= staged.total_cycles + 1e-6
        )

    def test_empty_graph_has_no_latencies(self):
        sim = _run(_edge_graph(0), "event").event
        assert len(sim.units) == 0
        assert sim.latency_percentile(50) is None
        assert sim.makespan == 0.0

    def test_single_island_latency_is_its_work(self):
        sim = _run(_edge_graph(1), "event").event
        units = [u for u in sim.units if u.island_id >= 0]
        assert len(units) == 1
        # Alone on the array, every lane joins: completion - start can
        # shrink to work, never below it.
        assert units[0].completion - units[0].start >= units[0].work - 1e-6

    def test_carrier_rounds_excluded_from_percentiles(self):
        # A triangle is all hubs: its consumer work rides a synthetic
        # carrier (island_id < 0) which must count toward conservation
        # but not toward the per-island latency distribution.
        sim = _run(
            _edge_graph(3, [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2]), "event"
        ).event
        carriers = [u for u in sim.units if u.island_id < 0]
        assert carriers
        assert len(sim.latencies()) == len(sim.units) - len(carriers)
        assert np.isclose(sim.work_total, sim.consumer_cycles)


# ----------------------------------------------------------------------
# Direct simulate_events edge cases
# ----------------------------------------------------------------------
class TestSimulateEventsAPI:
    def test_no_rounds(self):
        sim = simulate_events([], [], [], num_pes=4)
        assert sim.makespan == 0.0
        validate_trace(sim)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            simulate_events([], [], [], num_pes=0)
        with pytest.raises(SimulationError):
            simulate_events([1.0], [], [], num_pes=2)
        with pytest.raises(SimulationError):
            simulate_events([], [], [], num_pes=2, cache_entries=0)

    def test_tiny_cache_still_bounded(self):
        sim = simulate_events(
            [4.0, 4.0],
            [
                [(0, 2.0, (0, 1, 2)), (1, 1.0, (3,))],
                [(2, 1.0, (0, 4))],
            ],
            [6.0, 3.0],
            num_pes=2,
            cache_entries=2,
        )
        validate_trace(sim)
        assert sim.cache_max_occupancy <= 2
        assert sim.cache_misses >= 3  # capacity 2 cannot hold 5 hubs


# ----------------------------------------------------------------------
# Corrupted-trace rejection
# ----------------------------------------------------------------------
def _corrupt(sim: EventSimResult, mutate) -> EventSimResult:
    """Return a copy of ``sim`` with ``mutate(trace_list)`` applied."""
    trace = [list(event) for event in sim.trace]
    mutate(trace)
    return dataclasses.replace(
        sim, trace=tuple(tuple(event) for event in trace)
    )


class TestCorruptedTraces:
    @pytest.fixture(scope="class")
    def sim(self):
        return _run(_graph(hub_fraction=0.08), "event").event

    def _first_index(self, sim, kind):
        return next(
            i for i, event in enumerate(sim.trace) if event[0] == kind
        )

    def test_clean_trace_passes(self, sim):
        validate_trace(sim)

    def test_dropped_completion_rejected(self, sim):
        i = self._first_index(sim, "complete")

        def mutate(trace):
            del trace[i]

        with pytest.raises(SimulationError, match="event trace invalid"):
            validate_trace(_corrupt(sim, mutate))

    def test_start_before_release_rejected(self, sim):
        i = self._first_index(sim, "start")

        def mutate(trace):
            trace[i][1] = -1.0  # yank the start into the past

        with pytest.raises(SimulationError, match="event trace invalid"):
            validate_trace(_corrupt(sim, mutate))

    def test_double_grant_rejected(self, sim):
        i = self._first_index(sim, "start")

        def mutate(trace):
            trace.insert(i + 1, list(trace[i]))  # same PE granted twice

        with pytest.raises(SimulationError, match="event trace invalid"):
            validate_trace(_corrupt(sim, mutate))

    def test_ring_hop_corruption_rejected(self, sim):
        i = self._first_index(sim, "ring")

        def mutate(trace):
            trace[i][6] += 1  # break the (bank - src) % P topology

        with pytest.raises(SimulationError, match="hop count"):
            validate_trace(_corrupt(sim, mutate))

    def test_overfull_cache_rejected(self, sim):
        i = self._first_index(sim, "cache")

        def mutate(trace):
            trace[i][4] = sim.cache_entries + 1

        with pytest.raises(SimulationError, match="occupancy"):
            validate_trace(_corrupt(sim, mutate))

    def test_tampered_record_rejected(self, sim):
        units = list(sim.units)
        units[0] = dataclasses.replace(units[0], work=units[0].work + 5.0)
        bad = dataclasses.replace(sim, units=tuple(units))
        with pytest.raises(SimulationError, match="event trace invalid"):
            validate_trace(bad)

    def test_unknown_kind_rejected(self, sim):
        def mutate(trace):
            trace.append(["teleport", sim.trace[-1][1] + 1.0])

        with pytest.raises(SimulationError, match="unknown event kind"):
            validate_trace(_corrupt(sim, mutate))
