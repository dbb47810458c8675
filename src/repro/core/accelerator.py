"""The I-GCN accelerator: locator + consumer + hardware models (§3-§4).

:class:`IGCNAccelerator` is the library's front door.  ``run`` performs
a full multi-layer inference:

1. islandize the (self-loop-free) graph once — structure is shared by
   all layers;
2. build island tasks and the inter-hub plan once;
3. run the Island Consumer per layer (functional or counting);
4. fold operation counts, DRAM traffic, locator work, and the
   locator/consumer overlap into latency and energy via ``repro.hw``.

Steps 1-3 run in one of two pipeline modes
(:attr:`ConsumerConfig.pipeline`), reproducing Fig. 3's overlap claim
(§3.1.1) at the software level:

* ``"streamed"`` (default) — the locator *streams*
  :class:`~repro.core.types.RoundOutput` chunks; island tasks are
  assembled per round as chunks arrive, layers execute chunk-by-chunk,
  and end-to-end cycles come from the measured per-round release/work
  schedule (:func:`~repro.core.pipeline.streamed_schedule`);
* ``"staged"`` — islandize to completion, then consume; cycles are the
  plain sum of the two phases;
* ``"event"`` — the discrete-event refinement
  (:mod:`repro.core.event_sim`): per-island release inside each round,
  PE contention, ring/DHUB-PRC port arbitration and hub-cache
  occupancy over event time; the report additionally carries the event
  trace and per-island latency records (p50/p99), and the makespan is
  sandwiched ``streamed <= event <= staged`` on every input.

Counts, traffic, and functional outputs are byte-identical across
modes (and across both locator/consumer backends); only the overlap
model differs (``tests/test_pipeline_stream.py``).

The returned :class:`IGCNReport` carries everything the paper's tables
and figures need: pruning rates (Fig 10), traffic breakdown (Fig 14A),
latency/EE (Table 2, Fig 14B), round statistics (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.consumer import IslandConsumer, LayerCounts
from repro.core.consumer_batched import TaskBatch
from repro.core.event_sim import EventSimResult, simulate_events
from repro.core.interhub import build_interhub_plan
from repro.core.islandizer import IslandLocator, islandize
from repro.core.pipeline import pipelined_makespan, streamed_schedule
from repro.core.types import IslandizationResult
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.hw.config import HardwareConfig, IGCN_DEFAULT
from repro.hw.energy import EnergyReport, estimate_energy
from repro.hw.memory import TrafficMeter, effective_offchip_bytes
from repro.models.configs import ModelConfig
from repro.models.reference import init_weights, normalization_for
from repro.report import BaseReport

__all__ = ["IGCNAccelerator", "IGCNReport"]


@dataclass
class IGCNReport(BaseReport):
    """Complete result of one simulated I-GCN inference."""

    platform: ClassVar[str] = "igcn"

    graph_name: str
    model_name: str
    islandization: IslandizationResult
    layers: list[LayerCounts]
    meter: TrafficMeter
    locator_cycles: float
    consumer_cycles: float
    total_cycles: float
    latency_us: float
    energy: EnergyReport
    pipeline: str = "streamed"
    outputs: np.ndarray | None = field(default=None, repr=False)
    #: Event-mode only: the discrete-event trace + per-island records.
    event: EventSimResult | None = field(default=None, repr=False)
    #: Event-mode only: per-island release-to-completion latency
    #: percentiles (the serving-story tail metric), in microseconds.
    island_p50_us: float | None = None
    island_p99_us: float | None = None

    # ------------------------------------------------------------------
    @property
    def macs_performed(self) -> int:
        """Uniform-report alias of :attr:`total_macs`."""
        return self.total_macs

    @property
    def total_macs(self) -> int:
        """MACs actually performed (with redundancy removal)."""
        return sum(layer.total_macs for layer in self.layers)

    @property
    def total_baseline_macs(self) -> int:
        """MACs a no-reuse dataflow would perform."""
        return sum(layer.total_baseline_macs for layer in self.layers)

    @property
    def aggregation_pruning_rate(self) -> float:
        """Figure 10 (left): fraction of aggregation MACs pruned."""
        baseline = sum(layer.aggregation_baseline_macs for layer in self.layers)
        pruned = sum(layer.aggregation_pruned_macs for layer in self.layers)
        return pruned / baseline if baseline else 0.0

    @property
    def overall_pruning_rate(self) -> float:
        """Figure 10 (right): fraction of *all* MACs pruned."""
        baseline = self.total_baseline_macs
        return (baseline - self.total_macs) / baseline if baseline else 0.0

    @property
    def aggregation_fraction(self) -> float:
        """Share of baseline ops in aggregation (paper: ~23 % average)."""
        baseline = self.total_baseline_macs
        agg = sum(layer.aggregation_baseline_macs for layer in self.layers)
        return agg / baseline if baseline else 0.0

    @property
    def overlap_saved_cycles(self) -> float:
        """Cycles the pipeline overlap hides vs. a staged back-to-back run.

        Zero in staged mode by construction; in streamed mode this is
        the Fig. 3 win — ``(locator + consumer + fill) - total``.
        """
        staged_total = (
            self.locator_cycles + self.consumer_cycles
            + IGCNAccelerator.PIPELINE_FILL_CYCLES
        )
        return max(0.0, staged_total - self.total_cycles)

    def _summary_extras(self) -> dict[str, object]:
        """Islandization and pruning metrics unique to I-GCN."""
        extras = {
            "rounds": self.islandization.num_rounds,
            "islands": self.islandization.num_islands,
            "hubs": self.islandization.num_hubs,
            "prune_agg": round(self.aggregation_pruning_rate, 4),
            "prune_all": round(self.overall_pruning_rate, 4),
            "pipeline": self.pipeline,
        }
        if self.pipeline == "event":
            extras["island_p50_us"] = (
                round(self.island_p50_us, 5)
                if self.island_p50_us is not None else None
            )
            extras["island_p99_us"] = (
                round(self.island_p99_us, 5)
                if self.island_p99_us is not None else None
            )
        return extras


class IGCNAccelerator:
    """Functional + performance simulator of the I-GCN design."""

    #: Fixed pipeline-fill cycles covering the first-island delay.
    PIPELINE_FILL_CYCLES = 64.0

    def __init__(
        self,
        hw: HardwareConfig | None = None,
        locator: LocatorConfig | None = None,
        consumer: ConsumerConfig | None = None,
    ) -> None:
        self.hw = hw or IGCN_DEFAULT
        self.locator_config = locator or LocatorConfig()
        self.consumer_config = consumer or ConsumerConfig()

    # ------------------------------------------------------------------
    def islandize(self, graph: CSRGraph) -> IslandizationResult:
        """Run only the Island Locator (strips self-loops first).

        Honours ``LocatorConfig.partitions``: values > 1 dispatch to
        the partition-parallel locator.
        """
        return islandize(graph.without_self_loops(), self.locator_config)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        features=None,
        weights: list[np.ndarray] | None = None,
        feature_density: float = 1.0,
        functional: bool = False,
        seed: int = 0,
        islandization: IslandizationResult | None = None,
        task_batch: TaskBatch | None = None,
    ) -> IGCNReport:
        """Simulate one inference of ``model`` over ``graph``.

        Functional mode (``functional=True``) computes real outputs and
        requires ``features`` (dense or scipy-sparse); weights default
        to the deterministic Glorot initialisation shared with the
        reference implementation.

        ``task_batch`` (batched backend only) is ``islandization``'s
        packed :class:`~repro.core.consumer_batched.TaskBatch`, packed
        with the model's self-loop flag — e.g. one the runtime Engine
        carried across an incremental update.  The staged path consumes
        it whole, the streamed and event paths as per-round slices, in
        place of packing tasks here.  It is checked against the
        islandization first; a mismatch raises :class:`SimulationError`.
        """
        if functional and features is None:
            raise SimulationError("functional mode requires features")
        if task_batch is not None:
            if islandization is None:
                raise SimulationError(
                    "task_batch needs the islandization it was packed from"
                )
            if self.consumer_config.backend != "batched":
                raise SimulationError(
                    "task_batch needs the batched consumer backend"
                )
            task_batch.check_matches(islandization.islands)
        # Event mode shares the streamed chunked execution path — the
        # per-round work tallies it measures feed the event schedule —
        # so counts/traffic/outputs stay byte-identical to streamed.
        streamed = self.consumer_config.pipeline in ("streamed", "event")
        consumer = IslandConsumer(self.consumer_config, self.hw)
        if islandization is not None:
            # The locator already holds the self-loop-free copy it ran
            # on; reuse it instead of rebuilding an O(nnz) clean graph
            # per call (the runtime Engine leans on this).
            clean = islandization.graph
            result = islandization
        else:
            clean = graph.without_self_loops()
            result = None

        # Normalisation depends only on the clean graph, so it is known
        # before islandization starts — the streamed pipeline needs it
        # to assemble tasks while the locator is still running.
        norm = normalization_for(clean, model.aggregation, gin_eps=model.gin_eps)
        if functional and weights is None:
            weights = init_weights(model, seed=seed)

        if streamed:
            # Fig. 3's producer/consumer hand-off: one task chunk per
            # locator round, assembled as each RoundOutput arrives — a
            # cached islandization replays its recorded round stream.
            chunks: list = []
            scratch: dict = {}  # per-inference reusable assembly maps

            def assemble(chunk) -> None:
                chunks.append(
                    consumer.prepare_chunk(
                        clean, chunk.islands,
                        add_self_loops=norm.add_self_loops,
                        scratch=scratch,
                    )
                )

            if task_batch is not None:
                # Classify the whole batch once: every round slice (and
                # any later splice of the batch) carries the classes.
                task_batch.scan_classes(self.consumer_config.preagg_k)
                chunks = [
                    task_batch[c.first_island_id:
                               c.first_island_id + c.num_islands]
                    for c in result.iter_rounds()
                ]
            elif result is None and self.locator_config.partitions == 1:
                result = IslandLocator(self.locator_config).run(
                    clean, on_round=assemble
                )
            else:
                if result is None:
                    # Partitioned locator: no live round stream — the
                    # merged result replays its recorded rounds, which
                    # the streamed overlap model consumes identically
                    # (the cached-islandization path below).
                    result = islandize(clean, self.locator_config)
                for chunk in result.iter_rounds():
                    assemble(chunk)
        else:
            if result is None:
                result = islandize(clean, self.locator_config)
            # Backend-appropriate task representation (packed TaskBatch
            # for the batched consumer, per-island bitmaps for the
            # scalar oracle), built once and shared by every layer.
            tasks = (
                task_batch if task_batch is not None
                else consumer.prepare(result, add_self_loops=norm.add_self_loops)
            )

        interhub = build_interhub_plan(result, add_self_loops=norm.add_self_loops)
        meter = TrafficMeter()
        meter.read("adjacency", result.work.total_adjacency_bytes)

        layer_counts: list[LayerCounts] = []
        layer_cycles: list[float] = []
        round_work = np.zeros(len(result.rounds), dtype=np.float64)
        x = features
        for idx, layer in enumerate(model.layers):
            layer_meter = TrafficMeter()
            layer_kwargs = dict(
                layer_index=idx,
                meter=layer_meter,
                x=x if functional else None,
                w=weights[idx] if functional else None,
                feature_density=feature_density if idx == 0 else 1.0,
                final_layer=idx == model.num_layers - 1,
            )
            if streamed:
                chunk_work: list[int] = []
                execution = consumer.run_layer_chunked(
                    result, chunks, interhub, norm, layer,
                    chunk_work=chunk_work, **layer_kwargs,
                )
                round_work += np.asarray(chunk_work, dtype=np.float64)
            else:
                execution = consumer.run_layer(
                    result, tasks, interhub, norm, layer, **layer_kwargs
                )
            layer_counts.append(execution.counts)
            compute = execution.counts.total_macs / self.hw.macs_per_cycle
            # Latency charges only the bytes that must cross the pins;
            # read-mostly operands reside on-chip up to capacity
            # (§4.6.1's practical configuration).
            memory = (
                effective_offchip_bytes(layer_meter, self.hw.onchip_capacity_bytes)
                / self.hw.bytes_per_cycle
            )
            layer_cycles.append(max(compute, memory))
            meter.merge(layer_meter)
            if functional:
                x = execution.output

        event = None
        if self.consumer_config.pipeline == "event":
            locator_cycles, consumer_cycles, total_cycles, event = (
                self._event_latency(result, layer_cycles, round_work, model)
            )
        else:
            locator_cycles, consumer_cycles, total_cycles = self._latency(
                result, layer_cycles, round_work if streamed else None
            )
        latency_s = self.hw.cycles_to_seconds(total_cycles)
        energy = estimate_energy(
            self.hw,
            latency_s=latency_s,
            macs=sum(c.total_macs for c in layer_counts),
            dram_bytes=meter.total_bytes,
        )
        p50 = event.latency_percentile(50) if event is not None else None
        p99 = event.latency_percentile(99) if event is not None else None
        return IGCNReport(
            graph_name=graph.name,
            model_name=model.name,
            islandization=result,
            layers=layer_counts,
            meter=meter,
            locator_cycles=locator_cycles,
            consumer_cycles=consumer_cycles,
            total_cycles=total_cycles,
            latency_us=self.hw.cycles_to_us(total_cycles),
            energy=energy,
            pipeline=self.consumer_config.pipeline,
            outputs=x if functional else None,
            event=event,
            island_p50_us=(
                self.hw.cycles_to_us(p50) if p50 is not None else None
            ),
            island_p99_us=(
                self.hw.cycles_to_us(p99) if p99 is not None else None
            ),
        )

    # ------------------------------------------------------------------
    def _latency(
        self,
        result: IslandizationResult,
        layer_cycles: list[float],
        round_work: np.ndarray | None = None,
    ) -> tuple[float, float, float]:
        """End-to-end cycles of one inference, per pipeline mode.

        ``round_work`` is the measured per-round consumer work vector a
        streamed run collected (``None`` in staged mode).  Staged runs
        the phases strictly back-to-back — locator, then consumer —
        so their cycles simply add.  Streamed overlaps them (Fig 3):
        islands stream to the consumer as they form, so round r's work
        releases at the round's start and the total is the
        work-conserving makespan of the measured release/work schedule
        (floored at the locator itself, which must still finish).  A
        small fixed fill covers the first-island delay in both modes.
        """
        round_cycles = self._round_cycles(result)
        locator_cycles = float(sum(round_cycles))
        consumer_cycles = float(sum(layer_cycles))
        pipeline_fill = self.PIPELINE_FILL_CYCLES

        # Degenerate graphs (0 nodes, or nothing left after self-loop
        # removal) produce zero locator rounds; there is no release
        # schedule to overlap, so the consumer runs start-to-finish in
        # either mode.
        if not round_cycles:
            return 0.0, consumer_cycles, consumer_cycles + pipeline_fill

        if round_work is None:
            total = locator_cycles + consumer_cycles + pipeline_fill
            return locator_cycles, consumer_cycles, total

        releases, chunks = streamed_schedule(
            round_cycles, round_work.tolist(), consumer_cycles
        )
        total = max(
            pipelined_makespan(releases, chunks), locator_cycles
        ) + pipeline_fill
        return locator_cycles, consumer_cycles, total

    # ------------------------------------------------------------------
    def _round_cycles(self, result: IslandizationResult) -> list[float]:
        """Per-round locator cycle estimates (shared by every mode).

        Each round is the max of its hub-detection scan, its TP-BFS
        adjacency scan, and — for adjacency beyond on-chip capacity —
        its share of the DRAM spill bandwidth.
        """
        config = self.locator_config
        # Adjacency beyond on-chip capacity pays DRAM bandwidth.
        adjacency_spill = max(
            0.0, result.work.total_adjacency_bytes - self.hw.onchip_capacity_bytes
        )
        spill_cycles_per_byte = (
            adjacency_spill / result.work.total_adjacency_bytes
            / self.hw.bytes_per_cycle
            if result.work.total_adjacency_bytes
            else 0.0
        )
        round_cycles = []
        for stats in result.rounds:
            detect = stats.detect_items / config.p1
            scans = (stats.adjacency_bytes / 4) / config.p2
            dram = stats.adjacency_bytes * spill_cycles_per_byte
            round_cycles.append(max(detect, scans, dram))
        return round_cycles

    # ------------------------------------------------------------------
    def _event_latency(
        self,
        result: IslandizationResult,
        layer_cycles: list[float],
        round_work: np.ndarray,
        model: ModelConfig,
    ) -> tuple[float, float, float, EventSimResult]:
        """End-to-end cycles of the discrete-event pipeline mode.

        The per-round consumer chunks come from the same
        :func:`~repro.core.pipeline.streamed_schedule` the streamed
        mode uses — so the event schedule conserves exactly the same
        cycle total — and each chunk is split over the round's islands
        by their member + hub counts, released at their production
        times inside the round.  The makespan is floored at the
        locator (which must still finish) plus the shared fill, which
        keeps the sandwich ``streamed <= event <= staged`` structural
        (see :mod:`repro.core.event_sim`).
        """
        round_cycles = self._round_cycles(result)
        locator_cycles = float(sum(round_cycles))
        consumer_cycles = float(sum(layer_cycles))
        pipeline_fill = self.PIPELINE_FILL_CYCLES
        num_pes = self.consumer_config.num_pes
        row_bytes = 4 * max(
            (layer.out_dim for layer in model.layers), default=1
        )
        cache_entries = max(1, self.hw.hub_xw_cache_bytes // row_bytes)
        if not round_cycles:
            # Degenerate graphs: no rounds, no schedule to refine —
            # same start-to-finish total as the other modes.
            sim = simulate_events(
                [], [], [], num_pes=num_pes, cache_entries=cache_entries
            )
            return (
                0.0, consumer_cycles, consumer_cycles + pipeline_fill, sim
            )
        _, chunks = streamed_schedule(
            round_cycles, round_work.tolist(), consumer_cycles
        )
        table = result.islands
        round_of = np.searchsorted(
            [stats.round_id for stats in result.rounds], table.round_id
        )
        work = (table.member_counts + table.hub_counts).astype(np.float64)
        hubs, hub_offsets = table.hubs.tolist(), table.hub_offsets.tolist()
        round_islands: list[list[tuple[int, float, tuple[int, ...]]]] = [
            [] for _ in round_cycles
        ]
        for island_id, (r, size) in enumerate(
            zip(round_of.tolist(), work.tolist())
        ):
            round_islands[r].append((
                island_id,
                size,
                tuple(hubs[hub_offsets[island_id]:hub_offsets[island_id + 1]]),
            ))
        sim = simulate_events(
            round_cycles,
            round_islands,
            chunks,
            num_pes=num_pes,
            cache_entries=cache_entries,
        )
        total = max(sim.makespan, locator_cycles) + pipeline_fill
        return locator_cycles, consumer_cycles, total, sim
