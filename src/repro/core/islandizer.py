"""The Island Locator (Algorithm 1): round-based islandization.

Orchestrates the three concurrent tasks of Algorithm 1 — hub detection
(Th1), BFS task generation (Th2) and TP-BFS execution (Th3) — with the
paper's per-round synchronisation.  The software model runs the phases
sequentially inside each round; that is result-equivalent to the
asynchronous hardware because all three phases share one predicate
(``degree >= TH_round``) and synchronise at round boundaries.  The
*work* of each phase is still tracked separately so the hardware cycle
model can overlap them.

Th3 has two interchangeable backends selected by
:attr:`~repro.core.config.LocatorConfig.backend`:

* ``"batched"`` (default) — the vectorized stamp-array kernels of
  :mod:`repro.core.tp_bfs_batched`: bulk task classification, one
  multi-source NumPy BFS for all island-producing tasks, and
  level-vectorized walks for over-``c_max`` regions;
* ``"scalar"`` — the original per-edge Python loop of
  :mod:`repro.core.tp_bfs`, kept as the oracle.

Both produce the exact same :class:`IslandizationResult` — islands,
hub order, inter-hub edges, round statistics and work counters — which
``tests/test_backend_equivalence.py`` pins across graph families.

Termination: the threshold decays geometrically to ``th_min``; at
``th_min = 1`` every remaining node with an edge becomes a hub and
degree-0 nodes are swept into singleton islands, so the node list
always empties (DESIGN.md §6).
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.hub_detector import detect_new_hubs
from repro.core.nputil import flat_gather
from repro.core.tp_bfs import BFSRoundState, TaskOutcome, run_bfs_task
from repro.core.tp_bfs_batched import TASK_OUTCOME_CODES, execute_round_batched
from repro.core.types import (
    Island,
    IslandizationResult,
    LocatorWork,
    RoundOutput,
    RoundStats,
)
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph

__all__ = ["IslandLocator", "islandize"]

_MAX_ROUNDS = 1000  # safety net; real runs finish in < 20 rounds

_NO_HUBS = np.zeros(0, dtype=np.int64)


class _GreedyEngineDispatch:
    """Greedy idle-engine assignment for the P2 work model.

    Replaces the original per-task ``np.argmin(engine_load)`` full scan
    with an O(log P2) heap.  Entries are ``(load, engine)`` tuples, so
    a pop returns the least-loaded engine and — among ties — the
    lowest engine index, exactly ``argmin``'s first-minimum rule; the
    resulting ``per_engine_scans`` distribution is identical.
    """

    def __init__(self, p2: int) -> None:
        self._p2 = p2
        self._heap: list[tuple[int, int]] = [(0, i) for i in range(p2)]

    def add(self, scans: int) -> None:
        """Assign one task's scan work to the current idlest engine."""
        load, engine = heapq.heappop(self._heap)
        heapq.heappush(self._heap, (load + scans, engine))

    def loads(self) -> np.ndarray:
        """Per-engine scan totals (the LocatorWork distribution)."""
        arr = np.zeros(self._p2, dtype=np.int64)
        for load, engine in self._heap:
            arr[engine] = load
        return arr


class _Round:
    """Mutable Th3 tallies of one round (shared by both backends)."""

    __slots__ = (
        "islands_found", "nodes_islanded", "dropped_classified",
        "dropped_visited", "dropped_cmax", "interhub_found",
        "scans", "fetches", "bytes",
    )

    def __init__(self) -> None:
        self.islands_found = 0
        self.nodes_islanded = 0
        self.dropped_classified = 0
        self.dropped_visited = 0
        self.dropped_cmax = 0
        self.interhub_found = 0
        self.scans = 0
        self.fetches = 0
        self.bytes = 0


class IslandLocator:
    """Runtime graph restructuring: find hubs and islands by rounds."""

    def __init__(self, config: LocatorConfig | None = None) -> None:
        self.config = config or LocatorConfig()

    def run(
        self,
        graph: CSRGraph,
        *,
        on_round: Callable[[RoundOutput], None] | None = None,
    ) -> IslandizationResult:
        """Islandize ``graph`` by draining :meth:`stream` to completion.

        ``on_round`` (optional) is invoked with each round's
        :class:`RoundOutput` as it is produced — the callback form of
        the streaming hand-off, for consumers that prefer not to drive
        the generator themselves.  The returned result is identical
        with or without a callback (and identical to what a pre-stream
        monolithic run produced: the stream *is* the implementation).
        """
        return _drain(self.stream(graph), on_round)

    def stream(
        self,
        graph: CSRGraph,
        *,
        tap: Callable[..., None] | None = None,
    ) -> Generator[RoundOutput, None, IslandizationResult]:
        """Islandize ``graph``, yielding one chunk per locator round.

        The generator form of Fig. 3's producer side: after each round
        of Algorithm 1 it yields a :class:`RoundOutput` with the
        islands finalized that round (isolated-node singletons first,
        then TP-BFS islands in task order — exactly their slice of the
        final result's island list) and the round's statistics, then
        resumes with the next threshold.  The
        :class:`IslandizationResult` is the generator's return value
        (``StopIteration.value``), so ``run()`` is a plain drain of
        this stream and both entry points produce byte-identical
        results for either Th3 backend.

        ``tap`` (optional) receives ``(round_id, task_hubs, task_seeds,
        task_scans, task_fetches, task_bytes, task_outcomes)`` once per
        round, before the round's chunk is yielded — the raw Th2 queue
        plus each task's TP-BFS scan count, adjacency fetches/bytes
        and outcome code (``tp_bfs_batched.TASK_*``) in task order.
        Incremental islandization records these to replay the greedy
        engine dispatch and to subtract a dirty region's contribution
        from the cached counters under deltas; the run itself is
        unaffected by the callback.

        ``graph`` must not contain self-loops: they carry no structural
        information for clustering and are handled by the consumer's
        normalisation (the GCN ``A + I`` diagonal), so the locator
        rejects them to keep edge accounting unambiguous.  The
        adjacency must be symmetric (the repository's graph
        constructors guarantee this); both Th3 backends rely on it.
        """
        if graph.has_self_loops():
            raise IslandizationError(
                "islandize expects a graph without self-loops; call "
                "graph.without_self_loops() first"
            )
        degrees = graph.degrees.astype(np.int64)
        return (yield from self._rounds(
            graph, degrees, self.config.initial_threshold(degrees), tap=tap
        ))

    def _rounds(
        self,
        graph: CSRGraph,
        degrees: np.ndarray,
        threshold: int,
        *,
        hubs0: np.ndarray | None = None,
        imports: tuple[np.ndarray, np.ndarray] | None = None,
        tap: Callable[..., None] | None = None,
    ) -> Generator[RoundOutput, None, IslandizationResult]:
        """The round loop of Algorithm 1, from ``threshold`` onwards.

        :meth:`stream` runs it on a whole graph.  Incremental
        islandization runs it on an extracted dirty region, which
        differs from a whole graph in three inputs, each exact against
        the full run's restriction to the region:

        * ``degrees`` are the nodes' *global* degrees: they drive hub
          detection and the scalar backend's hub-contact tests, so a
          node whose local row is truncated still reads as a hub;
        * ``hubs0`` (boolean mask) marks boundary hubs that start
          classified as hubs — their detection belongs to the clean
          side, so they never appear in the result's hub list;
        * ``imports`` ``(hubs, seeds)`` are clean hubs' round-1 tasks
          that target region nodes, merged into round 1's queue in
          ``(hub, seed)`` order (the full run's relative task order);
          each adds its 4-byte queue entry but no hub fetch.
        """
        config = self.config
        batched = config.backend == "batched"
        n = graph.num_nodes
        classified = (
            np.zeros(n, dtype=bool) if hubs0 is None else hubs0.copy()
        )
        is_hub = classified.copy()
        num_classified = int(classified.sum())
        # Scalar backend: persistent v_global stamp array.  Batched
        # backend: per-entry CSR source ids shared by every round's
        # component labelling (built once: the graph is immutable).
        visited_round = None if batched else np.zeros(n, dtype=np.int64)
        csr_rows = (
            np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
            if batched else None
        )
        csr_lists: dict = {}  # lazily filled list-CSR cache for walks

        islands: list[Island] = []
        hub_ids: list[int] = []
        hub_rounds: list[int] = []
        interhub: set[tuple[int, int]] = set()
        interhub_keys = np.zeros(0, dtype=np.int64)
        rounds: list[RoundStats] = []
        dispatch = _GreedyEngineDispatch(config.p2)

        total_fetch = 0
        total_bytes = 0
        total_detect = 0
        total_scans = 0

        round_id = 1
        while num_classified < n:
            if round_id > _MAX_ROUNDS:
                raise IslandizationError(
                    f"locator failed to converge after {_MAX_ROUNDS} rounds"
                )
            round_first_island = len(islands)
            detection = detect_new_hubs(degrees, classified, threshold)
            new_hubs = detection.new_hubs
            classified[new_hubs] = True
            is_hub[new_hubs] = True
            num_classified += len(new_hubs)
            hub_ids.extend(new_hubs.tolist())
            hub_rounds.extend([round_id] * len(new_hubs))
            isolated = detection.isolated
            islands.extend(
                Island.from_trusted_arrays(
                    round_id=round_id,
                    members=isolated[i:i + 1],
                    hubs=_NO_HUBS,
                )
                for i in range(len(isolated))
            )
            classified[isolated] = True
            num_classified += len(isolated)

            # --- Th2: task generation (reads each new hub's adjacency).
            # Vectorised CSR gather: one (hub, a0) task per adjacency
            # entry of each new hub, emitted hub-major with neighbours
            # in row (sorted) order — the exact sequence a scalar
            # per-hub loop would produce, so round stats are unchanged.
            flat, counts, _ = flat_gather(graph.indptr, new_hubs)
            task_hubs = np.repeat(new_hubs, counts)
            task_seeds = graph.indices[flat]
            if round_id == 1 and imports is not None:
                task_hubs = np.concatenate([task_hubs, imports[0]])
                task_seeds = np.concatenate([task_seeds, imports[1]])
                order = np.lexsort((task_seeds, task_hubs))
                task_hubs = task_hubs[order]
                task_seeds = task_seeds[order]
            total_tasks = len(task_hubs)
            taskgen_fetches = len(new_hubs)
            taskgen_bytes = total_tasks * 4

            # --- Th3: TP-BFS over the task queue.
            tally = _Round()
            if batched:
                outcome = execute_round_batched(
                    graph, csr_rows, is_hub, classified, config.c_max,
                    task_hubs, task_seeds, interhub_keys, csr_lists,
                )
                islands.extend(
                    Island.from_trusted_arrays(
                        round_id=round_id,
                        members=members,
                        hubs=hubs,
                    )
                    for members, hubs in outcome.islands
                )
                if outcome.islands:
                    new_members = np.concatenate(
                        [members for members, _ in outcome.islands]
                    )
                    classified[new_members] = True
                    num_classified += len(new_members)
                if len(outcome.new_interhub_keys):
                    # New keys are sorted and disjoint from the known
                    # set; a stable sort of the concatenation is a
                    # near-linear merge (np.union1d re-uniques instead).
                    interhub_keys = np.sort(
                        np.concatenate(
                            [interhub_keys, outcome.new_interhub_keys]
                        ),
                        kind="stable",
                    )
                # Replay the greedy dispatch in task order (tasks with
                # zero scans are skipped, as in the scalar path).
                for scans in outcome.task_scans[
                    outcome.task_scans > 0
                ].tolist():
                    dispatch.add(scans)
                tally.islands_found = outcome.islands_found
                tally.nodes_islanded = outcome.nodes_islanded
                tally.dropped_classified = outcome.dropped_classified
                tally.dropped_visited = outcome.dropped_visited
                tally.dropped_cmax = outcome.dropped_cmax
                tally.interhub_found = len(outcome.new_interhub_keys)
                tally.scans = outcome.scans
                tally.fetches = outcome.fetches
                tally.bytes = outcome.adjacency_bytes
                if tap is not None:
                    tap(
                        round_id, task_hubs, task_seeds, outcome.task_scans,
                        outcome.task_fetches, outcome.task_bytes,
                        outcome.task_outcomes,
                    )
            else:
                tap_arrays = (
                    (
                        np.zeros(total_tasks, dtype=np.int64),
                        np.zeros(total_tasks, dtype=np.int64),
                        np.zeros(total_tasks, dtype=np.int64),
                        np.zeros(total_tasks, dtype=np.int8),
                    )
                    if tap is not None
                    else None
                )
                num_classified += self._run_round_scalar(
                    graph, degrees, threshold, round_id, visited_round,
                    task_hubs, task_seeds, islands, classified, interhub,
                    dispatch, tally, tap_arrays,
                )
                if tap is not None:
                    tap(round_id, task_hubs, task_seeds, *tap_arrays)

            rounds.append(
                RoundStats(
                    round_id=round_id,
                    threshold=threshold,
                    nodes_remaining=int(detection.detect_items),
                    hubs_found=len(new_hubs),
                    islands_found=tally.islands_found,
                    nodes_islanded=tally.nodes_islanded,
                    tasks_generated=total_tasks,
                    tasks_dropped_classified=tally.dropped_classified,
                    tasks_dropped_visited=tally.dropped_visited,
                    tasks_dropped_cmax=tally.dropped_cmax,
                    interhub_edges_found=tally.interhub_found,
                    adjacency_fetches=tally.fetches + taskgen_fetches,
                    adjacency_bytes=tally.bytes + taskgen_bytes,
                    detect_items=detection.detect_items,
                )
            )
            total_fetch += tally.fetches + taskgen_fetches
            total_bytes += tally.bytes + taskgen_bytes
            total_detect += detection.detect_items
            total_scans += tally.scans

            yield RoundOutput(
                stats=rounds[-1],
                islands=tuple(islands[round_first_island:]),
                new_hub_ids=new_hubs,
                first_island_id=round_first_island,
            )

            threshold = config.next_threshold(threshold)
            round_id += 1

        if batched:
            interhub_arr = (
                np.stack([interhub_keys // n, interhub_keys % n], axis=1)
                if len(interhub_keys)
                else np.zeros((0, 2), dtype=np.int64)
            )
        else:
            interhub_arr = (
                np.asarray(sorted(interhub), dtype=np.int64).reshape(-1, 2)
                if interhub
                else np.zeros((0, 2), dtype=np.int64)
            )
        work = LocatorWork(
            total_adjacency_fetches=total_fetch,
            total_adjacency_bytes=total_bytes,
            total_detect_items=total_detect,
            total_bfs_scans=total_scans,
            per_engine_scans=dispatch.loads(),
        )
        return IslandizationResult(
            graph=graph,
            islands=islands,
            hub_ids=np.asarray(hub_ids, dtype=np.int64),
            hub_round=np.asarray(hub_rounds, dtype=np.int64),
            interhub_edges=interhub_arr,
            rounds=rounds,
            work=work,
        )

    # ------------------------------------------------------------------
    def _run_round_scalar(
        self,
        graph: CSRGraph,
        degrees: np.ndarray,
        threshold: int,
        round_id: int,
        visited_round: np.ndarray,
        task_hubs: np.ndarray,
        task_seeds: np.ndarray,
        islands: list[Island],
        classified: np.ndarray,
        interhub: set[tuple[int, int]],
        dispatch: _GreedyEngineDispatch,
        tally: _Round,
        tap_arrays: tuple[np.ndarray, ...] | None = None,
    ) -> int:
        """One round of Th3 through the per-edge oracle loop.

        Returns the number of nodes newly classified (islanded).
        ``tap_arrays`` (optional, pre-zeroed ``(scans, fetches, bytes,
        outcomes)``) collects each task's counters by task index for
        the stream's ``tap`` callback.
        """
        config = self.config
        state = BFSRoundState.create(
            graph, degrees, threshold, config.c_max, round_id, visited_round
        )
        newly_classified = 0
        for pos, (hub, a0) in enumerate(
            zip(task_hubs.tolist(), task_seeds.tolist())
        ):
            bytes_before = state.adjacency_bytes
            result = run_bfs_task(state, hub, a0)
            if result.scans:
                dispatch.add(result.scans)
            if tap_arrays is not None:
                tap_arrays[0][pos] = result.scans
                tap_arrays[1][pos] = result.fetches
                tap_arrays[2][pos] = state.adjacency_bytes - bytes_before
                tap_arrays[3][pos] = TASK_OUTCOME_CODES[result.outcome]
            if result.outcome is TaskOutcome.ISLAND:
                members = np.asarray(result.members, dtype=np.int64)
                islands.append(
                    Island.from_trusted_arrays(
                        round_id=round_id,
                        members=members,
                        hubs=np.asarray(result.hubs, dtype=np.int64),
                    )
                )
                classified[members] = True
                newly_classified += len(members)
                tally.islands_found += 1
                tally.nodes_islanded += len(members)
            elif result.outcome is TaskOutcome.SEED_IS_HUB:
                edge = (min(hub, a0), max(hub, a0))
                if edge not in interhub:
                    interhub.add(edge)
                    tally.interhub_found += 1
                tally.dropped_classified += 1
            elif result.outcome is TaskOutcome.ALREADY_VISITED:
                tally.dropped_visited += 1
            else:
                tally.dropped_cmax += 1
        tally.scans = state.scans
        tally.fetches = state.adjacency_fetches
        tally.bytes = state.adjacency_bytes
        return newly_classified


def _drain(
    stream: Generator[RoundOutput, None, IslandizationResult],
    on_round: Callable[[RoundOutput], None] | None = None,
) -> IslandizationResult:
    """Run a locator stream to completion, returning its result.

    ``on_round`` (optional) sees each round's chunk as it is yielded.
    """
    while True:
        try:
            chunk = next(stream)
        except StopIteration as stop:
            return stop.value
        if on_round is not None:
            on_round(chunk)


def islandize(
    graph: CSRGraph,
    config: LocatorConfig | None = None,
    *,
    store=None,
    max_workers: int | None = None,
) -> IslandizationResult:
    """Convenience wrapper: run the Island Locator on ``graph``.

    With ``config.partitions > 1`` the run is dispatched to the
    partition-parallel, out-of-core locator
    (:func:`repro.core.islandizer_partitioned.islandize_partitioned`);
    ``store`` and ``max_workers`` only apply there.  ``partitions == 1``
    runs monolithically in-process — no shard files, no worker fleet —
    which is also exactly what the partitioned path's single-shard
    oracle contract reproduces.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_partitioned import islandize_partitioned

        return islandize_partitioned(
            graph, config, store=store, max_workers=max_workers
        )
    return IslandLocator(config).run(graph)
