"""Incremental islandization: delta-driven island maintenance.

The paper's case against offline reordering (Rubik, GraphACT) is that
real graphs evolve, so restructuring cost is paid on every update.
I-GCN's online islandization makes the restructuring *maintainable*:
an edge delta touches a bounded neighbourhood of the graph, and this
module re-runs the Island Locator only there.

Given a cached :class:`~repro.core.types.IslandizationResult`, the
:class:`IncrementalState` recorded alongside it, and a
:class:`~repro.graph.csr.GraphDelta`, :func:`update_islandization`
produces the result an Algorithm-1 run from scratch on the mutated
graph would produce — **exactly** (``IslandizationResult.equals``
holds, per-engine work distribution included) — while touching only
the *dirty region*.

Why a dirty region exists at all
--------------------------------
Round 1 detects hubs by the static predicate ``degree >= TH0`` and the
threshold schedule after that is deterministic, so two facts hold for
every run:

* a node's hub status and detection round depend only on its *global*
  degree, the schedule, and whether it is still unclassified — and all
  classification dynamics decompose per connected component of the
  round-1 active subgraph (the graph minus TH0 hubs): TP-BFS walks are
  bounded by hubs, components only shrink in later rounds, and later
  hubs emerge inside their own component;
* a component whose member degrees and adjacency are untouched by the
  delta therefore replays its old dynamics verbatim, provided every
  hub it interacts with behaved identically — and its adjacent hubs
  are TH0 hubs whose degree/adjacency the delta did not touch.

The dirty region is the closure of the delta endpoints under those
rules (see :func:`_dirty_region`); everything outside is spliced from
the cached result.

Folding the counters without re-running the old graph
-----------------------------------------------------
Every per-round counter folds as ``new = cached − old_dirty +
new_dirty``.  ``new_dirty`` comes from one locator *sub-run* on the
dirty region extracted from the mutated graph — the locator's own
round loop (``IslandLocator._rounds``), seeded with the region's
boundary hubs and the clean hubs' imported round-1 tasks.
``old_dirty`` needs no run at all: the recorded state carries a full
per-task log (hub, seed, scans, fetches, bytes, outcome — in task
order) plus each node's classification round, so the old run's
restriction to the dirty region is a vectorized filter:

* a task belongs to the dirty side iff its generating hub or its seed
  is dirty (a nonzero-scan task's walk is confined to its seed's
  component, and a dirty hub's seeds are all dirty or boundary hubs);
* detection-side counters are per-node sums over classification
  rounds; island counters come from the per-island metadata; an
  inter-hub edge is always found in round
  ``max(class_round[u], class_round[v])`` (the later endpoint's task
  generation scans the earlier, already-classified hub).

The only global state that resists splicing is the greedy TP-BFS
engine dispatch (``LocatorWork.per_engine_scans``): it is a heap over
the full task sequence, so the cleaned cached log is merged with the
sub-run's log and the nonzero-scan entries are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import IO, Callable, Generator

import heapq

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer import IslandLocator, _drain
from repro.core.nputil import cumsum0, flat_gather
from repro.core.tp_bfs_batched import (
    TASK_CMAX,
    TASK_SEED_HUB,
    TASK_VISITED,
    _component_labels,
)
from repro.core.types import (
    ROUND_FIELDS,
    Island,
    IslandizationResult,
    LocatorWork,
    RoundOutput,
    RoundStats,
)
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph, GraphDelta
from repro.serialize import read_npz, write_npz

__all__ = [
    "IncrementalState",
    "IncrementalUpdate",
    "record_islandization",
    "update_islandization",
]

#: RoundStats fields that fold additively across the clean/dirty split
#: (everything except the two schedule-determined columns).
_ADDITIVE_FIELDS: tuple[str, ...] = tuple(
    f for f in ROUND_FIELDS if f not in ("round_id", "threshold")
)

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY8 = np.zeros(0, dtype=np.int8)

#: The task-log columns of :class:`IncrementalState`, in log-matrix row
#: order.
_LOG_FIELDS: tuple[str, ...] = (
    "log_hubs", "log_seeds", "log_scans", "log_fetches", "log_bytes",
    "log_outcomes",
)


@dataclass(frozen=True)
class IncrementalState:
    """Recorded bookkeeping that makes a cached result updatable.

    Everything here is either free to capture during a full run (the
    task log comes straight from the per-round tap arrays) or one
    extra O(E) pass (the round-1 component labels), and all of it is
    refreshed incrementally by :func:`update_islandization` — an
    evolving graph pays the recording cost once.

    Attributes
    ----------
    th0:
        The resolved initial threshold of the recorded run.  A delta
        that moves the degree-quantile TH0 invalidates the component
        decomposition and forces a full rebuild.
    comp_labels:
        Per-node label of the round-1 active component (the graph
        minus TH0 hubs); ``-1`` on TH0 hubs.  Labels are arbitrary
        distinct integers — splicing keeps clean labels and assigns a
        fresh range to the re-run region.
    class_round:
        Per-node round of classification: an island member's island
        round, a hub's detection round.  Detection-side counters of
        the dirty region fold from this without re-running it.
    island_round, island_seed, island_size, winner_hubs:
        Per island, aligned with the result's island list: the round,
        first member (``members[0]``), member count, and the hub of
        the task that won the island (``-1`` for singletons).
        ``(winner_hub, members[0])`` is each island's winning-task
        key, which orders islands within a round — the merge key for
        splicing clean islands against re-run ones.
    log_hubs, log_seeds, log_scans, log_fetches, log_bytes, log_outcomes:
        The full task log: per round, in task order, one entry per
        Th2-generated task with its TP-BFS scan count, adjacency
        fetches/bytes and outcome code
        (``tp_bfs_batched.TASK_*``).  Replaying the nonzero-scan
        entries through the greedy dispatch reproduces
        ``per_engine_scans``; filtering by dirty hub/seed reproduces
        the dirty region's share of every per-task counter.
    log_offsets:
        Round r (1-based) owns log slice
        ``log_offsets[r-1]:log_offsets[r]``.
    """

    th0: int
    comp_labels: np.ndarray
    class_round: np.ndarray
    island_round: np.ndarray
    island_seed: np.ndarray
    island_size: np.ndarray
    winner_hubs: np.ndarray
    log_hubs: np.ndarray
    log_seeds: np.ndarray
    log_scans: np.ndarray
    log_fetches: np.ndarray
    log_bytes: np.ndarray
    log_outcomes: np.ndarray
    log_offsets: np.ndarray

    @property
    def num_rounds(self) -> int:
        """Rounds covered by the task log."""
        return len(self.log_offsets) - 1

    def round_slice(self, round_id: int) -> tuple[int, int]:
        """The task-log span of one 1-based round."""
        if round_id > self.num_rounds:
            return 0, 0
        return int(self.log_offsets[round_id - 1]), int(self.log_offsets[round_id])

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize (byte-identical round-trip via :meth:`from_npz`)."""
        write_npz(
            file,
            {
                "comp_labels": self.comp_labels,
                "class_round": self.class_round,
                "island_round": self.island_round,
                "island_seed": self.island_seed,
                "island_size": self.island_size,
                "winner_hubs": self.winner_hubs,
                "log_hubs": self.log_hubs,
                "log_seeds": self.log_seeds,
                "log_scans": self.log_scans,
                "log_fetches": self.log_fetches,
                "log_bytes": self.log_bytes,
                "log_outcomes": self.log_outcomes,
                "log_offsets": self.log_offsets,
            },
            {"format": 1, "th0": int(self.th0)},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "IncrementalState":
        """Restore a state written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        return cls._from_arrays(arrays, meta)

    @classmethod
    def _from_arrays(cls, arrays: dict, meta: dict) -> "IncrementalState":
        """Build from already-parsed npz payload (format-dispatch hook)."""
        return cls(th0=int(meta["th0"]), **arrays)


@dataclass(frozen=True)
class IncrementalUpdate:
    """What one delta application produced.

    ``result``/``state`` are always for the mutated graph, whether the
    incremental path ran or the update fell back to a full (recording)
    rebuild; ``fallback_reason`` says why when it did.
    """

    result: IslandizationResult
    state: IncrementalState
    fallback: bool
    fallback_reason: str | None
    dirty_nodes: int
    region_nodes: int


# ----------------------------------------------------------------------
# Recording runs
# ----------------------------------------------------------------------
def _chunk_metadata(
    islands: tuple[Island, ...] | list[Island],
    task_hubs: np.ndarray,
    task_seeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Winner hubs + (seed, size) metadata of one round's islands.

    An island's winning task is the first task (in task order) whose
    seed equals ``members[0]``: any earlier task in the same component
    would have won and re-seeded the island, and an earlier same-seed
    task either won (same task) or poisoned the component.  Winners
    are ``-1`` for isolated-node singletons.
    """
    k = len(islands)
    seed0 = np.empty(k, dtype=np.int64)
    sizes = np.empty(k, dtype=np.int64)
    winners = np.full(k, -1, dtype=np.int64)
    member_arrays: list[np.ndarray] = []
    tp_pos: list[int] = []
    for i, isl in enumerate(islands):
        members = isl.members
        seed0[i] = members[0]
        sizes[i] = len(members)
        member_arrays.append(members)
        if len(isl.hubs):
            tp_pos.append(i)
    if tp_pos:
        order = np.argsort(task_seeds, kind="stable")
        sorted_seeds = task_seeds[order]
        tp = np.asarray(tp_pos, dtype=np.int64)
        pos = np.searchsorted(sorted_seeds, seed0[tp])
        if np.any(sorted_seeds[pos] != seed0[tp]):
            raise IslandizationError("incremental: island seed missing from queue")
        winners[tp] = task_hubs[order[pos]]
    return winners, seed0, sizes, member_arrays


def _round1_labels(graph: CSRGraph, degrees: np.ndarray, th0: int) -> np.ndarray:
    """Component labels of ``graph`` minus its TH0 hubs (-1 on hubs).

    ``degrees`` decide hub status (global degrees for a region).
    """
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    labels, _, _ = _component_labels(graph, rows, degrees < th0)
    return labels


def _record(
    start: Callable[..., Generator[RoundOutput, None, IslandizationResult]],
    num_nodes: int,
) -> tuple[IslandizationResult, dict[str, np.ndarray]]:
    """Drain a locator round loop, capturing its incremental bookkeeping.

    ``start(tap=...)`` must return a fresh locator stream.  Returns the
    stream's result plus every :class:`IncrementalState` array except
    ``comp_labels``, in the stream's own node ids.
    """
    log: list[tuple[np.ndarray, ...]] = []
    meta: list[tuple[np.ndarray, ...]] = []
    class_round = np.full(num_nodes, -1, dtype=np.int64)

    def tap(round_id: int, *arrays: np.ndarray) -> None:
        log.append(arrays)

    def on_round(chunk: RoundOutput) -> None:
        winners, seed0, sizes, member_arrays = _chunk_metadata(
            chunk.islands, log[-1][0], log[-1][1]
        )
        rounds = np.full(len(winners), chunk.round_id, dtype=np.int64)
        meta.append((rounds, seed0, sizes, winners))
        if member_arrays:
            class_round[np.concatenate(member_arrays)] = chunk.round_id
        class_round[chunk.new_hub_ids] = chunk.round_id

    result = _drain(start(tap=tap), on_round)

    def cat(parts: list, idx: int, empty: np.ndarray = _EMPTY) -> np.ndarray:
        return np.concatenate([p[idx] for p in parts]) if parts else empty

    return result, {
        "class_round": class_round,
        "island_round": cat(meta, 0),
        "island_seed": cat(meta, 1),
        "island_size": cat(meta, 2),
        "winner_hubs": cat(meta, 3),
        "log_hubs": cat(log, 0),
        "log_seeds": cat(log, 1),
        "log_scans": cat(log, 2),
        "log_fetches": cat(log, 3),
        "log_bytes": cat(log, 4),
        "log_outcomes": cat(log, 5, _EMPTY8),
        "log_offsets": cumsum0(
            np.asarray([len(entry[0]) for entry in log], dtype=np.int64)
        ),
    }


def record_islandization(
    graph: CSRGraph, config: LocatorConfig | None = None
) -> tuple[IslandizationResult, IncrementalState]:
    """Run the Island Locator, capturing the incremental bookkeeping.

    The result is identical to a plain ``islandize(graph, config)``;
    the returned :class:`IncrementalState` is what
    :func:`update_islandization` needs to maintain it under deltas.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_pincremental import (
            record_islandization_partitioned,
        )

        return record_islandization_partitioned(graph, config)
    result, arrays = _record(
        partial(IslandLocator(config).stream, graph), graph.num_nodes
    )
    degrees = graph.degrees.astype(np.int64)
    th0 = int(config.initial_threshold(degrees))
    state = IncrementalState(
        th0=th0, comp_labels=_round1_labels(graph, degrees, th0), **arrays
    )
    return result, state


# ----------------------------------------------------------------------
# Dirty-region closure
# ----------------------------------------------------------------------
def _neighbor_mask(graph: CSRGraph, nodes: np.ndarray) -> np.ndarray:
    """Boolean mask of every neighbour of ``nodes`` (one CSR gather)."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[graph.indices[flat_gather(graph.indptr, nodes)[0]]] = True
    return mask


def _dirty_region(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    state: IncrementalState,
    ins_keys: np.ndarray,
    del_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compute the dirty closure of an effective edge delta.

    Returns ``(dirty mask, boundary-hub mask, region ids,
    inserted hub–hub pairs, deleted hub–hub pairs)``.

    Seeds are the endpoints of effectively changed edges.  Only
    **flip** seeds — nodes whose TH0-hub status differs between the
    old and new graph — poison their surroundings: a flip changes
    which round the node classifies in and what its tasks are, so
    every round-1 component it old-touches is dirty (its new
    neighbours are old neighbours plus changed counterparts, which are
    seeds themselves).  A seed that is a TH0 hub in *both* graphs
    stays clean: its detection round is unchanged and its unchanged
    per-edge tasks replay identically component by component — its
    changed edges either target the dirty set (imported into the
    sub-run per graph) or another stays-hub, in which case the whole
    effect of the edge is two zero-scan seed-is-hub tasks and one
    inter-hub edge in round 1, folded in closed form from the returned
    hub–hub pairs.

    The dirty node set ``DN`` is the union of dirty components (those
    holding a non-hub seed or old-touched by a flip) and the flips;
    its old/new neighbourhood beyond ``DN`` (the boundary ``B``) must
    consist of both-graph TH0 hubs — detected round 1 on the clean
    side in both runs — or the closure is wrong.
    """
    n = old_graph.num_nodes
    th0 = state.th0
    labels = state.comp_labels
    h1_old = old_graph.degrees >= th0
    h1_new = new_graph.degrees >= th0

    changed_keys = np.concatenate([ins_keys, del_keys])
    seeds = np.unique(
        np.concatenate([changed_keys // n, changed_keys % n])
    )
    seed_stays = h1_old[seeds] & h1_new[seeds]
    seed_hub = h1_old[seeds] | h1_new[seeds]
    flip_seeds = seeds[seed_hub & ~seed_stays]
    nonhub_seeds = seeds[~seed_hub]

    # Components old-touched by a flip: one gather over the flips' old
    # rows (deleted neighbours included — they are old rows).
    flip_nbrs = _neighbor_mask(old_graph, flip_seeds)
    flip_nbr_ids = np.flatnonzero(flip_nbrs & ~h1_old)
    dirty_labels = np.unique(
        np.concatenate([labels[nonhub_seeds], labels[flip_nbr_ids]])
    )
    dirty_labels = dirty_labels[dirty_labels >= 0]

    dn_mask = np.isin(labels, dirty_labels)
    dn_mask[flip_seeds] = True
    dn_ids = np.flatnonzero(dn_mask)

    boundary = (
        (_neighbor_mask(old_graph, dn_ids) | _neighbor_mask(new_graph, dn_ids))
        & ~dn_mask
    )
    if not bool(np.all(h1_old[boundary] & h1_new[boundary])):
        raise IslandizationError(
            "incremental: dirty-region boundary is not clean TH0 hubs"
        )
    region = np.flatnonzero(dn_mask | boundary)

    def hub_hub_pairs(keys: np.ndarray) -> np.ndarray:
        u, v = keys // n, keys % n
        sel = (u < v) & ~dn_mask[u] & ~dn_mask[v]
        u, v = u[sel], v[sel]
        if len(u) and not bool(np.all(
            h1_old[u] & h1_new[u] & h1_old[v] & h1_new[v]
        )):
            raise IslandizationError(
                "incremental: clean changed edge between non-hubs"
            )
        return np.stack([u, v], axis=1) if len(u) else np.zeros((0, 2), np.int64)

    return dn_mask, boundary, region, hub_hub_pairs(ins_keys), hub_hub_pairs(del_keys)


# ----------------------------------------------------------------------
# Sub-run on the extracted region
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SubRun:
    """The locator's run on the dirty region, in global node ids.

    ``rounds`` and ``bfs_scans`` are the sub-run result's statistics
    and scan total; ``record`` is its :func:`_record` bookkeeping
    (``class_round`` indexed by region position, ``-1`` on boundary
    hubs).
    """

    rounds: list[RoundStats]
    bfs_scans: int
    islands: list[Island]
    hub_ids: np.ndarray
    hub_round: np.ndarray
    interhub_edges: np.ndarray
    record: dict[str, np.ndarray]


def _run_sub(
    sub: CSRGraph,
    region: np.ndarray,
    degrees: np.ndarray,
    hubs0: np.ndarray,
    imports: tuple[np.ndarray, np.ndarray],
    config: LocatorConfig,
    th0: int,
) -> _SubRun:
    """Run the locator's own round loop on the extracted dirty region.

    ``sub`` is the region's induced subgraph (local id ``i`` is global
    ``region[i]``; region ids are sorted, so sorted adjacency,
    lexicographic task order and BFS discovery order all transfer
    between the sub-run and the full run unchanged).  ``degrees`` are
    the region's global degrees, ``hubs0`` its boundary hubs and
    ``imports`` the clean boundary hubs' round-1 tasks into the dirty
    set, all local (see ``IslandLocator._rounds``).  ``th0`` is the
    full run's resolved TH0 — the region alone cannot reproduce the
    degree-quantile default.  Inter-hub dedup is local to the sub-run:
    every edge it finds has a dirty endpoint, disjoint from the cached
    clean-clean set.
    """
    result, record = _record(
        partial(
            IslandLocator(config)._rounds, sub, degrees, th0,
            hubs0=hubs0, imports=imports,
        ),
        sub.num_nodes,
    )
    winners = record["winner_hubs"]
    winners[winners >= 0] = region[winners[winners >= 0]]
    for key in ("island_seed", "log_hubs", "log_seeds"):
        record[key] = region[record[key]]
    return _SubRun(
        rounds=result.rounds,
        bfs_scans=result.work.total_bfs_scans,
        islands=[
            Island.from_trusted_arrays(
                round_id=isl.round_id,
                members=region[isl.members],
                hubs=region[isl.hubs],
            )
            for isl in result.islands
        ],
        hub_ids=region[result.hub_ids],
        hub_round=result.hub_round,
        interhub_edges=region[result.interhub_edges],
        record=record,
    )


# ----------------------------------------------------------------------
# Reconciliation: splice the clean side with the sub-run
# ----------------------------------------------------------------------
def _check(cond: bool, what: str) -> None:
    """Internal consistency gate; failures indicate an exactness bug."""
    if not cond:
        raise IslandizationError(f"incremental reconciliation: {what}")


def _sorted_ih_member(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Mask of ``keys`` entries present in the (unsorted) ``needles``."""
    needles = np.sort(needles)
    pos = np.clip(np.searchsorted(needles, keys), 0, len(needles) - 1)
    return needles[pos] == keys


def _old_dirty_stats(
    cached: IslandizationResult,
    state: IncrementalState,
    dn_mask: np.ndarray,
    dirty_tasks: np.ndarray,
    ent_round: np.ndarray,
) -> dict[str, np.ndarray]:
    """The old run's per-round counters restricted to the dirty region.

    Pure array folds over the recorded state — no re-run of the old
    graph.  ``dirty_tasks`` is the per-log-entry dirty mask
    (``dn_mask[hub] | dn_mask[seed]``: region hubs generate only
    dirty-or-boundary seeds, and a clean hub's dirty-seed tasks are
    the sub-run's imports).  Detection counters fold from per-node
    classification rounds, island counters from the per-island
    metadata, and an inter-hub edge's discovery round is
    ``max(class_round[u], class_round[v])`` — the later endpoint's
    task generation scans the earlier, already-classified hub.
    """
    r_cached = len(cached.rounds)
    _check(state.num_rounds == r_cached, "task log does not cover the cached rounds")
    minlength = r_cached + 1
    pr = ent_round[dirty_tasks]

    def count(mask: np.ndarray | None = None) -> np.ndarray:
        rounds = pr if mask is None else pr[mask]
        return np.bincount(rounds, minlength=minlength)[1:].astype(np.int64)

    def total(values: np.ndarray) -> np.ndarray:
        return np.bincount(
            pr, weights=values[dirty_tasks].astype(np.float64),
            minlength=minlength,
        )[1:].astype(np.int64)

    outcomes = state.log_outcomes[dirty_tasks]
    tasks = count()
    fetches_bfs = total(state.log_fetches)
    bytes_bfs = total(state.log_bytes)

    dn_ids = np.flatnonzero(dn_mask)
    class_round = state.class_round
    old_hub = np.zeros(len(dn_mask), dtype=bool)
    old_hub[cached.hub_ids] = True
    hub_rounds = class_round[dn_ids[old_hub[dn_ids]]]
    hubs_found = np.bincount(hub_rounds, minlength=minlength)[1:].astype(np.int64)

    cr_dn = class_round[dn_ids]
    _check(bool(np.all(cr_dn >= 1)), "dirty node with unrecorded class round")
    per_round = np.bincount(cr_dn, minlength=minlength + 1)
    remaining = np.cumsum(per_round[::-1])[::-1][1:minlength].astype(np.int64)

    # islands_found / nodes_islanded count TP-BFS islands only —
    # isolated-node singletons (winner -1) are excluded by the locator.
    dirty_tp = dn_mask[state.island_seed] & (state.winner_hubs >= 0)
    islands_found = np.bincount(
        state.island_round[dirty_tp], minlength=minlength
    )[1:].astype(np.int64)
    nodes_islanded = np.bincount(
        state.island_round[dirty_tp],
        weights=state.island_size[dirty_tp].astype(np.float64),
        minlength=minlength,
    )[1:].astype(np.int64)

    ih = cached.interhub_edges
    if len(ih):
        dirty_edge = dn_mask[ih[:, 0]] | dn_mask[ih[:, 1]]
        found_round = np.maximum(
            class_round[ih[dirty_edge, 0]], class_round[ih[dirty_edge, 1]]
        )
        interhub_found = np.bincount(
            found_round, minlength=minlength
        )[1:].astype(np.int64)
    else:
        interhub_found = np.zeros(r_cached, dtype=np.int64)

    return {
        "nodes_remaining": remaining,
        "hubs_found": hubs_found,
        "islands_found": islands_found,
        "nodes_islanded": nodes_islanded,
        "tasks_generated": tasks,
        "tasks_dropped_classified": count(outcomes == TASK_SEED_HUB),
        "tasks_dropped_visited": count(outcomes == TASK_VISITED),
        "tasks_dropped_cmax": count(outcomes == TASK_CMAX),
        "interhub_edges_found": interhub_found,
        "adjacency_fetches": fetches_bfs + hubs_found,
        "adjacency_bytes": bytes_bfs + 4 * tasks,
        "detect_items": remaining,
        "bfs_scans": total(state.log_scans),
    }


def _fold_rounds(
    cached: IslandizationResult,
    old_dirty: dict[str, np.ndarray],
    new_rounds: list[RoundStats],
    config: LocatorConfig,
    th0: int,
    round1_adjust: dict[str, int],
) -> list[RoundStats]:
    """Per-round counter fold: ``new = cached − old_dirty + new_sub``.

    Every :class:`~repro.core.types.RoundStats` field except the
    schedule columns is a sum over per-node or per-task events, and
    each event is attributable to the clean side (identical in both
    full runs), the dirty region (subtracted analytically, re-added by
    the sub-run), or a clean hub–hub changed edge (``round1_adjust``,
    the closed-form delta of round 1's task counters), so the fold is
    exact field by field.  The new round count is the last round
    either side still has work: clean nodes remaining or a sub-run
    round.
    """
    r_cached = len(cached.rounds)

    def cget(r: int, f: str) -> int:
        return getattr(cached.rounds[r - 1], f) if r <= r_cached else 0

    def oget(r: int, f: str) -> int:
        return int(old_dirty[f][r - 1]) if r <= r_cached else 0

    def sget(r: int, f: str) -> int:
        return getattr(new_rounds[r - 1], f) if r <= len(new_rounds) else 0

    clean_remaining = (
        np.asarray([r.nodes_remaining for r in cached.rounds], dtype=np.int64)
        - old_dirty["nodes_remaining"]
    )
    _check(
        bool(np.all(clean_remaining >= 0)), "negative clean nodes_remaining"
    )
    nz = np.flatnonzero(clean_remaining > 0)
    r_clean = int(nz[-1]) + 1 if len(nz) else 0
    r_new = max(r_clean, len(new_rounds), 1)

    folded: list[RoundStats] = []
    threshold = th0
    for r in range(1, max(r_new, r_cached) + 1):
        if r <= r_cached:
            _check(
                cached.rounds[r - 1].threshold == threshold,
                "cached threshold schedule mismatch",
            )
        if r <= len(new_rounds):
            _check(
                new_rounds[r - 1].threshold == threshold,
                "new sub-run threshold schedule mismatch",
            )
        values = {
            f: cget(r, f) - oget(r, f) + sget(r, f)
            for f in _ADDITIVE_FIELDS
        }
        if r == 1:
            for f, adj in round1_adjust.items():
                values[f] += adj
        if r > r_new:
            _check(
                all(v == 0 for v in values.values()),
                "cached run has residual work beyond the folded round count",
            )
        else:
            _check(
                all(v >= 0 for v in values.values()),
                "negative folded round counter",
            )
            folded.append(
                RoundStats(round_id=r, threshold=threshold, **values)
            )
        threshold = config.next_threshold(threshold)
    return folded


def _splice_islands(
    cached: IslandizationResult,
    state: IncrementalState,
    dn_mask: np.ndarray,
    sub: _SubRun,
    n: int,
    r_new: int,
) -> tuple[list[Island], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge clean islands with the sub-run's, in full-run order.

    The full run emits isolated-node singletons first (ascending node
    id — the detector's order), then TP-BFS islands in winning-task
    order; within a round the task queue is lexicographic in
    ``(hub, seed)``, an island's winning task is ``(winner_hub,
    members[0])``, and clean/dirty winner keys never tie (a task's hub
    and seed are adjacent, so a shared key would make a clean task
    dirty).  Sorting the union by ``(round, is_tp, key)`` therefore
    reproduces the full run's island order exactly.  Returns the new
    island list plus its (round, seed, size, winner) metadata arrays.
    """
    clean_idx = np.flatnonzero(~dn_mask[state.island_seed])
    _check(
        bool(np.all(state.island_round[clean_idx] <= r_new)),
        "clean island beyond the folded round count",
    )
    rec = sub.record

    def merged(field: str) -> np.ndarray:
        return np.concatenate([getattr(state, field)[clean_idx], rec[field]])

    rounds_all = merged("island_round")
    seeds_all = merged("island_seed")
    sizes_all = merged("island_size")
    winners_all = merged("winner_hubs")
    from_sub = np.concatenate([
        np.zeros(len(clean_idx), dtype=bool),
        np.ones(len(sub.islands), dtype=bool),
    ])
    refs_all = np.concatenate([
        clean_idx, np.arange(len(sub.islands), dtype=np.int64)
    ])

    is_tp = winners_all >= 0
    _check(
        bool(np.all(is_tp | (sizes_all == 1))),
        "clean island lost its winner key",
    )
    key = np.where(is_tp, winners_all * np.int64(n) + seeds_all, seeds_all)
    order = np.lexsort((key, is_tp, rounds_all))
    from_sub = from_sub[order]
    refs = refs_all[order]

    # Island ids are positional, so islands are reused by reference.
    # Consecutive islands of one source form runs (the sub-run's
    # islands interleave at ~one spot per dirty component), so the
    # splice extends whole list slices instead of appending one at a
    # time.
    num = len(refs)
    brk = np.ones(num, dtype=bool)
    if num > 1:
        brk[1:] = (from_sub[1:] != from_sub[:-1]) | (refs[1:] != refs[:-1] + 1)
    starts = np.flatnonzero(brk)
    lengths = np.diff(np.append(starts, num))
    islands_out: list[Island] = []
    for dirty, ref, seg in zip(
        from_sub[starts].tolist(), refs[starts].tolist(), lengths.tolist()
    ):
        source = sub.islands if dirty else cached.islands
        islands_out.extend(source[ref:ref + seg])
    return (
        islands_out, rounds_all[order], seeds_all[order], sizes_all[order],
        winners_all[order],
    )


def _full_rebuild(
    new_graph: CSRGraph,
    config: LocatorConfig,
    reason: str,
    dirty_nodes: int,
    region_nodes: int,
) -> IncrementalUpdate:
    result, state = record_islandization(new_graph, config)
    return IncrementalUpdate(
        result=result,
        state=state,
        fallback=True,
        fallback_reason=reason,
        dirty_nodes=dirty_nodes,
        region_nodes=region_nodes,
    )


def update_islandization(
    old_graph: CSRGraph,
    cached: IslandizationResult,
    state: IncrementalState,
    delta: GraphDelta,
    config: LocatorConfig | None = None,
    *,
    max_dirty_fraction: float = 0.5,
    applied: tuple[CSRGraph, np.ndarray, np.ndarray] | None = None,
) -> IncrementalUpdate:
    """Maintain an islandization under an edge delta.

    ``cached``/``state`` must be the recorded run of ``old_graph``
    under the same ``config`` (both Th3 backends supported).  The
    returned result satisfies ``IslandizationResult.equals`` against a
    from-scratch run on the mutated graph, and the returned state is
    ready for the next delta.

    ``applied`` (optional) is the ``(new_graph, effective insertions,
    effective deletions)`` triple of a prior
    ``old_graph.apply_delta(delta, with_changes=True)`` call, for
    callers that already materialized the mutated graph (a delta
    pipeline needs it downstream regardless of how the islandization
    is maintained); when omitted the delta is applied here.

    Falls back to a full recording rebuild when the delta moves the
    degree-quantile TH0 (the round-1 decomposition no longer matches)
    or when the dirty region exceeds ``max_dirty_fraction`` of the
    graph (re-running most of it incrementally would only add splice
    overhead).  There is deliberately no small-graph fallback: tiny
    test graphs exercise the same incremental machinery as large ones.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_pincremental import (
            update_islandization_partitioned,
        )

        return update_islandization_partitioned(
            old_graph, cached, state, delta, config,
            max_dirty_fraction=max_dirty_fraction, applied=applied,
        )
    if applied is None:
        new_graph, ins_eff, del_eff = old_graph.apply_delta(
            delta, with_changes=True
        )
    else:
        new_graph, ins_eff, del_eff = applied
    if len(ins_eff) == 0 and len(del_eff) == 0:
        result = IslandizationResult(
            graph=new_graph,
            islands=cached.islands,
            hub_ids=cached.hub_ids,
            hub_round=cached.hub_round,
            interhub_edges=cached.interhub_edges,
            rounds=cached.rounds,
            work=cached.work,
        )
        return IncrementalUpdate(
            result=result, state=state, fallback=False,
            fallback_reason=None, dirty_nodes=0, region_nodes=0,
        )

    n = old_graph.num_nodes
    deg_new = new_graph.degrees.astype(np.int64)
    th0 = config.initial_threshold(deg_new)
    if th0 != state.th0:
        return _full_rebuild(
            new_graph, config,
            f"initial threshold moved ({state.th0} -> {th0})", 0, 0,
        )

    dn_mask, boundary, region, ins_hh, del_hh = _dirty_region(
        old_graph, new_graph, state, ins_eff, del_eff
    )
    dirty_nodes = int(dn_mask.sum())
    if len(region) > max_dirty_fraction * n:
        return _full_rebuild(
            new_graph, config,
            f"dirty region covers {len(region)}/{n} nodes",
            dirty_nodes, len(region),
        )

    # --- extraction + sub-run on the mutated graph ---------------------
    # Boundary hubs' round-1 tasks into the dirty set, from the mutated
    # graph's rows: a boundary hub's changed edges all target DN (or
    # another clean hub, folded in closed form).
    b_ids = np.flatnonzero(boundary)
    flat, counts, _ = flat_gather(new_graph.indptr, b_ids)
    imp_seeds = new_graph.indices[flat]
    keep = dn_mask[imp_seeds]
    imports = (
        np.searchsorted(region, np.repeat(b_ids, counts)[keep]),
        np.searchsorted(region, imp_seeds[keep]),
    )
    sub_new = replace(new_graph.subgraph(region), name=f"{new_graph.name}-dirty")
    sub = _run_sub(
        sub_new, region, deg_new[region], boundary[region], imports, config,
        th0,
    )

    # --- counters ------------------------------------------------------
    # Clean hub–hub changed edges: both endpoints stay round-1 hubs, so
    # each edge is exactly two zero-scan seed-is-hub tasks and one
    # inter-hub (dis)appearance in round 1 — folded in closed form.
    hh_delta = len(ins_hh) - len(del_hh)
    round1_adjust = {
        "tasks_generated": 2 * hh_delta,
        "adjacency_bytes": 8 * hh_delta,
        "tasks_dropped_classified": 2 * hh_delta,
        "interhub_edges_found": hh_delta,
    }
    dirty_tasks = dn_mask[state.log_hubs] | dn_mask[state.log_seeds]
    ent_round = np.repeat(
        np.arange(1, state.num_rounds + 1, dtype=np.int64),
        np.diff(state.log_offsets),
    )
    old_dirty = _old_dirty_stats(
        cached, state, dn_mask, dirty_tasks, ent_round
    )
    folded = _fold_rounds(
        cached, old_dirty, sub.rounds, config, th0, round1_adjust
    )
    r_new = len(folded)
    n64 = np.int64(n)

    # --- islands -------------------------------------------------------
    _check(
        len(state.winner_hubs) == len(cached.islands),
        "island metadata does not cover the cached islands",
    )
    islands_out, isl_round, isl_seed, isl_size, isl_winner = _splice_islands(
        cached, state, dn_mask, sub, n, r_new
    )
    _check(
        int((isl_winner >= 0).sum()) == sum(r.islands_found for r in folded),
        "island splice count disagrees with the folded counters",
    )

    # --- hubs ----------------------------------------------------------
    clean_hub_mask = ~dn_mask[cached.hub_ids]
    hub_ids_parts: list[np.ndarray] = []
    hub_round_parts: list[np.ndarray] = []
    for r in range(1, r_new + 1):
        clean_r = cached.hub_ids[clean_hub_mask & (cached.hub_round == r)]
        sub_r = sub.hub_ids[sub.hub_round == r]
        merged = np.sort(np.concatenate([clean_r, sub_r]))
        hub_ids_parts.append(merged)
        hub_round_parts.append(np.full(len(merged), r, dtype=np.int64))
    hub_ids = np.concatenate(hub_ids_parts) if hub_ids_parts else _EMPTY
    hub_round = np.concatenate(hub_round_parts) if hub_round_parts else _EMPTY
    _check(
        len(hub_ids) == int(clean_hub_mask.sum()) + len(sub.hub_ids),
        "hub splice dropped or duplicated hubs",
    )

    # --- inter-hub edges ----------------------------------------------
    ih = cached.interhub_edges
    if len(ih):
        clean_ih = ih[~(dn_mask[ih[:, 0]] | dn_mask[ih[:, 1]])]
    else:
        clean_ih = np.zeros((0, 2), dtype=np.int64)
    if len(del_hh):
        # A deleted clean hub–hub edge was necessarily found round 1 of
        # the cached run: drop it from the clean set.
        keys = clean_ih[:, 0] * n64 + clean_ih[:, 1]
        gone = _sorted_ih_member(keys, del_hh[:, 0] * n64 + del_hh[:, 1])
        _check(
            int(gone.sum()) == len(del_hh),
            "deleted clean hub-hub edge missing from the cached set",
        )
        clean_ih = clean_ih[~gone]
    all_ih = np.concatenate([clean_ih, sub.interhub_edges, ins_hh])
    if len(all_ih):
        order = np.argsort(all_ih[:, 0] * n64 + all_ih[:, 1])
        all_ih = all_ih[order]
    _check(
        len(all_ih) == sum(r.interhub_edges_found for r in folded),
        "inter-hub splice count disagrees with the folded counters",
    )

    # --- task-log splice + engine-dispatch replay ----------------------
    # Clean log = cached log minus dirty tasks (minus deleted clean
    # hub–hub tasks); sub log = the sub-run's tasks plus the inserted
    # clean hub–hub tasks.  Both sides are (hub, seed)-sorted within a
    # round — the full run's task order — so the merge is a single
    # global ``np.insert``: per-round searchsorted positions, offset by
    # each round's clean start, are nondecreasing across rounds, which
    # is exactly the column order one insert-per-round would produce.
    # The clean side of the merge is every cached entry that is neither
    # dirty nor a deleted clean hub–hub task; both removals fold into
    # one keep mask, so the merged log is built with a single
    # gather-scatter per column — no staging copy of the clean side.
    keep_clean = ~dirty_tasks
    r_cached = state.num_rounds
    if len(del_hh):
        lo, hi = state.round_slice(1)
        k1 = state.log_hubs[lo:hi] * n64 + state.log_seeds[lo:hi]
        dk = np.concatenate([
            del_hh[:, 0] * n64 + del_hh[:, 1],
            del_hh[:, 1] * n64 + del_hh[:, 0],
        ])
        kill = _sorted_ih_member(k1, dk)
        _check(
            int((kill & keep_clean[lo:hi]).sum()) == len(dk),
            "deleted clean hub-hub task missing from the log",
        )
        keep_clean = keep_clean.copy()
        keep_clean[lo:hi] &= ~kill
    clean_offsets = cumsum0(
        np.bincount(ent_round[keep_clean], minlength=r_cached + 1)[1:]
    )
    clean_total = int(clean_offsets[-1])
    clean_keys = (state.log_hubs * n64 + state.log_seeds)[keep_clean]
    sub_log = np.stack([sub.record[key] for key in _LOG_FIELDS])
    sub_offsets = sub.record["log_offsets"]
    sub_mats: list[np.ndarray] = []
    at_parts: list[np.ndarray] = []
    round_counts = np.zeros(r_new, dtype=np.int64)
    for r in range(1, r_new + 1):
        if r <= r_cached:
            clean_lo = int(clean_offsets[r - 1])
            clean_hi = int(clean_offsets[r])
        else:
            clean_lo = clean_hi = clean_total
        if r < len(sub_offsets):
            sm = sub_log[:, sub_offsets[r - 1]:sub_offsets[r]]
        else:
            sm = sub_log[:, :0]
        if r == 1 and len(ins_hh):
            # Two zero-work seed-is-hub tasks per inserted clean
            # hub–hub edge, one in each direction.
            hh = np.zeros((6, 2 * len(ins_hh)), dtype=np.int64)
            hh[0] = np.concatenate([ins_hh[:, 0], ins_hh[:, 1]])
            hh[1] = np.concatenate([ins_hh[:, 1], ins_hh[:, 0]])
            hh[5] = int(TASK_SEED_HUB)
            sm = np.concatenate([sm, hh], axis=1)
            sm = sm[:, np.argsort(sm[0] * n64 + sm[1])]
        if sm.shape[1]:
            at = np.searchsorted(
                clean_keys[clean_lo:clean_hi], sm[0] * n64 + sm[1]
            )
            sub_mats.append(sm)
            at_parts.append(at + clean_lo)
        round_counts[r - 1] = clean_hi - clean_lo + sm.shape[1]
        _check(
            round_counts[r - 1] == folded[r - 1].tasks_generated,
            "task-log splice disagrees with the folded task count",
        )
    # Manual column splice (same semantics as one global ``np.insert``
    # but one gather-scatter per row, no masking machinery): sub column
    # j lands at its clean insertion point plus the number of sub
    # columns already placed before it.
    if sub_mats:
        sub_all = np.concatenate(sub_mats, axis=1)
        at_all = np.concatenate(at_parts)
        sub_pos = at_all + np.arange(len(at_all), dtype=np.int64)
    else:
        sub_all = np.empty((6, 0), dtype=np.int64)
        sub_pos = _EMPTY
    total = clean_total + sub_all.shape[1]
    full_log = np.empty((6, total), dtype=np.int64)
    clean_pos = np.ones(total, dtype=bool)
    clean_pos[sub_pos] = False
    for row, key in enumerate(_LOG_FIELDS):
        full_log[row][clean_pos] = getattr(state, key)[keep_clean]
    full_log[:, sub_pos] = sub_all
    # Greedy-dispatch replay over the merged task order.  Heap entries
    # are ``load * p2 + engine`` — a single int compares exactly like
    # the (load, engine) tuple (engine < p2) but sifts much faster, and
    # adding ``scans * p2`` re-pushes the least-loaded engine in place.
    p2 = config.p2
    heap = list(range(p2))
    heapreplace = heapq.heapreplace
    mc = full_log[2]
    for scaled in (mc[mc > 0] * p2).tolist():
        heapreplace(heap, heap[0] + scaled)

    per_engine = np.zeros(p2, dtype=np.int64)
    for entry in heap:
        per_engine[entry % p2] = entry // p2
    work = LocatorWork(
        total_adjacency_fetches=sum(r.adjacency_fetches for r in folded),
        total_adjacency_bytes=sum(r.adjacency_bytes for r in folded),
        total_detect_items=sum(r.detect_items for r in folded),
        total_bfs_scans=(
            cached.work.total_bfs_scans
            - int(old_dirty["bfs_scans"].sum())
            + sub.bfs_scans
        ),
        per_engine_scans=per_engine,
    )
    _check(
        work.total_bfs_scans == int(full_log[2].sum()),
        "task-log replay disagrees with the folded scan total",
    )

    result = IslandizationResult(
        graph=new_graph,
        islands=islands_out,
        hub_ids=hub_ids,
        hub_round=hub_round,
        interhub_edges=all_ih,
        rounds=folded,
        work=work,
    )

    # --- refreshed state ----------------------------------------------
    new_labels = state.comp_labels.copy()
    offset = int(new_labels.max()) + 1
    new_labels[dn_mask] = -1
    sub_labels = _round1_labels(sub_new, deg_new[region], th0)
    sel = sub_labels >= 0
    new_labels[region[sel]] = sub_labels[sel] + offset
    new_class_round = state.class_round.copy()
    sub_round = sub.record["class_round"]
    new_class_round[region[sub_round >= 0]] = sub_round[sub_round >= 0]
    new_state = IncrementalState(
        th0=th0,
        comp_labels=new_labels,
        class_round=new_class_round,
        island_round=isl_round,
        island_seed=isl_seed,
        island_size=isl_size,
        winner_hubs=isl_winner,
        log_hubs=full_log[0],
        log_seeds=full_log[1],
        log_scans=full_log[2],
        log_fetches=full_log[3],
        log_bytes=full_log[4],
        log_outcomes=full_log[5].astype(np.int8),
        log_offsets=cumsum0(round_counts),
    )
    return IncrementalUpdate(
        result=result,
        state=new_state,
        fallback=False,
        fallback_reason=None,
        dirty_nodes=dirty_nodes,
        region_nodes=len(region),
    )
