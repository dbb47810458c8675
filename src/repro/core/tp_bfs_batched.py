"""Batched TP-BFS: the vectorized Island Locator hot path.

This module re-implements one round of Algorithm 1's Th3 phase (the
TP-BFS task queue of :mod:`repro.core.tp_bfs`) as stamp-array NumPy
kernels.  The one-round granularity is deliberate: each
:func:`execute_round_batched` call returns a complete
:class:`BatchedRoundOutcome`, which is exactly the unit
:meth:`IslandLocator.stream <repro.core.islandizer.IslandLocator.stream>`
hands to the Island Consumer as a
:class:`~repro.core.types.RoundOutput` — the §3.1.1/Fig. 3 streamed
pipeline needs no extra synchronisation inside this module.  The
contract is **exact result-equivalence** with the scalar
per-edge loop — identical islands (members in BFS discovery order,
hubs in first-contact order), identical inter-hub edges, identical
``RoundStats`` and ``LocatorWork`` counters — at array speed instead of
Python-interpreter speed (see ``benchmarks/bench_locator_scale.py``).

The key observation making batching *exact* is that, within one round,
the task queue's sequential dynamics decompose per connected component
of the **active subgraph** (unclassified non-hub nodes):

* a TP-BFS walk can never leave its seed's component (hubs bound it,
  and previously classified nodes are unreachable — a closed island's
  neighbourhood was fully classified when it closed);
* the round starts with an empty ``v_global``, so every component is
  untouched until its first task runs.

Hence, per round:

1. **Seed-is-hub tasks** are classified in bulk against the hub mask;
   their canonical inter-hub edges dedup through one sorted key array.
2. **Small components** (``size <= c_max``): the first task whose seed
   lands in the component wins and islands the *entire* component —
   no collision or cap abort is reachable — and every later task in
   the same component dies on the seed-visited check with zero work.
   Winners are found with one scatter; all winning BFS walks then run
   together as one **multi-source level-synchronous expansion**
   (vectorized CSR gathers; per-task member order equals each task's
   solo BFS order because components are disjoint).
3. **Large components** (``size > c_max``): tasks can abort mid-edge
   on the cap or on a collision with a previous partial walk, so they
   run sequentially through :func:`run_task_levelwise` — still
   level-vectorized, with the exact abort position recovered from
   per-level cumulative counts.

Classification uses one ``int8`` state array per round instead of the
scalar path's three stamp arrays, so each BFS level costs a single
gather:

====================  =====================================
state value            meaning
====================  =====================================
``STATE_FREE``    0    unclassified non-hub, not yet visited
``STATE_HUB``     1    hub (this round's threshold or older)
``STATE_VISITED`` 2    in ``v_global`` (some finished task)
``STATE_OWN``     3    in the *running* task's ``v_local``
``STATE_OWN_HUB`` 4    hub already recorded by the running task
====================  =====================================

Codes 3/4 are task-local and are folded back to 2/1 when the task
ends, so the next task sees only global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.nputil import cumsum0, flat_gather
from repro.core.tp_bfs import TaskOutcome
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph

__all__ = [
    "STATE_FREE",
    "STATE_HUB",
    "STATE_VISITED",
    "STATE_OWN",
    "STATE_OWN_HUB",
    "TASK_ISLAND",
    "TASK_SEED_HUB",
    "TASK_VISITED",
    "TASK_CMAX",
    "TASK_OUTCOME_CODES",
    "BatchedRoundOutcome",
    "run_task_levelwise",
    "execute_round_batched",
]

STATE_FREE = np.int8(0)
STATE_HUB = np.int8(1)
STATE_VISITED = np.int8(2)
STATE_OWN = np.int8(3)
STATE_OWN_HUB = np.int8(4)

#: Per-task outcome codes of ``BatchedRoundOutcome.task_outcomes``
#: (compact int8 encoding of :class:`~repro.core.tp_bfs.TaskOutcome`).
TASK_ISLAND = np.int8(0)
TASK_SEED_HUB = np.int8(1)
TASK_VISITED = np.int8(2)
TASK_CMAX = np.int8(3)

TASK_OUTCOME_CODES: dict[TaskOutcome, np.int8] = {
    TaskOutcome.ISLAND: TASK_ISLAND,
    TaskOutcome.SEED_IS_HUB: TASK_SEED_HUB,
    TaskOutcome.ALREADY_VISITED: TASK_VISITED,
    TaskOutcome.CMAX_EXCEEDED: TASK_CMAX,
}

_EMPTY = np.zeros(0, dtype=np.int64)

#: Island-size cap above which over-c_max walks use the level-wise
#: kernel; below it, carving walks are short enough that the per-edge
#: walker's lower constant wins.
_LEVELWISE_CMAX = 512


@dataclass
class BatchedRoundOutcome:
    """Everything one batched Th3 round hands back to the locator.

    ``islands`` are (members, hubs) pairs in the scalar path's append
    order (winning-task order); ``task_scans``, ``task_fetches``,
    ``task_bytes`` and ``task_outcomes`` hold each task's scan count,
    adjacency fetches/bytes and outcome code *in task order* — the
    scans drive the engine-dispatch replay, and the full per-task
    attribution is what lets incremental islandization subtract a
    dirty region's contribution from cached counters without
    re-running the old graph.
    """

    islands: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    new_interhub_keys: np.ndarray = field(default_factory=lambda: _EMPTY)
    dropped_classified: int = 0
    dropped_visited: int = 0
    dropped_cmax: int = 0
    scans: int = 0
    fetches: int = 0
    adjacency_bytes: int = 0
    task_scans: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_fetches: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_bytes: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_outcomes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int8)
    )

    @property
    def islands_found(self) -> int:
        """Number of islands this round located."""
        return len(self.islands)

    @property
    def nodes_islanded(self) -> int:
        """Members across this round's islands."""
        return sum(len(members) for members, _ in self.islands)


def _first_occurrence(nbrs: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of first occurrences in ``nbrs`` (order preserved).

    ``scratch`` is an int64 work array indexed by node id.  The
    reversed scatter makes each node's *earliest* flat index the one
    that survives, so a gather-compare marks exactly the first
    occurrence of every node — no sort, unlike ``np.unique``.  Stale
    scratch entries are harmless: only nodes written this call are
    read back.
    """
    idx = np.arange(len(nbrs), dtype=np.int64)
    scratch[nbrs[::-1]] = idx[::-1]
    return scratch[nbrs] == idx


def run_task_levelwise(
    indptr: np.ndarray,
    indices: np.ndarray,
    state: np.ndarray,
    scratch: np.ndarray,
    c_max: int,
    seed_hub: int,
    a0: int,
) -> tuple[TaskOutcome, np.ndarray | None, np.ndarray | None, int, int, int]:
    """Execute one TP-BFS task with level-vectorized frontier expansion.

    Exact counterpart of :func:`repro.core.tp_bfs.run_bfs_task` for a
    seed that already passed the hub/visited checks: the frontier
    expands level by level with one CSR gather + one state gather, and
    the three break conditions are detected per level.  On an abort the
    scalar path's mid-scan position is recovered exactly — ``scans``
    counts entries up to and including the aborting one, fetches/bytes
    cover the rows popped up to that entry, and the cap-tripping member
    is still stamped into ``v_global`` (the scalar loop stamps before
    it checks the cap).

    Returns ``(outcome, members, hubs, scans, fetches, bytes)``;
    members/hubs are ``None`` unless the outcome is ``ISLAND``.
    """
    state[a0] = STATE_OWN
    state[seed_hub] = STATE_OWN_HUB
    member_chunks: list[np.ndarray] = [np.asarray([a0], dtype=np.int64)]
    hub_chunks: list[np.ndarray] = [np.asarray([seed_hub], dtype=np.int64)]
    count = 1
    scans = 0
    fetches = 0
    nbytes = 0
    frontier = member_chunks[0]
    aborted: TaskOutcome | None = None

    while frontier.size and aborted is None:
        if frontier.size == 1:
            # Single-node frontier (every task's first level, and every
            # level of chain-like walks): the row is a direct CSR slice
            # with unique sorted entries — no flat gather, no dedup.
            node = frontier[0]
            start, end = indptr[node], indptr[node + 1]
            nbrs = indices[start:end]
            total = int(end - start)
            row_counts = None
        else:
            flat, row_counts, total = flat_gather(indptr, frontier)
            nbrs = indices[flat]
        s = state[nbrs]
        free = s == STATE_FREE
        collision = s == STATE_VISITED
        if row_counts is None:
            first = None             # single CSR row: entries are unique
            new_mask = free
        else:
            first = _first_occurrence(nbrs, scratch)
            new_mask = free & first
        new_count = int(np.count_nonzero(new_mask))
        collided = bool(collision.any())

        if collided or count + new_count > c_max:
            # First flat position where the member count would exceed
            # c_max: the new-member cumsum is non-decreasing, so
            # searchsorted finds it.
            if count + new_count > c_max:
                first_cmax = int(
                    np.searchsorted(np.cumsum(new_mask), c_max - count + 1)
                )
            else:
                first_cmax = total
            first_coll = int(np.argmax(collision)) if collided else total
            if first_coll < first_cmax:
                pos, aborted = first_coll, TaskOutcome.ALREADY_VISITED
                stamp_end = pos          # the colliding entry is not stamped
            else:
                pos, aborted = first_cmax, TaskOutcome.CMAX_EXCEEDED
                stamp_end = pos + 1      # the cap-tripping member is stamped
            stamped = nbrs[:stamp_end][new_mask[:stamp_end]]
            state[stamped] = STATE_VISITED
            if row_counts is None:
                row_end = total
                row = 0
            else:
                row_ends = np.cumsum(row_counts)
                row = int(np.searchsorted(row_ends, pos, side="right"))
                row_end = int(row_ends[row])
            scans += pos + 1
            fetches += row + 1
            nbytes += row_end * 4
            break

        scans += total
        fetches += len(frontier)
        nbytes += total * 4
        hub_contact = s == STATE_HUB
        if hub_contact.any():
            if first is not None:
                hub_contact &= first
            new_hubs = nbrs[hub_contact]
            state[new_hubs] = STATE_OWN_HUB
            hub_chunks.append(new_hubs)
        new_nodes = nbrs[new_mask]
        state[new_nodes] = STATE_OWN
        count += len(new_nodes)
        member_chunks.append(new_nodes)
        frontier = new_nodes

    members = np.concatenate(member_chunks)
    hubs = np.concatenate(hub_chunks)
    # Fold task-local codes back to global state: every touched member
    # stays in v_global (the paper keeps stamps on aborts so sibling
    # engines skip the region), recorded hubs go back to plain hubs.
    state[members] = STATE_VISITED
    state[hubs] = STATE_HUB
    if aborted is not None:
        return aborted, None, None, scans, fetches, nbytes
    return TaskOutcome.ISLAND, members, hubs, scans, fetches, nbytes


def _run_walk_edgewise(
    indptr: list[int],
    indices: list[int],
    state: bytearray,
    c_max: int,
    seed_hub: int,
    a0: int,
) -> tuple[TaskOutcome, np.ndarray | None, np.ndarray | None, int, int, int]:
    """Per-edge TP-BFS walk on a bytearray state (short-walk fast path).

    Same contract and semantics as :func:`run_task_levelwise`, mirroring
    the oracle loop of :func:`repro.core.tp_bfs.run_bfs_task` (the state
    codes are mutually exclusive, so the branch order is immaterial).
    Collision walks into partially stamped regions die after a handful
    of edge scans on typical graphs, where even per-level array dispatch
    costs more than it saves — so this walker runs on plain-Python data
    structures (list CSR, bytearray state) with ~40 ns per touch.
    :func:`execute_round_batched` picks the level-wise kernel instead
    when ``c_max`` is large enough for carving walks to amortise
    vectorization.
    """
    state[a0] = 3          # STATE_OWN
    state[seed_hub] = 4    # STATE_OWN_HUB
    members = [a0]
    hubs = [seed_hub]
    count = 1
    query = 0
    scans = 0
    fetches = 0
    nbytes = 0
    aborted: TaskOutcome | None = None
    while query != count and aborted is None:
        node = members[query]
        start, end = indptr[node], indptr[node + 1]
        fetches += 1
        nbytes += (end - start) * 4
        for nb in indices[start:end]:
            scans += 1
            s = state[nb]
            if s == 0:                 # STATE_FREE: new member
                count += 1
                members.append(nb)
                state[nb] = 3
                if count > c_max:
                    aborted = TaskOutcome.CMAX_EXCEEDED
                    break
            elif s == 2:               # STATE_VISITED: collision
                aborted = TaskOutcome.ALREADY_VISITED
                break
            elif s == 1:               # STATE_HUB: first contact
                hubs.append(nb)
                state[nb] = 4
            # 3 / 4: already this task's member or hub — skip.
        query += 1
    # Fold task-local codes back to global state (stamps persist).
    for node in members:
        state[node] = 2
    for node in hubs:
        state[node] = 1
    if aborted is not None:
        return aborted, None, None, scans, fetches, nbytes
    return (
        TaskOutcome.ISLAND,
        np.asarray(members, dtype=np.int64),
        np.asarray(hubs, dtype=np.int64),
        scans,
        fetches,
        nbytes,
    )


def _component_labels(
    graph: CSRGraph, rows: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of the active (unclassified non-hub) subgraph.

    Returns ``(node_to_comp, comp_sizes, active_ids)`` where
    ``node_to_comp[u]`` is a component label for active ``u`` and -1
    elsewhere.  ``rows`` is the precomputed per-entry source array of
    the CSR (``repeat(arange(n), degrees)``), shared across rounds.
    """
    n = graph.num_nodes
    active_ids = np.flatnonzero(active)
    node_to_comp = np.full(n, -1, dtype=np.int64)
    if len(active_ids) == 0:
        return node_to_comp, _EMPTY, active_ids
    relabel = np.full(n, -1, dtype=np.int64)
    relabel[active_ids] = np.arange(len(active_ids), dtype=np.int64)
    # Induced-subgraph CSR built directly (the source CSR is already
    # row-major, so masking preserves order — no coo sort needed).
    keep = active[rows] & active[graph.indices]
    sub_cols = relabel[graph.indices[keep]]
    per_row = np.bincount(rows[keep], minlength=n)[active_ids]
    sub_indptr = cumsum0(per_row)
    sub = csr_matrix(
        (np.ones(len(sub_cols), dtype=np.int8), sub_cols, sub_indptr),
        shape=(len(active_ids), len(active_ids)),
    )
    # The adjacency is symmetric, so strong components of the directed
    # view equal undirected components; Tarjan runs straight off the
    # CSR, skipping the G + G^T transpose both other modes build.
    _, labels = connected_components(sub, directed=True, connection="strong")
    node_to_comp[active_ids] = labels
    comp_sizes = np.bincount(labels).astype(np.int64)
    return node_to_comp, comp_sizes, active_ids


def _multi_source_bfs(
    graph: CSRGraph,
    state: np.ndarray,
    scratch: np.ndarray,
    seeds: np.ndarray,
    seed_hubs: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
    """Run every winning task's island BFS in one level-synchronous batch.

    All seeds lie in distinct untouched components, so the walks cannot
    interact: expanding them together level by level and regrouping by
    owner afterwards reproduces each task's solo BFS member order and
    hub first-contact order exactly.

    Returns ``(islands, scans, fetches, bytes)`` with per-owner arrays
    aligned to ``seeds``.
    """
    indptr, indices = graph.indptr, graph.indices
    num = len(seeds)
    member_nodes: list[np.ndarray] = [seeds]
    member_owner: list[np.ndarray] = [np.arange(num, dtype=np.int64)]
    # Hub-contact stream in global scan order; the pseudo level -1 seeds
    # each task's own hub first, matching the scalar append order.
    hub_stream_owner: list[np.ndarray] = [np.arange(num, dtype=np.int64)]
    hub_stream_hub: list[np.ndarray] = [seed_hubs.astype(np.int64)]
    state[seeds] = STATE_VISITED

    frontier = seeds
    owner = member_owner[0]
    while frontier.size:
        flat, row_counts, total = flat_gather(indptr, frontier)
        if total == 0:
            break
        nbrs = indices[flat]
        nbr_owner = np.repeat(owner, row_counts)
        s = state[nbrs]
        first = _first_occurrence(nbrs, scratch)
        new_mask = (s == STATE_FREE) & first
        hub_mask = s == STATE_HUB
        if hub_mask.any():
            hub_stream_owner.append(nbr_owner[hub_mask])
            hub_stream_hub.append(nbrs[hub_mask])
        frontier = nbrs[new_mask]
        owner = nbr_owner[new_mask]
        state[frontier] = STATE_VISITED
        member_nodes.append(frontier)
        member_owner.append(owner)

    all_nodes = np.concatenate(member_nodes)
    owners = np.concatenate(member_owner)
    # Stable grouping by owner preserves each task's (level, scan-order)
    # sequence — exactly the scalar queue's append order.
    order = np.argsort(owners, kind="stable")
    nodes = all_nodes[order]
    counts = np.bincount(owners, minlength=num)
    offsets = cumsum0(counts)

    degrees = indptr[1:] - indptr[:-1]
    scans = np.bincount(owners, weights=degrees[all_nodes],
                        minlength=num).astype(np.int64)
    fetches = counts.astype(np.int64)
    nbytes = scans * 4

    # Hub first-contact dedup per (owner, hub), keeping stream order.
    so = np.concatenate(hub_stream_owner)
    sh = np.concatenate(hub_stream_hub)
    keys = so * np.int64(graph.num_nodes + 1) + sh
    _, first_idx = np.unique(keys, return_index=True)
    first_idx = np.sort(first_idx)
    ho, hh = so[first_idx], sh[first_idx]
    h_order = np.argsort(ho, kind="stable")
    hh = hh[h_order]
    h_counts = np.bincount(ho, minlength=num)
    h_offsets = cumsum0(h_counts)

    islands = [
        (
            nodes[offsets[i]:offsets[i + 1]],
            hh[h_offsets[i]:h_offsets[i + 1]],
        )
        for i in range(num)
    ]
    return islands, scans, fetches, nbytes


def execute_round_batched(
    graph: CSRGraph,
    rows: np.ndarray,
    is_hub: np.ndarray,
    classified: np.ndarray,
    c_max: int,
    task_hubs: np.ndarray,
    task_seeds: np.ndarray,
    interhub_keys: np.ndarray,
    csr_lists: dict,
) -> BatchedRoundOutcome:
    """Execute one round's TP-BFS task queue, batched.

    Parameters mirror the scalar loop's per-round inputs: ``is_hub``
    and ``classified`` reflect the state *after* this round's hub
    detection, ``task_hubs``/``task_seeds`` are the Th2-generated queue
    in task order, and ``interhub_keys`` is the sorted canonical key
    array (``min * n + max``) of all inter-hub edges found in earlier
    rounds.  ``csr_lists`` is a per-run cache dict the round fills with
    list-typed CSR copies the first time a round needs the plain-Python
    walker.  The outcome's per-task scans let the caller replay the
    greedy engine dispatch in task order.
    """
    n = graph.num_nodes
    num_tasks = len(task_seeds)
    out = BatchedRoundOutcome()
    if num_tasks == 0:
        return out
    task_scans = np.zeros(num_tasks, dtype=np.int64)
    task_fetches = np.zeros(num_tasks, dtype=np.int64)
    task_bytes = np.zeros(num_tasks, dtype=np.int64)
    # Default VISITED: the only zero-work outcome a BFS task can have
    # (losers of a component race and instant deaths); every other
    # path overwrites its own entries.
    task_outcomes = np.full(num_tasks, TASK_VISITED, dtype=np.int8)

    # --- seed-is-hub tasks: bulk inter-hub edge collection ------------
    seed_hub_mask = is_hub[task_seeds]
    out.dropped_classified = int(seed_hub_mask.sum())
    if out.dropped_classified:
        task_outcomes[seed_hub_mask] = TASK_SEED_HUB
        hu = task_hubs[seed_hub_mask]
        hv = task_seeds[seed_hub_mask]
        keys = np.minimum(hu, hv) * np.int64(n) + np.maximum(hu, hv)
        keys = np.sort(keys)
        if len(keys) > 1:
            distinct = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
        if len(interhub_keys):
            keys = keys[
                interhub_keys[
                    np.clip(np.searchsorted(interhub_keys, keys), 0,
                            len(interhub_keys) - 1)
                ] != keys
            ]
        out.new_interhub_keys = keys

    bfs_idx = np.flatnonzero(~seed_hub_mask)
    if len(bfs_idx) == 0:
        out.task_scans = task_scans
        out.task_fetches = task_fetches
        out.task_bytes = task_bytes
        out.task_outcomes = task_outcomes
        return out
    bfs_seeds = task_seeds[bfs_idx]

    # --- component routing --------------------------------------------
    active = ~classified & ~is_hub
    node_to_comp, comp_sizes, _ = _component_labels(graph, rows, active)
    seed_comp = node_to_comp[bfs_seeds]
    if len(seed_comp) and int(seed_comp.min()) < 0:
        raise IslandizationError(
            "internal: TP-BFS task seed is already classified"
        )

    # First task per component wins; the reversed scatter keeps the
    # lowest task index.  Only small components can produce islands.
    first_task = np.full(len(comp_sizes), -1, dtype=np.int64)
    first_task[seed_comp[::-1]] = bfs_idx[::-1]
    small = comp_sizes[seed_comp] <= c_max
    winner = small & (first_task[seed_comp] == bfs_idx)
    out.dropped_visited += int(np.count_nonzero(small & ~winner))

    state = np.zeros(n, dtype=np.int8)
    state[is_hub] = STATE_HUB
    scratch = np.zeros(n, dtype=np.int64)

    # --- small components: one multi-source BFS for all winners -------
    win_pos = np.flatnonzero(winner)
    if len(win_pos):
        win_idx = bfs_idx[win_pos]
        islands, scans, fetches, nbytes = _multi_source_bfs(
            graph, state, scratch, bfs_seeds[win_pos], task_hubs[win_idx]
        )
        out.islands.extend(islands)
        task_scans[win_idx] = scans
        task_fetches[win_idx] = fetches
        task_bytes[win_idx] = nbytes
        task_outcomes[win_idx] = TASK_ISLAND
        out.scans += int(scans.sum())
        out.fetches += int(fetches.sum())
        out.adjacency_bytes += int(nbytes.sum())

    # --- large components: exact sequential walks ---------------------
    # The first walk into a fresh over-c_max region carves up to c_max
    # members; later walks collide with the stamped zone after a few
    # edge scans.  Level-vectorized expansion only pays off when the
    # carve is long, so small caps use the per-edge bytearray walker.
    big_pos = np.flatnonzero(~small)
    if len(big_pos):
        levelwise = c_max >= _LEVELWISE_CMAX
        if not levelwise:
            # Snapshot the numpy state for plain-Python walking.  The
            # walk phase is the round's last consumer of the state, so
            # the snapshot never needs to be written back.
            if "indptr" not in csr_lists:
                csr_lists["indptr"] = graph.indptr.tolist()
                csr_lists["indices"] = graph.indices.tolist()
            indptr_l, indices_l = csr_lists["indptr"], csr_lists["indices"]
            wstate = bytearray(state)
        walk_seeds = bfs_seeds[big_pos].tolist()
        walk_idx = bfs_idx[big_pos]
        walk_hubs = task_hubs[walk_idx].tolist()
        for pos, a0, seed_hub in zip(walk_idx.tolist(), walk_seeds, walk_hubs):
            if levelwise:
                if int(state[a0]) == 2:  # STATE_VISITED: instant death
                    out.dropped_visited += 1
                    continue
                outcome, members, hubs, scans, fetches, nbytes = (
                    run_task_levelwise(
                        graph.indptr, graph.indices, state, scratch,
                        c_max, seed_hub, a0,
                    )
                )
            else:
                if wstate[a0] == 2:      # STATE_VISITED: instant death
                    out.dropped_visited += 1
                    continue
                outcome, members, hubs, scans, fetches, nbytes = (
                    _run_walk_edgewise(
                        indptr_l, indices_l, wstate, c_max, seed_hub, a0
                    )
                )
            task_scans[pos] = scans
            task_fetches[pos] = fetches
            task_bytes[pos] = nbytes
            task_outcomes[pos] = TASK_OUTCOME_CODES[outcome]
            out.scans += scans
            out.fetches += fetches
            out.adjacency_bytes += nbytes
            if outcome is TaskOutcome.ISLAND:
                # Unreachable for components larger than c_max, but the
                # kernels are general; keep the result rather than assume.
                out.islands.append((members, hubs))
            elif outcome is TaskOutcome.ALREADY_VISITED:
                out.dropped_visited += 1
            else:
                out.dropped_cmax += 1

    out.task_scans = task_scans
    out.task_fetches = task_fetches
    out.task_bytes = task_bytes
    out.task_outcomes = task_outcomes
    return out
