"""Degree-aware graph partitioning for out-of-core islandization.

The partitioned Island Locator (``repro.core.islandizer_partitioned``)
splits a CSR graph into ``P`` shards that worker processes islandize
independently over memory-mapped files.  The split must respect the
locator's semantics: an island's members may only reach the rest of the
graph through hubs, so a shard boundary is only safe where every
crossing edge is incident to a node the merged result classifies as a
hub.  Both strategies here therefore produce a **vertex separator** —
a set of *boundary nodes* promoted to hubs up front — and shards that
are unions of whole residual connected components, so no member-member
edge ever crosses a shard.

``"separator"`` (default) grows the separator with the locator's own
decaying degree-threshold schedule, but only inside components still
too large to fit a shard's edge budget: high-degree nodes are exactly
the nodes Algorithm 1 would classify as hubs in its early rounds, so
promoting them costs little islandization quality, while small
components — where late-round islands live — are left intact.

``"range"`` slices contiguous node ranges balanced by edge count and
promotes both endpoints of every cross-range edge.  It is the naive
interval-shard baseline (HyGCN-style): cheap to compute, oblivious to
degree structure, and the quality reference the separator strategy is
measured against.

``partitions == 1`` always yields the trivial partition — one shard
that *is* the whole graph, no boundary — which is what makes the
partitioned locator's single-shard path exactly equal to the
monolithic one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.serialize import read_npz, read_npz_mmap, write_npz

__all__ = [
    "PartitionError",
    "PartitionStats",
    "GraphShard",
    "GraphPartition",
    "partition_graph",
    "route_edits",
    "separator_membership",
    "ROUTE_BOUNDARY",
    "ROUTE_INTERIOR",
    "ROUTE_CROSS",
]

#: Strategies accepted by :func:`partition_graph`.
PARTITION_STRATEGIES = ("separator", "range")

#: :func:`route_edits` codes: the edit touches the separator, is
#: interior to one shard, or connects interiors of two shards.
ROUTE_BOUNDARY = 0
ROUTE_INTERIOR = 1
ROUTE_CROSS = 2


class PartitionError(ReproError):
    """A graph could not be partitioned as requested."""


@dataclass(frozen=True)
class PartitionStats:
    """Work accounting of one :func:`partition_graph` call.

    ``detect_items`` counts degree entries swept while growing the
    separator and ``edges_scanned`` the directed adjacency entries
    examined — the partitioned locator folds both into its round-0
    statistics so partitioning work is visible to the cycle model
    instead of disappearing between the phases.
    """

    strategy: str
    num_parts: int
    iterations: int
    final_threshold: int
    detect_items: int
    edges_scanned: int


@dataclass(frozen=True)
class GraphShard:
    """One partition shard: a local-ID subgraph plus its global node map.

    ``global_nodes`` is strictly ascending, so the local→global mapping
    is monotone: local orderings (BFS member order, canonical inter-hub
    pairs) survive the mapping back to global IDs unchanged.
    """

    part_id: int
    global_nodes: np.ndarray
    graph: CSRGraph

    def __post_init__(self) -> None:
        nodes = np.asarray(self.global_nodes, dtype=np.int64)
        object.__setattr__(self, "global_nodes", nodes)
        if len(nodes) != self.graph.num_nodes:
            raise PartitionError(
                f"shard {self.part_id}: {len(nodes)} global nodes for a "
                f"{self.graph.num_nodes}-node subgraph"
            )
        if len(nodes) > 1 and not np.all(np.diff(nodes) > 0):
            raise PartitionError(
                f"shard {self.part_id}: global_nodes must be strictly ascending"
            )

    @property
    def num_nodes(self) -> int:
        """Nodes in this shard."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Directed intra-shard edges."""
        return self.graph.num_edges

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the shard (arrays verbatim, ids as metadata)."""
        write_npz(
            file,
            {
                "global_nodes": self.global_nodes,
                "indptr": self.graph.indptr,
                "indices": self.graph.indices,
            },
            {"format": 1, "part_id": int(self.part_id),
             "graph_name": self.graph.name},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "GraphShard":
        """Restore a shard written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        return cls._from_arrays(arrays, meta)

    @classmethod
    def from_npz_mmap(cls, path: str) -> "GraphShard":
        """Restore a shard with **memory-mapped** arrays.

        The worker-fleet entry point: arrays stay file-backed, so a
        worker's resident set grows only with the shard pages it
        touches, never the whole partitioned graph.
        """
        arrays, meta = read_npz_mmap(path)
        return cls._from_arrays(arrays, meta)

    @classmethod
    def _from_arrays(cls, arrays, meta) -> "GraphShard":
        return cls(
            part_id=int(meta["part_id"]),
            global_nodes=arrays["global_nodes"],
            graph=CSRGraph(
                indptr=arrays["indptr"],
                indices=arrays["indices"],
                name=str(meta["graph_name"]),
            ),
        )


@dataclass(frozen=True)
class GraphPartition:
    """A full vertex-separator partition of one graph.

    ``part_of[v]`` is the shard owning interior node ``v`` or ``-1``
    for boundary nodes; ``boundary_nodes`` is the ascending separator.
    Invariant (checked by :meth:`validate`): no edge connects interior
    nodes of two different shards, so every cross-shard path runs
    through the boundary.
    """

    num_nodes: int
    boundary_nodes: np.ndarray
    part_of: np.ndarray
    shards: tuple[GraphShard, ...]
    stats: PartitionStats

    @property
    def num_parts(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def num_boundary(self) -> int:
        """Separator size."""
        return len(self.boundary_nodes)

    def validate(self, graph: CSRGraph) -> None:
        """Raise :class:`PartitionError` on any broken invariant."""
        if graph.num_nodes != self.num_nodes:
            raise PartitionError("partition does not match this graph")
        part_of = self.part_of
        boundary = np.flatnonzero(part_of < 0)
        if not np.array_equal(boundary, self.boundary_nodes):
            raise PartitionError("boundary_nodes disagree with part_of")
        owned = np.concatenate(
            [s.global_nodes for s in self.shards] + [boundary]
        )
        if len(owned) != self.num_nodes or len(np.unique(owned)) != len(owned):
            raise PartitionError("shards + boundary must cover nodes exactly once")
        rows = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), graph.degrees
        )
        src, dst = part_of[rows], part_of[graph.indices]
        cross = (src >= 0) & (dst >= 0) & (src != dst)
        if cross.any():
            u = int(rows[np.flatnonzero(cross)[0]])
            raise PartitionError(
                f"interior edge crosses shards at node {u}"
            )
        for shard in self.shards:
            expected = _extract_shard(graph, shard.global_nodes,
                                      int(shard.part_id))
            if not (
                np.array_equal(shard.graph.indptr, expected.graph.indptr)
                and np.array_equal(shard.graph.indices, expected.graph.indices)
            ):
                raise PartitionError(
                    f"shard {shard.part_id} is not the induced interior subgraph"
                )


def separator_membership(part_of: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``nodes`` are separator (boundary) nodes.

    ``part_of`` is a :class:`GraphPartition`-style assignment (shard id
    per interior node, ``-1`` on the separator); the incremental router
    evolves such an array outside any ``GraphPartition`` object, so the
    query takes the raw array rather than the partition.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    return part_of[nodes] < 0


def route_edits(
    part_of: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Classify undirected edits against a partition assignment.

    Returns ``(route, shard)``, parallel to the ``(src, dst)`` edit
    arrays: ``route[i]`` is :data:`ROUTE_BOUNDARY` when either endpoint
    sits on the separator (the edit never appears in any interior shard
    subgraph — only the reconciliation pass sees it),
    :data:`ROUTE_INTERIOR` when both endpoints are interior to the same
    shard (``shard[i]`` names it), or :data:`ROUTE_CROSS` when the
    endpoints are interior to two *different* shards — an edit the
    separator invariant forbids as an existing edge, so it can only be
    an insertion, and routing it requires promoting its endpoints into
    the separator first.  ``shard[i]`` is ``-1`` for non-interior edits.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ps, pd = part_of[src], part_of[dst]
    route = np.full(len(src), ROUTE_CROSS, dtype=np.int64)
    boundary = (ps < 0) | (pd < 0)
    interior = ~boundary & (ps == pd)
    route[boundary] = ROUTE_BOUNDARY
    route[interior] = ROUTE_INTERIOR
    shard = np.where(interior, ps, -1)
    return route, shard


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    *,
    strategy: str = "separator",
    threshold: int | None = None,
    decay: float = 0.5,
    th_min: int = 1,
) -> GraphPartition:
    """Split ``graph`` into ``num_parts`` shards behind a vertex separator.

    ``threshold``/``decay``/``th_min`` drive the ``"separator"``
    strategy's degree schedule and should mirror the locator config the
    shards will run under; ``threshold=None`` resolves the locator's
    default (the 0.99 degree quantile, clamped to at least 4).  The
    ``"range"`` strategy ignores them.
    """
    if num_parts < 1:
        raise PartitionError("num_parts must be >= 1")
    if strategy not in PARTITION_STRATEGIES:
        raise PartitionError(
            f"unknown partition strategy {strategy!r} "
            f"(expected one of {PARTITION_STRATEGIES})"
        )
    n = graph.num_nodes
    if num_parts == 1:
        # The trivial partition: the single shard IS the graph (same
        # arrays), which keeps the partitioned locator's one-shard path
        # byte-identical to the monolithic run.
        shard = GraphShard(
            part_id=0,
            global_nodes=np.arange(n, dtype=np.int64),
            graph=graph,
        )
        return GraphPartition(
            num_nodes=n,
            boundary_nodes=np.zeros(0, dtype=np.int64),
            part_of=np.zeros(n, dtype=np.int64),
            shards=(shard,),
            stats=PartitionStats(
                strategy=strategy, num_parts=1, iterations=0,
                final_threshold=0, detect_items=0, edges_scanned=0,
            ),
        )
    if strategy == "separator":
        sep, labels, stats = _separator_split(
            graph, num_parts, threshold=threshold, decay=decay, th_min=th_min
        )
    else:
        sep, labels, stats = _range_split(graph, num_parts)
    part_of = _pack_components(sep, labels, num_parts)
    shards = tuple(
        _extract_shard(graph, np.flatnonzero(part_of == p), p)
        for p in range(num_parts)
    )
    return GraphPartition(
        num_nodes=n,
        boundary_nodes=np.flatnonzero(sep),
        part_of=part_of,
        shards=shards,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Strategies: separator growth
# ----------------------------------------------------------------------
def _separator_split(graph, num_parts, *, threshold, decay, th_min):
    """Recursive degree-threshold separator.

    Round 0 promotes every ``deg ≥ TH0`` node globally — exactly the
    monolithic locator's round-1 hub set, so these promotions cost no
    islandization quality.  Each following iteration labels the
    residual's connected components, finalises every component under
    the per-shard edge budget, and promotes the ≥-threshold nodes of
    the oversized ones before decaying the threshold — the locator's
    own schedule, applied only where the graph is still too welded to
    shard.  The working graph is **compacted** to the still-oversized
    region after every iteration, so per-iteration cost tracks the
    shrinking frontier instead of the full edge count.
    """
    n, num_edges = graph.num_nodes, graph.num_edges
    deg = graph.degrees.astype(np.int64)
    if threshold is None:
        threshold = _default_threshold(deg, th_min)
    budget = max(1, num_edges // num_parts)
    sep = np.zeros(n, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    th = int(threshold)
    # Round 0: global TH0 sweep (the mono locator's round-1 hubs).
    sep[deg >= th] = True
    iterations = 1
    detect_items = n
    edges_scanned = num_edges
    th = max(th_min, int(np.floor(th * decay)))
    # One eager decayed sweep before the first (expensive) component
    # pass: nodes this far above TH0*decay are hub-blob material on any
    # graph dense enough to need partitioning, and promoting them now
    # usually halves the residual the first Tarjan pass must label.
    # Unlike the in-loop promotions this is global — a >=th node inside
    # an already-under-budget component gets promoted too — which costs
    # a little islandization quality for a large constant-factor win;
    # the bench records the delta.
    if th > th_min:
        sep[deg >= th] = True
        iterations += 1
        detect_items += n
        th = max(th_min, int(np.floor(th * decay)))
    # Compact working copy: residual after the global sweeps.
    cur_indptr, cur_indices, node_map = _induced_compact(
        graph.indptr, graph.indices, ~sep
    )
    label_base = 0
    while len(node_map):
        iterations += 1
        edges_scanned += len(cur_indices)
        lab, comp_edges = _compact_components(cur_indptr, cur_indices)
        over = comp_edges > budget
        in_over = over[lab]
        final = ~in_over
        labels[node_map[final]] = lab[final] + label_base
        label_base += len(comp_edges)
        if not in_over.any():
            break
        detect_items += int(in_over.sum())
        newsep_local = in_over & (deg[node_map] >= th)
        if not newsep_local.any() and th <= th_min:
            # Degenerate tail (every degree below th_min inside an
            # oversized component): promote the whole component —
            # crude, but guarantees termination.
            newsep_local = in_over
        sep[node_map[newsep_local]] = True
        keep = in_over & ~newsep_local
        cur_indptr, cur_indices, local_map = _induced_compact(
            cur_indptr, cur_indices, keep
        )
        node_map = node_map[local_map]
        th = max(th_min, int(np.floor(th * decay)))
    stats = PartitionStats(
        strategy="separator", num_parts=num_parts, iterations=iterations,
        final_threshold=th, detect_items=detect_items,
        edges_scanned=edges_scanned,
    )
    return sep, labels, stats


def _default_threshold(deg: np.ndarray, th_min: int) -> int:
    """LocatorConfig's default TH0 resolution (kept import-free here)."""
    if len(deg) == 0:
        return max(4, th_min)
    return max(4, th_min, int(np.ceil(float(np.quantile(deg, 0.99)))))


def _induced_compact(indptr, indices, keep):
    """Induced subgraph on ``keep`` with compact local IDs.

    Returns ``(sub_indptr, sub_indices, node_map)`` where
    ``node_map[local] = old id`` (ascending, so the relabeling is
    monotone).
    """
    nodes = np.flatnonzero(keep)
    old_n = len(indptr) - 1
    # Local work runs in int32 — node and edge counts both fit, and the
    # gathers here are memory-bound, so halving the element width is a
    # straight 2x on the partitioner's hottest passes.  It also hands
    # scipy's csgraph its native index type (no silent astype copy).
    relabel = np.full(old_n, -1, dtype=np.int32)
    relabel[nodes] = np.arange(len(nodes), dtype=np.int32)
    starts = indptr[nodes].astype(np.int32)
    counts = (indptr[nodes + 1] - indptr[nodes]).astype(np.int32)
    total = int(counts.sum())
    inner = np.arange(total, dtype=np.int32) - np.repeat(
        (np.cumsum(counts, dtype=np.int64) - counts).astype(np.int32),
        counts,
    )
    neigh = relabel[indices[np.repeat(starts, counts) + inner]]
    kept = neigh >= 0
    local_deg = np.bincount(
        np.repeat(np.arange(len(nodes), dtype=np.int32), counts)[kept],
        minlength=len(nodes),
    )
    sub_indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(local_deg, out=sub_indptr[1:])
    return sub_indptr, neigh[kept], nodes


def _compact_components(sub_indptr, sub_indices):
    """Component labels + per-component directed edge counts.

    The subgraph is already in CSR form.  Connectivity runs as
    *strong* components of the directed view: the adjacency is
    symmetric (every undirected edge is a 2-cycle), so strong, weak
    and undirected components coincide — and scipy's Tarjan pass
    reads the CSR directly, skipping the whole-graph transpose
    (``csr_tocsc``) that ``directed=False`` would pay.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_local = len(sub_indptr) - 1
    sub = csr_matrix(
        (np.ones(len(sub_indices), dtype=np.int8), sub_indices, sub_indptr),
        shape=(n_local, n_local),
    )
    _, lab = connected_components(sub, directed=True, connection="strong")
    res_deg = np.diff(sub_indptr)
    comp_edges = np.bincount(lab, weights=res_deg).astype(np.int64)
    return lab, comp_edges


# ----------------------------------------------------------------------
# Strategies: contiguous ranges
# ----------------------------------------------------------------------
def _range_split(graph, num_parts):
    """Edge-balanced contiguous node ranges; cut endpoints → separator."""
    n, num_edges = graph.num_nodes, graph.num_edges
    indptr, indices = graph.indptr, graph.indices
    targets = num_edges * np.arange(1, num_parts, dtype=np.int64) // num_parts
    cuts = np.searchsorted(indptr[1:], targets, side="left")
    bounds = np.concatenate(([0], cuts, [n]))
    range_of = np.zeros(n, dtype=np.int64)
    for p in range(num_parts):
        range_of[bounds[p]:bounds[p + 1]] = p
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    cross = range_of[rows] != range_of[indices]
    sep = np.zeros(n, dtype=bool)
    sep[rows[cross]] = True
    sep[indices[cross]] = True
    # Interior labels: reuse the ranges as "components" — ranges hold no
    # cross edges after promotion, and packing maps them 1:1 to shards.
    labels = np.where(sep, -1, range_of)
    stats = PartitionStats(
        strategy="range", num_parts=num_parts, iterations=1,
        final_threshold=0, detect_items=n, edges_scanned=num_edges,
    )
    return sep, labels, stats


# ----------------------------------------------------------------------
# Packing + extraction
# ----------------------------------------------------------------------
def _pack_components(sep, labels, num_parts):
    """Greedy bin-packing of whole components into ``num_parts`` shards.

    Components are placed heaviest-first onto the least-loaded shard
    (deterministic: ties broken by component id, then shard id), so
    shards stay edge-balanced without ever splitting a component.
    """
    live = ~sep
    n = len(sep)
    part_of = np.full(n, -1, dtype=np.int64)
    if not live.any():
        return part_of
    comp_ids, comp_index = np.unique(labels[live], return_inverse=True)
    comp_nodes = np.bincount(comp_index)
    # Weight = node count (edge totals track it closely and this keeps
    # packing independent of the split strategy's bookkeeping).
    order = np.lexsort((np.arange(len(comp_ids)), -comp_nodes))
    heap = [(0, p) for p in range(num_parts)]
    comp_part = np.empty(len(comp_ids), dtype=np.int64)
    for c in order:
        load, p = heapq.heappop(heap)
        comp_part[int(c)] = p
        heapq.heappush(heap, (load + int(comp_nodes[int(c)]), p))
    part_of[live] = comp_part[comp_index]
    return part_of


def _extract_shard(graph, nodes, part_id):
    """Induced interior subgraph on ``nodes`` (ascending), local IDs."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return GraphShard(
        part_id=part_id,
        global_nodes=nodes,
        graph=replace(
            graph.subgraph(nodes), name=f"{graph.name}/shard{part_id}"
        ),
    )
