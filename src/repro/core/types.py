"""Data model of islandization: islands, rounds, and the full result.

Terminology follows the paper (§3.1):

* **hub** — a node whose degree crosses the (decaying) round threshold;
  hubs are the contact points between islands and show up as L-shapes
  in the reordered adjacency matrix.
* **island** — a maximal group of non-hub nodes with internal
  connections only (their external links all go to hubs); islands are
  the anti-diagonal blocks.
* **round** — one iteration of Algorithm 1: hub detection at the
  current threshold, BFS task generation, and TP-BFS island search, all
  synchronised at the round boundary, after which the threshold decays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from repro.core.nputil import cumsum0, flat_gather
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.serialize import read_npz, write_npz

__all__ = [
    "Island",
    "IslandTable",
    "RoundStats",
    "LocatorWork",
    "RoundOutput",
    "IslandizationResult",
    "ROUND_FIELDS",
]


@dataclass(frozen=True, slots=True)
class Island:
    """One located island: a frozen view of one :class:`IslandTable` row.

    ``members`` are in BFS discovery order — the order the Island
    Consumer uses as the local column layout (so pre-aggregation groups
    are formed over discovery-adjacent nodes).  ``hubs`` are the hub
    nodes attached to this island (the L-shape), in first-contact order.

    An island's *id* is its position in the table — it is not stored
    on the object.  Only the scalar oracles (the bitmap backend,
    :meth:`IslandizationResult.validate`) and tests work per island;
    everything else reads the table's columns.
    """

    round_id: int
    members: np.ndarray
    hubs: np.ndarray

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=np.int64)
        hubs = np.asarray(self.hubs, dtype=np.int64)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "hubs", hubs)
        if len(members) == 0:
            raise IslandizationError("an island must have at least one member")
        if len(np.intersect1d(members, hubs)) != 0:
            raise IslandizationError("a node cannot be both member and hub")

    @property
    def num_members(self) -> int:
        """Number of island nodes."""
        return len(self.members)

    @property
    def num_hubs(self) -> int:
        """Number of attached hubs."""
        return len(self.hubs)

    @property
    def local_order(self) -> np.ndarray:
        """Column/row layout of the island task: hubs first, then members.

        Matches Figure 7, where the hub column leads the bitmap.
        """
        return np.concatenate([self.hubs, self.members])


@dataclass(frozen=True, eq=False)
class IslandTable:
    """Every island of an islandization as flat CSR-style columns.

    Island ``i`` owns ``members[member_offsets[i]:member_offsets[i+1]]``
    (BFS discovery order), ``hubs[hub_offsets[i]:hub_offsets[i+1]]``
    (first-contact order) and ``round_id[i]``.  Its id is its position:
    the locator assigns ids as a running count, so the table is the
    locator's emission stream laid end to end, and a round's islands
    are one contiguous slice.  These five columns are exactly the
    format-2 archive layout, so serialization writes them as they are.
    All columns are ``int64``.
    """

    members: np.ndarray
    member_offsets: np.ndarray
    hubs: np.ndarray
    hub_offsets: np.ndarray
    round_id: np.ndarray

    @classmethod
    def from_lists(
        cls,
        round_ids,
        members: list[np.ndarray],
        hubs: list[np.ndarray],
    ) -> "IslandTable":
        """Pack per-island arrays (the scalar oracle's one-island steps)."""
        return cls(
            members=_concat(members),
            member_offsets=cumsum0([len(m) for m in members]),
            hubs=_concat(hubs),
            hub_offsets=cumsum0([len(h) for h in hubs]),
            round_id=np.asarray(round_ids, dtype=np.int64).reshape(-1),
        )

    @classmethod
    def concatenate(cls, tables) -> "IslandTable":
        """Tables laid end to end (ids shift by the preceding lengths)."""
        tables = list(tables)
        return cls(
            members=_concat([t.members for t in tables]),
            member_offsets=cumsum0(_concat([t.member_counts for t in tables])),
            hubs=_concat([t.hubs for t in tables]),
            hub_offsets=cumsum0(_concat([t.hub_counts for t in tables])),
            round_id=_concat([t.round_id for t in tables]),
        )

    def __len__(self) -> int:
        return len(self.round_id)

    def __getitem__(self, index):
        """``table[i]`` → :class:`Island` view; ``table[lo:hi]`` → table."""
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise IndexError("island tables slice contiguously only")
            hi = max(lo, hi)
            m_lo, m_hi = self.member_offsets[lo], self.member_offsets[hi]
            h_lo, h_hi = self.hub_offsets[lo], self.hub_offsets[hi]
            return IslandTable(
                members=self.members[m_lo:m_hi],
                member_offsets=self.member_offsets[lo:hi + 1] - m_lo,
                hubs=self.hubs[h_lo:h_hi],
                hub_offsets=self.hub_offsets[lo:hi + 1] - h_lo,
                round_id=self.round_id[lo:hi],
            )
        i = range(len(self))[index]
        return Island(
            round_id=int(self.round_id[i]),
            members=self.members[self.member_offsets[i]:self.member_offsets[i + 1]],
            hubs=self.hubs[self.hub_offsets[i]:self.hub_offsets[i + 1]],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def member_counts(self) -> np.ndarray:
        """Members per island."""
        return np.diff(self.member_offsets)

    @property
    def hub_counts(self) -> np.ndarray:
        """Attached hubs per island."""
        return np.diff(self.hub_offsets)

    @property
    def seeds(self) -> np.ndarray:
        """Each island's first member (its winning task's seed)."""
        return self.members[self.member_offsets[:-1]]

    def take(self, ids: np.ndarray) -> "IslandTable":
        """The islands ``ids``, in that order (one segment gather)."""
        ids = np.asarray(ids, dtype=np.int64)
        m_flat, m_counts, _ = flat_gather(self.member_offsets, ids)
        h_flat, h_counts, _ = flat_gather(self.hub_offsets, ids)
        return IslandTable(
            members=self.members[m_flat],
            member_offsets=cumsum0(m_counts),
            hubs=self.hubs[h_flat],
            hub_offsets=cumsum0(h_counts),
            round_id=self.round_id[ids],
        )

    def relabel(self, mapping: np.ndarray) -> "IslandTable":
        """Node ids mapped through ``mapping`` (e.g. local → global)."""
        return replace(
            self, members=mapping[self.members], hubs=mapping[self.hubs]
        )

    def equals(self, other: "IslandTable") -> bool:
        """Column-wise exact equality (ids, rounds, member and hub order)."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _TABLE_COLUMNS
        )

    def check(self, num_nodes: int) -> None:
        """Raise :class:`IslandizationError` unless the columns are well formed.

        The boundary check for tables that arrive from outside the
        locator (archives): CSR offsets, non-decreasing rounds, node
        ids in range, non-empty islands, and no node that is both a
        member and a hub of one island.
        """
        num = len(self)
        for name, flat, offsets in (
            ("member", self.members, self.member_offsets),
            ("hub", self.hubs, self.hub_offsets),
        ):
            if len(offsets) != num + 1:
                raise IslandizationError(
                    f"island {name} offsets cover {len(offsets) - 1} islands, "
                    f"rounds cover {num}"
                )
            if offsets[0] != 0 or offsets[-1] != len(flat):
                raise IslandizationError(
                    f"island {name} offsets must run from 0 to {len(flat)}"
                )
            if (np.diff(offsets) < 0).any():
                raise IslandizationError(f"island {name} offsets decrease")
            if len(flat) and (flat.min() < 0 or flat.max() >= num_nodes):
                raise IslandizationError(
                    f"island {name} id outside [0, {num_nodes})"
                )
        if (np.diff(self.round_id) < 0).any():
            raise IslandizationError("island rounds decrease")
        if (self.member_counts < 1).any():
            raise IslandizationError("an island must have at least one member")
        island_ids = np.arange(num, dtype=np.int64)
        span = np.int64(max(num_nodes, 1))
        member_keys = np.repeat(island_ids, self.member_counts) * span + self.members
        hub_keys = np.repeat(island_ids, self.hub_counts) * span + self.hubs
        if len(np.intersect1d(member_keys, hub_keys)) != 0:
            raise IslandizationError("a node cannot be both member and hub")


_TABLE_COLUMNS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(IslandTable)
)


def _concat(parts) -> np.ndarray:
    """``int64`` concatenation; an empty list gives an empty array."""
    if not len(parts):
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64, copy=False)


@dataclass(frozen=True)
class RoundStats:
    """Per-round locator statistics (drives Figure 9 and the cycle model)."""

    round_id: int
    threshold: int
    nodes_remaining: int       # |N| at round start
    hubs_found: int
    islands_found: int
    nodes_islanded: int
    tasks_generated: int
    tasks_dropped_classified: int  # seed already hub/islanded (inter-hub source)
    tasks_dropped_visited: int     # seed/region already visited this round
    tasks_dropped_cmax: int        # island-size cap exceeded
    interhub_edges_found: int
    adjacency_fetches: int         # neighbour-list reads from global memory
    adjacency_bytes: int
    detect_items: int              # degree entries swept by the hub detector

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the per-round counters (all-integer metadata)."""
        write_npz(file, {}, {"format": 1, "fields": self.as_row()})

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "RoundStats":
        """Restore round statistics written by :meth:`to_npz`."""
        _, meta = read_npz(file)
        return cls(**{name: int(value) for name, value in meta["fields"].items()})

    def as_row(self) -> dict[str, int]:
        """Field-name → int mapping in declaration order."""
        return {name: int(getattr(self, name)) for name in ROUND_FIELDS}


#: RoundStats field names in declaration order — the column layout used
#: when rounds are packed into one integer matrix for serialization.
ROUND_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RoundStats)
)


@dataclass(frozen=True)
class LocatorWork:
    """Aggregate locator work, used by the hardware cycle model."""

    total_adjacency_fetches: int
    total_adjacency_bytes: int
    total_detect_items: int
    total_bfs_scans: int          # neighbour entries scanned by TP-BFS engines
    per_engine_scans: np.ndarray  # work distribution across the P2 engines

    def _totals(self) -> dict[str, int]:
        return {
            "total_adjacency_fetches": int(self.total_adjacency_fetches),
            "total_adjacency_bytes": int(self.total_adjacency_bytes),
            "total_detect_items": int(self.total_detect_items),
            "total_bfs_scans": int(self.total_bfs_scans),
        }

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the totals + the per-engine work distribution."""
        write_npz(
            file,
            {"per_engine_scans": self.per_engine_scans},
            {"format": 1, "totals": self._totals()},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "LocatorWork":
        """Restore aggregate work written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        totals = {name: int(value) for name, value in meta["totals"].items()}
        return cls(per_engine_scans=arrays["per_engine_scans"], **totals)


@dataclass(frozen=True)
class RoundOutput:
    """One round's hand-off from the Island Locator to its consumer.

    The paper's Fig. 3 pipeline ("the Island Consumer can process an
    island as soon as it is formed", §3.1.1) needs a per-round unit of
    production: :meth:`IslandLocator.stream` yields one ``RoundOutput``
    at each round boundary, carrying exactly the islands finalized that
    round plus the round's :class:`RoundStats` (the counters the cycle
    model turns into release times).  ``islands`` is the round's
    :class:`IslandTable`: column for column the slice
    ``[first_island_id, first_island_id + num_islands)`` of the final
    :class:`IslandizationResult`'s table, so a consumer that processes
    chunks as they arrive sees the identical task sequence a staged
    consumer sees after the fact.
    """

    stats: RoundStats
    islands: IslandTable          # islands finalized this round, id order
    new_hub_ids: np.ndarray       # hubs detected this round, append order
    first_island_id: int          # id of islands[0]; global task offset

    @property
    def round_id(self) -> int:
        """Round this chunk was produced by."""
        return self.stats.round_id

    @property
    def num_islands(self) -> int:
        """Islands finalized this round."""
        return len(self.islands)


@dataclass
class IslandizationResult:
    """Everything the Island Locator hands to the Island Consumer.

    Invariants (checked by :meth:`validate`):

    * every node is classified exactly once (hub xor exactly one island);
    * island members have no neighbours outside ``members + hubs``;
    * every directed edge of the graph is covered exactly once by
      island tasks (member-member and member-hub entries) plus the
      inter-hub edge map.
    """

    graph: CSRGraph
    islands: IslandTable
    hub_ids: np.ndarray
    hub_round: np.ndarray          # round at which each hub_ids[i] was found
    interhub_edges: np.ndarray     # (E, 2) canonical (min, max) undirected pairs
    rounds: list[RoundStats]
    work: LocatorWork
    _membership: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_islands(self) -> int:
        """Number of islands located."""
        return len(self.islands)

    @property
    def num_hubs(self) -> int:
        """Number of hub nodes."""
        return len(self.hub_ids)

    @property
    def num_rounds(self) -> int:
        """Rounds until the node list emptied."""
        return len(self.rounds)

    @property
    def hub_fraction(self) -> float:
        """Fraction of nodes classified as hubs."""
        n = self.graph.num_nodes
        return self.num_hubs / n if n else 0.0

    def membership(self) -> np.ndarray:
        """Per-node label: island id, or -1 for hubs (cached)."""
        if self._membership is None:
            labels = -np.ones(self.graph.num_nodes, dtype=np.int64)
            labels[self.islands.members] = np.repeat(
                np.arange(self.num_islands, dtype=np.int64),
                self.islands.member_counts,
            )
            self._membership = labels
        return self._membership

    def is_hub(self) -> np.ndarray:
        """Boolean hub mask."""
        mask = np.zeros(self.graph.num_nodes, dtype=bool)
        mask[self.hub_ids] = True
        return mask

    def island_permutation(self) -> np.ndarray:
        """perm[old] = new: hubs first (by round), islands contiguous.

        This is the layout of the paper's Figure 9: hub L-shapes at the
        matrix border and islands as dense blocks along the (anti-)
        diagonal.  Returned in plain diagonal form; spy-plot code may
        flip an axis to match the paper's anti-diagonal rendering.
        """
        by_round = np.argsort(self.hub_round, kind="stable")
        flat = np.concatenate([self.hub_ids[by_round], self.islands.members])
        perm = np.empty(self.graph.num_nodes, dtype=np.int64)
        perm[flat] = np.arange(self.graph.num_nodes, dtype=np.int64)
        return perm

    def iter_rounds(self):
        """Replay this result as the per-round stream that produced it.

        Yields one :class:`RoundOutput` per entry of :attr:`rounds`
        (rounds that finalized no islands yield empty chunks), with the
        same island columns, grouping and order a live
        ``IslandLocator.stream`` run emits — the locator appends
        islands round-by-round, so island ``round_id``s are
        non-decreasing and each round's chunk is a contiguous slice.
        This is the streamed pipeline's path when the islandization
        comes out of an artifact cache instead of a live locator.
        """
        table = self.islands
        start = 0
        for stats in self.rounds:
            end = int(
                np.searchsorted(table.round_id, stats.round_id, side="right")
            )
            yield RoundOutput(
                stats=stats,
                islands=table[start:end],
                new_hub_ids=self.hub_ids[self.hub_round == stats.round_id],
                first_island_id=start,
            )
            start = end

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the full result as one npz archive.

        The :class:`IslandTable` columns are written as they are;
        rounds become one ``(num_rounds, len(ROUND_FIELDS))`` integer
        matrix whose column order is recorded in the metadata (so the
        layout survives field evolution).  All numpy payloads
        round-trip byte-identically, which keeps the restored
        ``graph.fingerprint()`` — and with it every downstream cache
        key — stable.
        """
        table = self.islands
        arrays = {
            "graph_indptr": self.graph.indptr,
            "graph_indices": self.graph.indices,
            "hub_ids": self.hub_ids,
            "hub_round": self.hub_round,
            "interhub_edges": self.interhub_edges,
            "island_rounds": table.round_id,
            "island_member_offsets": table.member_offsets,
            "island_members_flat": table.members,
            "island_hub_offsets": table.hub_offsets,
            "island_hubs_flat": table.hubs,
            "rounds": np.asarray(
                [[row[name] for name in ROUND_FIELDS]
                 for row in (r.as_row() for r in self.rounds)],
                dtype=np.int64,
            ).reshape(len(self.rounds), len(ROUND_FIELDS)),
            "work_per_engine_scans": self.work.per_engine_scans,
        }
        meta = {
            "format": 2,
            "graph_name": self.graph.name,
            "round_fields": list(ROUND_FIELDS),
            "work_totals": self.work._totals(),
        }
        write_npz(file, arrays, meta)

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "IslandizationResult":
        """Restore a result written by :meth:`to_npz`.

        The island columns are checked where they enter
        (:meth:`IslandTable.check`): a malformed archive raises
        :class:`IslandizationError` instead of loading silently.
        """
        arrays, meta = read_npz(file)
        graph = CSRGraph(
            indptr=arrays["graph_indptr"],
            indices=arrays["graph_indices"],
            name=str(meta["graph_name"]),
        )
        islands = IslandTable(
            members=arrays["island_members_flat"],
            member_offsets=arrays["island_member_offsets"],
            hubs=arrays["island_hubs_flat"],
            hub_offsets=arrays["island_hub_offsets"],
            round_id=arrays["island_rounds"],
        )
        islands.check(graph.num_nodes)
        fields = [str(name) for name in meta["round_fields"]]
        rounds = [
            RoundStats(**{name: int(value) for name, value in zip(fields, row)})
            for row in arrays["rounds"]
        ]
        work = LocatorWork(
            per_engine_scans=arrays["work_per_engine_scans"],
            **{name: int(value) for name, value in meta["work_totals"].items()},
        )
        return cls(
            graph=graph,
            islands=islands,
            hub_ids=arrays["hub_ids"],
            hub_round=arrays["hub_round"],
            interhub_edges=arrays["interhub_edges"],
            rounds=rounds,
            work=work,
        )

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`IslandizationError` if any invariant is broken."""
        n = self.graph.num_nodes
        seen = np.bincount(self.islands.members, minlength=n)
        seen[self.hub_ids] += 1
        if not np.all(seen == 1):
            bad = np.flatnonzero(seen != 1)[:5]
            raise IslandizationError(
                f"nodes classified {'multiple times' if seen.max() > 1 else 'never'}: "
                f"{bad.tolist()}"
            )
        hub_mask = self.is_hub()
        labels = self.membership()
        for island_id, island in enumerate(self.islands):
            for member in island.members:
                for neigh in self.graph.neighbors(int(member)):
                    neigh = int(neigh)
                    if neigh == member:
                        continue
                    if hub_mask[neigh]:
                        continue
                    if labels[neigh] != island_id:
                        raise IslandizationError(
                            f"island {island_id}: member {member} has "
                            f"non-hub external neighbour {neigh}"
                        )
        self._validate_edge_coverage()

    def equals(self, other: "IslandizationResult") -> bool:
        """Exact structural equality with another result.

        True iff every island (position, round, member order, hub
        order), the hub list and rounds-of-discovery, the inter-hub
        edge map, all per-round statistics, and all work counters
        (including the per-engine distribution) match.  This is the
        contract the batched locator backend is held to against the
        scalar oracle.
        """
        return (
            self.islands.equals(other.islands)
            and np.array_equal(self.hub_ids, other.hub_ids)
            and np.array_equal(self.hub_round, other.hub_round)
            and np.array_equal(self.interhub_edges, other.interhub_edges)
            and self.rounds == other.rounds
            and self.work._totals() == other.work._totals()
            and np.array_equal(
                self.work.per_engine_scans, other.work.per_engine_scans
            )
        )

    def _validate_edge_coverage(self) -> None:
        """Directed edge count must match islands + inter-hub exactly."""
        hub_mask = self.is_hub()
        covered = 0
        for island in self.islands:
            member_set = set(island.members.tolist())
            hub_set = set(island.hubs.tolist())
            for member in island.members:
                for neigh in self.graph.neighbors(int(member)):
                    neigh = int(neigh)
                    if neigh in member_set:
                        covered += 1          # member -> member entry
                    elif neigh in hub_set:
                        covered += 2          # member->hub and hub->member
                    elif hub_mask[neigh]:
                        raise IslandizationError(
                            f"member {member} touches unattached hub {neigh}"
                        )
        # Inter-hub: canonical undirected pairs; self loops impossible here.
        directed_interhub = 0
        for u, v in self.interhub_edges:
            directed_interhub += 1 if u == v else 2
        total = covered + directed_interhub
        if total != self.graph.num_edges:
            raise IslandizationError(
                f"edge coverage mismatch: covered {total} of "
                f"{self.graph.num_edges} directed entries"
            )
