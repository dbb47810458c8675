"""Compressed sparse row (CSR) graph storage.

The whole simulator operates on :class:`CSRGraph`: an immutable,
undirected graph stored as a pair of numpy arrays (``indptr``,
``indices``) in the usual CSR layout.  The adjacency matrix it
represents is binary and symmetric; per-edge weights used by GCN
normalisation are *derived* (they factorise per endpoint, see
``repro.models.reference``), so they are never materialised here.

Design notes
------------
* ``indices`` within each row are kept sorted.  Several consumers
  (bitmap construction, reordering metrics) rely on this for
  ``searchsorted``-based membership tests.
* Degrees are the *structural* out-degrees (row lengths).  Because the
  graph is symmetric this equals the in-degree.
* Self-loops are permitted (GCN uses ``A + I``); generators add them
  explicitly when a model requires them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from repro.errors import GraphError
from repro.serialize import read_npz, write_npz

__all__ = ["CSRGraph", "GraphDelta"]


@dataclass(frozen=True)
class GraphDelta:
    """An undirected edge delta: edges to insert plus edges to delete.

    Endpoint arrays are parallel (``insert_src[i]`` — ``insert_dst[i]``
    is one undirected edge to add).  Edges are undirected: each pair is
    applied symmetrically by :meth:`CSRGraph.apply_delta`, whichever
    direction it is written in, and duplicates within the delta are
    harmless.  Self-loops are rejected — the Island Locator operates on
    self-loop-free graphs and a delta that silently reintroduced the
    diagonal would corrupt its edge accounting.

    Inserting an edge that already exists, or deleting one that does
    not, is a no-op (the *effective* change set is what incremental
    islandization dirties on).  The same undirected edge may not appear
    on both sides of one delta.
    """

    insert_src: np.ndarray
    insert_dst: np.ndarray
    delete_src: np.ndarray
    delete_dst: np.ndarray

    def __post_init__(self) -> None:
        for name in ("insert_src", "insert_dst", "delete_src", "delete_dst"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64).ravel()
            object.__setattr__(self, name, arr)
        if (
            self.insert_src.shape != self.insert_dst.shape
            or self.delete_src.shape != self.delete_dst.shape
        ):
            raise GraphError("delta endpoint arrays must be parallel")
        for src, dst in (
            (self.insert_src, self.insert_dst),
            (self.delete_src, self.delete_dst),
        ):
            if len(src) and (src.min() < 0 or dst.min() < 0):
                raise GraphError("delta endpoints must be non-negative")
            if len(src) and bool(np.any(src == dst)):
                raise GraphError("delta edges must not be self-loops")

    @property
    def num_insertions(self) -> int:
        """Number of (possibly duplicate) insertion pairs."""
        return len(self.insert_src)

    @property
    def num_deletions(self) -> int:
        """Number of (possibly duplicate) deletion pairs."""
        return len(self.delete_src)

    @property
    def num_edges(self) -> int:
        """Total undirected edge pairs listed in the delta."""
        return self.num_insertions + self.num_deletions

    @staticmethod
    def from_edges(
        insertions: np.ndarray | None = None,
        deletions: np.ndarray | None = None,
    ) -> "GraphDelta":
        """Build a delta from ``(k, 2)`` edge arrays (either may be None)."""
        ins = np.asarray(
            insertions if insertions is not None else np.zeros((0, 2)), dtype=np.int64
        ).reshape(-1, 2)
        dels = np.asarray(
            deletions if deletions is not None else np.zeros((0, 2)), dtype=np.int64
        ).reshape(-1, 2)
        return GraphDelta(
            insert_src=ins[:, 0], insert_dst=ins[:, 1],
            delete_src=dels[:, 0], delete_dst=dels[:, 1],
        )

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the delta (round-trips through :meth:`from_npz`)."""
        write_npz(
            file,
            {
                "insert_src": self.insert_src,
                "insert_dst": self.insert_dst,
                "delete_src": self.delete_src,
                "delete_dst": self.delete_dst,
            },
            {"format": 1},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "GraphDelta":
        """Restore a delta written by :meth:`to_npz`."""
        arrays, _ = read_npz(file)
        return cls(
            insert_src=arrays["insert_src"],
            insert_dst=arrays["insert_dst"],
            delete_src=arrays["delete_src"],
            delete_dst=arrays["delete_dst"],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(insertions={self.num_insertions}, "
            f"deletions={self.num_deletions})"
        )


def _sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership mask of ``needles`` in sorted ``haystack``."""
    if len(haystack) == 0 or len(needles) == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.clip(np.searchsorted(haystack, needles), 0, len(haystack) - 1)
    return haystack[pos] == needles


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; row ``u`` occupies
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int64`` array of neighbour ids, sorted within each row.

    Notes
    -----
    Use :meth:`from_edges` or ``repro.graph.builder.GraphBuilder`` to
    construct instances; the raw constructor validates its arguments but
    does not symmetrise or deduplicate.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = field(default="graph")

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if len(indptr) == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise GraphError(
                f"indptr[-1]={indptr[-1]} does not match len(indices)={len(indices)}"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("indices contain out-of-range node ids")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of *directed* entries (nnz of the adjacency matrix)."""
        return len(self.indices)

    @property
    def nnz(self) -> int:
        """Alias of :attr:`num_edges`; nnz of the adjacency matrix."""
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Structural degree of each node (row lengths)."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        """Largest node degree (0 for an empty graph)."""
        if self.num_nodes == 0:
            return 0
        return int(self.degrees.max())

    @property
    def avg_degree(self) -> float:
        """Mean node degree."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    @property
    def density(self) -> float:
        """nnz / n^2, the fill fraction of the adjacency matrix."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / (self.num_nodes**2)

    # ------------------------------------------------------------------
    # Neighbour access
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node`` (a view, do not mutate)."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return int(self.indptr[node + 1] - self.indptr[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed entry (u, v) exists."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < len(row) and row[pos] == v

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every directed entry (u, v) once."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                yield u, int(v)

    def fingerprint(self) -> str:
        """Content digest of the CSR structure + name (cached).

        The graph is immutable, so the digest is computed once and
        stored on the instance; artifact caches key graphs by it
        (hashing the raw arrays directly would make every cache lookup
        linear in nnz).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self.name.encode())
            digest.update(self.indptr.tobytes())
            digest.update(self.indices.tobytes())
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the CSR arrays + name to an npz archive.

        The round-trip (:meth:`from_npz`) is byte-identical on both
        arrays, so the restored graph has the same :meth:`fingerprint`.
        """
        write_npz(
            file,
            {"indptr": self.indptr, "indices": self.indices},
            {"format": 1, "name": self.name},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "CSRGraph":
        """Restore a graph written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        return cls(
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            name=str(meta["name"]),
        )

    # ------------------------------------------------------------------
    # Structure checks and conversions
    # ------------------------------------------------------------------
    def is_symmetric(self) -> bool:
        """Check that every entry (u, v) has its mirror (v, u)."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        forward = set(zip(rows.tolist(), self.indices.tolist()))
        return all((v, u) in forward for u, v in forward)

    def has_self_loops(self) -> bool:
        """True if any diagonal entry is present."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return bool(np.any(rows == self.indices))

    def with_self_loops(self) -> "CSRGraph":
        """Return a copy with the diagonal filled in (idempotent)."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        mask_missing = np.ones(self.num_nodes, dtype=bool)
        mask_missing[self.indices[rows == self.indices]] = False
        extra = np.flatnonzero(mask_missing)
        if len(extra) == 0:
            return self
        new_rows = np.concatenate([rows, extra])
        new_cols = np.concatenate([self.indices, extra])
        return CSRGraph.from_edges(
            self.num_nodes,
            new_rows,
            new_cols,
            name=self.name,
            symmetrize=False,
        )

    def without_self_loops(self) -> "CSRGraph":
        """Return a copy with the diagonal removed (idempotent)."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        keep = rows != self.indices
        return CSRGraph.from_edges(
            self.num_nodes, rows[keep], self.indices[keep], name=self.name,
            symmetrize=False,
        )

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel nodes: new id of old node ``u`` is ``perm[u]``.

        ``perm`` must be a permutation of ``range(num_nodes)``.  Used by
        the reordering baselines to materialise a reordered graph.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_nodes,):
            raise GraphError("perm has wrong length")
        check = np.zeros(self.num_nodes, dtype=bool)
        check[perm] = True
        if not check.all():
            raise GraphError("perm is not a permutation")
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return CSRGraph.from_edges(
            self.num_nodes, perm[rows], perm[self.indices], name=self.name,
            symmetrize=False,
        )

    def subgraph(self, nodes: np.ndarray) -> "CSRGraph":
        """Induced subgraph on ``nodes``; node ``nodes[i]`` becomes ``i``.

        ``nodes`` must be strictly increasing (sorted, no duplicates), so
        the relabelling is monotone: every row keeps its sorted order and
        the result is canonical CSR without a re-sort — one vectorised
        gather of the selected rows, filtered to in-set neighbours.
        """
        from repro.core.nputil import cumsum0, flat_gather

        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or np.any(np.diff(nodes) <= 0):
            raise GraphError("subgraph nodes must be sorted and unique")
        if len(nodes) and (nodes[0] < 0 or nodes[-1] >= self.num_nodes):
            raise GraphError("subgraph nodes out of range")
        relabel = np.full(self.num_nodes, -1, dtype=np.int64)
        relabel[nodes] = np.arange(len(nodes), dtype=np.int64)
        flat, counts, _ = flat_gather(self.indptr, nodes)
        cols = relabel[self.indices[flat]]
        keep = cols >= 0
        rows = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)[keep]
        return CSRGraph(
            indptr=cumsum0(np.bincount(rows, minlength=len(nodes))),
            indices=cols[keep],
            name=f"{self.name}-sub",
        )

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys ``u * num_nodes + v`` of every directed entry.

        CSR rows are ascending and in-row indices sorted, so the keys
        come out strictly increasing without a sort — the backbone of
        the vectorized delta merge in :meth:`apply_delta`.
        """
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return rows * np.int64(self.num_nodes) + self.indices

    def apply_delta(
        self, delta: GraphDelta, *, with_changes: bool = False
    ) -> "CSRGraph" | tuple["CSRGraph", np.ndarray, np.ndarray]:
        """Apply an undirected edge delta, returning the mutated graph.

        The merge is fully vectorized — one sorted-key membership pass
        plus one ``np.insert`` splice, no per-edge Python loop — and the
        result is exactly what ``CSRGraph.from_edges`` would build from
        the mutated edge list (sorted rows, deduplicated, symmetric).
        Inserts of existing edges and deletes of absent edges are
        no-ops; an undirected edge listed on both sides of the delta is
        an error.

        With ``with_changes=True`` also returns the *effective* change
        keys ``(inserted, deleted)`` — sorted directed-entry keys in the
        ``u * num_nodes + v`` space of :meth:`edge_keys`, restricted to
        entries that actually changed.  Incremental islandization seeds
        its dirty region from these.
        """
        n = np.int64(self.num_nodes)
        if len(delta.insert_src) and (
            delta.insert_src.max() >= n or delta.insert_dst.max() >= n
        ):
            raise GraphError("delta insertion endpoints out of range")
        if len(delta.delete_src) and (
            delta.delete_src.max() >= n or delta.delete_dst.max() >= n
        ):
            raise GraphError("delta deletion endpoints out of range")
        ins_keys = np.unique(
            np.concatenate([
                delta.insert_src * n + delta.insert_dst,
                delta.insert_dst * n + delta.insert_src,
            ])
        )
        del_keys = np.unique(
            np.concatenate([
                delta.delete_src * n + delta.delete_dst,
                delta.delete_dst * n + delta.delete_src,
            ])
        )
        if len(ins_keys) and len(del_keys) and len(
            np.intersect1d(ins_keys, del_keys, assume_unique=True)
        ):
            raise GraphError("delta inserts and deletes the same edge")
        existing = self.edge_keys()
        ins_eff = ins_keys[~_sorted_member(existing, ins_keys)]
        del_eff = del_keys[_sorted_member(existing, del_keys)]
        kept = existing[~_sorted_member(del_eff, existing)]
        merged = np.insert(kept, np.searchsorted(kept, ins_eff), ins_eff)
        cols = merged % n
        row_counts = (
            np.bincount(merged // n, minlength=self.num_nodes)
            if self.num_nodes
            else np.zeros(0, np.int64)
        )
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        graph = CSRGraph(indptr=indptr, indices=cols, name=self.name)
        if with_changes:
            return graph, ins_eff, del_eff
        return graph

    def to_scipy(self):
        """Return the adjacency matrix as ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.num_edges, dtype=np.float64)
        return csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_nodes, self.num_nodes),
        )

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (small graphs only)."""
        dense = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        dense[rows, self.indices] = 1.0
        return dense

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        num_nodes: int,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        name: str = "graph",
        symmetrize: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel (row, col) arrays.

        Duplicate entries are removed.  When ``symmetrize`` is true the
        mirror of every edge is added, making the adjacency symmetric.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise GraphError("rows and cols must have the same length")
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        if len(rows) and (
            rows.min() < 0 or cols.min() < 0
            or rows.max() >= num_nodes or cols.max() >= num_nodes
        ):
            raise GraphError("edge endpoints out of range")
        if symmetrize and len(rows):
            rows, cols = (
                np.concatenate([rows, cols]),
                np.concatenate([cols, rows]),
            )
        if len(rows):
            # Deduplicate via a flat key sort; stable and allocation-light.
            keys = rows * num_nodes + cols
            keys = np.unique(keys)
            rows = keys // num_nodes
            cols = keys % num_nodes
        counts = np.bincount(rows, minlength=num_nodes) if num_nodes else np.zeros(0, np.int64)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr=indptr, indices=cols, name=name)

    @staticmethod
    def from_scipy(mat, *, name: str = "graph") -> "CSRGraph":
        """Build from any scipy sparse matrix (pattern only)."""
        csr = mat.tocsr()
        csr.sort_indices()
        return CSRGraph(
            indptr=np.asarray(csr.indptr, dtype=np.int64),
            indices=np.asarray(csr.indices, dtype=np.int64),
            name=name,
        )

    @staticmethod
    def empty(num_nodes: int, *, name: str = "empty") -> "CSRGraph":
        """A graph with ``num_nodes`` nodes and no edges."""
        return CSRGraph(
            indptr=np.zeros(num_nodes + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            name=name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"nnz={self.num_edges})"
        )
