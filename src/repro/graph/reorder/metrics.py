"""Locality / clustering-quality metrics for adjacency layouts.

Figure 13 of the paper compares how well different orderings cluster
the non-zeros.  Visual spy plots are subjective, so this module defines
quantitative proxies, all computed on the (possibly permuted) CSR
pattern:

* :func:`average_index_distance` — mean |u - v| over non-zeros,
  normalised by n (0 = perfectly diagonal).
* :func:`bandwidth` — max |u - v| normalised by n.
* :func:`tile_coverage` — fraction of nnz falling in *dense* tiles of a
  fixed block size (density above a threshold); high coverage means the
  nnz are clustered into compact blocks an accelerator can exploit.
* :func:`outlier_fraction` — 1 - tile_coverage; the paper's "outlying
  non-zeros" that need special handling.
* :func:`working_set_score` — average number of distinct feature-row
  blocks a row of A touches; a direct proxy for pull-dataflow off-chip
  traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.nputil import sorted_unique
from repro.graph.csr import CSRGraph

__all__ = [
    "LocalityReport",
    "average_index_distance",
    "bandwidth",
    "tile_coverage",
    "outlier_fraction",
    "working_set_score",
    "locality_report",
]


def _edge_arrays(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    return rows, graph.indices


def average_index_distance(graph: CSRGraph) -> float:
    """Mean |row - col| over non-zeros, normalised by num_nodes."""
    if graph.num_edges == 0 or graph.num_nodes == 0:
        return 0.0
    rows, cols = _edge_arrays(graph)
    return float(np.abs(rows - cols).mean() / graph.num_nodes)


def bandwidth(graph: CSRGraph) -> float:
    """Max |row - col| over non-zeros, normalised by num_nodes."""
    if graph.num_edges == 0 or graph.num_nodes == 0:
        return 0.0
    rows, cols = _edge_arrays(graph)
    return float(np.abs(rows - cols).max() / graph.num_nodes)


def tile_coverage(
    graph: CSRGraph, *, tile: int = 64, density_threshold: float = 0.05
) -> float:
    """Fraction of nnz inside tiles whose fill exceeds the threshold.

    The adjacency is cut into ``tile``×``tile`` blocks; a block is
    *dense* when its fill fraction is at least ``density_threshold``.
    Clustered layouts concentrate nnz into few dense blocks.
    """
    if graph.num_edges == 0:
        return 1.0
    rows, cols = _edge_arrays(graph)
    tr = rows // tile
    tc = cols // tile
    num_tiles_side = (graph.num_nodes + tile - 1) // tile
    keys = tr * num_tiles_side + tc
    uniq, counts = np.unique(keys, return_counts=True)
    dense = counts >= density_threshold * tile * tile
    covered = counts[dense].sum()
    return float(covered / graph.num_edges)


def outlier_fraction(
    graph: CSRGraph, *, tile: int = 64, density_threshold: float = 0.05
) -> float:
    """Fraction of nnz outside dense tiles (Fig 13's 'outlying' nnz)."""
    return 1.0 - tile_coverage(graph, tile=tile, density_threshold=density_threshold)


def working_set_score(graph: CSRGraph, *, block: int = 64) -> float:
    """Average distinct feature-row blocks referenced per node.

    In a pull dataflow, processing row ``u`` touches the feature rows of
    its neighbours; if those ids span many ``block``-sized regions the
    accesses are scattered.  Lower is better.
    """
    if graph.num_nodes == 0:
        return 0.0
    # Distinct (row, block) pairs over all rows = the per-row distinct
    # block counts, summed.
    rows, cols = _edge_arrays(graph)
    span = graph.num_nodes // block + 1
    total_blocks = len(sorted_unique(rows * span + cols // block))
    return total_blocks / max(graph.num_nodes, 1)


@dataclass(frozen=True)
class LocalityReport:
    """All locality metrics for one layout."""

    name: str
    avg_distance: float
    bandwidth: float
    tile_coverage: float
    outlier_fraction: float
    working_set: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "layout": self.name,
            "avg_dist": round(self.avg_distance, 4),
            "bandwidth": round(self.bandwidth, 4),
            "tile_cov": round(self.tile_coverage, 4),
            "outliers": round(self.outlier_fraction, 4),
            "work_set": round(self.working_set, 2),
        }


def locality_report(
    graph: CSRGraph, *, name: str | None = None, tile: int = 64
) -> LocalityReport:
    """Compute every metric for one (already permuted) graph."""
    return LocalityReport(
        name=name or graph.name,
        avg_distance=average_index_distance(graph),
        bandwidth=bandwidth(graph),
        tile_coverage=tile_coverage(graph, tile=tile),
        outlier_fraction=outlier_fraction(graph, tile=tile),
        working_set=working_set_score(graph, block=tile),
    )
