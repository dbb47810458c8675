"""Graph statistics helpers.

Small, self-contained measurements used by the evaluation harness and
the dataset calibration tests: degree distribution summaries, power-law
skew, clustering coefficient (sampled), and connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.nputil import sorted_unique
from repro.graph.csr import CSRGraph

__all__ = ["GraphStats", "graph_stats", "connected_components", "degree_histogram"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph."""

    num_nodes: int
    num_edges: int
    avg_degree: float
    max_degree: int
    density: float
    degree_p50: float
    degree_p90: float
    degree_p99: float
    gini_degree: float
    num_components: int
    largest_component: int

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "nodes": self.num_nodes,
            "nnz": self.num_edges,
            "avg_deg": round(self.avg_degree, 2),
            "max_deg": self.max_degree,
            "density": self.density,
            "deg_p50": self.degree_p50,
            "deg_p90": self.degree_p90,
            "deg_p99": self.degree_p99,
            "gini": round(self.gini_degree, 3),
            "components": self.num_components,
            "largest_cc": self.largest_component,
        }


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (degree skew measure)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 0 or v.sum() == 0:
        return 0.0
    n = len(v)
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Label nodes by connected component (iterative BFS, O(V + E))."""
    labels = -np.ones(graph.num_nodes, dtype=np.int64)
    current = 0
    for start in range(graph.num_nodes):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if labels[v] < 0:
                    labels[v] = current
                    stack.append(int(v))
        current += 1
    return labels


def degree_histogram(graph: CSRGraph, *, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced degree histogram; returns (bin_edges, counts)."""
    degrees = graph.degrees
    max_deg = max(1, int(degrees.max()) if len(degrees) else 1)
    edges = sorted_unique(
        np.round(np.logspace(0, np.log10(max_deg + 1), bins)).astype(np.int64)
    )
    counts, _ = np.histogram(degrees, bins=np.append(edges, max_deg + 2))
    return edges, counts


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute the full :class:`GraphStats` summary."""
    degrees = graph.degrees.astype(np.float64)
    labels = connected_components(graph)
    sizes = np.bincount(labels) if len(labels) else np.zeros(1, np.int64)
    if len(degrees) == 0:
        p50 = p90 = p99 = 0.0
    else:
        p50, p90, p99 = (float(np.percentile(degrees, q)) for q in (50, 90, 99))
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        avg_degree=graph.avg_degree,
        max_degree=graph.max_degree,
        density=graph.density,
        degree_p50=p50,
        degree_p90=p90,
        degree_p99=p99,
        gini_degree=gini(degrees),
        num_components=int(labels.max()) + 1 if len(labels) else 0,
        largest_component=int(sizes.max()) if len(sizes) else 0,
    )
