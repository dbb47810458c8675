"""Locator scaling benchmark: scalar vs batched TP-BFS backends.

Times the Island Locator's two backends over a ladder of hub-and-island
graphs from ~1e3 to ~2e6 undirected edges (the structure the paper
targets, with enough background noise to exercise every kernel path:
bulk task classification, the multi-source island BFS, and the
sequential over-``c_max`` walks).  Each tier also *verifies* that both
backends return the exact same :class:`IslandizationResult`, so the
perf trajectory in ``BENCH_locator.json`` can never silently drift from
correctness.

Entry points:

* ``python -m repro bench locator`` — run tiers, print a table, write
  the JSON record;
* :func:`run_locator_bench` — library API (used by the benchmark suite
  and the CI ``bench-smoke`` job).

The JSON schema (one record per file)::

    {"benchmark": "locator-scale",
     "config": {"seed": ..., "repeats": ..., "c_max": ..., "profile": ...},
     "tiers": [{"tier": "1e4", "nodes": ..., "edges": ...,
                "scalar_s": ..., "batched_s": ..., "speedup": ...,
                "equal": true, "islands": ..., "rounds": ...}, ...],
     "largest_tier": "...", "largest_speedup": ...}

``edges`` counts undirected edges (half the CSR's directed entries).
Scalar timings at the top tiers use fewer repeats — the whole point is
that the scalar oracle takes tens of seconds there.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import LocatorConfig
from repro.core.islandizer import IslandLocator
from repro.errors import ConfigError
from repro.eval.benchkit import Suite, best_of, envelope, verdict_cell
from repro.graph.csr import CSRGraph
from repro.graph.generators import CommunityProfile, hub_island_graph

__all__ = ["BENCH_TIERS", "SUITE", "bench_graph", "run_locator_bench"]

#: Tier name -> target undirected edge count.  The hub-island generator
#: lands within a few percent of the target at ~10.6 edges per node.
BENCH_TIERS: dict[str, int] = {
    "1e3": 1_000,
    "1e4": 10_000,
    "1e5": 100_000,
    "1e6": 1_000_000,
    "2e6": 2_000_000,
}

_EDGES_PER_NODE = 10.6

#: Community structure used for every tier: medium islands with a thin
#: background overlay, so over-c_max welded regions (the locator's
#: hardest case) appear alongside clean islands.
_BENCH_PROFILE = CommunityProfile(
    island_size_mean=16.0,
    island_size_max=48,
    background_fraction=0.0075,
)


def bench_graph(tier: str, *, seed: int = 7) -> CSRGraph:
    """Build the (self-loop-free) benchmark graph of one tier."""
    try:
        target_edges = BENCH_TIERS[tier]
    except KeyError:
        raise ConfigError(
            f"unknown bench tier {tier!r}; available: {', '.join(BENCH_TIERS)}"
        ) from None
    nodes = max(64, int(target_edges / _EDGES_PER_NODE))
    graph, _ = hub_island_graph(
        nodes, _BENCH_PROFILE, seed=seed, name=f"bench-{tier}"
    )
    return graph.without_self_loops()


def run_locator_bench(
    tiers: Sequence[str] = tuple(BENCH_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    verify: bool = True,
) -> dict:
    """Time both backends across ``tiers`` and return the JSON record.

    ``repeats`` applies to the batched backend (best-of); the scalar
    oracle runs ``repeats`` times up to the 1e5 tier and once above it.
    With ``verify`` (default) each tier asserts exact backend
    equivalence and records it in the row.
    """
    rows: list[dict] = []
    for tier in tiers:
        graph = bench_graph(tier, seed=seed)
        scalar_cfg = LocatorConfig(c_max=c_max, backend="scalar")
        batched_cfg = LocatorConfig(c_max=c_max, backend="batched")
        # One untimed batched run warms the allocator (first-touch page
        # faults otherwise dominate the small tiers).
        batched = IslandLocator(batched_cfg)
        batched.run(graph)
        batched_res, batched_s = best_of(lambda: batched.run(graph), repeats)
        scalar_reps = repeats if graph.num_edges < 300_000 else 1
        scalar = IslandLocator(scalar_cfg)
        scalar_res, scalar_s = best_of(lambda: scalar.run(graph), scalar_reps)
        equal = bool(scalar_res.equals(batched_res)) if verify else None
        rows.append(
            {
                "tier": tier,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges // 2,
                "scalar_s": round(scalar_s, 4),
                "batched_s": round(batched_s, 4),
                "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
                "equal": equal,
                "islands": batched_res.num_islands,
                "rounds": batched_res.num_rounds,
            }
        )
    return envelope(
        "locator-scale",
        {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "profile": "hub-island mean=16 max=48 bg=0.0075",
        },
        rows,
        verify=verify,
        win="speedup",
    )


#: Columns of the two backend-race suites (locator and consumer).
BACKEND_COLUMNS = {
    "tier": "tier",
    "nodes": "nodes",
    "edges": "edges",
    "scalar_s": "scalar_s",
    "batched_s": "batched_s",
    "speedup": "speedup",
    "equal": verdict_cell("equal"),
}

SUITE = Suite(
    name="locator",
    run=run_locator_bench,
    tiers=tuple(BENCH_TIERS),
    columns=BACKEND_COLUMNS,
    title="locator backend scaling (best-of wall clock)",
    diverged="backends",
)
