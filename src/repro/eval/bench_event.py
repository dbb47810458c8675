"""Event-pipeline benchmark: the three pipeline modes, per tier.

Runs a full I-GCN inference (islandization + 2-layer GCN, batched
backends) over the shared hub-and-island graph ladder in all three
pipeline modes and records, per tier:

* the **modelled overlap win** — staged end-to-end cycles (locator then
  consumer, strictly back-to-back) vs streamed cycles (the measured
  per-round release/work makespan), the software-level reproduction of
  the paper's "overlaps graph restructuring and graph processing"
  (§3.1.1, Fig. 3), with the locator/consumer phase cycles behind it;
* the **sandwich position** — the event makespan, provably between the
  streamed lower bound and the staged sum (``event_sim``'s structural
  contract);
* the **latency distribution** — per-island p50/p99 release-to-
  completion latency in µs, the serving-story metric the aggregate
  models cannot produce;
* the **simulation cost** — best-of wall-clock seconds of each mode,
  so neither chunked streaming nor the event refinement can quietly
  give back the batching wins.

Each tier *verifies* the whole event contract — the sandwich bound,
byte-identical traces across two runs, a clean
:func:`~repro.core.event_sim.validate_trace` replay, and the cross-mode
counts/traffic/phase-cycle equivalence — and records the verdict in
the row, so ``BENCH_event.json`` can never drift from what the test
suite pins.

Entry points:

* ``python -m repro bench event`` — run tiers, print a table, write the
  JSON record;
* :func:`run_event_bench` — library API.

The JSON schema (one record per file)::

    {"benchmark": "event-pipeline",
     "config": {"seed": ..., "repeats": ..., "c_max": ..., "preagg_k": ...,
                "layers": ..., "verified": ...},
     "tiers": [{"tier": "1e4", "nodes": ..., "edges": ...,
                "rounds": ..., "islands": ...,
                "staged_cycles": ..., "streamed_cycles": ...,
                "event_cycles": ..., "locator_cycles": ...,
                "consumer_cycles": ..., "overlap_win": ...,
                "bound_gap": ..., "p50_us": ..., "p99_us": ...,
                "ring_grants": ..., "cache_hit_rate": ...,
                "staged_s": ..., "streamed_s": ..., "event_s": ...,
                "sandwich": true, "deterministic": true,
                "equal": true}, ...],
     "largest_tier": "...", "largest_speedup": ...}

``overlap_win`` is ``staged_cycles / event_cycles`` (> 1 means the
event model still hides locator time under contention);
``bound_gap`` is ``event_cycles / streamed_cycles`` (>= 1; how much
the island-granular refinement costs over the aggregate optimism);
``largest_speedup`` mirrors the other bench records' key and holds the
largest tier's overlap win.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.accelerator import IGCNAccelerator, IGCNReport
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.event_sim import validate_trace
from repro.eval.bench_locator import BENCH_TIERS, bench_graph
from repro.eval.benchkit import Suite, best_of, envelope, verdict_cell
from repro.models.configs import gcn_model

__all__ = ["SUITE", "run_event_bench"]

#: Float slack when checking the sandwich (matches event_sim._EPS).
_EPS = 1e-6


def _modes_equal(a: IGCNReport, b: IGCNReport) -> bool:
    """The cross-mode equivalence contract, in counts mode.

    Byte-identical functional outputs are pinned by
    ``tests/test_pipeline_stream.py``; the benchmark checks everything
    a counts-mode run observes: identical islandizations, per-layer
    counts, DRAM traffic, and phase cycle totals.
    """
    return (
        a.islandization.equals(b.islandization)
        and a.layers == b.layers
        and a.meter.reads == b.meter.reads
        and a.meter.writes == b.meter.writes
        and a.locator_cycles == b.locator_cycles
        and a.consumer_cycles == b.consumer_cycles
    )


def _verify_tier(
    staged: IGCNReport, streamed: IGCNReport, event: IGCNReport,
    event_again: IGCNReport,
) -> tuple[bool, bool, bool]:
    """``(sandwich, deterministic, equal)`` for one tier."""
    sandwich = (
        streamed.total_cycles - _EPS
        <= event.total_cycles
        <= staged.total_cycles + _EPS
    )
    validate_trace(event.event)
    deterministic = (
        event.event.trace_bytes() == event_again.event.trace_bytes()
    )
    equal = _modes_equal(staged, event) and _modes_equal(streamed, event)
    return sandwich, deterministic, equal


def run_event_bench(
    tiers: Sequence[str] = tuple(BENCH_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    preagg_k: int = 6,
    verify: bool = True,
) -> dict:
    """Run all three pipeline modes across ``tiers``; returns the record.

    Each mode runs once untimed (allocator warm-up) and then
    ``repeats`` times (best-of wall clock); the event mode runs once
    more for the determinism check.  The modelled cycle totals and
    traces are deterministic, so they come from the last run.  With
    ``verify`` (default) each tier asserts the sandwich bound, trace
    validity, run-to-run trace determinism and the cross-mode
    counts/traffic/phase-cycle equivalence, recording the verdicts in
    the row.
    """
    model = gcn_model(32, 8)
    accelerators = {
        mode: IGCNAccelerator(
            locator=LocatorConfig(c_max=c_max),
            consumer=ConsumerConfig(preagg_k=preagg_k, pipeline=mode),
        )
        for mode in ("staged", "streamed", "event")
    }
    rows: list[dict] = []
    for tier in tiers:
        graph = bench_graph(tier, seed=seed)
        reports: dict[str, IGCNReport] = {}
        seconds: dict[str, float] = {}
        for mode, accelerator in accelerators.items():
            run = partial(accelerator.run, graph, model, feature_density=0.5)
            run()  # untimed: warms the allocator
            reports[mode], seconds[mode] = best_of(run, repeats)
        staged, streamed, event = reports.values()
        event_again = accelerators["event"].run(
            graph, model, feature_density=0.5
        )

        sandwich = deterministic = equal = None
        if verify:
            sandwich, deterministic, equal = _verify_tier(
                staged, streamed, event, event_again
            )
        sim = event.event
        rows.append(
            {
                "tier": tier,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges // 2,
                "rounds": event.islandization.num_rounds,
                "islands": event.islandization.num_islands,
                "staged_cycles": round(staged.total_cycles, 1),
                "streamed_cycles": round(streamed.total_cycles, 1),
                "event_cycles": round(event.total_cycles, 1),
                "locator_cycles": round(streamed.locator_cycles, 1),
                "consumer_cycles": round(streamed.consumer_cycles, 1),
                "overlap_win": (
                    round(staged.total_cycles / event.total_cycles, 4)
                    if event.total_cycles
                    else None
                ),
                "bound_gap": (
                    round(event.total_cycles / streamed.total_cycles, 4)
                    if streamed.total_cycles
                    else None
                ),
                "p50_us": (
                    round(event.island_p50_us, 5)
                    if event.island_p50_us is not None
                    else None
                ),
                "p99_us": (
                    round(event.island_p99_us, 5)
                    if event.island_p99_us is not None
                    else None
                ),
                "ring_grants": sim.ring_grants,
                "cache_hit_rate": (
                    round(
                        sim.cache_hits / (sim.cache_hits + sim.cache_misses),
                        4,
                    )
                    if sim.cache_hits + sim.cache_misses
                    else None
                ),
                "staged_s": round(seconds["staged"], 4),
                "streamed_s": round(seconds["streamed"], 4),
                "event_s": round(seconds["event"], 4),
                "sandwich": sandwich,
                "deterministic": deterministic,
                "equal": equal,
            }
        )
    return envelope(
        "event-pipeline",
        {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "preagg_k": preagg_k,
            "layers": [
                [layer.in_dim, layer.out_dim] for layer in model.layers
            ],
        },
        rows,
        verify=verify,
        win="overlap_win",
    )


SUITE = Suite(
    name="event",
    run=run_event_bench,
    tiers=tuple(BENCH_TIERS),
    columns={
        "tier": "tier",
        "streamed_cyc": "streamed_cycles",
        "event_cyc": "event_cycles",
        "staged_cyc": "staged_cycles",
        "overlap_win": "overlap_win",
        "p50_us": "p50_us",
        "p99_us": "p99_us",
        "event_s": "event_s",
        "ok": verdict_cell("sandwich", "deterministic", "equal"),
    },
    title=(
        "event pipeline: discrete-event makespan inside its "
        "streamed/staged sandwich"
    ),
    diverged="the event contract (sandwich/determinism/equality)",
    verdict=("sandwich", "deterministic", "equal"),
    flags={"preagg_k": "preagg_k"},
)
