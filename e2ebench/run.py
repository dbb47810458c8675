"""End-to-end benchmark of the I-GCN simulator's public API.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload infer-hub-1e6 --seed 7 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 2021      # every workload

Each workload is a closed loop with one caller: an operation starts
only when the previous one has returned, in one process, with
``partitions=1`` and no worker pools.  Inputs are generated from
``--seed`` in set-up; operations receive only those inputs.

``--trace 0`` times operations untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics: host self time and call count of every
wrapped layer (see ``LAYERS``), exact modelled counts taken from the
reports, and the tracing overhead.  Spans are written to
``e2ebench/out/`` when the run ends.

Output checks run outside the timed region; each failed check (or
operation that raised) counts toward ``error_rate`` and makes the
command exit 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host times are the simulator's wall clock.  Modelled values
(``sim_cycles``, ``dram_mb``, ``prune_agg`` and the ``locator.*`` /
``consumer.*`` / ``dram.*`` counts) are what the simulated I-GCN
hardware would do; they repeat exactly for a seed and are an
unvalidated model (no hardware measurements exist to compare with).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, instrumented, layer_totals, median_n

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 7
#: Seed kept out of tuning: later gain claims are re-checked on it.
HELD_OUT_SEED = 2021

#: Set-up repetitions of an untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: DRAM traffic categories the I-GCN model charges (``meter.breakdown()``).
DRAM_CATEGORIES = (
    "adjacency", "features", "weights", "hidden-results", "results",
    "hub-xw-spill", "dhub-prc-spill",
)

#: Traced layers: (metric prefix, module, attribute path).
LAYERS = (
    ("graph.csr.without_self_loops", "repro.graph.csr",
     "CSRGraph.without_self_loops"),
    ("graph.csr.apply_delta", "repro.graph.csr", "CSRGraph.apply_delta"),
    ("models.reference.normalization_for", "repro.models.reference",
     "normalization_for"),
    ("core.islandizer.IslandLocator.run", "repro.core.islandizer",
     "IslandLocator.run"),
    ("core.consumer.IslandConsumer.prepare_chunk", "repro.core.consumer",
     "IslandConsumer.prepare_chunk"),
    ("core.consumer.IslandConsumer.run_layer_chunked", "repro.core.consumer",
     "IslandConsumer.run_layer_chunked"),
    ("core.interhub.build_interhub_plan", "repro.core.interhub",
     "build_interhub_plan"),
    ("core.accelerator.IGCNAccelerator.run", "repro.core.accelerator",
     "IGCNAccelerator.run"),
    ("core.islandizer_incremental.update_islandization",
     "repro.core.islandizer_incremental", "update_islandization"),
    ("runtime.engine.Engine.update", "repro.runtime.engine", "Engine.update"),
    ("runtime.engine.Engine.simulate", "repro.runtime.engine",
     "Engine.simulate"),
)
ROOT_SPAN = "op"
#: Modules the workloads' set-up imports besides the traced ones.
SETUP_MODULES = ("repro.eval.bench_locator", "repro.eval.bench_incremental",
                 "repro.models.configs")


def model_stats(report) -> dict[str, float]:
    """Exact modelled statistics of one :class:`IGCNReport`."""
    result = report.islandization
    breakdown = report.meter.breakdown()
    stats = {
        "sim_cycles": report.total_cycles,
        "dram_mb": report.meter.total_bytes / 1e6,
        "prune_agg": report.aggregation_pruning_rate,
        "locator.rounds": result.num_rounds,
        "locator.islands": result.num_islands,
        "locator.hubs": result.num_hubs,
        "locator.cycles": report.locator_cycles,
        "consumer.cycles": report.consumer_cycles,
        "consumer.macs": report.total_macs,
        "consumer.macs_baseline": report.total_baseline_macs,
        "interhub.ops": sum(layer.interhub_ops for layer in report.layers),
        "pipeline.overlap_saved_cycles": report.overlap_saved_cycles,
    }
    unknown = set(breakdown) - set(DRAM_CATEGORIES)
    if unknown:
        raise ValueError(f"unlisted DRAM categories {sorted(unknown)}")
    for category in DRAM_CATEGORIES:
        stats[f"dram.{category}_mb"] = breakdown.get(category, 0) / 1e6
    return stats


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One seeded input set and the operation timed on it.

    ``setup`` builds the inputs; ``operation`` returns the zero-argument
    call to time (untimed preparation happens before it returns);
    ``observe`` records an operation's result outside the timed region;
    ``check`` returns one message per failed output check.
    """

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def operation(self):
        raise NotImplementedError

    def observe(self, result) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    #: Undirected input edges one operation processes.
    edges = 0
    #: Exact modelled statistics, one dict per observed operation.
    stats: list[dict[str, float]]

    def extra_metrics(self) -> dict[str, float]:
        """Per-layer metrics specific to the workload."""
        return {}


class InferHub(Workload):
    """A fresh streamed counts-mode inference on the 1e6 bench graph."""

    name = "infer-hub-1e6"

    def setup(self, seed: int) -> None:
        from repro.core.accelerator import IGCNAccelerator
        from repro.core.config import ConsumerConfig, LocatorConfig
        from repro.eval.bench_locator import bench_graph
        from repro.models.configs import gcn_model

        self.graph = bench_graph("1e6", seed=seed)
        self.model = gcn_model(32, 8)  # GCN 32 -> 16 -> 8
        self.accelerator = IGCNAccelerator(
            locator=LocatorConfig(c_max=64),
            consumer=ConsumerConfig(preagg_k=6),
        )
        self.edges = self.graph.num_edges // 2
        self.stats = []

    def operation(self):
        return lambda: self.accelerator.run(
            self.graph, self.model, feature_density=0.5
        )

    def observe(self, report) -> None:
        self.stats.append(model_stats(report))

    def check(self) -> list[str]:
        # Every operation is a fresh run: modelled statistics must repeat.
        return [
            f"operation {i}: modelled statistics differ from operation 0"
            for i, row in enumerate(self.stats) if row != self.stats[0]
        ]


class Functional(Workload):
    """Fresh functional inferences on ``GRAPHS`` 1e5 bench graphs.

    Graph 0 is ``bench_graph("1e5", seed)``; the others come from seeds
    derived from ``seed``.  Operations cycle through the graphs: one
    graph's host cost moves ~15% with its hub count, so a run's median
    over several graphs is steadier than over one.
    """

    name = "functional-1e5"
    GRAPHS = 4
    TOLERANCE = 1e-9

    def setup(self, seed: int) -> None:
        import numpy as np

        from repro.core.accelerator import IGCNAccelerator
        from repro.core.config import ConsumerConfig, LocatorConfig
        from repro.eval.bench_locator import bench_graph
        from repro.models.configs import gcn_model

        self.inputs = []
        for i in range(self.GRAPHS):
            sub = seed if i == 0 else int(
                np.random.SeedSequence([seed, i]).generate_state(1)[0]
            )
            graph = bench_graph("1e5", seed=sub)
            rng = np.random.default_rng(sub)
            features = rng.random((graph.num_nodes, 64))
            features[rng.random(features.shape) >= 0.5] = 0.0
            self.inputs.append((graph, features))
        self.model = gcn_model(64, 8, variant="hy")  # GCN-hy 64 -> 128 -> 8
        self.accelerator = IGCNAccelerator(
            locator=LocatorConfig(c_max=64),
            consumer=ConsumerConfig(preagg_k=6),
        )
        self.stats = []
        self.outputs = []

    def operation(self):
        graph, features = self.inputs[len(self.stats) % self.GRAPHS]
        self.edges = graph.num_edges // 2
        return lambda: self.accelerator.run(
            graph, self.model, features=features,
            feature_density=0.5, functional=True,
        )

    def observe(self, report) -> None:
        self.stats.append(model_stats(report))
        self.outputs.append(report.outputs)

    def check(self) -> list[str]:
        import numpy as np

        from repro.models.reference import init_weights, reference_forward

        weights = init_weights(self.model, seed=0)
        references = [
            reference_forward(graph, self.model, features, weights)
            for graph, features in self.inputs
        ]
        failures = []
        for i, (row, out) in enumerate(zip(self.stats, self.outputs)):
            k = i % self.GRAPHS
            if row != self.stats[k]:
                failures.append(f"operation {i}: modelled statistics differ "
                                f"from operation {k} on the same graph")
            err = float(np.max(np.abs(out - references[k])))
            if not err <= self.TOLERANCE:
                failures.append(
                    f"operation {i}: max |output - reference| = {err:.3e}"
                )
        return failures


class EvolveChurn(Workload):
    """``Engine.update`` + ``Engine.simulate`` on a churning graph.

    Set-up records the base islandization on one memory-store Engine
    and derives a chain of ``CHAIN`` 100-edit churn deltas, each drawn
    on the graph the previous one produced.  Operations walk the chain
    and start over from the base graph after its last delta.  Replaying
    one chain bounds the memory store: the Engine keeps every graph it
    has seen, and replayed graphs overwrite their own entries instead
    of growing the store by ~14 MB per update.  The cached reports of
    the finished chain are dropped between passes so every
    ``simulate`` computes its report.
    """

    name = "evolve-churn"
    CHAIN = 8
    EDITS = 100
    TH0 = 16

    def setup(self, seed: int) -> None:
        import numpy as np

        from repro.core.config import LocatorConfig
        from repro.eval.bench_incremental import (
            churn_delta,
            incremental_bench_graph,
        )
        from repro.models.configs import gcn_model
        from repro.runtime.engine import Engine

        self.config = LocatorConfig(th0=self.TH0, decay=0.5, incremental=True)
        self.base = incremental_bench_graph(seed=seed, max_edges=1_000_000)
        self.edges = self.base.num_edges // 2
        self.engine = Engine(locator=self.config)
        self.engine.islandization_state(self.base)
        rng = np.random.default_rng(seed)
        self.deltas = []
        graph = self.base
        for _ in range(self.CHAIN):
            delta = churn_delta(graph, rng, self.EDITS, self.TH0)
            self.deltas.append(delta)
            graph = graph.apply_delta(delta)
        self.model = gcn_model(32, 8)  # GCN 32 -> 16 -> 8
        self.current = self.base
        self.step = 0
        self.stats = []
        self.updates = []  # (fallback, dirty_nodes, region_nodes)
        self.failures = []

    def operation(self):
        if self.step and self.step % self.CHAIN == 0:
            self.engine.store.clear("report")
            self.current = self.base
        graph, delta = self.current, self.deltas[self.step % self.CHAIN]

        def op():
            upd = self.engine.update(graph, delta)
            return upd, self.engine.simulate("igcn", upd.result.graph, self.model)

        return op

    def observe(self, result) -> None:
        upd, report = result
        self.stats.append(model_stats(report))
        self.updates.append((upd.fallback, upd.dirty_nodes, upd.region_nodes))
        self.edges = upd.result.graph.num_edges // 2
        self.current = upd.result.graph
        self.last = upd.result
        self.step += 1
        if self.step % self.CHAIN == 0:
            self._check_last()

    def _check_last(self) -> None:
        from repro.core.islandizer import islandize

        if not self.last.equals(islandize(self.last.graph, self.config)):
            self.failures.append(
                f"operation {self.step - 1}: incremental islandization "
                "differs from a from-scratch islandize"
            )

    def check(self) -> list[str]:
        if self.step % self.CHAIN:
            self._check_last()
        return self.failures

    def extra_metrics(self) -> dict[str, float]:
        hits = sum(s.hits for s in self.engine.cache_stats().values())
        misses = sum(s.misses for s in self.engine.cache_stats().values())
        n = len(self.updates)
        return {
            "incremental.dirty_nodes": _median([u[1] for u in self.updates]),
            "incremental.region_nodes": _median([u[2] for u in self.updates]),
            "incremental.fallback_frac": (
                sum(u[0] for u in self.updates) / n if n else float("nan")
            ),
            "engine.cache_hit_rate": (
                hits / (hits + misses) if hits + misses else float("nan")
            ),
        }


WORKLOADS = {w.name: w for w in (InferHub, Functional, EvolveChurn)}

#: Per-layer metrics a workload without the layer reports as zero.
INCREMENTAL_METRICS = (
    "incremental.dirty_nodes", "incremental.region_nodes",
    "incremental.fallback_frac", "engine.cache_hit_rate",
)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _median(values):
    return median_n(values)[0]


def _peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _set_up(workload: Workload, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed last."""
    # Import the library before set-up is timed: a process pays for its
    # imports once, not per set-up.
    for module in {m for _, m, _ in LAYERS} | set(SETUP_MODULES):
        importlib.import_module(module)
    workload = WORKLOADS[name]()
    setup_times = _set_up(workload, seed, 1 if trace else SETUP_REPEATS)
    recorder = SpanRecorder()
    plain_s: list[float] = []
    traced_s: list[float] = []
    traced_ops: list[int] = []
    edges_done = 0
    raised = 0
    attempted = 0
    min_ops = 2 if trace else 1  # a traced run needs one op of each kind
    deadline = time.perf_counter() + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        op_id = attempted
        attempted += 1
        fn = workload.operation()
        try:
            if trace and op_id % 2 == 1:
                with instrumented(recorder, LAYERS):
                    recorder.op = op_id
                    try:
                        with recorder.span(ROOT_SPAN) as root:
                            result = fn()
                    finally:
                        recorder.op = None
                traced_s.append(root.duration)
                traced_ops.append(op_id)
            else:
                t0 = time.perf_counter()
                result = fn()
                plain_s.append(time.perf_counter() - t0)
        except Exception:
            traceback.print_exc()
            raised += 1
            continue
        workload.observe(result)
        edges_done += workload.edges
    peak_rss = _peak_rss_mb()

    try:
        failures = workload.check()
    except Exception:
        traceback.print_exc()
        failures = ["output check raised"]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = min(attempted, raised + len(failures))

    op_s, n = median_n(plain_s)
    modelled = {
        key: _median([row[key] for row in workload.stats])
        for key in (workload.stats[0] if workload.stats else {})
    }
    e2e = {
        "op_s_p50": (op_s, "s"),
        "edges_per_s": (edges_done / sum(plain_s + traced_s)
                        if plain_s or traced_s else float("nan"), "edges/s"),
        "setup_s": (median_n(setup_times)[0], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "error_rate": (failed / attempted, "fraction"),
        "sim_cycles": (modelled.get("sim_cycles", float("nan")), "cycles"),
        "dram_mb": (modelled.get("dram_mb", float("nan")), "MB"),
        "prune_agg": (modelled.get("prune_agg", float("nan")), "fraction"),
    }
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  "
          f"operations={attempted} (untraced {n}, traced {len(traced_s)})  "
          f"setups={len(setup_times)}")
    for key, (value, unit) in e2e.items():
        samples = f"  (n={n})" if key == "op_s_p50" else ""
        print(f"  {key:<12} {value:.6g} {unit}{samples}")

    if not trace:
        metrics = {
            key: {"value": e2e[key][0], "unit": e2e[key][1]}
            for key in ("op_s_p50", "edges_per_s", "setup_s", "peak_rss_mb")
        }
    else:
        metrics = _per_layer(workload, recorder, traced_ops, plain_s,
                             traced_s, e2e, modelled)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(out_dir / f"spans-{name}-seed{seed}.jsonl")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _per_layer(workload, recorder, traced_ops, plain_s, traced_s, e2e,
               modelled) -> dict:
    per_op = [layer_totals(recorder.spans, op) for op in traced_ops]
    metrics: dict[str, dict] = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    for prefix, _, _ in LAYERS:
        put(f"{prefix}.calls",
            _median([t.get(prefix, (0, 0.0))[0] for t in per_op]), "count")
        put(f"{prefix}.self_s",
            _median([t.get(prefix, (0, 0.0))[1] for t in per_op]), "s")
    for key, value in modelled.items():
        put(key, value, "MB" if key.startswith("dram")
            else "cycles" if key.endswith("cycles")
            else "fraction" if key == "prune_agg" else "count")
    extra = workload.extra_metrics()
    for key in INCREMENTAL_METRICS:
        put(key, extra.get(key, 0.0),
            "count" if key.endswith("_nodes") else "fraction")
    put("error_rate", e2e["error_rate"][0], "fraction")
    untraced, traced = _median(plain_s), _median(traced_s)
    put("trace.overhead_frac", (traced - untraced) / untraced, "fraction")
    accel = "core.accelerator.IGCNAccelerator.run"
    put("trace.unattributed_frac",
        _median([t.get(accel, (0, 0.0))[1] / op_s
                 for t, op_s in zip(per_op, traced_s)]),
        "fraction")
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            rows[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            rows[name] = None
    ok = all(r is not None and r["correct"] for r in rows.values())
    print(json.dumps({
        "correct": ok and code == 0,
        "attempted": sum(r["attempted"] for r in rows.values() if r),
        "failed": sum(r["failed"] for r in rows.values() if r),
        "metrics": {
            f"{name}.{key}": value
            for name, r in rows.items() if r
            for key, value in r["metrics"].items()
        },
    }))
    return code or (0 if ok else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
