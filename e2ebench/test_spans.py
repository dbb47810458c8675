"""Self-tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import (  # noqa: E402
    Span,
    SpanRecorder,
    instrumented,
    layer_totals,
    median_n,
    self_times,
)


class FakeClock:
    """Advances by ``step`` seconds on every reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_self_time_of_nested_spans():
    rec = SpanRecorder(FakeClock())
    with rec.span("a"):            # reads 1 .. 8
        with rec.span("b"):        # reads 2 .. 5
            with rec.span("c"):    # reads 3 .. 4
                pass
        with rec.span("d"):        # reads 6 .. 7
            pass
    a, b, c, d = rec.spans
    assert (b.parent, c.parent, d.parent) == (a.id, b.id, a.id)
    selfs = self_times(rec.spans)
    assert selfs[a.id] == pytest.approx(7 - 3 - 1)
    assert selfs[b.id] == pytest.approx(3 - 1)
    assert selfs[c.id] == pytest.approx(1)
    assert selfs[d.id] == pytest.approx(1)


def test_callback_span_nests_under_its_caller():
    rec = SpanRecorder(FakeClock())

    def run(on_round):
        for _ in range(2):
            on_round()

    traced_run = rec.wrap("locator", run)
    traced_cb = rec.wrap("prepare", lambda: None)
    traced_run(traced_cb)
    locator, first, second = rec.spans
    assert first.parent == locator.id and second.parent == locator.id
    selfs = self_times(rec.spans)
    # locator reads 1 and 6; each callback spans one tick
    assert selfs[locator.id] == pytest.approx(5 - 2)


def test_children_are_clipped_and_never_counted_twice():
    parent = Span(0, "p", 0.0, 10.0, None, 0)
    spans = [
        parent,
        Span(1, "x", 2.0, 6.0, 0, 0),
        Span(2, "y", 4.0, 8.0, 0, 0),     # overlaps x
        Span(3, "z", 9.0, 12.0, 0, 0),    # runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_layer_self_times_sum_to_operation_time():
    rec = SpanRecorder(FakeClock(0.25))
    for op in (0, 1):
        rec.op = op
        with rec.span("op") as root:
            with rec.span("graph"):
                with rec.span("norm"):
                    pass
            for _ in range(3):
                with rec.span("chunk"):
                    pass
        rec.op = None
        totals = layer_totals(rec.spans, op)
        assert totals["chunk"][0] == 3
        assert sum(s for _, s in totals.values()) == pytest.approx(root.duration)
    with rec.span("outside"):
        pass
    assert "outside" not in layer_totals(rec.spans, 0)


def test_median_reports_sample_count():
    assert median_n([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_n([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    value, n = median_n([])
    assert math.isnan(value) and n == 0


def test_instrumented_traces_import_sites_and_restores():
    import repro.core.accelerator as accelerator
    import repro.models.reference as reference
    from repro.graph.csr import CSRGraph

    original_fn = reference.normalization_for
    original_method = CSRGraph.without_self_loops
    rec = SpanRecorder()
    targets = [
        ("norm", "repro.models.reference", "normalization_for"),
        ("clean", "repro.graph.csr", "CSRGraph.without_self_loops"),
    ]
    graph = CSRGraph.from_edges(3, [0, 1, 1], [1, 2, 1], name="tiny")
    with instrumented(rec, targets):
        # The accelerator's own binding is traced, not just the module's.
        assert accelerator.normalization_for is not original_fn
        accelerator.normalization_for(graph, "gcn-sym")
    assert accelerator.normalization_for is original_fn
    assert reference.normalization_for is original_fn
    assert CSRGraph.without_self_loops is original_method
    norm, clean = rec.spans
    assert (norm.name, clean.name, clean.parent) == ("norm", "clean", norm.id)
