"""Span recording and self-time arithmetic for the end-to-end benchmark.

A :class:`SpanRecorder` keeps one :class:`Span` per wrapped call in
memory — name, start, end, parent span and operation id — and writes
them out once, when the run ends.  Nesting follows the call stack, so a
layer called through a callback (the locator's ``on_round`` hook calls
``IslandConsumer.prepare_chunk``) nests under its caller exactly like a
direct call.

:func:`instrumented` wraps a layer's public entry point from outside
the library: a method is replaced on its class, a module-level function
in every loaded module of its package that imported it by name (so
``from repro.models.reference import normalization_for`` call sites are
traced too).  Everything is restored on exit.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; the self times of one operation's spans
therefore sum to the operation's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Span",
    "SpanRecorder",
    "instrumented",
    "layer_totals",
    "median_n",
    "self_times",
]


@dataclass
class Span:
    """One timed call: ``[start, end]`` on the recorder's clock."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span log with call-stack nesting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        #: Operation id stamped on every span opened while it is set.
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, self.clock(), float("nan"),
                      parent, self.op)
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record)) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    Children are clipped to their parent's interval and their union is
    subtracted, so overlapping or out-of-bounds children never count
    twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for record in spans:
        if record.parent is not None:
            children[record.parent].append(record)
    out: dict[int, float] = {}
    for record in spans:
        covered = 0.0
        cursor = record.start
        for child in sorted(children[record.id], key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record.id] = record.duration - covered
    return out


def layer_totals(spans: Sequence[Span], op: int) -> dict[str, tuple[int, float]]:
    """``name -> (calls, summed self time)`` over one operation's spans."""
    mine = [s for s in spans if s.op == op]
    selfs = self_times(mine)
    totals: dict[str, tuple[int, float]] = {}
    for record in mine:
        calls, self_s = totals.get(record.name, (0, 0.0))
        totals[record.name] = (calls + 1, self_s + selfs[record.id])
    return totals


def median_n(values: Iterable[float]) -> tuple[float, int]:
    """``(median, sample count)``; the median of no samples is NaN."""
    data = list(values)
    return (statistics.median(data) if data else float("nan")), len(data)


def _resolve(module: str, path: str) -> tuple[object, str, Callable]:
    """``(owner, attribute, original)`` of ``module:path``."""
    owner: object = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not callable(original) or isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"{module}:{path} is not a plain function or method")
    return owner, attr, original


@contextlib.contextmanager
def instrumented(
    recorder: SpanRecorder, targets: Sequence[tuple[str, str, str]]
) -> Iterator[None]:
    """Wrap every ``(span name, module, attribute path)`` target.

    ``attribute path`` is ``"func"`` for a module-level function or
    ``"Class.method"`` for a method.
    """
    patched: list[tuple[object, str, Callable]] = []
    try:
        for name, module, path in targets:
            owner, attr, original = _resolve(module, path)
            traced = recorder.wrap(name, original)
            if isinstance(owner, type):
                patched.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            package = module.split(".")[0] + "."
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if (mod_name + ".").startswith(package) and \
                        vars(mod).get(attr) is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, traced)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
