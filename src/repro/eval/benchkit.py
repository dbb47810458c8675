"""Shared harness of the ``repro bench`` suites.

Every ``eval/bench_*.py`` module times its contenders with
:func:`best_of`, wraps its rows in :func:`envelope`, and exports one
:class:`Suite` record describing how the CLI drives it: default tiers,
the suite-specific flags it accepts, its table, and the row keys whose
``False`` fails the run.  ``repro bench`` is one generic path over
those records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeVar, Union

from repro.errors import ConfigError
from repro.eval.tables import render_table

__all__ = [
    "Suite", "best_of", "check_repeats", "delta_headline", "envelope",
    "verdict_cell",
]

T = TypeVar("T")

#: A table column: a row key, or a function of the whole row.
Cell = Union[str, Callable[[dict], object]]


def check_repeats(repeats: int) -> None:
    """Reject a repeat count that would time nothing."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1 (got {repeats})")


def best_of(fn: Callable[[], T], repeats: int) -> tuple[T, float]:
    """``(last result, best wall seconds)`` of ``repeats`` calls of ``fn``."""
    check_repeats(repeats)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def envelope(
    benchmark: str,
    config: dict,
    rows: list[dict],
    *,
    verify: bool,
    win: str | None = None,
    graph: dict | None = None,
    **headline,
) -> dict:
    """The JSON record: name, config (plus ``verified``), tier rows.

    ``win`` names the row field whose value on the last row becomes
    ``largest_speedup`` (next to ``largest_tier``); the delta suites
    pass their fixed ``graph`` and their own ``headline`` keys instead.
    """
    record = {"benchmark": benchmark, "config": {**config, "verified": verify}}
    if graph is not None:
        record["graph"] = graph
    record["tiers"] = rows
    if win is not None:
        largest = rows[-1] if rows else None
        record["largest_tier"] = largest["tier"] if largest else None
        record["largest_speedup"] = largest[win] if largest else None
    record.update(headline)
    return record


def delta_headline(rows: list[dict], speedup: str) -> dict:
    """``headline_*`` and ``crossover_delta`` of a delta suite's ladder.

    A rung wins when it did not fall back and its ``speedup`` field is
    above 1 (a tie is no win; a ``None`` speedup never wins).  The
    headline is the last winning rung, the crossover the tier of the
    first rung that does not win; both are ``None`` when absent.
    """
    def wins(row: dict) -> bool:
        return not row["fallback"] and (row[speedup] or 0) > 1

    winners = [row for row in rows if wins(row)]
    headline = winners[-1] if winners else None
    return {
        "headline_tier": headline["tier"] if headline else None,
        "headline_speedup": headline[speedup] if headline else None,
        "crossover_delta": next(
            (row["tier"] for row in rows if not wins(row)), None
        ),
    }


def verdict_cell(*keys: str) -> Callable[[dict], str]:
    """Table cell of verdict flags: ``-`` when unverified, else their AND."""
    def cell(row: dict) -> str:
        if row[keys[0]] is None:
            return "-"
        return str(all(row[key] for key in keys))
    return cell


@dataclass(frozen=True)
class Suite:
    """How ``repro bench`` runs, renders and judges one suite.

    ``run`` takes ``tiers``, ``repeats``, ``seed``, ``c_max`` and
    ``verify`` plus one keyword per entry of ``flags`` (CLI option
    dest -> ``run`` keyword).  ``title`` is formatted with the record.
    ``baseline`` marks a delta suite: its summary line reports the
    headline delta against that baseline instead of the largest tier.
    """

    name: str
    run: Callable[..., dict]
    tiers: tuple[str, ...]
    columns: Mapping[str, Cell]
    title: str
    diverged: str
    verdict: tuple[str, ...] = ("equal",)
    flags: Mapping[str, str] = field(default_factory=dict)
    baseline: str | None = None

    def table(self, record: dict) -> str:
        rows = [
            {
                header: cell(row) if callable(cell) else row[cell]
                for header, cell in self.columns.items()
            }
            for row in record["tiers"]
        ]
        return render_table(rows, title=self.title.format_map(record))

    def failed(self, record: dict) -> bool:
        return any(
            row[key] is False for row in record["tiers"] for key in self.verdict
        )

    def summary(self, record: dict, output: str) -> str:
        if self.baseline is None:
            return (f"wrote {output}: largest tier {record['largest_tier']} "
                    f"speedup {record['largest_speedup']}x")
        if record["headline_tier"] is None:
            return f"wrote {output}: no delta tier beats the {self.baseline}"
        cross = record["crossover_delta"] or "beyond the ladder"
        return (f"wrote {output}: {record['headline_tier']}-edit delta "
                f"speedup {record['headline_speedup']}x vs {self.baseline} "
                f"(crossover at {cross})")
