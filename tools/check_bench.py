"""Gates on the ``BENCH_*.json`` records: one table, one evaluator.

Every gate belongs to one record, found by its ``"benchmark"`` name,
and to one mode:

* ``smoke`` — the small-tier records CI's smoke runs just wrote over
  the working-tree copies (``repro bench <suite> ... --output
  BENCH_<suite>.json``);
* ``committed`` — the full-ladder records in ``HEAD``, read with
  ``git show HEAD:<file>`` because the smoke runs overwrite the
  working-tree copies.  These carry the headline claims.

Usage::

    python tools/check_bench.py              # smoke gates
    python tools/check_bench.py --committed  # committed gates

Exit code 0 when every gate passes, 1 otherwise, with one line per
failed gate naming it; a gated record that is missing fails too.
``tests/test_check_bench.py`` runs the evaluator in the tier-1 suite
and checks that the "CI integration" list in docs/benchmarks.md is
:func:`rules_markdown`'s output.
"""

from __future__ import annotations

import fnmatch
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PATTERN = "BENCH_*.json"


class Gate(NamedTuple):
    benchmark: str
    mode: str
    name: str
    rule: str
    test: Callable[[dict], bool]


def every(*keys: str) -> Callable[[dict], bool]:
    """Every tier row holds each verdict flag in ``keys``."""
    return lambda rec: all(row[key] for row in rec["tiers"] for key in keys)


def each(test: Callable[[dict], bool]) -> Callable[[dict], bool]:
    return lambda rec: all(test(row) for row in rec["tiers"])


def largest(test: Callable[[dict], bool]) -> Callable[[dict], bool]:
    return lambda rec: test(rec["tiers"][-1])


_CONTRACT = "`sandwich`, `deterministic` and `equal` on every tier"

GATES = (
    Gate("locator-scale", "smoke", "equal", "`equal` on every tier",
         every("equal")),
    Gate("locator-scale", "smoke", "batched-not-slower",
         "largest tier `batched_s <= scalar_s`",
         largest(lambda t: t["batched_s"] <= t["scalar_s"])),
    Gate("consumer-scale", "smoke", "equal", "`equal` on every tier",
         every("equal")),
    Gate("consumer-scale", "smoke", "batched-not-slower",
         "largest tier `batched_s <= scalar_s`",
         largest(lambda t: t["batched_s"] <= t["scalar_s"])),
    Gate("event-pipeline", "smoke", "contract", _CONTRACT,
         every("sandwich", "deterministic", "equal")),
    Gate("event-pipeline", "smoke", "cycles-in-bounds",
         "every tier `streamed_cycles <= event_cycles + 0.1 <= "
         "staged_cycles + 0.2`",
         each(lambda t: t["streamed_cycles"] <= t["event_cycles"] + 0.1
              <= t["staged_cycles"] + 0.2)),
    Gate("event-pipeline", "smoke", "streamed-below-staged",
         "largest tier `streamed_cycles < staged_cycles`",
         largest(lambda t: t["streamed_cycles"] < t["staged_cycles"])),
    Gate("locator-partition", "smoke", "equal-p1",
         "`equal_p1` on every tier", every("equal_p1")),
    Gate("locator-partition", "smoke", "quality-bound",
         "every tier `quality_delta.classified_edge_ratio >= -0.30`",
         each(lambda t: t["quality_delta"]["classified_edge_ratio"]
              >= -0.30)),
    Gate("locator-incremental", "smoke", "equal", "`equal` on every tier",
         every("equal")),
    Gate("locator-pincremental", "smoke", "p1-identical",
         "`config.p1_identical`", lambda r: r["config"]["p1_identical"]),
    Gate("locator-pincremental", "smoke", "equal", "`equal` on every tier",
         every("equal")),
    Gate("locator-pincremental", "smoke", "update-not-slower",
         "every tier `update_s <= rerecord_s`",
         each(lambda t: t["update_s"] <= t["rerecord_s"])),
    Gate("event-pipeline", "committed", "contract", _CONTRACT,
         every("sandwich", "deterministic", "equal")),
    Gate("event-pipeline", "committed", "overlap-win",
         "largest tier `overlap_win > 1`",
         largest(lambda t: bool(t["overlap_win"]) and t["overlap_win"] > 1)),
    Gate("event-pipeline", "committed", "p99", "largest tier has `p99_us`",
         largest(lambda t: t["p99_us"] is not None)),
    Gate("locator-partition", "committed", "equal-p1",
         "`equal_p1` on every tier", every("equal_p1")),
    Gate("locator-partition", "committed", "partitioned-not-slower",
         "largest tier `part_s <= mono_s`",
         largest(lambda t: t["part_s"] <= t["mono_s"])),
    Gate("locator-incremental", "committed", "equal",
         "`equal` on every tier", every("equal")),
    Gate("locator-incremental", "committed", "headline",
         "`headline_speedup >= 5`", lambda r: r["headline_speedup"] >= 5),
    Gate("locator-pincremental", "committed", "p1-identical",
         "`config.p1_identical`", lambda r: r["config"]["p1_identical"]),
    Gate("locator-pincremental", "committed", "equal",
         "`equal` on every tier", every("equal")),
    Gate("locator-pincremental", "committed", "headline-tier",
         '`headline_tier == "1e3"`', lambda r: r["headline_tier"] == "1e3"),
    Gate("locator-pincremental", "committed", "headline",
         "`headline_speedup >= 3`", lambda r: r["headline_speedup"] >= 3),
)


def load(root: Path = REPO_ROOT, *, committed: bool = False) -> dict:
    """File name -> record of every ``BENCH_*.json`` (in ``HEAD``)."""
    if not committed:
        return {p.name: json.loads(p.read_text())
                for p in sorted(root.glob(PATTERN))}

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, check=True,
                              capture_output=True, text=True).stdout

    names = fnmatch.filter(git("ls-tree", "--name-only", "HEAD").split(),
                           PATTERN)
    return {name: json.loads(git("show", f"HEAD:{name}")) for name in names}


def check(records: dict, mode: str) -> list[str]:
    """One line per failed ``mode`` gate over ``records``."""
    found = {rec.get("benchmark"): (name, rec)
             for name, rec in records.items()}
    failures = []
    for gate in GATES:
        if gate.mode != mode:
            continue
        label = f"{mode} gate {gate.benchmark}/{gate.name} ({gate.rule})"
        if gate.benchmark not in found:
            failures.append(f"{label}: no record")
            continue
        name, record = found[gate.benchmark]
        try:
            ok = bool(gate.test(record))
        except (KeyError, IndexError, TypeError) as exc:
            ok, label = False, f"{label} [{type(exc).__name__}: {exc}]"
        if not ok:
            failures.append(f"{name}: {label} failed")
    return failures


def rules_markdown() -> str:
    """The gate table as the markdown list in docs/benchmarks.md."""
    lines = []
    for mode in ("smoke", "committed"):
        benchmarks = dict.fromkeys(g.benchmark for g in GATES if g.mode == mode)
        for bench in benchmarks:
            rules = [g.rule for g in GATES
                     if g.mode == mode and g.benchmark == bench]
            lines.append(f"* {mode} `{bench}`: " + "; ".join(rules) + ".")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--committed"]):
        print(__doc__, file=sys.stderr)
        return 2
    mode = "committed" if argv else "smoke"
    records = load(committed=bool(argv))
    failures = check(records, mode)
    for line in failures:
        print(line, file=sys.stderr)
    gates = sum(gate.mode == mode for gate in GATES)
    print(f"{mode}: {gates - len(failures)}/{gates} gates pass over "
          f"{len(records)} records")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
