"""The bench-record gates CI applies, run inside the tier-1 suite.

Imports ``tools/check_bench.py`` the way ``tests/test_docs.py`` imports
``check_docs``.  The committed records must pass every gate, and every
gate must catch a record with one field moved just past its bound.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_bench  # noqa: E402  (path set up above)

#: (mode, benchmark, gate) -> an in-place edit of one passing record
#: that must fail that gate.
BREAK = {
    ("smoke", "locator-scale", "equal"):
        lambda r: r["tiers"][0].update(equal=False),
    ("smoke", "locator-scale", "batched-not-slower"):
        lambda r: r["tiers"][-1].update(
            batched_s=r["tiers"][-1]["scalar_s"] + 1e-4),
    ("smoke", "consumer-scale", "equal"):
        lambda r: r["tiers"][0].update(equal=False),
    ("smoke", "consumer-scale", "batched-not-slower"):
        lambda r: r["tiers"][-1].update(
            batched_s=r["tiers"][-1]["scalar_s"] + 1e-4),
    ("smoke", "event-pipeline", "contract"):
        lambda r: r["tiers"][0].update(deterministic=False),
    ("smoke", "event-pipeline", "cycles-in-bounds"):
        lambda r: r["tiers"][0].update(
            event_cycles=r["tiers"][0]["staged_cycles"] + 0.2),
    ("smoke", "event-pipeline", "streamed-below-staged"):
        lambda r: r["tiers"][-1].update(
            streamed_cycles=r["tiers"][-1]["staged_cycles"]),
    ("smoke", "locator-partition", "equal-p1"):
        lambda r: r["tiers"][0].update(equal_p1=False),
    ("smoke", "locator-partition", "quality-bound"):
        lambda r: r["tiers"][0]["quality_delta"].update(
            classified_edge_ratio=-0.3001),
    ("smoke", "locator-incremental", "equal"):
        lambda r: r["tiers"][0].update(equal=False),
    ("smoke", "locator-pincremental", "p1-identical"):
        lambda r: r["config"].update(p1_identical=False),
    ("smoke", "locator-pincremental", "equal"):
        lambda r: r["tiers"][0].update(equal=None),
    ("smoke", "locator-pincremental", "update-not-slower"):
        lambda r: r["tiers"][0].update(
            update_s=r["tiers"][0]["rerecord_s"] + 1e-4),
    ("committed", "event-pipeline", "contract"):
        lambda r: r["tiers"][-1].update(sandwich=False),
    ("committed", "event-pipeline", "overlap-win"):
        lambda r: r["tiers"][-1].update(overlap_win=1.0),
    ("committed", "event-pipeline", "p99"):
        lambda r: r["tiers"][-1].update(p99_us=None),
    ("committed", "locator-partition", "equal-p1"):
        lambda r: r["tiers"][-1].update(equal_p1=False),
    ("committed", "locator-partition", "partitioned-not-slower"):
        lambda r: r["tiers"][-1].update(
            part_s=r["tiers"][-1]["mono_s"] + 1e-4),
    ("committed", "locator-incremental", "equal"):
        lambda r: r["tiers"][-1].update(equal=False),
    ("committed", "locator-incremental", "headline"):
        lambda r: r.update(headline_speedup=4.99),
    ("committed", "locator-pincremental", "p1-identical"):
        lambda r: r["config"].update(p1_identical=None),
    ("committed", "locator-pincremental", "equal"):
        lambda r: r["tiers"][-1].update(equal=False),
    ("committed", "locator-pincremental", "headline-tier"):
        lambda r: r.update(headline_tier="1e1"),
    ("committed", "locator-pincremental", "headline"):
        lambda r: r.update(headline_speedup=2.99),
}


@pytest.fixture(scope="module")
def records():
    return check_bench.load(REPO_ROOT)


@pytest.mark.parametrize("mode", ["smoke", "committed"])
def test_committed_records_pass_every_gate(records, mode):
    assert check_bench.check(records, mode) == []


def test_every_gate_has_a_breaking_edit():
    gates = {(g.mode, g.benchmark, g.name) for g in check_bench.GATES}
    assert gates == set(BREAK)


@pytest.mark.parametrize("key", sorted(BREAK), ids="/".join)
def test_gate_catches_one_changed_field(records, key):
    mode, benchmark, gate = key
    broken = copy.deepcopy(records)
    (record,) = [r for r in broken.values() if r["benchmark"] == benchmark]
    BREAK[key](record)
    failures = check_bench.check(broken, mode)
    assert any(f"{benchmark}/{gate} " in line for line in failures), failures


def test_missing_or_malformed_record_fails():
    smoke = [g for g in check_bench.GATES if g.mode == "smoke"]
    missing = check_bench.check({}, "smoke")
    assert len(missing) == len(smoke)
    assert all(line.endswith("no record") for line in missing)
    malformed = check_bench.check(
        {"BENCH_locator.json": {"benchmark": "locator-scale"}}, "smoke"
    )
    assert sum("KeyError" in line for line in malformed) == 2


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="needs a git checkout",
)
def test_committed_mode_reads_head():
    records = check_bench.load(REPO_ROOT, committed=True)
    assert check_bench.check(records, "committed") == []


def test_docs_list_the_gate_table():
    docs = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
    assert check_bench.rules_markdown() in docs
