"""What traces and reports say about crashes.

* A run resumed after a whole-system crash counts ticks from 0 again;
  transactions that live through the crash must be born on that clock
  too, or their commit latencies come out negative.
* ``trace.reconcile`` flags any negative commit latency.
* ``trace-report`` counts every kind of crash — whole-system, shard and
  site — in its crashes line.
"""

import copy

from repro.cli import main
from repro.runtime.faults import FaultPlan
from repro.runtime.torture import TortureConfig, run_schedule, run_torture
from repro.runtime.trace import (
    FAILURE_KINDS,
    TraceCollector,
    format_trace_report,
    reconcile,
)

COMMITS = ("txn-commit", "ro-commit")


def _crash_before_truncate_trace():
    """bank/DU, 8 txns: a crash at interaction 6 kills seven scripts;
    the resumed run commits ``T0~r1`` at its tick 3."""
    trace = TraceCollector()
    plan = FaultPlan.crash_at(6, "crash-before-truncate", seed=1858720390)
    result = run_schedule(
        TortureConfig("bank", "DU", transactions=8), plan, seed=9045414, trace=trace
    )
    assert result.violations == [] and result.crashes == 2
    return trace.events


def test_resumed_run_latency_spans_the_crash():
    events = _crash_before_truncate_trace()
    commits = {e["txn"]: e for e in events if e["kind"] == "txn-commit"}
    assert (commits["T0~r1"]["tick"], commits["T0~r1"]["latency"]) == (3, 3)
    assert all(e["latency"] >= 0 for e in commits.values())
    assert [r.mismatches for r in reconcile(events)] == [{}]


def test_crash_campaign_has_no_negative_latency():
    trace = TraceCollector()
    configs = [TortureConfig(kind, "DU", transactions=8) for kind in ("bank", "counter")]
    report = run_torture(configs, schedules=40, seed=1, trace=trace)
    assert report.ok
    latencies = [e["latency"] for e in trace.events if e["kind"] in COMMITS]
    assert len(latencies) > 300
    assert min(latencies) >= 0


def test_reconcile_flags_negative_latency():
    events = copy.deepcopy(_crash_before_truncate_trace())
    commit = next(e for e in events if e["kind"] == "txn-commit")
    commit["latency"] = -1
    (result,) = reconcile(events)
    assert not result.ok
    assert result.mismatches == {"negative_latency": (1, 0)}
    assert "negative_latency" in format_trace_report(events)


def test_trace_report_counts_site_failures(tmp_path, capsys):
    path = str(tmp_path / "site.jsonl")
    argv = ["run", "bank", "--sites", "3", "--site-crash", "1@20-60"]
    assert main(argv + ["--trace-out", path]) == 0
    assert main(["trace-report", path, "--strict"]) == 0
    out = capsys.readouterr().out
    assert "crashes: 1 (scheduler victims restarted: 0" in out


def test_trace_report_counts_every_failure_kind():
    events = [
        {"kind": kind, "tick": 1, "victims": [], "resolved": ["T%d" % i]}
        for i, kind in enumerate(FAILURE_KINDS)
    ]
    assert FAILURE_KINDS == ("crash", "shard-crash", "site-failure")
    assert "crashes: 3 (scheduler victims restarted: 0, in-doubt commits resolved: 3)" in (
        format_trace_report(events)
    )
