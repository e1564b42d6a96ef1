"""The torture audit's dynamic-atomicity checker.

The audits decide dynamic atomicity with the memoized checker
(:func:`repro.core.fast_atomicity.fast_is_dynamic_atomic`), looked up as
the module global ``torture.is_dynamic_atomic``.  These tests pin that
choice against the paper-definition enumerator
(:func:`repro.core.atomicity.is_dynamic_atomic`), monkeypatched onto the
same global: every campaign below must report the same violations under
both.  They also pin the checker budget: a history the checker cannot
decide within it is counted as *unchecked* and fails the campaign.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.adts.registry import ADT_REGISTRY
from repro.core import atomicity
from repro.core.atomicity import TooManyOrdersError
from repro.core.fast_atomicity import fast_is_dynamic_atomic
from repro.runtime import torture
from repro.runtime.faults import FaultEvent, FaultPlan
from repro.runtime.scheduler import Scheduler
from repro.runtime.torture import (
    TortureConfig,
    audit_atomicity,
    configs_for,
    run_schedule,
    run_site_torture,
    run_torture,
)
from repro.runtime.trace import TraceCollector, reconcile


def _signature(report):
    return [v.format() for v in report.violations], report.format()


def _both_checkers(monkeypatch, campaign):
    """The campaign's report under the fast checker, then the reference."""
    fast = campaign()
    monkeypatch.setattr(torture, "is_dynamic_atomic", atomicity.is_dynamic_atomic)
    reference = campaign()
    return fast, reference


def test_audit_uses_the_memoized_checker():
    assert torture.is_dynamic_atomic is fast_is_dynamic_atomic


def test_full_matrix_agrees_with_reference(monkeypatch):
    configs = configs_for(sorted(ADT_REGISTRY), transactions=4, ops_per_txn=2)
    assert {c.adt_kind for c in configs} == set(ADT_REGISTRY)
    fast, reference = _both_checkers(
        monkeypatch,
        lambda: run_torture(configs, schedules=2 * len(configs), seed=3),
    )
    assert fast.ok and fast.unchecked == 0
    assert _signature(fast) == _signature(reference)


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
def test_skip_commit_force_control_agrees_with_reference(monkeypatch, recovery):
    configs = [
        TortureConfig("bank", recovery, bug="skip-commit-force", transactions=4)
    ]
    fast, reference = _both_checkers(
        monkeypatch, lambda: run_torture(configs, schedules=6, seed=0)
    )
    assert fast.violations, "the planted bug went undetected"
    assert _signature(fast) == _signature(reference)


@pytest.mark.parametrize("bug", [None, "skip-catchup"])
def test_site_campaign_agrees_with_reference(monkeypatch, bug):
    configs = configs_for(["counter"], sites=2, transactions=4, bug=bug)
    fast, reference = _both_checkers(
        monkeypatch, lambda: run_site_torture(configs, schedules=8, seed=0)
    )
    assert bool(fast.violations) == (bug is not None)
    assert _signature(fast) == _signature(reference)


# ---------------------------------------------------------------------------
# the checker budget: undecided audits are counted, never swallowed
# ---------------------------------------------------------------------------


def _tiny_budget(monkeypatch):
    monkeypatch.setattr(
        torture,
        "is_dynamic_atomic",
        functools.partial(fast_is_dynamic_atomic, max_configs=1),
    )


def _finished_counter_run():
    """The global history and specs of a fault-free counter run."""
    config = TortureConfig("counter", "DU", transactions=4)
    system, adt = torture.build_system(config, FaultPlan())
    Scheduler(system, torture.workload_for(config, adt, random.Random(0)), seed=0).run()
    specs = {name: obj.adt for name, obj in system.objects.items()}
    return system.history(), specs


def test_budget_raises_too_many_orders():
    history, specs = _finished_counter_run()
    assert fast_is_dynamic_atomic(history, specs)
    with pytest.raises(TooManyOrdersError):
        fast_is_dynamic_atomic(history, specs, max_configs=1)


def test_unchecked_audit_propagates_without_a_tally(monkeypatch):
    _tiny_budget(monkeypatch)
    history, specs = _finished_counter_run()
    with pytest.raises(TooManyOrdersError):
        audit_atomicity(history, specs, "label", "schedule", "detail")
    tally = []
    assert audit_atomicity(history, specs, "label", "schedule", "detail", tally) == []
    assert tally == ["schedule"]


def test_unchecked_schedule_fails_the_campaign(monkeypatch):
    _tiny_budget(monkeypatch)
    configs = [TortureConfig("counter", "DU", transactions=4)]
    # A crash at the last log interaction follows commits, so both the
    # crash audit and the final one exceed a one-configuration budget.
    last = torture.profile_horizon(configs[0]) - 1
    result = run_schedule(configs[0], FaultPlan.crash_at(last), seed=0)
    assert result.unchecked == 2
    assert not result.violations
    report = run_torture(configs, schedules=3, seed=0)
    assert report.unchecked >= 3
    assert not report.ok
    text = report.format()
    assert "unchecked: %d dynamic-atomicity audits" % report.unchecked in text
    assert "all invariants held" not in text


def test_unchecked_site_schedule_fails_the_campaign(monkeypatch):
    _tiny_budget(monkeypatch)
    configs = configs_for(["counter"], ["DU"], sites=2, transactions=4)
    report = run_site_torture(configs, schedules=2, seed=0)
    # audit_replication's merged history plus audit_recovery's, per schedule
    assert report.unchecked == 4
    assert not report.ok


def test_unchecked_counts_merge_across_workers(monkeypatch):
    # Workers fork, so they inherit the patched budget.
    _tiny_budget(monkeypatch)
    configs = configs_for(["counter", "bank"], ["DU"], transactions=4)
    serial = run_torture(configs, schedules=4, seed=0)
    parallel = run_torture(configs, schedules=4, seed=0, workers=2)
    assert serial.unchecked > 0
    assert parallel.unchecked == serial.unchecked
    assert parallel.format() == serial.format()


def test_clean_report_says_zero_unchecked():
    report = run_torture(
        configs_for(["bank"], ["DU"], transactions=4), schedules=2, seed=0
    )
    assert report.ok and report.unchecked == 0
    assert "unchecked: 0 dynamic-atomicity audits" in report.format()


# ---------------------------------------------------------------------------
# a resumed run that has nothing left to do
# ---------------------------------------------------------------------------


def test_resumed_run_finished_by_crash_recovery_reconciles():
    """Crash recovery completes the last open commit, so the resumed
    ``Scheduler.run`` returns at once: it must report its own tick count
    (0), not the crashed run's, to agree with the trace."""
    (config,) = configs_for(
        ["counter"], ["DU"], transactions=8, ops_per_txn=2
    )
    plan = FaultPlan((FaultEvent(31, "crash-during-force"),), seed=824318160)
    trace = TraceCollector()
    result = run_schedule(config, plan, seed=1922059544, trace=trace)
    assert not result.violations
    assert result.crashes == 2  # the torn force and the final clean crash
    results = reconcile(trace.events)
    assert results
    for segment in results:
        assert segment.ok, segment.mismatches
    run_ends = [e for e in trace.events if e["kind"] == "run-end"]
    assert run_ends[-1]["metrics"]["ticks"] == 0
