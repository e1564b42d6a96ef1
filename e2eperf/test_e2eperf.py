"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest e2eperf -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads, layers = run.import_workloads()

from repro.runtime.faults import FaultEvent, FaultPlan  # noqa: E402


@pytest.fixture
def torture_campaign(monkeypatch):
    monkeypatch.setattr(workloads.TORTURE_CAMPAIGN, "digest_units", 25)
    return workloads.TORTURE_CAMPAIGN


def digest_of(workload, seed):
    workload.plan(seed)
    outcome, extra = run.digest(workload, [])
    assert len(extra) == workload.digest_units
    assert not [p for u in extra for p in u.problems]
    return outcome


def test_same_seed_same_digest_other_seed_other_digest(torture_campaign):
    first = digest_of(torture_campaign, 1)
    assert digest_of(torture_campaign, 1) == first
    assert digest_of(torture_campaign, 2) != first


def test_unit_that_raises_fails_every_offered_transaction(torture_campaign, monkeypatch):
    torture_campaign.plan(1)
    unit = torture_campaign.prepare(3)

    def explode(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(torture_campaign, "run", explode)
    run.run_unit(torture_campaign, unit)
    run.settle(workloads, torture_campaign, [unit])
    assert unit.offered > 0
    assert unit.failed == unit.offered
    assert "injected" in unit.problems[0]


def test_unit_that_fails_a_check_fails_every_offered_transaction(torture_campaign, monkeypatch):
    torture_campaign.plan(1)
    unit = torture_campaign.prepare(3)
    monkeypatch.setattr(torture_campaign, "check", lambda unit: ["violation: injected"])
    run.run_unit(torture_campaign, unit)
    run.settle(workloads, torture_campaign, [unit])
    assert unit.committed == unit.offered
    assert unit.failed == unit.offered


def test_recount_includes_commits_completed_by_crash_recovery(torture_campaign):
    # A torn force while T4 prepares: crash recovery completes T4's
    # commit, which the scheduler's own counter misses (7 of 8).
    config = next(c for c in torture_campaign.configs if c.label() == "counter/DU")
    plan = FaultPlan([FaultEvent(31, "crash-during-force")], seed=824318160)
    unit = workloads.Unit(1, (config, plan, 1922059544), offered=8)
    run.run_unit(torture_campaign, unit)
    run.settle(workloads, torture_campaign, [unit])
    assert unit.result.committed == 7
    assert unit.committed == 8
    assert unit.failed == 0 and not unit.problems


def test_traced_run_removes_every_wrapper(torture_campaign):
    torture_campaign.plan(1)
    tracer = layers.Tracer()
    with tracer.root(layers.UNIT):
        assert len(layers.wrapped_targets()) == len(layers.TARGETS)
        torture_campaign.run(torture_campaign.prepare(0).spec)
    layers.assert_unwrapped()
    with pytest.raises(RuntimeError):
        with tracer.root(layers.UNIT):
            raise RuntimeError("unit failed")
    layers.assert_unwrapped()
    stats, roots = tracer.aggregate()
    assert stats["torture.run_schedule"][0] == 1
    assert stats["atomicity.is_dynamic_atomic"][0] >= 1
    assert roots[layers.UNIT] > 0


def test_timed_run_refuses_to_start_with_a_wrapper_installed(torture_campaign):
    torture_campaign.plan(1)
    with layers.installed(layers.Tracer()):
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            run.measure(workloads, layers, torture_campaign, 0.01)
    layers.assert_unwrapped()
