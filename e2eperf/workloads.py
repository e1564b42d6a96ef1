"""The benchmark's three workloads.

Each workload is a closed loop on the host: one unit at a time, back to
back, in-process, on one thread, with ``workers=1``.  Open-loop arrivals
exist only in simulated ticks inside a drive, so the host side has no
generator that could fall behind.

A workload is built in two steps.  ``plan(seed)`` is set-up work that
depends on the benchmark seed (the torture campaign's horizon
profiling); ``warmup()`` runs one untimed unit on a fixed input, so that
lazy conflict-table and class-index caches are filled before timing.
Every unit is then ``prepare(i)`` (untimed: builds the input), ``run``
(timed: exactly one call into the program) and ``row`` (untimed: the
deterministic outcome that feeds the digest).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.adts.registry import make_adt, registered_kinds
from repro.runtime import openloop, torture
from repro.runtime.faults import FaultPlan
from repro.runtime.trace import TraceCollector, reconcile

#: the warm-up unit's input is fixed, so ``setup_s`` does not vary
#: with the benchmark seed.
WARMUP_SEED = 1


@dataclass
class Unit:
    """One unit of work: its input, and after it ran, its outcome."""

    index: int
    spec: Any
    offered: int
    result: Any = None
    row: Optional[Tuple] = None
    committed: int = 0
    #: transactions the unit offered that did not commit (all of them
    #: when the unit raised, failed a check or reported a violation).
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    norm_s: float = 0.0
    peak_rss_mb: float = 0.0


class DriveWorkload:
    """One ``openloop.drive`` per unit, at a seed derived from the
    benchmark seed, called exactly as ``repro drive`` calls it."""

    def __init__(self, name: str, config: openloop.OpenLoopConfig, why: str):
        self.name = name
        self.config = config
        self.why = why
        self._seeds: List[int] = []

    #: a drive's trace reconciles with its ``RunMetrics``.
    reconciles = True
    #: throughput is committed transactions over the sum of unit times.
    geometric_rate = False
    #: the outcome digest covers this many leading units.
    digest_units = 6
    #: ``unit_ms_tail``'s percentile: a run makes 40 or more drive units,
    #: and p75 leaves at least 10 of them beyond it.
    tail_pct = 75.0

    def plan(self, seed: int) -> None:
        self._rng = random.Random("%s/%d" % (self.name, seed))
        self._seeds = []

    def unit_seed(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(self._rng.randrange(2**31))
        return self._seeds[index]

    def warmup(self) -> None:
        self.run(WARMUP_SEED)

    def prepare(self, index: int) -> Unit:
        return Unit(index, self.unit_seed(index), self.config.transactions)

    def run(self, spec: int) -> openloop.DriveReport:
        return openloop.drive(self.config, seed=spec)

    def row(self, spec: int, report: openloop.DriveReport) -> Tuple:
        m = report.metrics
        return (
            spec,
            report.offered,
            m.committed,
            m.ro_committed,
            m.aborted,
            m.restarts,
            m.deadlocks,
            m.ticks,
            m.dead_ticks_elided,
            m.forces,
            report.percentile(0.50),
            report.percentile(0.99),
            m.operations,
            m.blocked_attempts,
        )

    def committed(self, report: openloop.DriveReport) -> int:
        return report.metrics.committed + report.metrics.ro_committed

    def check(self, unit: Unit) -> List[str]:
        report = unit.result
        problems = []
        if not report.ok:
            problems.append("failed cells: %s" % report.failed)
        if report.offered != unit.offered:
            problems.append("offered %d, expected %d" % (report.offered, unit.offered))
        if len(report.latencies) != self.committed(report):
            problems.append(
                "%d commit latencies for %d commits"
                % (len(report.latencies), self.committed(report))
            )
        return problems

    def run_traced(self, spec: int, collector: TraceCollector) -> openloop.DriveReport:
        return openloop.drive(self.config, seed=spec, trace=collector)


def rerun_traced(workload, unit: Unit) -> Tuple[List[str], int]:
    """Re-run ``unit`` with a caller-owned :class:`TraceCollector`.

    A drive's trace must reconcile with its ``RunMetrics``, and the
    re-run's row must equal the untraced row.  Returns the problems
    found and the commits counted from the trace, which include commits
    that crash recovery completed from a durable commit record (the
    scheduler's own counter does not see those).
    """
    collector = TraceCollector()
    result = workload.run_traced(unit.spec, collector)
    problems = []
    segments = reconcile(collector.events) if workload.reconciles else []
    if workload.reconciles and not segments:
        problems.append("traced re-run produced no run segment")
    for segment in segments:
        if not segment.ok:
            problems.append(
                "trace does not reconcile (%s): %s" % (segment.label, segment.mismatches)
            )
    traced_row = workload.row(unit.spec, result)
    if traced_row != unit.row:
        problems.append("traced row %s != untraced row %s" % (traced_row, unit.row))
    committed = 0
    for event in collector.events:
        if event["kind"] in ("txn-commit", "ro-commit"):
            committed += 1
        elif event["kind"] in ("crash", "shard-crash", "site-failure"):
            committed += len(event["resolved"])
    return problems, committed


class TortureWorkload:
    """One ``torture.run_schedule`` per unit, from one ``plan_campaign``
    (round-robin over the configs, so every round of units covers every
    config)."""

    #: schedules planned per run; a run that gets through all of them
    #: starts over at the first.
    SCHEDULES = 4000

    #: not checked: when crash recovery completes the last open commit,
    #: the resumed ``Scheduler.run`` returns at once and keeps the
    #: pre-crash ``ticks``, while the trace restarts its tick count.
    reconciles = False
    #: A few counter schedules take 1000x the median one (the audit
    #: enumerates serial orders), and how many of them land in one run
    #: decides its total time.  So throughput is the geometric mean of
    #: the schedules' own throughputs, where each schedule weighs the
    #: same; the tail is reported on its own.
    geometric_rate = True
    digest_units = 100
    #: a run makes 300 or more schedules; p95 needs 200, and p99 would
    #: need 1000, which a fast CPU reaches in some runs and not others.
    tail_pct = 95.0

    def __init__(self, name: str, why: str, *, transactions: int, ops: int, max_faults: int):
        self.name = name
        self.why = why
        self.configs = torture.configs_for(
            sorted(registered_kinds()), transactions=transactions, ops_per_txn=ops
        )
        self.max_faults = max_faults
        self._plan: List[Tuple[torture.TortureConfig, FaultPlan, int]] = []

    def plan(self, seed: int) -> None:
        campaign = torture.plan_campaign(
            self.configs,
            schedules=self.SCHEDULES,
            seed=seed,
            max_faults=self.max_faults,
        )
        # The systematic sweep crashes at later log positions in later
        # rounds, which costs more, so a run that got further would
        # measure a different mix.  Whole rounds (one schedule of each
        # config) run in a seeded random order instead: every prefix of a
        # run is a sample of the whole campaign.
        width = len(self.configs)
        rounds = [campaign[i:i + width] for i in range(0, len(campaign), width)]
        random.Random(seed).shuffle(rounds)
        self._plan = [entry for one_round in rounds for entry in one_round]

    def warmup(self) -> None:
        config = self.configs[0]
        plan = FaultPlan.crash_at(0, seed=WARMUP_SEED)
        torture.run_schedule(config, plan, seed=WARMUP_SEED)

    def prepare(self, index: int) -> Unit:
        config, plan, run_seed = self._plan[index % len(self._plan)]
        # A fault plan is consumed by its run; every unit gets a fresh one.
        fresh = FaultPlan(plan.events, seed=plan.seed, retry=plan.retry)
        adt = make_adt(config.adt_kind)
        offered = len(torture.workload_for(config, adt, random.Random(run_seed)))
        return Unit(index, (config, fresh, run_seed), offered)

    def run(self, spec) -> torture.ScheduleResult:
        config, plan, run_seed = spec
        return torture.run_schedule(config, plan, seed=run_seed)

    def row(self, spec, result: torture.ScheduleResult) -> Tuple:
        return (
            result.config,
            result.schedule,
            spec[2],
            result.committed,
            result.crashes,
            len(result.violations),
            result.faults_fired,
        )

    def committed(self, result: torture.ScheduleResult) -> int:
        return result.committed

    def check(self, unit: Unit) -> List[str]:
        return ["violation: %s" % v.format() for v in unit.result.violations]

    def run_traced(self, spec, collector: TraceCollector) -> torture.ScheduleResult:
        config, plan, run_seed = spec
        fresh = FaultPlan(plan.events, seed=plan.seed, retry=plan.retry)
        return torture.run_schedule(config, fresh, seed=run_seed, trace=collector)


HOT_DRIVE = DriveWorkload(
    "hot-drive",
    openloop.OpenLoopConfig(
        adt_kind="counter",
        objects=32,
        shards=1,
        transactions=192,
        ops_per_txn=3,
        arrival_rate=6.0,
        process="poisson",
        zipf_s=0.8,
        recovery="DU",
        group_commit=1,
    ),
    "contention: most try_operation calls end blocked, so lock checks and "
    "the drive's always-on trace dominate",
)

REPLICATED_SPARSE_DRIVE = DriveWorkload(
    "replicated-sparse-drive",
    openloop.OpenLoopConfig(
        adt_kind="kv",
        objects=64,
        shards=1,
        transactions=300,
        ops_per_txn=3,
        arrival_rate=0.1,
        process="poisson",
        zipf_s=0.0,
        read_mix=0.3,
        ro_mode="snapshot",
        recovery="DU",
        group_commit=4,
        hold=4,
        sites=3,
        site_crashes=((1, 200, 1500),),
    ),
    "sparse traffic on 3 sites with a site crash: the tick scan, hold "
    "timers and replication carry the load, and almost nothing blocks",
)

TORTURE_CAMPAIGN = TortureWorkload(
    "torture-campaign",
    "the dynamic-atomicity audit of every crash-recovery history "
    "dominates; no trace and no open-loop traffic",
    transactions=8,
    ops=2,
    max_faults=2,
)

WORKLOADS = {w.name: w for w in (HOT_DRIVE, REPLICATED_SPARSE_DRIVE, TORTURE_CAMPAIGN)}
