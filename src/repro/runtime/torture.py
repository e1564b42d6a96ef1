"""The crash-schedule torture harness.

Runs the existing workload generators (:mod:`repro.runtime.workloads`)
under the scheduler against :class:`~repro.runtime.durability.CrashableSystem`
instances whose stable logs are :class:`~repro.runtime.faults.FaultyStableLog`
wrappers, enumerating or seed-sampling crash schedules.  After every
crash — and once more at the end of each schedule, via a final clean
crash — the harness restarts the system and audits three invariants:

1. **restart state** — every object's restored state equals the abstract
   view of the post-crash history:
   ``restart() == states_after(View(H_post_crash, fresh_txn))``
   with the UIP or DU view matching the object's recovery method;
2. **dynamic atomicity** — the surviving global history (crash-killed
   transactions appear as aborts, crash-resolved commits as commits)
   is still dynamic atomic, decided by the memoized checker
   :func:`repro.core.fast_atomicity.fast_is_dynamic_atomic` (the
   reference enumerator :func:`repro.core.atomicity.is_dynamic_atomic`
   is the tests' oracle for it).  A check that exceeds the checker's
   configuration budget is counted as *unchecked*, and an unchecked
   audit fails the campaign just as a violation does;
3. **durability accounting** — reading the record-fate archive that
   survives truncation: every committed transaction with effects at an
   object has a *durable* commit marker there (commits are never lost),
   and no durable commit marker belongs to a transaction that did not
   commit (aborted or in-flight effects never resurface).

The harness carries its own **negative control**: constructing the
system with ``bug="skip-commit-force"`` makes every log acknowledge
``force()`` without flushing — silently breaking the write-ahead commit
rule — and the same audit must then report violations.  A torture run
that cannot flag the planted bug proves nothing about the absence of
real ones.

Everything is deterministic: a report is reproducible from
``(seed, schedules, config)`` alone, and each violation prints the
``FaultPlan`` description needed to replay just that schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adts.registry import make_adt
from ..core.atomicity import SpecsLike, TooManyOrdersError
from ..core.fast_atomicity import fast_is_dynamic_atomic
from ..core.history import History
from ..core.views import DU, UIP
from .durability import CrashableSystem, DurableObject
from .faults import CrashPoint, FaultPlan, FaultyStableLog, RetryPolicy
from .metrics import FaultCounters
from .replication import ReplicatedSystem, ReplicationError, build_replicated_system
from .scheduler import Scheduler, periodic_wake, schedule_wake
from .wal import CommitRecord, GroupCommitPolicy, IntentionsRecord
from .workloads import (
    escrow_workload,
    generic_workload,
    hotspot_banking,
    producer_consumer,
    readonly_snapshot_workload,
    set_membership_workload,
)

#: The fresh-transaction name used to take the abstract view at audit time.
PROBE = "__probe__"

#: Stable-log record types that mark a commit point.
COMMIT_MARKERS = (CommitRecord, IntentionsRecord)

#: The audits' dynamic-atomicity decision, looked up as a module global
#: at call time, so a test can swap in the reference oracle and the
#: per-layer benchmark can wrap it.
is_dynamic_atomic = fast_is_dynamic_atomic


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TortureConfig:
    """One (ADT, recovery method, workload shape) under torture."""

    adt_kind: str
    recovery: str = "DU"  # "UIP" | "DU"
    restart_policy: str = "replay-winners"  # UIP only
    transactions: int = 4
    ops_per_txn: int = 2
    max_restarts: int = 8
    max_ticks: int = 20_000
    checkpoint_every: int = 0  # ticks between checkpoint attempts; 0 = never
    group_commit: int = 1  # force-request batch size (1 = classic per-commit force)
    hold: int = 0  # max ticks a short batch is held before flushing anyway
    #: fraction of extra read-only snapshot readers riding along (0 =
    #: none).  Readers interleave through the crash schedules on the
    #: lock-free multiversion path; observer-less ADTs (queues) simply
    #: get no readers, so mixed matrices stay runnable.
    read_mix: float = 0.0
    #: replication width: >1 runs the workload on a
    #: :class:`~repro.runtime.replication.ReplicatedSystem` under
    #: site-crash schedules (see :func:`run_site_schedule`) instead of
    #: log-fault plans.
    sites: int = 1
    #: negative controls: "skip-commit-force" (log-fault schedules) or
    #: "skip-catchup" (site-crash schedules: recovered copies rejoin
    #: without replaying the commits they missed).
    bug: Optional[str] = None

    def label(self) -> str:
        base = (
            "%s/UIP/%s" % (self.adt_kind, self.restart_policy)
            if self.recovery == "UIP"
            else "%s/DU" % self.adt_kind
        )
        if self.group_commit > 1:
            base += "/gc%d" % self.group_commit
        if self.read_mix > 0:
            base += "/ro%g" % self.read_mix
        if self.sites > 1:
            base += "/x%d" % self.sites
        return base


def configs_for(
    adt_kinds: Sequence[str],
    recovery_methods: Sequence[str] = ("DU", "UIP"),
    **overrides,
) -> List[TortureConfig]:
    """The config matrix: every ADT × recovery method × restart policy.

    UIP contributes both restart policies where the ADT supports logical
    undo, only ``replay-winners`` otherwise; DU has a single restart
    algorithm.
    """
    configs = []
    for kind in adt_kinds:
        adt = make_adt(kind)
        for method in recovery_methods:
            if method == "DU":
                configs.append(
                    TortureConfig(kind, "DU", **overrides)
                )
            else:
                policies = ["replay-winners"]
                if adt.supports_logical_undo:
                    policies.append("redo-undo")
                for policy in policies:
                    configs.append(
                        TortureConfig(
                            kind, "UIP", restart_policy=policy, **overrides
                        )
                    )
    return configs


def workload_for(config: TortureConfig, adt, rng: random.Random):
    """Scripts for the config: the ADT's purpose-built generator when one
    exists, the generic alphabet-sampling workload otherwise.  With
    ``read_mix > 0``, read-only snapshot readers ride along whenever the
    ADT offers observer invocations."""
    kind = config.adt_kind
    name = adt.name
    txns, ops = config.transactions, config.ops_per_txn
    if kind == "bank":
        scripts = hotspot_banking(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    elif kind == "escrow":
        scripts = escrow_workload(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    elif kind in ("fifo", "semiqueue"):
        producers = max(1, txns // 2)
        scripts = producer_consumer(
            rng,
            obj=name,
            producers=producers,
            consumers=max(1, txns - producers),
            ops_per_txn=ops,
        )
    elif kind == "set":
        scripts = set_membership_workload(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    else:
        scripts = generic_workload(
            adt, rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    if config.read_mix > 0 and adt.readonly_invocations():
        scripts = scripts + readonly_snapshot_workload(
            adt,
            rng,
            objs=[name],
            readers=max(1, round(config.read_mix * txns)),
            reads_per_txn=ops,
        )
    return scripts


def build_system(
    config: TortureConfig,
    plan: FaultPlan,
    counters: Optional[FaultCounters] = None,
) -> Tuple[CrashableSystem, object]:
    """A single-object crashable system wired to the fault plan."""
    adt = make_adt(config.adt_kind)
    conflict = (
        adt.nrbc_conflict() if config.recovery == "UIP" else adt.nfc_conflict()
    )
    counters = counters if counters is not None else FaultCounters()
    skip = config.bug == "skip-commit-force"
    policy = GroupCommitPolicy(config.group_commit, config.hold)
    obj = DurableObject(
        adt,
        conflict,
        config.recovery,
        restart_policy=config.restart_policy,
        log_factory=lambda: FaultyStableLog(
            plan, counters=counters, skip_commit_force=skip, policy=policy
        ),
    )
    return CrashableSystem([obj]), adt


# ---------------------------------------------------------------------------
# the auditor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One invariant breach, carrying everything needed to replay it."""

    config: str
    schedule: str
    invariant: str  # "restart-state" | "dynamic-atomicity" | "lost-commit" | "resurrection"
    detail: str

    def format(self) -> str:
        return "[%s] %s: %s  (schedule: %s)" % (
            self.config,
            self.invariant,
            self.detail,
            self.schedule,
        )


def audit_recovery(
    system: CrashableSystem,
    config: TortureConfig,
    schedule: str,
    *,
    names: Optional[Sequence[str]] = None,
    check_atomicity: bool = True,
    unchecked: Optional[List[str]] = None,
) -> List[Violation]:
    """Check the three torture invariants on a freshly restarted system.

    ``names`` restricts the per-object invariants (restart state,
    durability accounting) to a subset of the system's objects — the
    sharded runtime audits just-restarted shards this way while other
    shards still carry active transactions.  The dynamic-atomicity check
    always covers the *global* history — a shard-level crash must not be
    able to hide a global anomaly — and is the expensive invariant;
    ``check_atomicity=False`` lets a caller auditing shard after shard
    of one system run it once instead of per shard.  See
    :func:`audit_atomicity` for ``unchecked``.
    """
    violations: List[Violation] = []
    label = config.label()
    specs = {name: obj.adt for name, obj in system.objects.items()}
    audited = (
        sorted(system.objects.items())
        if names is None
        else [(n, system.objects[n]) for n in sorted(names)]
    )
    for name, obj in audited:
        history = obj.history()
        view = UIP if obj._recovery_method == "UIP" else DU

        # 1. restart state == abstract view of the post-crash history.
        expected = obj.adt.states_after(view(history, PROBE))
        actual = obj.recovery.macro(PROBE)
        if actual != expected:
            violations.append(
                Violation(
                    label,
                    schedule,
                    "restart-state",
                    "%s restored %r but %s view gives %r"
                    % (name, sorted(map(repr, actual)), view.name,
                       sorted(map(repr, expected))),
                )
            )

        # 3. durability accounting, from the record-fate archive.
        log = obj.wal.log
        if isinstance(log, FaultyStableLog):
            marker_fates: Dict[str, set] = {}
            for record, fate in log.archive():
                if isinstance(record, COMMIT_MARKERS):
                    marker_fates.setdefault(record.txn, set()).add(fate)
            committed = history.committed()
            for txn in sorted(committed):
                if not history.operations_of(txn):
                    continue  # read-free and write-free here: nothing to lose
                if "durable" not in marker_fates.get(txn, set()):
                    violations.append(
                        Violation(
                            label,
                            schedule,
                            "lost-commit",
                            "committed %s has no durable commit marker at %s "
                            "(fates: %s)"
                            % (txn, name,
                               sorted(marker_fates.get(txn, {"none"}))),
                        )
                    )
            for txn in sorted(marker_fates):
                if "durable" in marker_fates[txn] and txn not in committed:
                    violations.append(
                        Violation(
                            label,
                            schedule,
                            "resurrection",
                            "durable commit marker for %s at %s but the "
                            "transaction did not commit" % (txn, name),
                        )
                    )

    # 2. the surviving global history is dynamic atomic.
    if check_atomicity:
        violations.extend(
            audit_atomicity(
                system.history(),
                specs,
                label,
                schedule,
                "post-crash global history is not dynamic atomic",
                unchecked,
            )
        )
    return violations


def audit_atomicity(
    history: History,
    specs: SpecsLike,
    label: str,
    schedule: str,
    detail: str,
    unchecked: Optional[List[str]] = None,
) -> List[Violation]:
    """The dynamic-atomicity invariant: no violation, or one.

    A history the checker cannot decide within its configuration budget
    raises :class:`~repro.core.atomicity.TooManyOrdersError`.  With an
    ``unchecked`` list the audit records the schedule there and goes on
    (the caller counts it, and an unchecked audit fails the campaign);
    without one the error propagates.
    """
    try:
        if is_dynamic_atomic(history, specs):
            return []
    except TooManyOrdersError:
        if unchecked is None:
            raise
        unchecked.append(schedule)
        return []
    return [Violation(label, schedule, "dynamic-atomicity", detail)]


# ---------------------------------------------------------------------------
# running one schedule
# ---------------------------------------------------------------------------


@dataclass
class ScheduleResult:
    """Outcome of one workload run under one fault plan."""

    config: str
    schedule: str
    violations: List[Violation]
    crashes: int
    committed: int
    faults_fired: int
    #: dynamic-atomicity audits the checker could not decide within its
    #: configuration budget.
    unchecked: int


def run_schedule(
    config: TortureConfig,
    plan: FaultPlan,
    *,
    seed: int = 0,
    counters: Optional[FaultCounters] = None,
    trace=None,
) -> ScheduleResult:
    """Drive one workload under one fault plan, auditing every recovery.

    The scheduler runs until every script commits or retires; each
    :class:`~repro.runtime.faults.CrashPoint` the plan raises triggers
    the whole-system crash protocol, an audit, and scheduler-side
    restart of the killed scripts.  A final clean crash re-audits the
    end state so schedules whose faults never fired (or were absorbed as
    IO errors) still exercise restart.
    """
    counters = counters if counters is not None else FaultCounters()
    system, adt = build_system(config, plan, counters)
    scripts = workload_for(config, adt, random.Random(seed))
    schedule = plan.describe()
    violations: List[Violation] = []
    unchecked: List[str] = []
    if trace is not None:
        trace.emit("schedule-start", label=config.label(), plan=schedule)

    def maybe_checkpoint(tick: int) -> bool:
        if config.checkpoint_every and tick % config.checkpoint_every == 0:
            for obj in system.objects.values():
                # UIP checkpoints need quiescence; skip busy objects.
                if not obj.locks.holders() and len(obj.wal.log):
                    obj.checkpoint()
        return False

    maybe_checkpoint.next_wake = periodic_wake(config.checkpoint_every)

    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        max_restarts=config.max_restarts,
        max_ticks=config.max_ticks,
        label=config.label(),
        on_tick=maybe_checkpoint if config.checkpoint_every else None,
        trace=trace,
    )
    while True:
        try:
            scheduler.run()
            break
        except CrashPoint:
            victims = system.crash()
            violations.extend(
                audit_recovery(system, config, schedule, unchecked=unchecked)
            )
            scheduler.handle_crash(victims)
    # Final clean crash: even a fault-free schedule must restart cleanly.
    system.crash()
    violations.extend(
        audit_recovery(system, config, schedule, unchecked=unchecked)
    )
    scheduler.metrics.faults = counters
    return ScheduleResult(
        config=config.label(),
        schedule=schedule,
        violations=violations,
        crashes=system.crash_count,
        committed=scheduler.metrics.committed,
        faults_fired=len(plan.fired),
        unchecked=len(unchecked),
    )


def profile_horizon(config: TortureConfig, *, seed: int = 0) -> int:
    """How many log interactions a fault-free run of the config performs.

    Sampled fault plans draw their indexes from this horizon, so every
    fault lands on an interaction the workload actually reaches.
    """
    plan = FaultPlan(seed=seed)
    counters = FaultCounters()
    system, adt = build_system(config, plan, counters)
    scripts = workload_for(config, adt, random.Random(seed))
    Scheduler(
        system,
        scripts,
        seed=seed,
        max_restarts=config.max_restarts,
        max_ticks=config.max_ticks,
    ).run()
    return max(1, plan.clock)


# ---------------------------------------------------------------------------
# the torture campaign
# ---------------------------------------------------------------------------


@dataclass
class TortureReport:
    """Aggregate outcome of a torture campaign (deterministic to format)."""

    seed: int
    schedules: int = 0
    crashes: int = 0
    committed: int = 0
    faults_fired: int = 0
    violations: List[Violation] = field(default_factory=list)
    per_config: Dict[str, int] = field(default_factory=dict)
    counters: FaultCounters = field(default_factory=FaultCounters)
    #: schedules a parallel campaign could not complete (worker death
    #: past the retry budget, or an executor exception).  Per the
    #: failed-cell contract these are *reported*, never silently
    #: dropped: ``ok`` is False whenever any cell failed, and the
    #: aggregates above cover completed schedules only.
    failed: List[str] = field(default_factory=list)
    #: dynamic-atomicity audits left undecided by the checker's
    #: configuration budget; like a violation, any of them fails ``ok``.
    unchecked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failed and not self.unchecked

    def format(self) -> str:
        lines = [
            "torture: %d schedules, %d crashes, %d commits, %d faults fired (seed=%d)"
            % (
                self.schedules,
                self.crashes,
                self.committed,
                self.faults_fired,
                self.seed,
            ),
            "faults: %d io-errors (%d retried, %d backoff ticks), "
            "%d torn forces, %d records lost"
            % (
                self.counters.io_errors,
                self.counters.io_retries,
                self.counters.backoff_ticks,
                self.counters.torn_forces,
                self.counters.records_lost,
            ),
            "unchecked: %d dynamic-atomicity audits over the checker's "
            "configuration budget" % self.unchecked,
        ]
        for label in sorted(self.per_config):
            lines.append("  %-28s %4d schedules" % (label, self.per_config[label]))
        if self.violations:
            lines.append("VIOLATIONS (%d):" % len(self.violations))
            for v in self.violations:
                lines.append("  " + v.format())
        if self.failed:
            lines.append("FAILED CELLS (%d):" % len(self.failed))
            for entry in self.failed:
                lines.append("  " + entry)
        if self.ok:
            lines.append("all invariants held")
        return "\n".join(lines)


def plan_campaign(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
    max_faults: int = 2,
    retry: Optional[RetryPolicy] = None,
) -> List[Tuple[TortureConfig, FaultPlan, int]]:
    """The deterministic ``(config, plan, run_seed)`` assignment list.

    Schedule *i* goes to ``configs[i % len(configs)]``; per-schedule
    fault plans are drawn from a single master RNG seeded with ``seed``,
    so the whole campaign replays from ``(configs, schedules, seed)``.
    Two out of three schedules per config advance a *systematic sweep* —
    single crashes placed at each interaction index in turn, alternating
    before/after-append placement — and the third is a *sampled*
    multi-fault plan over the config's profiled interaction horizon
    (torn forces, IO-error bursts, fault combinations).

    Planning is separated from execution so the schedules can run in
    any order (or on any worker): the RNG draws happen here, serially,
    and each resulting cell is self-contained.
    """
    if not configs:
        raise ValueError("no torture configs")
    master = random.Random(seed)
    horizons = {c.label(): profile_horizon(c, seed=seed) for c in configs}
    sweep_pos: Dict[str, int] = {c.label(): 0 for c in configs}
    assignments: List[Tuple[TortureConfig, FaultPlan, int]] = []
    for i in range(schedules):
        config = configs[i % len(configs)]
        label = config.label()
        horizon = horizons[label]
        round_number = i // len(configs)
        pos = sweep_pos[label]
        if round_number % 3 != 2 and pos < 2 * horizon:
            kind = (
                "crash-after-append" if pos % 2 == 0 else "crash-before-append"
            )
            plan = FaultPlan.crash_at(
                pos // 2, kind, seed=master.randrange(2**31)
            )
            if retry is not None:
                plan.retry = retry
            sweep_pos[label] = pos + 1
        else:
            plan = FaultPlan.sample(
                master, horizon, max_faults=max_faults, retry=retry
            )
        assignments.append((config, plan, master.randrange(2**31)))
    return assignments


def run_torture(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
    max_faults: int = 2,
    retry: Optional[RetryPolicy] = None,
    trace=None,
    workers: int = 1,
    trace_out: Optional[str] = None,
) -> TortureReport:
    """Run ``schedules`` fault schedules round-robin over the configs.

    See :func:`plan_campaign` for the schedule-assignment policy.  With
    ``workers > 1`` the schedules fan out over a process pool (see
    :mod:`repro.runtime.parallel`) and merge back in schedule order, so
    the report is byte-identical to the serial campaign; tracing then
    goes through per-worker shard files stitched into ``trace_out``
    (pass ``trace_out``, not a shared ``trace`` collector).  Schedules
    lost to a worker death are retried once and otherwise land in
    ``report.failed``.
    """
    if workers > 1 and trace is not None:
        raise ValueError(
            "a shared trace collector cannot cross process boundaries; "
            "use trace_out= with workers > 1"
        )
    assignments = plan_campaign(
        configs,
        schedules=schedules,
        seed=seed,
        max_faults=max_faults,
        retry=retry,
    )
    report = TortureReport(seed=seed)
    if workers <= 1:
        for config, plan, run_seed in assignments:
            result = run_schedule(
                config,
                plan,
                seed=run_seed,
                counters=report.counters,
                trace=trace,
            )
            _merge_schedule(report, result)
        return report

    # Lazy import: parallel.py's executors import this module.
    from .parallel import Cell, ParallelRunner

    cells = [
        Cell(
            index=i,
            kind="torture",
            spec={"config": config, "plan": plan, "label": config.label()},
            seed=run_seed,
        )
        for i, (config, plan, run_seed) in enumerate(assignments)
    ]
    runner = ParallelRunner(workers, trace_base=trace_out)
    for cell_result in runner.run(cells):
        if not cell_result.ok:
            config = assignments[cell_result.index][0]
            report.failed.append(
                "schedule %d (%s): %s"
                % (cell_result.index, config.label(), cell_result.error)
            )
            continue
        _merge_schedule(report, cell_result.value["result"])
        report.counters.merge(cell_result.value["counters"])
    return report


def _merge_schedule(report: TortureReport, result: ScheduleResult) -> None:
    """Fold one schedule's outcome into the campaign report (additive and
    order-respecting: calling this in schedule order reproduces the
    serial campaign's report exactly)."""
    report.schedules += 1
    report.crashes += result.crashes
    report.committed += result.committed
    report.faults_fired += result.faults_fired
    report.violations.extend(result.violations)
    report.unchecked += result.unchecked
    report.per_config[result.config] = (
        report.per_config.get(result.config, 0) + 1
    )


# ---------------------------------------------------------------------------
# site-crash torture (replicated systems)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteCrash:
    """Fail one site at a tick, recover it at a later tick (0 = leave it
    down until the end-of-run recovery)."""

    site: int
    fail_tick: int
    recover_tick: int = 0

    def describe(self) -> str:
        if self.recover_tick:
            return "site%d@%d-%d" % (self.site, self.fail_tick, self.recover_tick)
        return "site%d@%d-end" % (self.site, self.fail_tick)


def describe_site_schedule(crashes: Sequence[SiteCrash]) -> str:
    return ",".join(c.describe() for c in crashes) or "no-crashes"


def build_replicated_torture_system(
    config: TortureConfig, obj_name: str = "X"
) -> Tuple[ReplicatedSystem, object]:
    """A one-logical-object replicated system for the config.

    Site crashes are driven by tick schedules rather than log-interaction
    fault plans, so the copies use plain stable logs under the config's
    group-commit policy; the durability-accounting invariant (which needs
    the fault archive) is covered by the single-site matrix.
    """
    system = build_replicated_system(
        config.adt_kind,
        [obj_name],
        sites=config.sites,
        recovery=config.recovery,
        group_commit=config.group_commit,
        hold=config.hold,
    )
    if config.bug == "skip-catchup":
        system._skip_catchup_bug = True
    return system, system.objects[obj_name].adt


def audit_replication(
    system: ReplicatedSystem,
    config: TortureConfig,
    schedule: str,
    *,
    unchecked: Optional[List[str]] = None,
) -> List[Violation]:
    """The replication-level invariants, checked at a quiescent moment
    (end of run, every site recovered):

    * **catch-up completeness** — no copy is still awaiting its replay;
    * **copy convergence** — every in-service copy of a logical object
      restored the same committed state;
    * **dynamic atomicity of the merged logical history** — the global,
      cross-site serialization claim.  A stale read served by a badly
      re-qualified copy (the ``skip-catchup`` negative control) surfaces
      here: the read's response is inconsistent with the committed
      writes in the logical history.

    See :func:`audit_atomicity` for ``unchecked``.
    """
    violations: List[Violation] = []
    label = config.label()
    stuck = sorted(system._pending_catchup)
    if stuck:
        violations.append(
            Violation(
                label,
                schedule,
                "catch-up-stuck",
                "copies never completed catch-up: %s" % stuck,
            )
        )
    for logical in system.logical_names():
        tips = {
            c: system.objects[c].committed_tip
            for c in system.copies_of(logical)
            if system.is_current(c)
        }
        if not tips:
            continue
        reference_copy = min(tips)
        reference = tips[reference_copy]
        for name in sorted(tips):
            if tips[name] != reference:
                violations.append(
                    Violation(
                        label,
                        schedule,
                        "copy-divergence",
                        "%s restored %r but %s has %r"
                        % (name, sorted(map(repr, tips[name])),
                           reference_copy, sorted(map(repr, reference))),
                    )
                )
    violations.extend(
        audit_atomicity(
            system.logical_history(),
            system.logical_specs(),
            label,
            schedule,
            "merged multi-site logical history is not dynamic atomic",
            unchecked,
        )
    )
    return violations


def run_site_schedule(
    config: TortureConfig,
    crashes: Sequence[SiteCrash],
    *,
    seed: int = 0,
    trace=None,
) -> ScheduleResult:
    """Drive one workload on a replicated system under a site-crash
    schedule, auditing the merged multi-site history at the end.

    Sites fail and recover at their scheduled ticks while the workload
    runs; the scheduler treats site-crash victims like any crash victims
    (restart as fresh incarnations).  After the run every still-down
    site is recovered, the replication invariants are audited, and a
    final whole-system crash re-runs the single-site recovery audit over
    every copy — restart state per copy plus global dynamic atomicity of
    the merged copy-level history.
    """
    system, adt = build_replicated_torture_system(config)
    scripts = workload_for(config, adt, random.Random(seed))
    schedule = describe_site_schedule(crashes)
    violations: List[Violation] = []
    unchecked: List[str] = []
    if trace is not None:
        trace.emit("schedule-start", label=config.label(), plan=schedule)

    def drive_sites(tick: int) -> bool:
        progressed = False
        for crash in crashes:
            if crash.fail_tick == tick and system.site_up(crash.site):
                victims = system.fail_site(crash.site)
                scheduler.handle_crash(victims, tick)
                progressed = True
            if (
                crash.recover_tick
                and crash.recover_tick == tick
                and not system.site_up(crash.site)
            ):
                system.recover_site(crash.site)
                progressed = True
        return progressed

    drive_sites.next_wake = schedule_wake(
        t for crash in crashes for t in (crash.fail_tick, crash.recover_tick)
    )

    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        max_restarts=config.max_restarts,
        max_ticks=config.max_ticks,
        label=config.label(),
        on_tick=drive_sites,
        trace=trace,
    )
    committed = 0
    try:
        scheduler.run()
        committed = scheduler.metrics.committed
        for site in range(config.sites):
            if not system.site_up(site):
                system.recover_site(site)
        system.poll_catchup()
        violations.extend(
            audit_replication(system, config, schedule, unchecked=unchecked)
        )
        # Final clean whole-system crash: every copy restarts from its
        # log and the single-site invariants must hold per copy.
        system.crash()
        violations.extend(
            audit_recovery(system, config, schedule, unchecked=unchecked)
        )
    except ReplicationError as exc:
        # Lockstep divergence (a mirrored or replayed operation was not
        # legal at its copy) is itself a reportable invariant breach —
        # the skip-catchup negative control trips this on state-coupled
        # ADTs before any read can even go stale.
        violations.append(
            Violation(
                config.label(), schedule, "replication-divergence", str(exc)
            )
        )
        committed = scheduler.metrics.committed
    return ScheduleResult(
        config=config.label(),
        schedule=schedule,
        violations=violations,
        crashes=sum(system.site_failures) + system.crash_count,
        committed=committed,
        faults_fired=len(crashes),
        unchecked=len(unchecked),
    )


def profile_site_horizon(config: TortureConfig, *, seed: int = 0) -> int:
    """Tick count of a crash-free run of the config's workload on the
    replicated system — the tick horizon site-crash schedules draw
    their fail/recover points from."""
    system, adt = build_replicated_torture_system(config)
    scripts = workload_for(config, adt, random.Random(seed))
    metrics = Scheduler(
        system,
        scripts,
        seed=seed,
        max_restarts=config.max_restarts,
        max_ticks=config.max_ticks,
    ).run()
    return max(2, metrics.ticks)


def plan_site_campaign(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
) -> List[Tuple[TortureConfig, Tuple[SiteCrash, ...], int]]:
    """Deterministic ``(config, site-crash schedule, run_seed)`` cells.

    Mirrors :func:`plan_campaign`'s shape: schedule *i* goes to
    ``configs[i % len(configs)]``; two out of three rounds advance a
    systematic sweep of a single site crash across the config's profiled
    tick horizon (alternating crash-only and crash-then-recover), and
    the third samples multi-site schedules — including windows where
    *every* site is down at once, the double-failure edge.  All RNG
    draws happen here, serially, from one master seed.
    """
    if not configs:
        raise ValueError("no torture configs")
    for config in configs:
        if config.sites < 2:
            raise ValueError(
                "site-crash campaigns need sites >= 2 (got %d for %s)"
                % (config.sites, config.label())
            )
    master = random.Random(seed)
    horizons = {c.label(): profile_site_horizon(c, seed=seed) for c in configs}
    sweep_pos: Dict[str, int] = {c.label(): 0 for c in configs}
    cells: List[Tuple[TortureConfig, Tuple[SiteCrash, ...], int]] = []
    for i in range(schedules):
        config = configs[i % len(configs)]
        label = config.label()
        horizon = horizons[label]
        round_number = i // len(configs)
        pos = sweep_pos[label]
        if round_number % 3 != 2 and pos < 2 * horizon:
            fail_tick = 1 + (pos // 2) % horizon
            site = master.randrange(config.sites)
            if pos % 2 == 0:
                crashes = (SiteCrash(site, fail_tick),)
            else:
                gap = 1 + master.randrange(horizon)
                crashes = (SiteCrash(site, fail_tick, fail_tick + gap),)
            sweep_pos[label] = pos + 1
        else:
            count = 1 + master.randrange(min(3, config.sites))
            picks = master.sample(range(config.sites), count)
            crashes = tuple(
                SiteCrash(
                    site,
                    1 + master.randrange(horizon),
                    (
                        0
                        if master.random() < 0.25
                        else 2 + master.randrange(2 * horizon)
                    ),
                )
                for site in sorted(picks)
            )
            crashes = tuple(
                c
                for c in crashes
                if not c.recover_tick or c.recover_tick > c.fail_tick
            )
        cells.append((config, crashes, master.randrange(2**31)))
    return cells


def run_site_torture(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
    trace=None,
) -> TortureReport:
    """Run ``schedules`` site-crash schedules round-robin over the
    configs (each with ``sites >= 2``).  Serial by construction — the
    campaign is small compared to the log-fault matrix, and the report
    is reproducible from ``(configs, schedules, seed)``."""
    cells = plan_site_campaign(configs, schedules=schedules, seed=seed)
    report = TortureReport(seed=seed)
    for config, crashes, run_seed in cells:
        result = run_site_schedule(config, crashes, seed=run_seed, trace=trace)
        _merge_schedule(report, result)
    return report
