"""Durable objects and crash-capable systems.

:class:`DurableObject` is a :class:`~repro.runtime.system.ManagedObject`
whose recovery manager is shadowed by a stable log
(:mod:`repro.runtime.wal`): operations, commits and aborts reach the log
under the discipline matching the recovery method, so the object can be
*crashed* (volatile state and lock tables lost, in-flight transactions
killed) and *restarted* from stable storage.

:class:`CrashableSystem` lifts crashing to a multi-object
:class:`~repro.runtime.system.TransactionSystem`: a crash of a failure
domain — every object, one shard or one site — aborts every active
transaction there (appending their abort events keeps the global
history well formed, so the core checkers can audit executions that
span crashes) and restarts the domain's objects, after which new
transactions see exactly the committed state.

The central invariant, tested across ADTs, crash points and logging
policies: *restart reproduces the abstract view of the post-crash
history* —

    restart() == states_after(View(H_post_crash, fresh_txn))

where ``H_post_crash`` is the pre-crash history with every in-flight
transaction aborted.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adts.base import ADT
from ..core.conflict import ConflictRelation
from ..core.events import Invocation, Operation
from .lock_manager import LockManager
from .recovery import DeferredUpdateManager, UpdateInPlaceManager
from .system import ManagedObject, TransactionSystem
from .wal import GroupCommitPolicy, RedoOnlyLog, StableLog, UndoRedoLog


class DurableObject(ManagedObject):
    """A managed object with a stable log, crash() and restart()."""

    def __init__(
        self,
        adt: ADT,
        conflict: ConflictRelation,
        recovery: str = "UIP",
        *,
        uip_strategy: str = "auto",
        restart_policy: str = "replay-winners",
        log_factory=None,
        compiled_conflicts="auto",
    ):
        super().__init__(
            adt,
            conflict,
            recovery,
            uip_strategy=uip_strategy,
            compiled_conflicts=compiled_conflicts,
        )
        self._compiled_conflicts = compiled_conflicts
        self._recovery_method = recovery.upper()
        log = log_factory() if log_factory is not None else None
        if self._recovery_method == "UIP":
            self.wal = UndoRedoLog(adt, restart_policy=restart_policy, log=log)
        else:
            self.wal = RedoOnlyLog(adt, log=log)
        self.crashes = 0
        #: per-transaction group-commit ticket of its latest durability
        #: request (prepare force, then commit-record force).
        self._force_tickets: Dict[str, int] = {}

    # -- logging hooks wrapped around the volatile path --------------------------

    def try_operation(self, txn, invocation, rng=None, *, extra_blockers=None):
        outcome = super().try_operation(
            txn, invocation, rng, extra_blockers=extra_blockers
        )
        if outcome.ok:
            # Write-ahead in spirit: the paper-level automaton applies
            # state and log in one atomic step; the log record is what
            # survives.
            self.wal.on_execute(txn, outcome.operation)
        return outcome

    def prepare(self, txn: str) -> bool:
        """2PC vote, made durable: a yes vote requests a flush of the
        transaction's log traffic (UIP operation records; DU intentions
        as a :class:`~repro.runtime.wal.PrepareRecord`) so the commit
        point can be completed at recovery no matter where a crash
        lands.  Under group commit the flush may be deferred into a
        shared batch; :meth:`prepare_ready` reports when the vote's
        durability has actually landed."""
        vote = super().prepare(txn)
        if vote:
            if isinstance(self.wal, RedoOnlyLog):
                ticket = self.wal.on_prepare(txn, self.recovery.intentions_of(txn))
            else:
                ticket = self.wal.on_prepare(txn)
            self._force_tickets[txn] = ticket
        return vote

    def prepare_ready(self, txn: str) -> bool:
        return self.wal.log.flushed(self._force_tickets.get(txn, 0))

    def submit_commit(self, txn: str) -> None:
        """Write the durable commit point; acknowledgment is deferred.

        The commit record (or intentions record) is appended and its
        flush requested, but no commit *event* exists yet: if the batch
        is torn off by a crash, the transaction simply never committed
        here, and the crash protocol resolves it from whatever record
        actually reached stable storage — recovery completes, never
        retracts.
        """
        if isinstance(self.wal, RedoOnlyLog):
            ticket = self.wal.on_commit(txn, self.recovery.intentions_of(txn))
        else:
            ticket = self.wal.on_commit(txn)
        self._force_tickets[txn] = ticket

    def commit_ready(self, txn: str) -> bool:
        return self.wal.log.flushed(self._force_tickets.get(txn, 0))

    def complete_commit(self, txn: str) -> None:
        """Acknowledge a commit whose record's batch has flushed: release
        locks, apply the volatile completion, record the commit event."""
        self._force_tickets.pop(txn, None)
        ManagedObject.commit(self, txn)

    def commit(self, txn: str) -> None:
        """Synchronous commit for direct object-level use: submit the
        durable commit point and, if its batch is still held, force the
        log so the acknowledgment-before-durability rule is preserved."""
        self.submit_commit(txn)
        if not self.commit_ready(txn):
            self.wal.log.force()
        self.complete_commit(txn)

    def tick(self) -> None:
        """Scheduler tick: drive the log's group-commit hold timer."""
        self.wal.log.tick()

    def next_deadline(self) -> Optional[int]:
        """Ticks until this object's held batch flushes (``None`` when
        the log holds no batch) — the log's hold timer is this object's
        only tick-driven deadline."""
        return self.wal.log.next_deadline()

    def advance_ticks(self, ticks: int) -> None:
        """Advance the log's hold timer ``ticks`` steps at once (valid
        only strictly short of :meth:`next_deadline`)."""
        self.wal.log.advance(ticks)

    def abort(self, txn: str) -> None:
        had_events = txn in {e.txn for e in self._events}
        super().abort(txn)
        if had_events:
            self.wal.on_abort(txn)

    # -- checkpointing --------------------------------------------------------------

    def committed_macro(self):
        """The committed state (what a checkpoint must capture)."""
        if isinstance(self.recovery, DeferredUpdateManager):
            return self.recovery.base_macro
        # UIP: only safe to read as committed when nothing is active.
        return self.recovery.current_macro

    def checkpoint(self) -> None:
        """Write a stable snapshot; requires a quiescent object under UIP."""
        if isinstance(self.wal, UndoRedoLog) and self.locks.holders():
            raise RuntimeError(
                "UIP checkpoint requires quiescence (active: %s)"
                % sorted(self.locks.holders())
            )
        self.wal.checkpoint(self.committed_macro())

    # -- crash / restart --------------------------------------------------------------

    def crash_kill(self, txn: str) -> None:
        """Record that ``txn`` died in a crash.

        Appends the abort *event* (the semantic outcome: the transaction
        takes effect nowhere) but writes **no** log record and performs
        no volatile undo — a real crash gives the system no chance to do
        either.  Restart must therefore treat the transaction as a
        loser purely from the absence of its commit record.
        """
        from ..core.events import abort as abort_event

        self._pending.pop(txn, None)
        # A crash can interrupt a volatile abort after its event was
        # recorded; don't abort twice.
        if not any(e.txn == txn and e.is_abort for e in self._events):
            self._events.append(abort_event(self.name, txn))

    def crash_commit(self, txn: str) -> None:
        """Complete a commit interrupted by a crash.

        Called at recovery when the transaction's commit point (a
        durable commit record at *some* object it touched) was reached
        before the crash: ensure this object also carries a durable
        commit record and the commit event, so restart replays the
        transaction as a winner everywhere.  The prepare phase forced
        this object's operation records / intentions, so the replay has
        everything it needs.
        """
        from ..core.events import commit as commit_event

        if not self.wal.has_durable_commit(txn):
            self.wal.recovery_commit(txn)
        has_commit_event = any(
            e.txn == txn and e.is_commit for e in self._events
        )
        if not has_commit_event:
            self._events.append(commit_event(self.name, txn))
        self._pending.pop(txn, None)
        # Fold the winner into the committed macro-state for the version
        # chain.  Idempotent across a crash that landed mid-completion:
        # if the volatile commit already ran here, the recovery manager
        # has dropped the transaction's executed record and this is a
        # no-op.
        self._advance_committed(txn)

    def crash_and_restart(self) -> None:
        """Lose all volatile state; rebuild from the stable log.

        The caller (normally :class:`CrashableSystem`) is responsible
        for appending abort events for in-flight transactions *before*
        invoking this, so the object history stays consistent.
        """
        self.crashes += 1
        restored = self.wal.restart()
        if self.trace is not None:
            self.trace.emit(
                "recovery", obj=self.name, records=len(self.wal.log)
            )
        self.locks = LockManager(self.conflict, compiled=self._compiled_conflicts)
        self._pending = {}
        self._force_tickets = {}  # group-commit tickets died with the process
        if self._recovery_method == "UIP":
            manager = UpdateInPlaceManager(
                self.adt,
                strategy=self.recovery.strategy,
            )
            manager.rebase(restored)
            self.recovery = manager
        else:
            manager = DeferredUpdateManager(self.adt)
            manager._base = restored
            self.recovery = manager


class CrashableSystem(TransactionSystem):
    """A transaction system whose objects crash by failure domain.

    A failure domain is any set of objects that crash together: every
    object (:meth:`crash`), one shard
    (:meth:`~repro.runtime.sharding.ShardedSystem.crash_shard`) or one
    site (:meth:`~repro.runtime.replication.ReplicatedSystem.fail_site`).
    Dynamic atomicity is local (Theorem 2), so one protocol,
    :meth:`_crash_domain`, serves them all.
    """

    #: the kind of failure domain (``"shard"``, ``"site"``) whose id
    #: stamps every object and log trace event; ``None`` leaves a flat
    #: system's events unstamped.
    domain_key: Optional[str] = None

    def __init__(self, objects: Sequence[DurableObject]):
        super().__init__(objects)
        self.crash_count = 0

    def domain_of(self, name: str) -> int:
        """The failure domain holding object ``name`` (0 when flat)."""
        return 0

    def _domain_objects(self, domain: int, count: int) -> List[str]:
        """The sorted object names of ``domain``, one of ``count``."""
        if not 0 <= domain < count:
            raise ValueError(
                "%s must be in 0..%d (got %d)" % (self.domain_key, count - 1, domain)
            )
        return sorted(n for n in self.objects if self.domain_of(n) == domain)

    def bind_trace(self, collector) -> None:
        """Bind a trace collector (see :meth:`TraceCollector.bind_system`,
        which stamps object and log events with :attr:`domain_key`)."""
        collector.bind_system(self)

    def _force_accounting_by_domain(self, count: int) -> List[Dict[str, int]]:
        """``(forces, force_requests, forced_records)`` per failure domain."""
        rows = [
            {self.domain_key: k, "forces": 0, "force_requests": 0, "forced_records": 0}
            for k in range(count)
        ]
        for name, obj in self.objects.items():
            log = obj.wal.log
            row = rows[self.domain_of(name)]
            row["forces"] += log.forces
            row["force_requests"] += log.force_requests
            row["forced_records"] += log.forced_records
        return rows

    def crash(self) -> Set[str]:
        """Whole-system crash: every object is the failure domain.

        Runs :meth:`_crash_domain` over every object, then every object
        loses its volatile state and restarts from its stable log.
        Returns the set of transactions killed by the crash (resolved
        commits are *not* victims — their scripts finished).
        """
        self.crash_count += 1
        names = tuple(self.objects)
        victims, _ = self._crash_domain(names, "crash")
        for name in names:
            self.objects[name].crash_and_restart()
        return victims

    def _crash_domain(
        self, names: Sequence[str], event: str, **fields
    ) -> Tuple[Set[str], List[str]]:
        """Crash the objects ``names``; the others keep running.

        The crash protocol, in order:

        1. mirror any object-local events the interrupted call never
           reported into the global history (the crash may have unwound
           ``invoke``/``commit`` mid-flight);
        2. commit pipelines that touched a failed object die with it;
           the failed objects' stable logs, in ``names`` order, lose
           their volatile tails — including any *held group-commit
           batch*, whose records were appended but never physically
           flushed (:class:`~repro.runtime.faults.FaultyStableLog`
           drops unforced records per the fault that fired);
        3. active read-only snapshot transactions die with their
           volatile registration: all of them when the domain is every
           object, else those that read from the domain.  Version
           chains only hold durably committed versions and are never
           retracted, so a reader confined to healthy objects keeps a
           valid snapshot;
        4. **in-doubt resolution** for every unfinished transaction
           that touched the domain: it is committed iff its commit
           point — a durable commit record at at least one object it
           touched — was reached.  Resolution completes, never
           retracts: failed objects complete the commit through the
           recovery path, healthy objects through the normal pipeline
           (:meth:`_complete_surviving_commit`).  Every other such
           transaction is killed everywhere: failed objects record only
           the abort event (no undo, no log records — a crash gives no
           chance for either), healthy objects abort cleanly.

        The protocol ends by emitting the trace ``event`` with
        ``fields``, ``victims`` and ``resolved``.  The caller restarts
        the failed objects (or, for a site failure, keeps them down).
        Returns ``(victims, resolved)``: the transactions killed, and
        the in-doubt commits completed, in order.
        """
        domain = set(names)
        self._sync_events()
        doomed = [
            txn
            for txn, pending in self._committing.items()
            if not domain.isdisjoint(pending.touched)
        ]
        for txn in doomed:
            del self._committing[txn]
        for name in names:
            self.objects[name].wal.log.crash()
        candidates = sorted(
            txn
            for txn, touched in self._touched.items()
            if txn not in self._finished and not domain.isdisjoint(touched)
        )
        whole = len(domain) == len(self.objects)
        readers = sorted(
            txn
            for txn in self._ro_active
            if whole or not domain.isdisjoint(self._ro_touched.get(txn, ()))
        )
        victims: Set[str] = set()
        for txn in readers:
            del self._ro_active[txn]
            self._finished[txn] = "aborted"
            victims.add(txn)
        resolved: List[str] = []
        for txn in candidates:
            touched = sorted(self._touched[txn])
            reached_commit_point = any(
                self.objects[name].wal.has_durable_commit(txn)
                for name in touched
            )
            if reached_commit_point:
                for name in touched:
                    if name in domain:
                        self.objects[name].crash_commit(txn)
                    else:
                        self._complete_surviving_commit(name, txn)
                self._finished[txn] = "committed"
                resolved.append(txn)
                # The commit is durable everywhere it touched: give it a
                # CSN and install its version, exactly as a normal
                # completion would have.
                self._install_versions(txn, touched)
            else:
                for name in touched:
                    if name in domain:
                        self.objects[name].crash_kill(txn)
                    else:
                        self.objects[name].abort(txn)
                self._finished[txn] = "aborted"
                victims.add(txn)
                self._drop_txn(txn)
        self._sync_events()
        if self.trace is not None:
            self.trace.emit(event, **fields, victims=sorted(victims), resolved=resolved)
        return victims, resolved

    def _complete_surviving_commit(self, name: str, txn: str) -> None:
        """Finish an in-doubt commit at a healthy (non-crashed) object.

        The object's volatile state is intact, so the commit completes
        through the normal pipeline rather than the recovery path: make
        the commit record durable (forcing the log if a held batch was
        still parking it), then acknowledge — release locks, apply the
        recovery manager's completion, record the commit event.
        """
        obj = self.objects[name]
        if not obj.wal.has_durable_commit(txn):
            # Either the commit record is sitting in a held batch, or it
            # was never submitted; a force after (re)submission covers
            # both, and duplicate commit records are harmless to replay.
            obj.submit_commit(txn)
            if not obj.commit_ready(txn):
                obj.wal.log.force()
        obj.complete_commit(txn)
        self._sync_events(name)

    def _drop_txn(self, txn: str) -> None:
        """Forget a killed transaction's bookkeeping beyond the base
        system's (none here; replication keeps a logical history)."""


def build_durable_object(
    adt: ADT,
    recovery: str = "DU",
    *,
    policy: Optional[GroupCommitPolicy] = None,
    log_factory=None,
    conflict: Optional[ConflictRelation] = None,
    **options,
) -> DurableObject:
    """A durable object under its recovery method's conflict relation.

    The relation is NRBC under UIP and NFC under DU (Theorems 9 and 10)
    unless ``conflict`` is given.  The object's stable log is built by
    ``log_factory``, or is a :class:`~repro.runtime.wal.StableLog` under
    the group-commit ``policy``.  ``options`` go to
    :class:`DurableObject`.
    """
    recovery = recovery.upper()
    if conflict is None:
        conflict = adt.nrbc_conflict() if recovery == "UIP" else adt.nfc_conflict()
    if log_factory is None:
        log_factory = partial(StableLog, policy=policy)
    return DurableObject(adt, conflict, recovery, log_factory=log_factory, **options)


def run_with_crashes(
    system: CrashableSystem,
    scripts,
    *,
    seed: int = 0,
    crash_every: int = 10,
    label: str = "",
    max_restarts: int = 50,
    max_ticks: int = 100_000,
):
    """Drive scripts through a scheduler, crashing the system periodically.

    A thin specialization of :class:`~repro.runtime.scheduler.Scheduler`:
    after every ``crash_every`` ticks the whole system crashes; script
    instances whose transaction died restart as fresh transactions, like
    deadlock victims.  Returns ``(metrics, crashes)``.
    """
    from .scheduler import Scheduler, periodic_wake

    crashes = 0

    def crash_on_schedule(tick: int) -> bool:
        nonlocal crashes
        if crash_every and tick % crash_every == 0:
            victims = system.crash()
            crashes += 1
            scheduler.handle_crash(victims, tick)
            return True
        return False

    crash_on_schedule.next_wake = periodic_wake(crash_every)

    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        label=label,
        max_restarts=max_restarts,
        max_ticks=max_ticks,
        on_tick=crash_on_schedule,
    )
    metrics = scheduler.run()
    return metrics, crashes
