"""The discrete-event transaction scheduler.

Drives a set of straight-line transaction scripts against a
:class:`~repro.runtime.system.TransactionSystem`:

* each *tick*, every live transaction attempts its next operation (in a
  seeded random order, so interleavings vary across seeds);
* a blocked attempt records waits-for edges; a waits-for cycle aborts a
  victim (the youngest transaction in the cycle), as does a transaction
  whose recovery view has become illegal (``stuck``);
* aborted scripts restart as *fresh* transactions (the model does not
  allow a transaction to continue after aborting), up to a restart
  budget;
* a script whose operations have all executed commits via the system's
  two-phase protocol;
* a script marked ``read_only`` bypasses all of the above: its steps are
  lock-free snapshot reads against the multiversion store, it can never
  block or deadlock, and its completion needs no two-phase commit.

The scheduler is the measurement instrument for the EXP-C* experiments:
it never inspects the conflict relation or recovery method itself, so
differences in the metrics are attributable to the
(``Conflict``, ``View``) configuration under test.

The main loop is event-driven: a *wake calendar* — fed by backoff
windows, open-loop arrivals, ``wait_for`` releases, the ``on_tick``
hook's declared schedule and the durability layer's group-commit
hold-timer deadlines — names the next tick at which anything can
happen, and the stretch of provably-dead ticks before it is jumped in
one step instead of walked.  The elision is semantically invisible:
histories, metrics, RNG draws and JSONL traces are byte-identical to
the walk-every-tick loop (``event_driven=False``, or the
``REPRO_POLLING_SCHEDULER=1`` environment escape hatch).
"""

from __future__ import annotations

import bisect
import os
import random
from dataclasses import dataclass
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.events import Invocation
from .errors import InvalidTransactionState
from .lock_manager import WaitsForGraph
from .metrics import RunMetrics
from .system import TransactionSystem

#: Environment escape hatch: ``REPRO_POLLING_SCHEDULER=1`` forces the
#: classic walk-every-tick loop even where the wake calendar could
#: elide dead ticks.  Histories, metrics and traces are identical
#: either way — this exists to cheaply rule the elision in or out when
#: debugging.
POLLING_ENV = "REPRO_POLLING_SCHEDULER"

#: Live-transaction / waits-for rows printed by the non-convergence
#: diagnostic before truncating.
_DIAG_LIMIT = 20


def periodic_wake(period: int) -> Callable[[int], Optional[int]]:
    """A ``next_wake`` function for a hook that acts when
    ``tick % period == 0`` (checkpoint and crash schedules).

    Attach it to an ``on_tick`` hook (``hook.next_wake = ...``) so the
    wake calendar knows the hook is a no-op between its periods.  The
    contract for any ``next_wake(tick)``: return a tick ``> tick`` at or
    before the hook's next possible action (or ``None`` for never) —
    being early is safe, being late would skip the action.
    """

    def next_wake(tick: int) -> Optional[int]:
        if not period:
            return None
        return ((tick // period) + 1) * period

    return next_wake


def schedule_wake(ticks: Iterable[int]) -> Callable[[int], Optional[int]]:
    """A ``next_wake`` function for a hook driven by a fixed list of
    scheduled ticks (site-crash fail/recover schedules).  Zero entries
    (the "never recover" sentinel) are ignored."""
    events = sorted({int(t) for t in ticks if t})

    def next_wake(tick: int) -> Optional[int]:
        i = bisect.bisect_right(events, tick)
        return events[i] if i < len(events) else None

    return next_wake


@dataclass(frozen=True)
class TransactionScript:
    """A straight-line transaction: a name and its (object, invocation) steps.

    ``read_only`` routes the script down the multiversion snapshot path:
    every step resolves against the committed version chains
    (:meth:`~repro.runtime.system.TransactionSystem.snapshot_read`)
    instead of the locking protocol, so the steps must be observer
    invocations (see :meth:`~repro.adts.base.ADT.readonly_invocations`).
    """

    name: str
    steps: Tuple[Tuple[str, Invocation], ...]
    read_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass
class _LiveTxn:
    """Scheduler-side state of one script instance."""

    script: TransactionScript
    txn: str  # current transaction name (changes across restarts)
    step: int = 0
    restarts: int = 0
    born_tick: int = 0
    backoff_until: int = 0  # restarted victims wait before re-entering
    stall_ticks: int = 0  # ticks this incarnation waited on a held commit batch
    #: transactions (incarnations) that must finish before re-entry —
    #: the surviving members of the deadlock cycle this entry died in.
    wait_for: FrozenSet[str] = frozenset()
    #: set exactly once, at the transition that finishes the script
    #: (commit success, read-only completion, restart-budget
    #: exhaustion, or crash-time in-doubt resolution): retired entries
    #: leave the scheduler's active list and are never scanned again.
    retired: bool = False

    @property
    def done(self) -> bool:
        return self.step >= len(self.script.steps)


class Scheduler:
    """Run transaction scripts to completion and collect metrics."""

    def __init__(
        self,
        system: TransactionSystem,
        scripts: Sequence[TransactionScript],
        *,
        seed: int = 0,
        max_restarts: int = 25,
        max_ticks: int = 100_000,
        label: str = "",
        on_tick=None,
        trace=None,
        arrivals: Optional[Mapping[str, int]] = None,
        event_driven="auto",
    ):
        names = [s.name for s in scripts]
        if len(set(names)) != len(names):
            raise ValueError("script names must be unique")
        if event_driven not in (True, False, "auto"):
            raise ValueError(
                "event_driven must be True, False or 'auto' (got %r)"
                % (event_driven,)
            )
        self.system = system
        #: ``"auto"`` elides provably-dead ticks whenever every tick
        #: source can report its next wake; ``True`` additionally raises
        #: if a source cannot; ``False`` keeps the walk-every-tick loop
        #: (histories, metrics and traces are identical either way).
        self.event_driven = event_driven
        self.scripts = tuple(scripts)
        self.rng = random.Random(seed)
        self.max_restarts = max_restarts
        self.max_ticks = max_ticks
        self.metrics = RunMetrics(label=label)
        #: optional hook called as ``on_tick(tick)`` after each pass; a
        #: truthy return counts as progress (crash injectors, periodic
        #: checkpoints and the like hang off this).
        self.on_tick = on_tick
        #: optional :class:`~repro.runtime.trace.TraceCollector`; when
        #: set, it is bound to the system's emit sites too (objects and
        #: stable logs), so one collector sees the whole run.
        self.trace = trace
        if trace is not None:
            trace.bind_system(system)
        self._live: List[_LiveTxn] = [
            _LiveTxn(script=s, txn=s.name) for s in scripts
        ]
        #: the not-yet-retired view of ``_live``, compacted lazily when
        #: a retirement dirties it — replaces the per-tick
        #: ``_is_retired`` re-filter (and its ``system.status`` calls).
        self._active: List[_LiveTxn] = list(self._live)
        self._dirty = False
        self._system_tick = getattr(system, "tick", None)
        self._system_next_deadline = getattr(system, "next_deadline", None)
        self._system_advance = getattr(system, "advance_ticks", None)
        #: open-loop arrivals (script name -> arrival tick): the script
        #: enters the system at its arrival tick rather than at tick 1,
        #: independent of how many earlier transactions have finished —
        #: the open-loop property the traffic driver
        #: (:mod:`repro.runtime.openloop`) relies on.  ``born_tick``
        #: starts at the arrival, so commit latency measures time *in*
        #: the system (queueing + contention + durability stalls).
        if arrivals:
            for entry in self._live:
                tick = int(arrivals.get(entry.script.name, 0))
                if tick < 0:
                    raise ValueError(
                        "arrival tick must be >= 0 (got %d for %s)"
                        % (tick, entry.script.name)
                    )
                entry.born_tick = tick
                entry.backoff_until = tick
        self._waits = WaitsForGraph()

    # -- main loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        """Run until every script commits or exhausts its restart budget."""
        # Each run counts its own ticks from 0, as the trace does: a run
        # resumed after a crash that already finished every script (crash
        # recovery completed the last open commit) ends at tick 0.
        self.metrics.ticks = 0
        if self.trace is not None:
            # Stamp run-start (and a possible instant run-end) with tick
            # 0: on torture re-entry the collector still carries the
            # crashed run's last tick, and the loop below restarts its
            # tick counter — exactly as ``metrics.ticks`` does.
            self.trace.begin_tick(0)
            self.trace.emit("run-start", label=self.metrics.label)
        capable = self._elision_ready()
        if self.event_driven is True and not capable:
            raise ValueError(
                "event_driven=True needs every tick source to expose its "
                "next wake: the on_tick hook must carry a next_wake(tick) "
                "attribute and the system must offer next_deadline()/"
                "advance_ticks() alongside tick()"
            )
        elide = (
            capable
            and self.event_driven is not False
            and os.environ.get(POLLING_ENV) != "1"
        )
        # A script can retire outside a scan transition (crash-time
        # in-doubt resolution commits a done entry); sweep before the
        # loop so re-entry after a crash starts from a clean view.
        for entry in self._active:
            if not entry.retired and self._is_retired(entry):
                self._retire(entry)
        self._compact()
        # ``next_live`` is the wake calendar's head: the earliest tick
        # at which anything — a backoff expiry, an arrival, the on_tick
        # hook, a hold-timer flush — can possibly happen.  Ticks before
        # it are provably dead: no event, no RNG draw, no progress.
        horizon = self.max_ticks + 1  # sentinel: no wake source ahead
        next_live = 0
        if capable and self._active:
            next_live = self._wake_plan(0, horizon)
        converged = False
        tick = 0
        while tick < self.max_ticks:
            tick += 1
            if not self._active:
                converged = True
                break
            self.metrics.ticks = tick
            if self.trace is not None:
                self.trace.begin_tick(tick)
            if capable and tick < next_live:
                # Dead tick.  The polling loop still walks it (one
                # ``system.tick()`` to advance hold timers); the
                # event-driven loop jumps the whole stretch with one
                # ``advance_ticks`` — the calendar guarantees no flush
                # deadline falls inside the skipped window.
                if elide:
                    target = min(next_live - 1, self.max_ticks)
                    if self._system_advance is not None:
                        self._system_advance(target - tick + 1)
                    tick = target
                    self.metrics.ticks = tick
                    if self.trace is not None:
                        self.trace.begin_tick(tick)
                elif self._system_tick is not None:
                    self._system_tick()
                continue
            live = self._active
            if self._any_runnable(tick, live):
                progressed = self._tick(tick, live)
            else:
                # Nothing runnable: skip the scan — and its RNG shuffle
                # — entirely.  Both modes take this branch on the same
                # ticks, so they draw the same RNG sequence: a shuffle
                # happens exactly on the ticks where the scan could act.
                progressed = False
            if self.on_tick is not None:
                progressed = bool(self.on_tick(tick)) or progressed
            # Drive durability hold-timers: a held group-commit batch
            # flushes deterministically once its hold window expires.
            if self._system_tick is not None:
                self._system_tick()
            if not progressed:
                self._break_deadlock(tick, live)
            self._compact()
            if capable and self._active:
                next_live = self._wake_plan(tick, horizon)
        if not converged:
            raise RuntimeError(self._nonconvergence_report())
        self._harvest_force_accounting()
        if self.trace is not None:
            self.trace.emit(
                "run-end",
                label=self.metrics.label,
                metrics=self.metrics.counters(),
            )
        return self.metrics

    def _elision_ready(self) -> bool:
        """Can every source of future work report its next wake tick?"""
        hook_ok = self.on_tick is None or callable(
            getattr(self.on_tick, "next_wake", None)
        )
        system_ok = self._system_tick is None or (
            callable(self._system_next_deadline)
            and callable(self._system_advance)
        )
        return hook_ok and system_ok

    def _any_runnable(self, tick: int, live: List[_LiveTxn]) -> bool:
        """Could any entry act at ``tick``?  Mirrors the skip checks at
        the top of :meth:`_tick`.  Filtering ``wait_for`` here is safe:
        statuses are final once set and incarnation names never reuse,
        so the scan's own filter would reach the same answer."""
        for entry in live:
            if entry.wait_for:
                entry.wait_for = frozenset(
                    t
                    for t in entry.wait_for
                    if self.system.status(t) == "active"
                )
                if entry.wait_for:
                    continue
            if entry.backoff_until > tick:
                continue
            return True
        return False

    def _next_wake(self, tick: int) -> Optional[int]:
        """The earliest tick after ``tick`` at which anything can happen.

        Sources: a backoff window expiring (an entry is runnable *at*
        ``backoff_until``, so that tick itself is the wake — open-loop
        arrivals are modeled as initial backoffs and need no separate
        entry), an entry already runnable or newly released from
        ``wait_for`` (wakes at ``tick + 1``), the ``on_tick`` hook's
        declared ``next_wake``, and the system's group-commit hold-timer
        deadline.  ``None`` means no source of future work exists at
        all.  Entries still waiting out winners contribute nothing:
        they wake via a status change, which needs a processed tick.
        """
        floor = tick + 1
        wake: Optional[int] = None
        for entry in self._active:
            if entry.wait_for:
                # Same idempotent filter as the scan: a waited-on
                # transaction may have finished during the tick that
                # just ran, releasing this entry for the next tick.
                entry.wait_for = frozenset(
                    t
                    for t in entry.wait_for
                    if self.system.status(t) == "active"
                )
                if entry.wait_for:
                    continue
            w = entry.backoff_until if entry.backoff_until > tick else floor
            if wake is None or w < wake:
                if w <= floor:
                    return floor
                wake = w
        if self.on_tick is not None:
            hook = self.on_tick.next_wake(tick)
            if hook is not None:
                w = max(int(hook), floor)
                if wake is None or w < wake:
                    if w <= floor:
                        return floor
                    wake = w
        if self._system_next_deadline is not None:
            deadline = self._system_next_deadline()
            if deadline is not None:
                w = tick + max(int(deadline), 1)
                if wake is None or w < wake:
                    wake = w
        return wake

    def _wake_plan(self, tick: int, horizon: int) -> int:
        """Consult the wake calendar after ``tick``'s work is done and
        account the dead stretch ahead of the next wake.

        The accounting (``dead_ticks_elided``/``calendar_wakeups`` and
        one ``calendar-wake`` trace event per stretch) runs in *both*
        scheduler modes whenever the calendar is available, so polling
        and event-driven runs stay byte-identical; only whether the
        stretch is walked or jumped differs.  A stretch that runs into
        the tick budget records a wake of 0 (nothing ever wakes).
        """
        wake = self._next_wake(tick)
        next_live = horizon if wake is None else min(wake, horizon)
        elided = min(next_live - 1, self.max_ticks) - tick
        if elided > 0:
            self.metrics.dead_ticks_elided += elided
            woke = next_live if next_live <= self.max_ticks else 0
            if woke:
                self.metrics.calendar_wakeups += 1
            if self.trace is not None:
                self.trace.emit("calendar-wake", wake=woke, elided=elided)
        return next_live

    def _retire(self, entry: _LiveTxn) -> None:
        entry.retired = True
        self._dirty = True

    def _compact(self) -> None:
        if self._dirty:
            self._active = [t for t in self._active if not t.retired]
            self._dirty = False

    def _nonconvergence_report(self) -> str:
        """Snapshot of the stuck state for the non-convergence error:
        enough to debug a hung run from a CI log alone."""
        lines = [
            "scheduler did not converge within %d ticks" % self.max_ticks
        ]
        live = [t for t in self._live if not t.retired]
        lines.append("live transactions (%d):" % len(live))
        for entry in live[:_DIAG_LIMIT]:
            parts = [
                "%s[%s]" % (entry.txn, self.system.status(entry.txn)),
                "step=%d/%d" % (entry.step, len(entry.script.steps)),
                "restarts=%d" % entry.restarts,
                "backoff_until=%d" % entry.backoff_until,
            ]
            if entry.script.read_only:
                parts.append("read_only")
            if entry.wait_for:
                parts.append("wait_for=%s" % ",".join(sorted(entry.wait_for)))
            lines.append("  " + " ".join(parts))
        if len(live) > _DIAG_LIMIT:
            lines.append("  ... and %d more" % (len(live) - _DIAG_LIMIT))
        edges = sorted(self._waits.edges())
        if edges:
            lines.append("waits-for edges (%d):" % len(edges))
            for waiter, holder in edges[:_DIAG_LIMIT]:
                lines.append("  %s -> %s" % (waiter, holder))
            if len(edges) > _DIAG_LIMIT:
                lines.append("  ... and %d more" % (len(edges) - _DIAG_LIMIT))
        return "\n".join(lines)

    def _harvest_force_accounting(self) -> None:
        """Copy the system's cumulative log-force totals into the metrics."""
        accounting = getattr(self.system, "force_accounting", None)
        if accounting is None:
            return
        forces, requests, records = accounting()
        self.metrics.forces = forces
        self.metrics.force_requests = requests
        self.metrics.forced_records = records

    def handle_crash(self, victims, tick: Optional[int] = None) -> None:
        """Reset script instances whose transaction died in a crash.

        The system has already performed its crash protocol (the victims
        are aborted there); this is the scheduler-side bookkeeping —
        dead incarnations restart as fresh transactions, like deadlock
        victims, and the waits-for graph (volatile lock state) is
        discarded.  Safe to call after :class:`Scheduler.run` was
        unwound by a :class:`~repro.runtime.faults.CrashPoint`: the next
        ``run()`` resumes the surviving scripts.
        """
        tick = tick if tick is not None else self.metrics.ticks
        for entry in self._live:
            if entry.txn in victims:
                if entry.script.read_only:
                    # A crash killed this reader's snapshot (its system
                    # died, or a shard it had read from did).  No locks
                    # or undo work existed; account it as a read-only
                    # abort, not an update-path crash abort.
                    self.metrics.ro_aborts += 1
                    if self.trace is not None:
                        self.trace.emit(
                            "ro-abort", txn=entry.txn, reason="crash"
                        )
                else:
                    self.metrics.aborted += 1
                    self.metrics.crash_aborts += 1
                    if self.trace is not None:
                        self.trace.emit(
                            "txn-abort", txn=entry.txn, reason="crash"
                        )
                entry.restarts += 1
                if entry.restarts <= self.max_restarts:
                    self.metrics.restarts += 1
                    entry.txn = "%s~r%d" % (entry.script.name, entry.restarts)
                    entry.step = 0
                    entry.born_tick = tick
                    entry.stall_ticks = 0
                    entry.wait_for = frozenset()
                    # The pre-crash backoff window is stale state: the
                    # crash already scrambled the interleaving that the
                    # backoff was avoiding, and volatile lock state is
                    # gone, so the restarted incarnation re-enters
                    # immediately instead of silently sitting out a
                    # window scheduled before the crash.
                    entry.backoff_until = 0
                    if self.trace is not None:
                        self.trace.emit(
                            "txn-restart",
                            txn=entry.txn,
                            incarnation=entry.restarts,
                            backoff_until=0,
                            reason="crash",
                        )
        # Crash-time retirements happen outside a scan transition: a
        # victim may have exhausted its restart budget just now, and
        # in-doubt resolution can have committed a done entry.  Sweep so
        # the active list stays in step with the system's statuses.
        for entry in self._active:
            if not entry.retired and self._is_retired(entry):
                self._retire(entry)
        self._compact()
        self._waits = WaitsForGraph()

    def _is_retired(self, live: _LiveTxn) -> bool:
        """Finished successfully, or out of restart budget."""
        if live.done and self.system.status(live.txn) == "committed":
            return True
        return live.restarts > self.max_restarts

    def _tick(self, tick: int, live: List[_LiveTxn]) -> bool:
        """One pass over the live transactions; True if anything progressed."""
        order = list(live)
        self.rng.shuffle(order)
        progressed = False
        for entry in order:
            if entry.wait_for:
                # Victim-waits-for-winners: re-enter only once every
                # surviving member of the deadlock cycle this entry died
                # in has finished (each is an incarnation the scheduler
                # drives to commit or abort).  Sitting out is not
                # progress: if nothing else moves, the stall-breaker
                # must still run so the waited-on transactions unblock.
                entry.wait_for = frozenset(
                    t
                    for t in entry.wait_for
                    if self.system.status(t) == "active"
                )
                if entry.wait_for:
                    continue
            if entry.backoff_until > tick:
                continue
            if entry.script.read_only:
                progressed = self._tick_readonly(entry, tick) or progressed
                continue
            if entry.done:
                if self.system.commit(entry.txn):
                    self.metrics.committed += 1
                    self._retire(entry)
                    self._waits.remove_transaction(entry.txn)
                    if self.trace is not None:
                        self.trace.emit(
                            "txn-commit",
                            txn=entry.txn,
                            script=entry.script.name,
                            born=entry.born_tick,
                            latency=tick - entry.born_tick,
                            stall_ticks=entry.stall_ticks,
                        )
                    progressed = True
                elif self.system.status(entry.txn) == "active":
                    # Group commit: the transaction's durable work sits
                    # in a held batch.  That is a durability stall, not
                    # a lock wait — the hold timer bounds it, so it
                    # counts as progress (no deadlock victim needed).
                    self.metrics.commit_stall_ticks += 1
                    entry.stall_ticks += 1
                    if self.trace is not None:
                        self.trace.emit("commit-stall", txn=entry.txn)
                    progressed = True
                continue
            obj_name, invocation = entry.script.steps[entry.step]
            outcome = self.system.invoke(entry.txn, obj_name, invocation, self.rng)
            if outcome.ok:
                entry.step += 1
                self.metrics.operations += 1
                self._waits.clear_waiter(entry.txn)
                if self.trace is not None:
                    self.trace.emit(
                        "op-ok",
                        txn=entry.txn,
                        obj=obj_name,
                        op=str(invocation),
                    )
                progressed = True
            elif outcome.status == "blocked":
                self.metrics.blocked_attempts += 1
                self._waits.wait(entry.txn, outcome.blockers)
                if self.trace is not None:
                    self.trace.emit(
                        "op-blocked",
                        txn=entry.txn,
                        obj=obj_name,
                        op=str(invocation),
                        blockers=sorted(outcome.blockers),
                    )
            else:  # stuck: the recovery view is illegal; abort immediately
                self.metrics.stuck_aborts += 1
                if self.trace is not None:
                    self.trace.emit(
                        "op-stuck",
                        txn=entry.txn,
                        obj=obj_name,
                        op=str(invocation),
                    )
                self._abort_and_restart(entry, tick, reason="stuck")
                progressed = True
        return progressed

    def _tick_readonly(self, entry: _LiveTxn, tick: int) -> bool:
        """One step of a read-only snapshot transaction.

        Snapshot reads never block and take no locks, so a runnable
        read-only entry always progresses: a read resolves against its
        snapshot, completion commits instantly (nothing to prepare or
        force), and a poisoned snapshot (negative-control relations
        only) aborts and restarts on the spot.
        """
        if entry.done:
            self.system.finish_readonly(entry.txn)
            self.metrics.ro_committed += 1
            self._retire(entry)
            self._waits.remove_transaction(entry.txn)
            if self.trace is not None:
                self.trace.emit(
                    "ro-commit",
                    txn=entry.txn,
                    script=entry.script.name,
                    born=entry.born_tick,
                    latency=tick - entry.born_tick,
                )
            return True
        obj_name, invocation = entry.script.steps[entry.step]
        outcome = self.system.snapshot_read(entry.txn, obj_name, invocation)
        if outcome.ok:
            entry.step += 1
            self.metrics.ro_snapshot_reads += 1
            return True
        self._abort_and_restart(entry, tick, reason="stuck")
        return True

    def _break_deadlock(self, tick: int, live: List[_LiveTxn]) -> None:
        """No transaction progressed: abort a waits-for cycle victim."""
        cycle = self._waits.find_cycle()
        survivors: FrozenSet[str] = frozenset()
        if cycle is not None:
            self.metrics.deadlocks += 1
            victim_txn = self._pick_victim(cycle, live)
            survivors = frozenset(cycle) - {victim_txn}
            if self.trace is not None:
                self.trace.emit(
                    "deadlock", victim=victim_txn, cycle=sorted(cycle)
                )
        else:
            # No cycle.  If some transactions are genuinely runnable
            # (not napping, not waiting) but blocked, abort one with the
            # same aging policy; if everyone is merely napping or
            # waiting out winners, do nothing — backoffs expire with the
            # tick counter and waits resolve when their targets finish.
            blocked = [
                t
                for t in live
                if not t.done
                and not t.wait_for
                and not t.script.read_only  # snapshot readers never block
                and t.backoff_until <= tick
            ]
            if not blocked:
                return
            victim_txn = self._victim_key_min(blocked).txn
        for entry in live:
            if entry.txn == victim_txn:
                self._abort_and_restart(
                    entry, tick, reason="deadlock", wait_for=survivors
                )
                return

    def _pick_victim(self, cycle: Sequence[str], live: List[_LiveTxn]) -> str:
        """The cycle member with the fewest prior restarts.

        Restart count is the seniority measure (wait-die-style aging): a
        transaction that has already been sacrificed gains immunity, so
        no script can starve under repeated deadlocks.  Ties break
        toward the youngest incarnation with the least sunk work.
        """
        by_txn = {t.txn: t for t in live}
        members = [by_txn[t] for t in cycle if t in by_txn]
        if not members:
            return cycle[0]
        return self._victim_key_min(members).txn

    @staticmethod
    def _victim_key_min(members: List[_LiveTxn]) -> _LiveTxn:
        return min(
            members,
            key=lambda t: (t.restarts, -t.born_tick, t.step, t.script.name),
        )

    def _abort_and_restart(
        self,
        entry: _LiveTxn,
        tick: int,
        reason: str,
        wait_for: FrozenSet[str] = frozenset(),
    ) -> None:
        try:
            self.system.abort(entry.txn)
        except InvalidTransactionState:
            pass  # never touched any object: nothing to abort
        if entry.script.read_only:
            # Read-only deaths are accounted separately: they hold no
            # locks, appear in no object history, and never roll back
            # updates, so folding them into ``aborted`` would distort
            # the update-path contention metrics.
            self.metrics.ro_aborts += 1
            if self.trace is not None:
                self.trace.emit("ro-abort", txn=entry.txn, reason=reason)
        else:
            self.metrics.aborted += 1
            if self.trace is not None:
                self.trace.emit("txn-abort", txn=entry.txn, reason=reason)
        self._waits.remove_transaction(entry.txn)
        entry.restarts += 1
        if entry.restarts <= self.max_restarts:
            self.metrics.restarts += 1
            entry.txn = "%s~r%d" % (entry.script.name, entry.restarts)
            entry.step = 0
            entry.born_tick = tick
            entry.stall_ticks = 0
            entry.wait_for = wait_for
            # Randomized exponential backoff breaks repeat-collision
            # livelock: the window grows with the restart count until a
            # conflicting peer can finish a whole transaction inside it.
            horizon = max(2, len(entry.script.steps)) * min(
                1 + entry.restarts, 32
            )
            entry.backoff_until = tick + self.rng.randint(1, horizon)
            if self.trace is not None:
                self.trace.emit(
                    "txn-restart",
                    txn=entry.txn,
                    incarnation=entry.restarts,
                    backoff_until=entry.backoff_until,
                    reason=reason,
                )
        else:
            self._retire(entry)  # restart budget exhausted


def run_scripts(
    system: TransactionSystem,
    scripts: Sequence[TransactionScript],
    *,
    seed: int = 0,
    label: str = "",
    max_restarts: int = 25,
    max_ticks: int = 100_000,
) -> RunMetrics:
    """Convenience: build a scheduler, run it, return the metrics."""
    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        label=label,
        max_restarts=max_restarts,
        max_ticks=max_ticks,
    )
    return scheduler.run()
