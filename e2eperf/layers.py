"""Per-layer tracing from outside the program.

The traced run replaces each public function named in :data:`TARGETS`
with a wrapper that records a span (name, start, end, parent) and puts
the original back afterwards.  Spans stay in memory, in flat arrays,
until the run ends.  A layer's self time is its span's duration minus
the time its direct child spans cover.

Per-object ``DurableObject.tick`` and ``StableLog.tick`` are never
wrapped: a single replicated unit makes hundreds of thousands of those
calls, and their cost shows as ``system.tick`` self time.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.runtime import (
    durability,
    lock_manager,
    openloop,
    recovery,
    replication,
    scheduler,
    system,
    torture,
    trace,
    wal,
)

#: ``(metric name, owner, attribute)``: the owner is the class that
#: defines the method, or the module whose global the callers look up.
#: ``atomicity.is_dynamic_atomic`` is wrapped where ``torture`` binds it.
TARGETS: Tuple[Tuple[str, object, str], ...] = (
    ("scheduler.run", scheduler.Scheduler, "run"),
    ("system.invoke", system.TransactionSystem, "invoke"),
    ("system.try_operation", system.ManagedObject, "try_operation"),
    ("system.tick", system.TransactionSystem, "tick"),
    ("system.commit", system.TransactionSystem, "commit"),
    ("system.abort", system.TransactionSystem, "abort"),
    ("lock_manager.blockers", lock_manager.LockManager, "blockers"),
    ("lock_manager.conflicting_holds", lock_manager.LockManager, "conflicting_holds"),
    ("lock_manager.acquire", lock_manager.LockManager, "acquire"),
    ("lock_manager.release_all", lock_manager.LockManager, "release_all"),
    ("lock_manager.find_cycle", lock_manager.WaitsForGraph, "find_cycle"),
    ("recovery.enabled_responses", recovery.RecoveryManager, "enabled_responses"),
    ("trace.emit", trace.TraceCollector, "emit"),
    ("replication.invoke", replication.ReplicatedSystem, "invoke"),
    ("replication.fail_site", replication.ReplicatedSystem, "fail_site"),
    ("replication.recover_site", replication.ReplicatedSystem, "recover_site"),
    ("replication.poll_catchup", replication.ReplicatedSystem, "poll_catchup"),
    ("replication.snapshot_read", replication.ReplicatedSystem, "snapshot_read"),
    ("wal.append", wal.StableLog, "append"),
    ("wal.force", wal.StableLog, "force"),
    ("durability.crash", durability.CrashableSystem, "crash"),
    ("openloop.drive", openloop, "drive"),
    ("openloop.open_loop_scripts", openloop, "open_loop_scripts"),
    ("torture.plan_campaign", torture, "plan_campaign"),
    ("torture.run_schedule", torture, "run_schedule"),
    ("torture.audit_recovery", torture, "audit_recovery"),
    ("atomicity.is_dynamic_atomic", torture, "is_dynamic_atomic"),
)

#: the functions as the program defines them, captured at import.
ORIGINALS: Dict[str, object] = {name: vars(owner)[attr] for name, owner, attr in TARGETS}

#: the benchmark's own root spans: one per traced unit, one for set-up.
UNIT = "unit"
SETUP = "setup"


class Tracer:
    """Spans recorded in memory; ``errors`` counts exceptions that left
    a wrapped function, by ``(name, exception type)``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.errors: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Install every wrapper and record one root span of the
        benchmark's own (a unit or set-up) around the body; the wrappers
        are removed when the body ends, also when it raises."""
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        try:
            with installed(self):
                begin = time.perf_counter()
                try:
                    yield
                finally:
                    self.end[index] = time.perf_counter()
                    self.start[index] = begin
        finally:
            self._stack.pop()

    def aggregate(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """``{name: [calls, inclusive_s, self_s]}`` and the total time of
        the benchmark's root spans by root name.  Inclusive time counts a
        span only when no ancestor has the same name."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end, name_id = self.parent, self.start, self.end, self.name_id
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats: Dict[str, List[float]] = {}
        roots: Dict[str, float] = {}
        for i in range(n):
            nid = name_id[i]
            name = self.names[nid]
            dur = end[i] - start[i]
            if parent[i] < 0:
                roots[name] = roots.get(name, 0.0) + dur
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += dur - child[i]
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                row[1] += dur
        return stats, roots

    def dump(self, path) -> int:
        """Write every span as ``name start end parent`` lines (gzip)."""
        with gzip.open(path, "wt") as fp:
            for i in range(len(self.start)):
                fp.write(
                    "%s\t%.9f\t%.9f\t%d\n"
                    % (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
                )
        return len(self.start)


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Replace every target with ``tracer``'s wrapper for the body."""
    try:
        for name, owner, attr in TARGETS:
            setattr(owner, attr, tracer.wrap(name, ORIGINALS[name]))
        yield
    finally:
        for name, owner, attr in TARGETS:
            setattr(owner, attr, ORIGINALS[name])


def wrapped_targets() -> List[str]:
    """Targets that do not currently hold the program's own function."""
    return [
        name for name, owner, attr in TARGETS if vars(owner).get(attr) is not ORIGINALS[name]
    ]


def assert_unwrapped() -> None:
    """Raise unless every target holds the program's own function, so a
    timed run never measures a wrapper."""
    left = wrapped_targets()
    if left:
        raise RuntimeError("tracing wrappers still installed: %s" % ", ".join(left))
