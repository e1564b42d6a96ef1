"""Sharding the simulated system by object.

The paper's argument is about how recovery constrains *concurrency*, and
until now the runtime could only demonstrate that constraint inside one
lock-manager/log/scheduler domain.  This module hash-partitions the
managed objects of a :class:`~repro.runtime.durability.CrashableSystem`
into **shards**: each shard owns a disjoint subset of the objects, and
with them its own lock state (every object's
:class:`~repro.runtime.lock_manager.LockManager`, sharing the PR 6
compiled bitmask tables), its own stable logs with group commit, and its
own recovery path.  Nothing global remains on the data path — which is
exactly what lets the open-loop driver (:mod:`repro.runtime.openloop`)
fan single-shard traffic over one worker process per shard and measure
a real multi-core win, leaving the NFC/NRBC conflict tables (not the
plumbing) as the scaling bottleneck.

Design notes:

* **Routing** is a pure function: :func:`shard_of` maps an object name
  to a shard by CRC-32, so every process — driver, worker, auditor —
  computes the same placement with no shared map to synchronize.
* **Cross-shard transactions** need no new commit protocol: the
  durable-prepare / commit-record two-phase pipeline from PRs 1-2
  already runs *per object*, and objects in different shards simply
  vote and force on their own shard's logs.  The commit point is a
  durable commit record at any touched object, same as before.
* **Partial failure** is the new capability: :meth:`ShardedSystem.crash_shard`
  crashes one shard while the others keep running.  It is the
  whole-system crash protocol
  (:meth:`~repro.runtime.durability.CrashableSystem._crash_domain`)
  with the shard as the failure domain: in-doubt transactions touching
  the dead shard are completed at every shard (healthy ones finish the
  commit normally, the crashed one completes at recovery), or killed
  everywhere (healthy shards perform a clean volatile abort, the
  crashed shard simply loses them).
* **Audit** stays the torture harness's: :func:`audit_shard` runs the
  three recovery invariants over one shard's objects, and the global
  history (all shards, true execution order) is still checked for
  dynamic atomicity — crashes at shard granularity must not be able to
  hide a global anomaly.

Trace events emitted by a sharded system's objects and logs are
stamped with the owning ``shard`` id (the system's ``domain_key``), so
``repro trace-report`` and the EXP-C15 artifacts can attribute traffic
and recovery work per shard.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Set

from .durability import CrashableSystem, DurableObject, build_durable_object


def shard_of(name: str, shards: int) -> int:
    """The shard owning object ``name`` under CRC-32 hash partitioning.

    Stable across processes and Python versions (unlike ``hash``, which
    is salted per process), so driver, workers and auditors agree on
    placement without coordination.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1 (got %d)" % shards)
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardedSystem(CrashableSystem):
    """A crashable system whose objects are hash-partitioned into shards.

    Execution semantics are *identical* to the flat
    :class:`CrashableSystem` over the same objects — routing adds
    metadata, not behavior — which is what makes the sharded-vs-flat
    differential audits in EXP-C15 byte-identical.  What sharding adds:

    * :meth:`crash_shard` — partial failure with per-shard recovery;
    * per-shard force accounting and trace stamping;
    * the placement function the open-loop driver uses to partition
      single-shard traffic across worker processes.
    """

    domain_key = "shard"

    def __init__(self, objects: Sequence[DurableObject], *, shards: int = 1):
        super().__init__(objects)
        if shards < 1:
            raise ValueError("shards must be >= 1 (got %d)" % shards)
        self.shards = shards
        self._placement: Dict[str, int] = {
            name: shard_of(name, shards) for name in self.objects
        }
        #: per-shard crash counter (``crash_count`` still counts
        #: whole-system crashes, which touch every shard at once).
        self.shard_crashes: List[int] = [0] * shards

    # -- placement ---------------------------------------------------------------

    def shard_of_object(self, name: str) -> int:
        return self._placement[name]

    domain_of = shard_of_object

    def shard_objects(self, shard: int) -> List[str]:
        """The object names owned by ``shard``, sorted."""
        return sorted(n for n, s in self._placement.items() if s == shard)

    # -- per-shard accounting ------------------------------------------------------

    def force_accounting_by_shard(self) -> List[Dict[str, int]]:
        """``(forces, force_requests, forced_records)`` per shard."""
        return self._force_accounting_by_domain(self.shards)

    # -- partial failure -----------------------------------------------------------

    def crash_shard(self, shard: int) -> Set[str]:
        """Crash one shard; the others keep their volatile state.

        Runs the crash protocol
        (:meth:`~repro.runtime.durability.CrashableSystem._crash_domain`)
        over the shard's objects, then restarts them from their stable
        logs.  In-doubt commits touching the shard complete everywhere
        (healthy objects force held commit records durable) or die
        everywhere; snapshot readers die only if they read from the
        shard.  Transactions that never touched the shard keep their
        locks, intentions and commit pipelines.  Returns the
        transactions killed by the crash.
        """
        names = self._domain_objects(shard, self.shards)
        self.shard_crashes[shard] += 1
        victims, _ = self._crash_domain(names, "shard-crash", shard=shard)
        for name in names:
            self.objects[name].crash_and_restart()
        return victims


def build_sharded_system(
    adt_kind: str,
    object_names: Sequence[str],
    *,
    shards: int = 1,
    recovery: str = "DU",
    group_commit: int = 1,
    hold: int = 4,
    log_factory=None,
    compiled_conflicts="auto",
) -> ShardedSystem:
    """A sharded system of ``adt_kind`` objects, one per name.

    Every object gets its own stable log (built by ``log_factory``, or a
    fresh :class:`~repro.runtime.wal.StableLog` under the group-commit
    policy); objects of the same kind share one compiled conflict table
    through the registry, so adding objects does not re-run the table
    compiler per instance.
    """
    from ..adts.registry import make_adt
    from .wal import GroupCommitPolicy

    policy = GroupCommitPolicy(group_commit, hold)
    objects = [
        build_durable_object(
            make_adt(adt_kind, name),
            recovery,
            policy=policy,
            log_factory=log_factory,
            compiled_conflicts=compiled_conflicts,
        )
        for name in object_names
    ]
    return ShardedSystem(objects, shards=shards)


def audit_shard(
    system: ShardedSystem,
    shard: int,
    *,
    label: str = "",
    schedule: str = "",
    check_atomicity: bool = True,
):
    """Run the torture harness's recovery audit over one shard's objects.

    Returns the harness's :class:`~repro.runtime.torture.Violation`
    list: restart-state equivalence for each of the shard's objects plus
    the durability accounting, and — because shard-level crashes must
    not hide global anomalies — dynamic atomicity of the *global*
    history.  When auditing every shard of one system in turn, pass
    ``check_atomicity=False`` for all but one call: the global check is
    identical each time and dominates the cost.
    """
    # Lazy: torture imports the runtime stack; this module is below it.
    from .torture import audit_recovery

    return audit_recovery(
        system,
        label or "shard%d" % shard,
        schedule,
        names=system.shard_objects(shard),
        check_atomicity=check_atomicity,
    )
