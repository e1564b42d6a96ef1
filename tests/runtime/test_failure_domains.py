"""Golden histories and traces for every kind of crash.

A whole-system crash, a shard crash and a site failure are the same
event in the paper's model: every in-flight transaction at the failed
objects aborts, an in-doubt commit is completed iff its commit record
survives, and the failed objects rebuild their view from the stable
log.  These scenarios drive each kind of crash through the awkward
cases: a held group-commit batch, an in-doubt commit, active snapshot
readers, a cross-shard in-doubt commit, and a reader that observed a
failed site.  Each test pins a sha256 of what the scenario leaves
behind: every object history, the global history, the merged logical
history of a replicated system, the crash return values and the JSONL
trace.  Any change to the crash protocol that alters a single event
fails here.
"""

import hashlib
import json

import pytest

from repro.adts.registry import make_adt
from repro.cli import main
from repro.core.events import inv
from repro.runtime.durability import CrashableSystem, DurableObject
from repro.runtime.replication import ReplicatedSystem, copy_name
from repro.runtime.sharding import ShardedSystem, shard_of
from repro.runtime.trace import TraceCollector
from repro.runtime.wal import GroupCommitPolicy, StableLog

READ = inv("read")


def _inc(amount):
    return inv("increment", amount)


def _obj(name, batch=1, hold=0):
    """A DU counter on its own log; ``batch > 1`` holds force requests
    for up to ``hold`` ticks."""
    adt = make_adt("counter", name)
    policy = GroupCommitPolicy(batch, hold)
    return DurableObject(
        adt, adt.nfc_conflict(), "DU", log_factory=lambda: StableLog(policy=policy)
    )


def _tick(system, trace, clock):
    clock[0] += 1
    trace.begin_tick(clock[0])
    system.tick()


def _commit_point(system, trace, clock, txn, durable_at):
    """Poll ``txn``'s commit until its commit record is durable at
    ``durable_at``; it must still be unacknowledged (in doubt)."""
    while not system.objects[durable_at].wal.has_durable_commit(txn):
        assert system.commit(txn) is False
        _tick(system, trace, clock)
    assert system.commit(txn) is False


def _finish(system, trace, clock, txn):
    while not system.commit(txn):
        _tick(system, trace, clock)


def _digest(system, trace, *extra):
    h = hashlib.sha256()

    def feed(value):
        h.update(value.encode("utf-8"))
        h.update(b"\n")

    for name, obj in sorted(system.objects.items()):
        feed(name)
        for event in obj.history():
            feed(repr(event))
    feed("global")
    for event in system.history():
        feed(repr(event))
    if isinstance(system, ReplicatedSystem):
        feed("logical")
        for event in system.logical_history():
            feed(repr(event))
    feed("trace")
    for event in trace.events:
        feed(json.dumps(event, sort_keys=True))
    for value in extra:
        feed(repr(value))
    return h.hexdigest()


def _kinds(trace, kind):
    return [e for e in trace.events if e["kind"] == kind]


def test_whole_crash_with_held_batch_in_doubt_commit_and_readers():
    system = CrashableSystem([_obj("A"), _obj("B", 4, 20), _obj("C", 4, 20)])
    trace = TraceCollector()
    trace.bind_system(system)
    clock = [0]
    # T1 spans A (immediate flush) and B (held): once its prepare
    # flushes, its commit record is durable at A and held at B.
    assert system.invoke("T1", "A", _inc(1)).ok
    assert system.invoke("T1", "B", _inc(2)).ok
    _commit_point(system, trace, clock, "T1", "A")
    # T2's prepare sits in C's held batch: no commit point anywhere.
    assert system.invoke("T2", "C", _inc(3)).ok
    assert system.commit("T2") is False
    assert system.invoke("T3", "A", _inc(4)).ok
    assert system.snapshot_read("R1", "A", READ).ok
    assert system.snapshot_read("R2", "C", READ).ok
    victims = system.crash()
    assert victims == {"T2", "T3", "R1", "R2"}
    assert _kinds(trace, "crash")[0]["resolved"] == ["T1"]
    for name in ("A", "B", "C"):
        assert system.invoke("T4", name, READ).ok
        assert system.invoke("T4", name, _inc(5)).ok
    _finish(system, trace, clock, "T4")
    assert _digest(system, trace, sorted(victims)) == (
        "e59a8a110f1b464774a8517b616b5c70f92dab6e6dd305f3bad4e57ad1d270c6"
    )


def test_crash_shard_with_cross_shard_in_doubt_commits():
    # K00/K01 live on shard 0 and K04 on shard 1 (CRC-32 placement).
    assert [shard_of(n, 2) for n in ("K00", "K01", "K04")] == [0, 0, 1]
    system = ShardedSystem(
        [_obj("K00"), _obj("K01", 4, 20), _obj("K04", 4, 20)], shards=2
    )
    trace = TraceCollector()
    trace.bind_system(system)
    clock = [0]
    # Cross-shard T1: commit record durable on shard 0, held on shard 1.
    assert system.invoke("T1", "K00", _inc(1)).ok
    assert system.invoke("T1", "K04", _inc(2)).ok
    _commit_point(system, trace, clock, "T1", "K00")
    assert system.invoke("T2", "K04", _inc(3)).ok
    # T3 spans both shards with its prepare held: it dies everywhere,
    # by crash on shard 1 and by a clean abort on healthy shard 0.
    assert system.invoke("T3", "K01", _inc(4)).ok
    assert system.invoke("T3", "K04", _inc(5)).ok
    assert system.commit("T3") is False
    assert system.snapshot_read("R1", "K00", READ).ok
    assert system.snapshot_read("R2", "K04", READ).ok
    first = system.crash_shard(1)
    assert first == {"T2", "T3", "R2"}
    assert system.status("R1") == "active"
    system.finish_readonly("R1")
    # Cross-shard T4 in doubt again, now crash the shard holding the
    # durable record: healthy shard 1 must force its held batch.
    assert system.invoke("T4", "K00", _inc(6)).ok
    assert system.invoke("T4", "K04", _inc(7)).ok
    _commit_point(system, trace, clock, "T4", "K00")
    second = system.crash_shard(0)
    assert second == set()
    assert [e["resolved"] for e in _kinds(trace, "shard-crash")] == [
        ["T1"],
        ["T4"],
    ]
    for name in ("K00", "K01", "K04"):
        assert system.invoke("T5", name, READ).ok
    _finish(system, trace, clock, "T5")
    assert _digest(
        system, trace, sorted(first), system.force_accounting_by_shard()
    ) == "276f3d529176fb6a90d3cb9c0fbff710d406caae0991f86aec40710e280ca6e8"


def _replicated():
    """Counters X and Y on 3 sites: site 0 flushes at once, sites 1 and
    2 hold their batches."""
    return ReplicatedSystem(
        [
            [
                _obj(copy_name(logical, 0)),
                _obj(copy_name(logical, 1), 4, 20),
                _obj(copy_name(logical, 2), 4, 20),
            ]
            for logical in ("X", "Y")
        ],
        sites=3,
    )


def test_fail_and_recover_site_with_reader_on_failed_site():
    system = _replicated()
    trace = TraceCollector()
    system.bind_trace(trace)
    clock = [0]
    assert system.invoke("T1", "X", _inc(1)).ok
    _commit_point(system, trace, clock, "T1", "X")
    assert system.invoke("T2", "Y", _inc(2)).ok
    # Reads are served by site 0, the lowest read-qualified copy.
    assert system.snapshot_read("R1", "X", READ).ok
    victims = system.fail_site(0)
    assert victims == {"T2", "R1"}
    assert _kinds(trace, "site-failure")[0]["resolved"] == ["T1"]
    assert system.invoke("T3", "X", _inc(3)).ok
    assert system.invoke("T3", "X", READ).ok
    _finish(system, trace, clock, "T3")
    system.recover_site(0)
    assert system.invoke("T4", "X", _inc(4)).ok
    assert system.invoke("T4", "Y", _inc(5)).ok
    _finish(system, trace, clock, "T4")
    assert system.is_qualified("X")
    assert system.snapshot_read("R2", "X", READ).ok
    system.finish_readonly("R2")
    final = system.crash()
    assert _digest(
        system,
        trace,
        sorted(victims),
        sorted(final),
        system.force_accounting_by_site(),
    ) == "ec616d038e7a5efe9332cc5064c4b20d335e77e71e5701e4f487efd0a9d8d0da"


CLI_RUNS = {
    "one-site": (
        ["run", "bank", "--sites", "3", "--site-crash", "1@20-60"],
        "7c0e3bf8dc0dd0222fdd7abacc285bded7fad86f3f677a5f935b7752830cfb78",
    ),
    # Two overlapping failures under group commit: in-doubt commits
    # resolved at the first, victims at both, then re-qualification.
    "two-sites": (
        [
            "run", "bank", "--sites", "3", "--group-commit", "4",
            "--hold", "3", "--transactions", "12",
            "--site-crash", "1@8-20", "--site-crash", "0@14-30",
        ],
        "828ecf52eac0b6a19cd4c2721af0ec4e2226ac82b62526b126e654cf20d71753",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_RUNS))
def test_traced_cli_run_with_site_crash(case, tmp_path, capsys):
    argv, digest = CLI_RUNS[case]
    path = tmp_path / "site.jsonl"
    assert main(argv + ["--trace-out", str(path)]) == 0
    out = capsys.readouterr().out.replace(str(path), "TRACE")
    lines = path.read_text().splitlines()
    assert any('"kind": "site-failure"' in line for line in lines)
    h = hashlib.sha256()
    h.update(out.encode("utf-8"))
    h.update(path.read_bytes())
    assert h.hexdigest() == digest
