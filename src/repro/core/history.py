"""Histories: well-formed finite sequences of events.

A computation is modeled as a finite sequence of events (paper, Section 2).
Not every finite sequence makes sense; a *history* is a finite sequence of
events satisfying the well-formedness constraints:

1. Each transaction must wait for the response to its last invocation
   before invoking the next operation, and an object can generate a
   response for ``A`` only if ``A`` has a pending invocation (at that
   object).
2. Each transaction can commit or abort in ``H``, but not both.
3. A transaction cannot commit while it is waiting for the response to an
   invocation, and cannot invoke any operations after it commits.

:class:`History` is an immutable value object.  The module also implements
the derived notions the rest of the theory is phrased in:

* projections ``H|X`` and ``H|A`` (:meth:`History.project_objects`,
  :meth:`History.project_transactions`),
* ``Committed(H)``, ``Aborted(H)``, activity tests,
* ``Opseq(H)`` — the operation sequence of a history
  (:meth:`History.opseq`), and per transaction and object in one pass
  (:meth:`History.operations_of`, :meth:`History.object_operations`),
* ``permanent(H) = H | Committed(H)`` (:meth:`History.permanent`),
* the ``precedes(H)`` relation used by dynamic atomicity
  (:meth:`History.precedes`), and ``Commit-order(H)`` used by the
  deferred-update view (:meth:`History.commit_order`),
* ``Serial(H, T)`` and history equivalence (:func:`serial_history`,
  :func:`equivalent`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    OpSeq,
    Operation,
    ResponseEvent,
    commit,
    invoke,
    respond,
)


#: ``(txn -> Opseq(H|A), txn -> obj -> Opseq(H|A|X))``, cached per history.
_OpIndex = Tuple[Dict[str, OpSeq], Dict[str, Dict[str, OpSeq]]]
_NO_OPERATIONS: Mapping[str, OpSeq] = {}


class IllFormedHistoryError(ValueError):
    """Raised when an event sequence violates the well-formedness constraints."""

    def __init__(self, message: str, index: int, event: Event):
        super().__init__("event %d (%s): %s" % (index, event, message))
        self.index = index
        self.event = event


class _TxnState:
    """Mutable per-transaction bookkeeping used while validating a history."""

    __slots__ = ("pending", "committed_at", "aborted_at")

    def __init__(self) -> None:
        self.pending: Optional[InvocationEvent] = None
        self.committed_at: Set[str] = set()
        self.aborted_at: Set[str] = set()

    def copy(self) -> "_TxnState":
        twin = _TxnState()
        twin.pending = self.pending
        twin.committed_at = set(self.committed_at)
        twin.aborted_at = set(self.aborted_at)
        return twin


def _check_well_formed(events: Sequence[Event]) -> None:
    """Raise :class:`IllFormedHistoryError` unless ``events`` is a history."""
    txns: Dict[str, _TxnState] = {}
    for i, e in enumerate(events):
        st = txns.setdefault(e.txn, _TxnState())
        if st.committed_at and not isinstance(e, CommitEvent):
            raise IllFormedHistoryError(
                "transaction %s already committed" % e.txn, i, e
            )
        if st.aborted_at and not isinstance(e, AbortEvent):
            raise IllFormedHistoryError(
                "transaction %s already aborted" % e.txn, i, e
            )
        if isinstance(e, InvocationEvent):
            if st.pending is not None:
                raise IllFormedHistoryError(
                    "transaction %s already has a pending invocation (%s)"
                    % (e.txn, st.pending),
                    i,
                    e,
                )
            st.pending = e
        elif isinstance(e, ResponseEvent):
            if st.pending is None:
                raise IllFormedHistoryError(
                    "transaction %s has no pending invocation" % e.txn, i, e
                )
            if st.pending.obj != e.obj:
                raise IllFormedHistoryError(
                    "response at %s but pending invocation is at %s"
                    % (e.obj, st.pending.obj),
                    i,
                    e,
                )
            st.pending = None
        elif isinstance(e, CommitEvent):
            if st.pending is not None:
                raise IllFormedHistoryError(
                    "transaction %s cannot commit with a pending invocation"
                    % e.txn,
                    i,
                    e,
                )
            if st.aborted_at:
                raise IllFormedHistoryError(
                    "transaction %s already aborted" % e.txn, i, e
                )
            if e.obj in st.committed_at:
                raise IllFormedHistoryError(
                    "duplicate commit event for %s at %s" % (e.txn, e.obj), i, e
                )
            st.committed_at.add(e.obj)
        elif isinstance(e, AbortEvent):
            if st.committed_at:
                raise IllFormedHistoryError(
                    "transaction %s already committed" % e.txn, i, e
                )
            if e.obj in st.aborted_at:
                raise IllFormedHistoryError(
                    "duplicate abort event for %s at %s" % (e.txn, e.obj), i, e
                )
            st.aborted_at.add(e.obj)
            st.pending = None
        else:  # pragma: no cover - defensive
            raise IllFormedHistoryError("unknown event kind", i, e)


class History:
    """An immutable, well-formed finite sequence of events.

    Construction validates well-formedness by default; pass
    ``validate=False`` only for sequences already known to be well formed
    (e.g. projections of validated histories, which are well formed by
    construction).
    """

    __slots__ = ("_events", "_opseq_cache", "_op_index")

    def __init__(self, events: Iterable[Event] = (), *, validate: bool = True):
        self._events: Tuple[Event, ...] = tuple(events)
        if validate:
            _check_well_formed(self._events)
        self._opseq_cache: Optional[OpSeq] = None
        self._op_index: Optional[_OpIndex] = None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return History(self._events[index], validate=False)
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return "History(%d events)" % len(self._events)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self._events)

    @property
    def events(self) -> Tuple[Event, ...]:
        """The underlying event tuple."""
        return self._events

    # -- construction ------------------------------------------------------

    def append(self, event: Event, *, validate: bool = True) -> "History":
        """A new history with ``event`` appended."""
        return History(self._events + (event,), validate=validate)

    def extend(self, events: Iterable[Event], *, validate: bool = True) -> "History":
        """A new history with ``events`` appended."""
        return History(self._events + tuple(events), validate=validate)

    def __add__(self, other: "History") -> "History":
        """Concatenation ``H • K`` (validated)."""
        return History(self._events + other._events)

    # -- projections ---------------------------------------------------------

    def project_objects(self, objs) -> "History":
        """``H|X`` — the subsequence of events involving the object(s) ``objs``."""
        if isinstance(objs, str):
            objs = {objs}
        objs = set(objs)
        return History(
            (e for e in self._events if e.obj in objs), validate=False
        )

    def project_transactions(self, txns) -> "History":
        """``H|A`` — the subsequence of events involving the transaction(s) ``txns``."""
        if isinstance(txns, str):
            txns = {txns}
        txns = set(txns)
        return History(
            (e for e in self._events if e.txn in txns), validate=False
        )

    # -- transaction status --------------------------------------------------

    def transactions(self) -> FrozenSet[str]:
        """All transactions that have at least one event in the history."""
        return frozenset(e.txn for e in self._events)

    def objects(self) -> FrozenSet[str]:
        """All objects that have at least one event in the history."""
        return frozenset(e.obj for e in self._events)

    def committed(self) -> FrozenSet[str]:
        """``Committed(H)`` — transactions with a commit event in ``H``."""
        return frozenset(e.txn for e in self._events if e.is_commit)

    def aborted(self) -> FrozenSet[str]:
        """``Aborted(H)`` — transactions with an abort event in ``H``."""
        return frozenset(e.txn for e in self._events if e.is_abort)

    def active(self) -> FrozenSet[str]:
        """The transactions *appearing in H* that are neither committed nor aborted.

        The paper's ``Active(H)`` is ``ACT - Committed(H) - Aborted(H)``
        over the full (unbounded) transaction universe; transactions with
        no events are trivially active.  This method returns the active
        transactions that actually appear — use :meth:`is_active` to test
        an arbitrary transaction name.
        """
        return self.transactions() - self.committed() - self.aborted()

    def is_active(self, txn: str) -> bool:
        """True iff ``txn ∈ Active(H)`` (arbitrary transaction names allowed)."""
        return txn not in self.committed() and txn not in self.aborted()

    def pending_invocation(self, txn: str) -> Optional[InvocationEvent]:
        """The pending invocation event of ``txn``, or None."""
        pending: Optional[InvocationEvent] = None
        for e in self._events:
            if e.txn != txn:
                continue
            if e.is_invocation:
                pending = e
            elif e.is_response or e.is_abort:
                pending = None
        return pending

    # -- derived structures ----------------------------------------------------

    def opseq(self) -> OpSeq:
        """``Opseq(H)`` — the operation sequence of the history.

        Responses are paired with their pending invocations, and
        operations appear in the order of their response events;
        invocation, commit and abort events (and pending invocations) are
        ignored (Section 3.3).
        """
        if self._opseq_cache is None:
            pending: Dict[str, InvocationEvent] = {}
            ops: List[Operation] = []
            for e in self._events:
                if e.is_invocation:
                    pending[e.txn] = e
                elif e.is_response:
                    ie = pending.pop(e.txn)
                    ops.append(Operation(e.obj, ie.invocation, e.response))
            self._opseq_cache = tuple(ops)
        return self._opseq_cache

    def _operation_index(self) -> _OpIndex:
        """Every transaction's operations, overall and per object.

        One walk over the events, pairing responses with pending
        invocations exactly as :meth:`opseq` does; built on first use
        and cached (the history is immutable).
        """
        if self._op_index is None:
            pending: Dict[str, InvocationEvent] = {}
            by_txn: Dict[str, List[Operation]] = {}
            by_obj: Dict[str, Dict[str, List[Operation]]] = {}
            for e in self._events:
                if isinstance(e, InvocationEvent):
                    pending[e.txn] = e
                elif isinstance(e, ResponseEvent):
                    op = Operation(e.obj, pending.pop(e.txn).invocation, e.response)
                    by_txn.setdefault(e.txn, []).append(op)
                    by_obj.setdefault(e.txn, {}).setdefault(e.obj, []).append(op)
            self._op_index = (
                {txn: tuple(ops) for txn, ops in by_txn.items()},
                {
                    txn: {obj: tuple(ops) for obj, ops in objs.items()}
                    for txn, objs in by_obj.items()
                },
            )
        return self._op_index

    def operations_of(self, txn: str) -> OpSeq:
        """``Opseq(H|A)`` — the operations executed by ``txn``, in order."""
        return self._operation_index()[0].get(txn, ())

    def object_operations(self, txn: str) -> Mapping[str, OpSeq]:
        """``Opseq(H|A|X)`` for every object ``X`` where ``txn`` executed
        an operation.  The mapping is shared with the cache: read it, do
        not modify it."""
        return self._operation_index()[1].get(txn, _NO_OPERATIONS)

    def permanent(self) -> "History":
        """``permanent(H) = H | Committed(H)`` (Section 3.3)."""
        return self.project_transactions(self.committed())

    def failure_free(self) -> bool:
        """True iff no transaction aborts in the history."""
        return not any(e.is_abort for e in self._events)

    def is_serial(self) -> bool:
        """True iff events of different transactions are not interleaved."""
        seen_complete: Set[str] = set()
        current: Optional[str] = None
        for e in self._events:
            if e.txn != current:
                if e.txn in seen_complete:
                    return False
                if current is not None:
                    seen_complete.add(current)
                current = e.txn
        return True

    def precedes(self) -> FrozenSet[Tuple[str, str]]:
        """``precedes(H)``: pairs ``(A, B)`` with a response of ``B`` after a commit of ``A``.

        ``(A, B) ∈ precedes(H)`` iff there exists an operation invoked by
        ``B`` that responds after ``A`` commits in ``H`` (Section 3.4).
        The events need not occur at the same object.  Well-formedness
        guarantees the result is a partial order (irreflexive here, since
        a committed transaction receives no further responses).
        """
        committed_so_far: Set[str] = set()
        pairs: Set[Tuple[str, str]] = set()
        for e in self._events:
            if e.is_commit:
                committed_so_far.add(e.txn)
            elif e.is_response:
                for a in committed_so_far:
                    if a != e.txn:
                        pairs.add((a, e.txn))
        return frozenset(pairs)

    def commit_order(self) -> Tuple[str, ...]:
        """``Commit-order(H)``: committed transactions by first commit event (Section 5)."""
        seen: Set[str] = set()
        order: List[str] = []
        for e in self._events:
            if e.is_commit and e.txn not in seen:
                seen.add(e.txn)
                order.append(e.txn)
        return tuple(order)

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def of(*events: Event) -> "History":
        """``History.of(e1, e2, ...)`` — build and validate a history."""
        return History(events)


def equivalent(h: History, k: History) -> bool:
    """True iff every transaction performs the same steps in ``h`` as in ``k``.

    ``H`` and ``K`` are equivalent iff ``H|A = K|A`` for every transaction
    ``A`` (Section 3.3).
    """
    txns = h.transactions() | k.transactions()
    return all(
        h.project_transactions(a).events == k.project_transactions(a).events
        for a in txns
    )


def serial_history(h: History, order: Sequence[str]) -> History:
    """``Serial(H, T)`` — the serial history equivalent to ``h`` in the order ``order``.

    ``Serial(H, T) = H|A1 • ... • H|An`` where ``A1..An`` are the
    transactions of ``h`` in the order ``T``.  ``order`` must contain every
    transaction appearing in ``h`` (it may contain extra names, which are
    ignored).
    """
    present = h.transactions()
    missing = present - set(order)
    if missing:
        raise ValueError("order does not cover transactions: %s" % sorted(missing))
    events: List[Event] = []
    for a in order:
        if a in present:
            events.extend(h.project_transactions(a).events)
    return History(events, validate=False)


class HistoryBuilder:
    """A mutable accumulator of events with incremental well-formedness checks.

    The runtime and the object automaton grow histories one event at a
    time; rebuilding and re-validating an immutable :class:`History` per
    event would be quadratic.  The builder validates each appended event
    against per-transaction state in O(1) and can snapshot an immutable
    history at any point.
    """

    def __init__(self, events: Iterable[Event] = ()):
        self._events: List[Event] = []
        self._txns: Dict[str, _TxnState] = {}
        self._snapshot_cache: Optional[History] = None
        for e in events:
            self.append(e)

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: Event) -> None:
        """Append one event, raising :class:`IllFormedHistoryError` on violation."""
        # Validate by running the single-event step of the checker.
        probe = self._txns.get(event.txn)
        snapshot = None
        if probe is not None:
            snapshot = (probe.pending, set(probe.committed_at), set(probe.aborted_at))
        try:
            self._step(event)
        except IllFormedHistoryError:
            if probe is not None and snapshot is not None:
                probe.pending, probe.committed_at, probe.aborted_at = snapshot
            raise
        self._events.append(event)
        self._snapshot_cache = None

    def _step(self, e: Event) -> None:
        st = self._txns.setdefault(e.txn, _TxnState())
        i = len(self._events)
        if st.committed_at and not isinstance(e, CommitEvent):
            raise IllFormedHistoryError("transaction already committed", i, e)
        if st.aborted_at and not isinstance(e, AbortEvent):
            raise IllFormedHistoryError("transaction already aborted", i, e)
        if isinstance(e, InvocationEvent):
            if st.pending is not None:
                raise IllFormedHistoryError("pending invocation exists", i, e)
            st.pending = e
        elif isinstance(e, ResponseEvent):
            if st.pending is None:
                raise IllFormedHistoryError("no pending invocation", i, e)
            if st.pending.obj != e.obj:
                raise IllFormedHistoryError("response object mismatch", i, e)
            st.pending = None
        elif isinstance(e, CommitEvent):
            if st.pending is not None:
                raise IllFormedHistoryError("commit with pending invocation", i, e)
            if st.aborted_at:
                raise IllFormedHistoryError("transaction already aborted", i, e)
            if e.obj in st.committed_at:
                raise IllFormedHistoryError("duplicate commit", i, e)
            st.committed_at.add(e.obj)
        elif isinstance(e, AbortEvent):
            if st.committed_at:
                raise IllFormedHistoryError("transaction already committed", i, e)
            if e.obj in st.aborted_at:
                raise IllFormedHistoryError("duplicate abort", i, e)
            st.aborted_at.add(e.obj)
            st.pending = None
        else:  # pragma: no cover - defensive
            raise IllFormedHistoryError("unknown event kind", i, e)

    def copy(self) -> "HistoryBuilder":
        """An independent builder in the same state, without replaying.

        Rebuilding a builder from a snapshot re-validates every event —
        O(n) per copy.  ``copy`` duplicates the event list and the
        per-transaction validation state directly, so cloning an
        automaton mid-exploration is O(n) in list copying alone (no
        re-validation) and the per-event work stays O(1).
        """
        twin = HistoryBuilder.__new__(HistoryBuilder)
        twin._events = list(self._events)
        twin._txns = {txn: st.copy() for txn, st in self._txns.items()}
        twin._snapshot_cache = self._snapshot_cache
        return twin

    def can_append(self, event: Event) -> bool:
        """True iff appending ``event`` would preserve well-formedness."""
        try:
            self.append(event)
        except IllFormedHistoryError:
            return False
        self._events.pop()
        # Roll back transaction state by replaying (cheap path: recompute
        # the single transaction's state from scratch).
        self._recompute_txn(event.txn)
        return True

    def _recompute_txn(self, txn: str) -> None:
        st = _TxnState()
        for e in self._events:
            if e.txn != txn:
                continue
            if isinstance(e, InvocationEvent):
                st.pending = e
            elif isinstance(e, ResponseEvent):
                st.pending = None
            elif isinstance(e, CommitEvent):
                st.committed_at.add(e.obj)
            elif isinstance(e, AbortEvent):
                st.aborted_at.add(e.obj)
                st.pending = None
        self._txns[txn] = st

    def snapshot(self) -> History:
        """An immutable :class:`History` of the events appended so far.

        The snapshot is cached until the next append, so repeated reads
        of an unchanged builder (the automaton's ``history`` property in
        inspection-heavy code) cost O(1) instead of copying the event
        list each time.
        """
        if self._snapshot_cache is None:
            self._snapshot_cache = History(self._events, validate=False)
        return self._snapshot_cache

    def pending_invocation(self, txn: str) -> Optional[InvocationEvent]:
        st = self._txns.get(txn)
        return st.pending if st is not None else None

    def is_active(self, txn: str) -> bool:
        st = self._txns.get(txn)
        if st is None:
            return True
        return not st.committed_at and not st.aborted_at


def transaction_events(
    txn: str, obj: str, ops: Iterable[Operation], *, do_commit: bool = True
) -> List[Event]:
    """The event sequence of ``txn`` running ``ops`` serially at ``obj``.

    A convenience used by tests and the theorem constructions: each
    operation becomes an invocation event immediately followed by its
    response event, optionally followed by a commit event at ``obj``.
    """
    events: List[Event] = []
    for o in ops:
        events.append(invoke(o.invocation, obj, txn))
        events.append(respond(o.response, obj, txn))
    if do_commit:
        events.append(commit(obj, txn))
    return events
