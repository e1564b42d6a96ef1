"""Faster serializability and dynamic-atomicity checking.

The reference checkers in :mod:`repro.core.atomicity` enumerate linear
extensions of ``precedes`` and re-simulate every serialization from
scratch — transparent, but factorial in the number of transactions.
This module provides algorithmically improved versions that remain
*sound and complete* with respect to the reference definitions (the
property suite cross-validates them on random histories and random
specifications):

* **Prefix pruning** — serial specifications are prefix-closed, so once
  a serialization prefix is illegal at some object, *every* completion
  is illegal.  The search walks the tree of precedes-respecting
  prefixes, carrying per-object macro-states, and cuts a whole subtree
  on the first dead prefix (for the ∀-check this is an immediate
  counterexample; for the ∃-check it prunes).
* **Configuration memoization** — two prefixes over the same *set* of
  transactions that reach identical per-object macro-states have
  identical futures; each such configuration is explored once.
  Commuting transactions collapse exponentially many orders into one
  configuration, which is precisely the common case for histories
  produced by commutativity-based schedulers.

API mirrors the reference module: :func:`fast_find_serialization_order`,
:func:`fast_is_serializable`, :func:`fast_is_atomic`,
:func:`fast_find_dynamic_atomicity_violation`,
:func:`fast_is_dynamic_atomic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .atomicity import (
    DynamicAtomicityViolation,
    SpecsLike,
    TooManyOrdersError,
    normalize_specs,
)
from .automaton_spec import StateMachineSpec
from .events import OpSeq
from .history import History
from .serial_spec import SerialSpec


class _ObjectSimulator:
    """Per-object incremental legality: macro-states where possible."""

    def __init__(self, spec: SerialSpec):
        self.spec = spec
        self._is_macro = isinstance(spec, StateMachineSpec)

    def initial(self):
        if self._is_macro:
            return self.spec.initial_macro_state()
        return ()  # fall back to carrying the whole prefix

    def extend(self, state, ops: OpSeq):
        """Advance by a transaction's operations; None when illegal."""
        if self._is_macro:
            macro = self.spec.run_macro(state, ops)
            return macro if macro else None
        prefix = state + tuple(ops)
        if not self.spec.is_legal(prefix):
            return None
        return prefix


@dataclass
class _Problem:
    txns: Tuple[str, ...]
    succ: Dict[str, Tuple[str, ...]]
    indegree: Dict[str, int]
    ops_by_txn: Dict[str, Mapping[str, OpSeq]]  # txn -> obj -> ops
    simulators: Dict[str, _ObjectSimulator]


def _build_problem(
    history: History,
    specs: SpecsLike,
    txns: FrozenSet[str],
    precedes: AbstractSet[Tuple[str, str]],
) -> _Problem:
    """The search problem over ``txns`` (``precedes`` pairs outside them
    are ignored), whose operations are read from the history's one-pass
    operation index."""
    spec_map = normalize_specs(specs)
    order = tuple(sorted(txns))
    succ: Dict[str, List[str]] = {t: [] for t in order}
    indegree: Dict[str, int] = {t: 0 for t in order}
    for a, b in precedes:
        if a in txns and b in txns and a != b:
            if b not in succ[a]:
                succ[a].append(b)
                indegree[b] += 1
    ops_by_txn = {txn: history.object_operations(txn) for txn in order}
    objects = sorted({o for per in ops_by_txn.values() for o in per})
    simulators = {}
    for obj in objects:
        spec = spec_map.get(obj)
        if spec is None:
            raise KeyError("no serial specification for object %r" % obj)
        simulators[obj] = _ObjectSimulator(spec)
    return _Problem(
        order,
        {t: tuple(s) for t, s in succ.items()},
        indegree,
        ops_by_txn,
        simulators,
    )


def _initial_states(problem: _Problem) -> Dict[str, object]:
    return {obj: sim.initial() for obj, sim in problem.simulators.items()}


def _apply_txn(
    problem: _Problem, states: Dict[str, object], txn: str
) -> Optional[Dict[str, object]]:
    """States after serializing ``txn`` next, or None if illegal."""
    new_states = dict(states)
    for obj, ops in problem.ops_by_txn[txn].items():
        nxt = problem.simulators[obj].extend(states[obj], ops)
        if nxt is None:
            return None
        new_states[obj] = nxt
    return new_states


def _config_key(done: FrozenSet[str], states: Dict[str, object]):
    return (done, tuple(sorted(states.items())))


def fast_find_serialization_order(
    history: History, specs: SpecsLike
) -> Optional[Tuple[str, ...]]:
    """Some legal serialization order of a failure-free history, or None."""
    if not history.failure_free():
        raise ValueError("serializability is defined for failure-free histories")
    problem = _build_problem(history, specs, history.transactions(), set())
    visited: Set = set()

    def dfs(done: FrozenSet[str], states, prefix: List[str]):
        if len(done) == len(problem.txns):
            return tuple(prefix)
        key = _config_key(done, states)
        if key in visited:
            return None
        visited.add(key)
        for txn in problem.txns:
            if txn in done:
                continue
            nxt = _apply_txn(problem, states, txn)
            if nxt is None:
                continue
            prefix.append(txn)
            found = dfs(done | {txn}, nxt, prefix)
            if found is not None:
                return found
            prefix.pop()
        return None

    return dfs(frozenset(), _initial_states(problem), [])


def fast_is_serializable(history: History, specs: SpecsLike) -> bool:
    return fast_find_serialization_order(history, specs) is not None


def fast_is_atomic(history: History, specs: SpecsLike) -> bool:
    return fast_is_serializable(history.permanent(), specs)


def fast_find_dynamic_atomicity_violation(
    history: History, specs: SpecsLike, *, max_configs: int = 100_000
) -> Optional[DynamicAtomicityViolation]:
    """A precedes-consistent order failing to serialize, or None.

    Equivalent to the reference
    :func:`repro.core.atomicity.find_dynamic_atomicity_violation` but
    with prefix pruning and configuration memoization.  When a prefix
    dies, any precedes-consistent completion witnesses the violation
    (prefix-closure), so one is manufactured greedily.  Exploring more
    than ``max_configs`` configurations raises
    :class:`~repro.core.atomicity.TooManyOrdersError`, the budget that
    mirrors the reference's ``max_orders``.

    ``permanent(H)`` is never materialized: a committed transaction's
    operations are the same in ``H`` and in ``H|Committed(H)``, so they
    come straight from the history's operation index.
    """
    problem = _build_problem(
        history, specs, history.committed(), history.precedes()
    )
    visited: Set = set()
    indegree = dict(problem.indegree)

    def complete_anyhow(prefix: List[str], done: Set[str]) -> Tuple[str, ...]:
        """Extend a dead prefix to a full precedes-consistent order."""
        local_indegree = {t: 0 for t in problem.txns}
        for a in problem.txns:
            for b in problem.succ[a]:
                local_indegree[b] += 1
        for t in prefix:
            for b in problem.succ[t]:
                local_indegree[b] -= 1
        order = list(prefix)
        remaining = [t for t in problem.txns if t not in done]
        while remaining:
            for t in list(remaining):
                if local_indegree[t] == 0:
                    order.append(t)
                    remaining.remove(t)
                    for b in problem.succ[t]:
                        local_indegree[b] -= 1
                    break
            else:  # pragma: no cover - precedes is acyclic
                raise RuntimeError("cycle in precedes")
        return tuple(order)

    violation: List[DynamicAtomicityViolation] = []

    def dfs(done: FrozenSet[str], states, prefix: List[str]) -> bool:
        """True while no violation found (continue searching)."""
        if len(done) == len(problem.txns):
            return True
        key = _config_key(done, states)
        if key in visited:
            return True
        if len(visited) >= max_configs:
            raise TooManyOrdersError(
                "more than %d configurations for %d transactions"
                % (max_configs, len(problem.txns))
            )
        visited.add(key)
        for txn in problem.txns:
            if txn in done or indegree[txn] != 0:
                continue
            nxt = _apply_txn(problem, states, txn)
            prefix.append(txn)
            if nxt is None:
                order = complete_anyhow(prefix, done | {txn})
                violation.append(DynamicAtomicityViolation(order))
                prefix.pop()
                return False
            for b in problem.succ[txn]:
                indegree[b] -= 1
            ok = dfs(done | {txn}, nxt, prefix)
            for b in problem.succ[txn]:
                indegree[b] += 1
            prefix.pop()
            if not ok:
                return False
        return True

    dfs(frozenset(), _initial_states(problem), [])
    return violation[0] if violation else None


def fast_is_dynamic_atomic(
    history: History, specs: SpecsLike, *, max_configs: int = 100_000
) -> bool:
    return (
        fast_find_dynamic_atomicity_violation(
            history, specs, max_configs=max_configs
        )
        is None
    )
