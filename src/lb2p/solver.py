"""Exact existence decision and enumeration for locally-balanced 2-partitions.

Forcing rule, per constraint scope: a scope of L members is balanced iff
it holds at most cap = ceil(L/2) labels of each value (a phi-star sum of 0
for even L, +-1 for odd L).  The engine keeps, per scope, the count of
assigned members with each label.  A count above cap is a conflict; a
count that reaches cap forces every unassigned member to the other label.
The degree-2 open rule (the two neighbors of a degree-2 vertex get distinct
labels) and the degree-1 closed rule (a leaf differs from its support) fall
out as instances.  Counts change only as labels are set and undone, and
only a count that reaches or passes cap queues its scope for the forcing
loop, which tests it for a conflict and forces inline.  The fixpoint, and
whether it conflicts, do not depend on the order of the queue.

``decide`` first runs the rule to fixpoint, then splits the unassigned
vertices into the components of the scope hypergraph: two vertices are
linked when they share an active scope.  In open mode on a bipartite graph
this also separates the two sides.  Each component is searched on its own,
in order of its smallest vertex, by depth-first search in index order with
value 0 first, and the first unsatisfiable component ends the search.  All
components draw on one node budget.  Flipping every label of a component
leaves every |balance| unchanged when no scope touching it holds an
assigned (fixed or forced) label; such a component branches only on 0 for
its first vertex.  Vertices in no active scope get label 0.  Because the
components own disjoint coordinates, the tuple of their lexicographically
first labelings is the lexicographically first witness of the whole graph.
``enumerate_partitions`` runs the same search unsplit over all vertices,
which yields every valid partition in lexicographic order.

Waived vertices have their own constraint dropped but still appear in other
scopes; this models gadget inputs whose external contributions are unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .balance import MODES, TwoPartition, check
from .graphs import Graph

__all__ = [
    "ConstraintSystem",
    "PropagationResult",
    "SolveOutcome",
    "BudgetExceededError",
    "DEFAULT_NODE_BUDGET",
    "BRUTE_FORCE_CAP",
    "propagate",
    "decide",
    "enumerate_partitions",
    "brute_force",
]

DEFAULT_NODE_BUDGET = 10_000_000
BRUTE_FORCE_CAP = 25


class BudgetExceededError(RuntimeError):
    """Enumeration exceeded its node budget."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Per-vertex balance scopes; waived vertices' own scopes are inactive."""

    n: int
    mode: str
    scopes: tuple[tuple[int, ...], ...]
    waived: frozenset[int]

    @classmethod
    def from_graph(cls, g: Graph, mode: str, waived: Iterable[int] = ()) -> "ConstraintSystem":
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        wv = frozenset(waived)
        if any(not (0 <= v < g.n) for v in wv):
            raise ValueError("waived vertex out of range")
        if mode == "open":
            scopes = g.adj
        else:
            scopes = tuple(tuple(sorted(g.adj[v] + (v,))) for v in range(g.n))
        return cls(g.n, mode, scopes, wv)


@dataclass(frozen=True)
class PropagationResult:
    """Fixpoint of the forcing rule, or the vertex whose scope conflicted."""

    assignment: tuple[Optional[int], ...]
    conflict: Optional[int]
    forced: int


@dataclass(frozen=True)
class SolveOutcome:
    """Decision result with search statistics.

    Any witness passes the balance checker in the requested mode
    (violations are confined to waived vertices).
    """

    status: str  # 'sat' | 'unsat' | 'timeout'
    witness: Optional[TwoPartition]
    nodes: int
    propagations: int
    components: int = 0  # scope components ``decide`` found after propagation
    conflicts: int = 0  # value attempts of the search whose propagation conflicted


class _BudgetHit(Exception):
    pass


class _Search:
    """Trail-based backtracking engine over a ConstraintSystem."""

    __slots__ = (
        "n", "scopes", "owners", "cap", "count", "label", "trail", "pending",
        "nodes", "propagations", "conflicts", "budget", "conflict_vertex",
    )

    def __init__(self, cs: ConstraintSystem, budget: int):
        n = cs.n
        self.n = n
        self.scopes = cs.scopes
        owners: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v not in cs.waived:
                for u in cs.scopes[v]:
                    owners[u].append(v)
        self.owners = tuple(tuple(o) for o in owners)
        self.cap = [(len(s) + 1) // 2 for s in cs.scopes]
        self.count = ([0] * n, [0] * n)  # per label, assigned members of each scope
        self.label = [-1] * n
        self.trail: list[int] = []
        self.pending: list[tuple[int, int]] = []  # (scope, label) at or past cap
        self.nodes = 0
        self.propagations = 0
        self.conflicts = 0
        self.budget = budget
        self.conflict_vertex: Optional[int] = None

    def _set(self, u: int, val: int) -> None:
        self.label[u] = val
        self.trail.append(u)
        cnt = self.count[val]
        cap = self.cap
        for v in self.owners[u]:
            c = cnt[v] + 1
            cnt[v] = c
            if c >= cap[v]:
                self.pending.append((v, val))

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        label = self.label
        count = self.count
        owners = self.owners
        for u in trail[mark:]:
            cnt = count[label[u]]
            label[u] = -1
            for v in owners[u]:
                cnt[v] -= 1
        del trail[mark:]

    def flush(self) -> bool:
        """Run the forcing rule to fixpoint; False on conflict."""
        pending = self.pending
        label = self.label
        trail = self.trail
        scopes = self.scopes
        owners = self.owners
        count = self.count
        cap = self.cap
        forced = 0
        while pending:
            v, val = pending.pop()
            if count[val][v] > cap[v]:
                self.conflict_vertex = v
                pending.clear()
                self.propagations += forced
                return False
            other = 1 - val
            cnt = count[other]
            for w in scopes[v]:
                if label[w] == -1:
                    label[w] = other
                    trail.append(w)
                    forced += 1
                    for x in owners[w]:
                        c = cnt[x] + 1
                        cnt[x] = c
                        if c >= cap[x]:
                            pending.append((x, other))
        self.propagations += forced
        return True

    def initialize(self, fixed: Optional[Mapping[int, int]]) -> bool:
        if fixed:
            for u, val in sorted(fixed.items()):
                if not (0 <= u < self.n):
                    raise ValueError(f"fixed vertex {u} out of range")
                if val not in (0, 1):
                    raise ValueError("fixed labels must be 0 or 1")
                self._set(u, val)
        return self.flush()

    def components(self) -> list[tuple[list[int], bool]]:
        """Unassigned vertices grouped by shared active scopes.

        Each component is sorted and paired with whether flipping all its
        labels is a symmetry: no scope touching it holds an assigned label.
        Components come in order of their smallest vertex.  Unassigned
        vertices in no active scope belong to none.
        """
        label = self.label
        owners = self.owners
        scopes = self.scopes
        count0, count1 = self.count
        vertex_seen = [False] * self.n
        scope_seen = [False] * self.n
        out = []
        for root in range(self.n):
            if vertex_seen[root] or label[root] != -1 or not owners[root]:
                continue
            vertex_seen[root] = True
            comp = [root]
            symmetric = True
            for u in comp:  # grows while it is walked: a breadth-first search
                for v in owners[u]:
                    if scope_seen[v]:
                        continue
                    scope_seen[v] = True
                    if count0[v] or count1[v]:
                        symmetric = False
                    for w in scopes[v]:
                        if label[w] == -1 and not vertex_seen[w]:
                            vertex_seen[w] = True
                            comp.append(w)
            comp.sort()
            out.append((comp, symmetric))
        return out

    def search(self, order: Sequence[int], symmetric: bool = False) -> Iterator[None]:
        """DFS over the ascending vertices ``order``, value 0 first.

        Yields each time every vertex of ``order`` is labelled; the labels
        are then in ``self.label``.  With ``symmetric`` the first vertex
        takes only the value 0.  A value whose propagation conflicts counts
        in ``conflicts``.  Raises _BudgetHit past the node budget.
        """
        label = self.label
        trail = self.trail
        k = len(order)
        frames: list[list[int]] = []  # per branch vertex: [position, trail mark, next value, last value]
        i = 0
        while True:
            while i < k and label[order[i]] != -1:
                i += 1
            if i == k:
                yield
            else:
                frames.append([i, len(trail), 0, 0 if symmetric and not frames else 1])
            while frames:
                frame = frames[-1]
                pos, mark, val, last = frame
                self.undo_to(mark)
                if val > last:
                    frames.pop()
                    continue
                frame[2] = val + 1
                self.nodes += 1
                if self.nodes > self.budget:
                    raise _BudgetHit
                self._set(order[pos], val)
                if self.flush():
                    i = pos + 1
                    break
                self.conflicts += 1
            else:
                return


def propagate(cs: ConstraintSystem, partial) -> PropagationResult:
    """Run the forcing rule to fixpoint from a partial assignment.

    ``partial`` maps vertex index to 0, 1, or None (sequence form).
    """
    if len(partial) != cs.n:
        raise ValueError(f"partial assignment has {len(partial)} entries for n={cs.n}")
    eng = _Search(cs, budget=0)
    fixed = {v: x for v, x in enumerate(partial) if x is not None}
    eng.initialize(fixed)  # conflict_vertex stays None unless it fails
    assignment = tuple(x if x != -1 else None for x in eng.label)
    return PropagationResult(assignment, eng.conflict_vertex, eng.propagations)


def _assert_sound(g: Graph, witness: TwoPartition, mode: str, waived: frozenset[int]) -> None:
    bad = [v for v in check(g, witness, mode) if v not in waived]
    if bad:  # a raise, not an assert, so that it also holds under python -O
        raise AssertionError(f"solver produced an invalid witness (violations at {bad})")


def decide(
    g: Graph,
    mode: str,
    waived: Iterable[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
    fixed: Optional[Mapping[int, int]] = None,
) -> SolveOutcome:
    """Complete search for a valid 2-partition; lexicographically first witness.

    Scope components are searched one at a time against one shared node
    budget.  Returns status 'timeout' when the budget is exhausted, never a
    wrong answer.
    """
    cs = ConstraintSystem.from_graph(g, mode, waived)
    eng = _Search(cs, node_budget)
    comps: list = []

    def outcome(status: str, witness: Optional[TwoPartition] = None) -> SolveOutcome:
        return SolveOutcome(
            status, witness, eng.nodes, eng.propagations, len(comps), eng.conflicts
        )

    if not eng.initialize(fixed):
        return outcome("unsat")
    comps = eng.components()
    try:
        for order, symmetric in comps:
            for _ in eng.search(order, symmetric):
                break  # keep the component's first labeling
            else:
                return outcome("unsat")
    except _BudgetHit:
        return outcome("timeout")
    witness = TwoPartition(tuple(0 if x == -1 else x for x in eng.label))
    _assert_sound(g, witness, mode, cs.waived)
    return outcome("sat", witness)


def enumerate_partitions(
    g: Graph,
    mode: str,
    waived: Iterable[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
    fixed: Optional[Mapping[int, int]] = None,
) -> list[TwoPartition]:
    """All valid 2-partitions, duplicate-free, in lexicographic label order.

    Raises BudgetExceededError when the search would exceed the node budget.
    """
    cs = ConstraintSystem.from_graph(g, mode, waived)
    eng = _Search(cs, node_budget)
    out: list[TwoPartition] = []
    if not eng.initialize(fixed):
        return out
    try:
        for _ in eng.search(range(cs.n)):
            out.append(TwoPartition(tuple(eng.label)))
    except _BudgetHit:
        raise BudgetExceededError(
            f"enumeration exceeded node budget {node_budget}"
        ) from None
    for p in out:
        _assert_sound(g, p, mode, cs.waived)
    return out


def brute_force(
    g: Graph, mode: str, cap: int = BRUTE_FORCE_CAP, waived: Iterable[int] = ()
) -> SolveOutcome:
    """Oracle: evaluate every labeling directly (vectorized bit enumeration).

    Independent of the propagation search; agrees with ``decide`` on
    satisfiability.  Witness is the lexicographically first valid labeling.
    Balances of ``waived`` vertices are not checked.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    wv = frozenset(waived)
    n = g.n
    if n > cap:
        raise ValueError(f"brute force capped at {cap} vertices, got {n}")
    if n == 0:
        return SolveOutcome("sat", TwoPartition(()), 0, 0)
    a = np.zeros((n, n), dtype=np.float32)
    for u in range(n):
        for v in g.adj[u]:
            a[u, v] = 1.0
    if mode == "closed":
        a += np.eye(n, dtype=np.float32)
    a = a[:, [v for v in range(n) if v not in wv]]
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    total = 1 << n
    chunk = 1 << 16
    scanned = 0
    for base in range(0, total, chunk):
        masks = np.arange(base, min(base + chunk, total), dtype=np.int64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float32)
        balances = (2.0 * bits - 1.0) @ a
        ok = np.all(np.abs(balances) <= 1.5, axis=1)
        scanned += len(masks)
        if ok.any():
            row = int(np.argmax(ok))
            labels = tuple(int(b) for b in bits[row])
            witness = TwoPartition(labels)
            _assert_sound(g, witness, mode, wv)
            return SolveOutcome("sat", witness, scanned, 0)
    return SolveOutcome("unsat", None, scanned, 0)
