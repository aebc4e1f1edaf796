"""Exact existence decision and enumeration for locally-balanced 2-partitions.

Forcing rule, evaluated per constraint scope: with s the phi-star sum of the
assigned scope members and m the number unassigned, the admissible totals A
({0} for even-size scopes, {-1,+1} for odd) leave the unassigned part in
T = {a - s : a in A, |a - s| <= m, a - s ≡ m (mod 2)}.  Empty T is a
conflict; T = {+m} or {-m} fixes every unassigned scope member.  The
degree-2 open rule (the two neighbors of a degree-2 vertex get distinct
labels) and the degree-1 closed rule (a leaf differs from its support) fall
out as instances.

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
    """Per-vertex balance scopes with admissible sums derived from parity."""

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

    def admissible(self, v: int) -> tuple[int, ...]:
        return (0,) if len(self.scopes[v]) % 2 == 0 else (-1, 1)


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


class _BudgetHit(Exception):
    pass


_OK = -2
_CONFLICT = -1


class _Search:
    """Trail-based backtracking engine over a ConstraintSystem."""

    __slots__ = (
        "n", "scopes", "adm", "owners", "label", "asum", "left",
        "trail", "nodes", "propagations", "budget", "conflict_vertex",
    )

    def __init__(self, cs: ConstraintSystem, budget: int):
        n = cs.n
        self.n = n
        self.scopes = cs.scopes
        active = [v not in cs.waived for v in range(n)]
        self.adm = tuple(cs.admissible(v) if active[v] else () for v in range(n))
        owners: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if active[v]:
                for u in cs.scopes[v]:
                    owners[u].append(v)
        self.owners = tuple(tuple(o) for o in owners)
        self.label = [-1] * n
        self.asum = [0] * n
        self.left = [len(cs.scopes[v]) if active[v] else 0 for v in range(n)]
        self.trail: list[int] = []
        self.nodes = 0
        self.propagations = 0
        self.budget = budget
        self.conflict_vertex: Optional[int] = None

    def _set(self, u: int, val: int) -> None:
        self.label[u] = val
        self.trail.append(u)
        ph = 1 if val else -1
        asum = self.asum
        left = self.left
        for v in self.owners[u]:
            asum[v] += ph
            left[v] -= 1

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        label = self.label
        asum = self.asum
        left = self.left
        while len(trail) > mark:
            u = trail.pop()
            ph = 1 if label[u] else -1
            label[u] = -1
            for v in self.owners[u]:
                asum[v] -= ph
                left[v] += 1

    def _eval(self, v: int) -> int:
        """_OK, _CONFLICT, or the value forced on all unassigned scope members."""
        m = self.left[v]
        s = self.asum[v]
        cand = 0
        count = 0
        for a in self.adm[v]:
            t = a - s
            if -m <= t <= m and (t + m) % 2 == 0:
                count += 1
                cand = t
        if count == 0:
            self.conflict_vertex = v
            return _CONFLICT
        if count == 1 and m > 0 and (cand == m or cand == -m):
            return 1 if cand > 0 else 0
        return _OK

    def flush(self, pending: list[int]) -> bool:
        """Run the forcing rule to fixpoint; False on conflict."""
        label = self.label
        while pending:
            v = pending.pop()
            r = self._eval(v)
            if r == _OK:
                continue
            if r == _CONFLICT:
                return False
            for w in self.scopes[v]:
                if label[w] == -1:
                    self.propagations += 1
                    self._set(w, r)
                    pending.extend(self.owners[w])
        return True

    def assign(self, u: int, val: int) -> bool:
        self._set(u, val)
        return self.flush(list(self.owners[u]))

    def initialize(self, fixed: Optional[Mapping[int, int]]) -> bool:
        pending = [v for v in range(self.n) if self.adm[v]]
        if fixed:
            for u, val in sorted(fixed.items()):
                if not (0 <= u < self.n):
                    raise ValueError(f"fixed vertex {u} out of range")
                if val not in (0, 1):
                    raise ValueError("fixed labels must be 0 or 1")
                if self.label[u] == -1:
                    self._set(u, val)
                    pending.extend(self.owners[u])
                elif self.label[u] != val:
                    return False
        return self.flush(pending)

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
        left = self.left
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
                    if left[v] != len(scopes[v]):
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
        takes only the value 0.  Raises _BudgetHit past the node budget.
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
                if self.assign(order[pos], val):
                    i = pos + 1
                    break
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
    ok = eng.initialize(fixed)
    assignment = tuple(x if x != -1 else None for x in eng.label)
    if not ok:
        return PropagationResult(assignment, eng.conflict_vertex, eng.propagations)
    return PropagationResult(assignment, None, eng.propagations)


def _assert_sound(g: Graph, witness: TwoPartition, mode: str, waived: frozenset[int]) -> None:
    bad = [v for v in check(g, witness, mode) if v not in waived]
    assert not bad, f"solver produced an invalid witness (violations at {bad})"


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
    if not eng.initialize(fixed):
        return SolveOutcome("unsat", None, eng.nodes, eng.propagations)
    comps = eng.components()
    try:
        for order, symmetric in comps:
            for _ in eng.search(order, symmetric):
                break  # keep the component's first labeling
            else:
                return SolveOutcome("unsat", None, eng.nodes, eng.propagations, len(comps))
    except _BudgetHit:
        return SolveOutcome("timeout", None, eng.nodes, eng.propagations, len(comps))
    witness = TwoPartition(tuple(0 if x == -1 else x for x in eng.label))
    _assert_sound(g, witness, mode, cs.waived)
    return SolveOutcome("sat", witness, eng.nodes, eng.propagations, len(comps))


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
