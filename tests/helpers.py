"""Seeded generators and small graph builders shared by the test modules."""

from __future__ import annotations

import random
from itertools import combinations

from lb2p import Graph, GraphFormatError, MultiGraph
from lb2p.nae import NaeInstance


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def subdivide(g: Graph) -> Graph:
    """Split every edge with one new vertex (new indices follow the old)."""
    edges = []
    for i, (u, v) in enumerate(g.edges()):
        w = g.n + i
        edges += [(u, w), (w, v)]
    return Graph.from_edges(g.n + g.m, edges)


def disjoint_union(parts: list[Graph], rng: random.Random | None = None) -> Graph:
    """The parts side by side; with ``rng`` the vertex indices are shuffled,
    so the parts interleave in index order."""
    n = sum(g.n for g in parts)
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    edges, offset = [], 0
    for g in parts:
        edges += [(perm[offset + u], perm[offset + v]) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(n, edges)


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_regular_multigraph(n: int, r: int, rng: random.Random, tries: int = 2000) -> MultiGraph:
    """Configuration model, resampled until the pairing has no self-loops."""
    if (n * r) % 2:
        raise ValueError("n*r must be even")
    stubs = [v for v in range(n) for _ in range(r)]
    for _ in range(tries):
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        if all(u != v for u, v in pairs):
            return MultiGraph(n, tuple(pairs))
    raise RuntimeError("failed to sample a loop-free pairing")


def random_biregular(m: int, b: int, rng: random.Random) -> Graph:
    """A (2,b)-biregular graph: high side 0..m-1, one degree-2 vertex per
    edge of a sampled b-regular multigraph."""
    mg = random_regular_multigraph(m, b, rng)
    edges = []
    for i, (u, v) in enumerate(mg.edges):
        x = m + i
        edges += [(u, x), (v, x)]
    return Graph.from_edges(m + len(mg.edges), edges)


def cycle_union_multigraph(n: int, r: int, rng: random.Random) -> MultiGraph:
    """A loop-free r-regular multigraph on n >= 2 vertices without rejection
    sampling: r//2 random Hamiltonian cycles, plus a random perfect
    matching when r is odd (then n must be even).  Odd n gives odd cycles."""
    if r % 2 and n % 2:
        raise ValueError("odd r needs even n")
    edges = []
    for _ in range(r // 2):
        order = rng.sample(range(n), n)
        edges += [(order[i], order[(i + 1) % n]) for i in range(n)]
    if r % 2:
        order = rng.sample(range(n), n)
        edges += [(order[i], order[i + 1]) for i in range(0, n, 2)]
    return MultiGraph(n, tuple(edges))


def bipartite_witness_graph(half: int, b: int, rng: random.Random) -> Graph:
    """A (2,b)-biregular graph whose contraction is a random bipartite
    b-regular multigraph on 2*half high-side vertices, so it has a witness."""
    left = [v for v in range(half) for _ in range(b)]
    right = [half + v for v in range(half) for _ in range(b)]
    rng.shuffle(right)
    edges = []
    for i, (u, v) in enumerate(zip(left, right)):
        x = 2 * half + i
        edges += [(u, x), (v, x)]
    return Graph.from_edges(2 * half + len(right), edges)


def reference_parse_graph(text: str) -> Graph:
    """The line-by-line edge-list parser, kept as an oracle for
    ``parse_graph``: same graph, or the same error kind, line and message."""
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("header", "empty document", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("header", "expected header 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("header", "expected two integers in header", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("header", "negative counts in header", 1)

    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError("malformed", f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("malformed", f"non-integer endpoint in {raw!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError("range", f"vertex out of range in edge ({u},{v})", lineno)
        if u == v:
            raise GraphFormatError("loop", f"self-loop at vertex {u}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError("duplicate", f"duplicate edge ({key[0]},{key[1]})", lineno)
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if len(seen) != m:
        raise GraphFormatError(
            "truncated", f"header promises {m} edges, found {len(seen)}", lineno
        )
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


def random_nae_instance(n: int, rng: random.Random, tries: int = 20000) -> NaeInstance:
    """A valid instance: every variable in exactly four clauses, each clause
    three distinct variables."""
    slots = [i for i in range(n) for _ in range(4)]
    for _ in range(tries):
        rng.shuffle(slots)
        clauses = [tuple(slots[3 * j : 3 * j + 3]) for j in range(len(slots) // 3)]
        if all(len(set(c)) == 3 for c in clauses):
            return NaeInstance.from_clauses(n, clauses)
    raise RuntimeError("failed to sample a valid instance")


CANONICAL_N3 = "p nae3 3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n"


def reference_propagate(g: Graph, mode: str, partial, waived=frozenset()) -> tuple[list, bool]:
    """The T-set forcing rule, swept over every active scope to fixpoint;
    kept as an oracle for ``propagate``.  Returns (labels, conflict).

    With s the phi-star sum of a scope's assigned members and m the number
    unassigned, the admissible totals A ({0} for an even-size scope, {-1,+1}
    for an odd one) leave the unassigned part in
    T = {a - s : a in A, |a - s| <= m, a - s ≡ m (mod 2)}.  Empty T is a
    conflict; T = {+m} or {-m} with m > 0 fixes every unassigned member.
    """
    label = list(partial)
    scopes = [g.adj[v] if mode == "open" else g.adj[v] + (v,) for v in range(g.n)]
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in waived:
                continue
            scope = scopes[v]
            s = sum(1 if label[u] else -1 for u in scope if label[u] is not None)
            m = sum(label[u] is None for u in scope)
            admissible = (0,) if len(scope) % 2 == 0 else (-1, 1)
            t_set = [a - s for a in admissible if abs(a - s) <= m and (a - s + m) % 2 == 0]
            if not t_set:
                return label, True
            if len(t_set) == 1 and m > 0 and abs(t_set[0]) == m:
                for u in scope:
                    if label[u] is None:
                        label[u] = 1 if t_set[0] > 0 else 0
                changed = True
    return label, False
