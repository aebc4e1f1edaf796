"""Seeded generators and small graph builders shared by the test modules."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

import numpy as np

import lb2p
from lb2p import Graph, GraphFormatError, NotApplicable, TwoPartition
from lb2p.biregular import (
    Certificate,
    Witness,
    _check_certificate,
    extract_cycle_2mod4,
    kk1_factor,
)
from lb2p.gadgets import gadget_f4, gadget_forcing
from lb2p.graphs import bfs_distances, connected_components
from lb2p.nae import NaeFormatError, NaeInstance, occurrence_slots
from lb2p.reductions import REDUCTIONS, RoleMapError, UnsatAssignmentError


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


def adjacency(g: Graph) -> list[tuple[int, ...]]:
    """The sorted neighbours of each vertex, as tuples read off the CSR rows."""
    bounds, nbrs = g.indptr.tolist(), g.nbrs.tolist()
    return [tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])]


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def with_twins(g: Graph, copies: int, rng: random.Random) -> Graph:
    """g plus ``copies`` new vertices, each copying the neighbourhood of a
    random vertex (and, at random, adjacent to it: a closed twin), with the
    vertex indices shuffled."""
    n = g.n + copies
    adj = [set(a) for a in adjacency(g)] + [set() for _ in range(copies)]
    for w in range(g.n, n):
        u = rng.randrange(w)
        adj[w] = set(adj[u])
        if rng.random() < 0.5:
            adj[w].add(u)
        for x in adj[w]:
            adj[x].add(w)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u in range(n) for v in adj[u] if u < v])


def random_regular_multigraph(n: int, r: int, rng: random.Random, tries: int = 2000) -> tuple[int, list]:
    """Configuration model, resampled until the pairing has no self-loops;
    (n, edges), the edges a list of pairs."""
    if (n * r) % 2:
        raise ValueError("n*r must be even")
    stubs = [v for v in range(n) for _ in range(r)]
    for _ in range(tries):
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        if all(u != v for u, v in pairs):
            return n, pairs
    raise RuntimeError("failed to sample a loop-free pairing")


def subdivide_multigraph(multigraph: tuple[int, list]) -> Graph:
    """The (2,r)-biregular graph of an r-regular multigraph (n, edges): high
    side 0..n-1, then one degree-2 vertex per edge, in edge order."""
    n, pairs = multigraph
    edges = [(u, n + i) for i, uv in enumerate(pairs) for u in uv]
    return Graph.from_edges(n + len(pairs), edges)


def random_biregular(m: int, b: int, rng: random.Random) -> Graph:
    """A (2,b)-biregular graph: high side 0..m-1, one degree-2 vertex per
    edge of a sampled b-regular multigraph."""
    return subdivide_multigraph(random_regular_multigraph(m, b, rng))


def cycle_union_multigraph(n: int, r: int, rng: random.Random) -> tuple[int, list]:
    """A loop-free r-regular multigraph (n, edges) on n >= 2 vertices without
    rejection sampling: r//2 random Hamiltonian cycles, plus a random
    perfect matching when r is odd (then n must be even).  Odd n gives odd
    cycles."""
    if r % 2 and n % 2:
        raise ValueError("odd r needs even n")
    edges = []
    for _ in range(r // 2):
        order = rng.sample(range(n), n)
        edges += [(order[i], order[(i + 1) % n]) for i in range(n)]
    if r % 2:
        order = rng.sample(range(n), n)
        edges += [(order[i], order[i + 1]) for i in range(0, n, 2)]
    return n, edges


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


def traced_peak(fn):
    """``fn()`` and the tracemalloc peak while it ran, above what was traced
    when it started; numpy reports its array buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def reference_serialize_graph(g: Graph) -> str:
    """The edge-list writer as it was before it wrote digits in numpy: one
    Python int per endpoint, formatted by ``%``."""
    tails = g.tails()
    up = tails < g.nbrs
    ends = np.stack((tails[up], g.nbrs[up]), axis=1).ravel().tolist()
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(ends)


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
    # The CSR arrays in pure Python, so that the oracle shares no code with
    # the loader's numpy adjacency.
    indptr = [0]
    for a in adj:
        indptr.append(indptr[-1] + len(a))
    nbrs = [v for a in adj for v in sorted(a)]
    return Graph(n, np.array(indptr, dtype=np.int64), np.array(nbrs, dtype=np.int64))


def reference_biregular_pair(g: Graph, color: list[int], comp: list[int]):
    """The per-vertex loop once behind ``classify``'s biregular pair, kept as
    its oracle: per component and colour the set of degrees; a component
    with both sides pins the sorted pair, and a singleton only demands that
    its degree (0) belongs to the pair.  ``color`` and ``comp`` are those of
    ``reference_two_color``."""
    ncomp = max(comp) + 1 if g.n else 0
    sides: list[tuple[set[int], set[int]]] = [(set(), set()) for _ in range(ncomp)]
    for v in range(g.n):
        sides[comp[v]][color[v]].add(g.degree(v))
    pinned = None
    singles: set[int] = set()
    for d0, d1 in sides:
        if len(d0) > 1 or len(d1) > 1:
            return None
        if not d1:
            singles.update(d0)
            continue
        pair = tuple(sorted((next(iter(d0)), next(iter(d1)))))
        if pinned is None:
            pinned = pair
        elif pinned != pair:
            return None
    if pinned is None:
        pinned = (0, 0)
    if any(d not in pinned for d in singles):
        return None
    return pinned


def reference_two_color(g: Graph):
    """A BFS 2-colouring that tests each edge as it walks the tuple rows,
    kept as an oracle for the colours of ``graphs._two_color``: (colour,
    component id) lists, or None at the first edge inside one colour.
    Roots are taken in index order and coloured 0."""
    adj = adjacency(g)
    color = [-1] * g.n
    comp = [-1] * g.n
    ncomp = 0
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        comp[root] = ncomp
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    comp[v] = ncomp
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
        ncomp += 1
    return color, comp


def reference_components(g: Graph) -> list[list[int]]:
    """Union-find over the edges, kept as an oracle for
    ``connected_components``: the vertex lists ordered by lowest member."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def reference_validate_2odd_biregular(g: Graph):
    """``validate_2odd_biregular`` with the class test made edge by edge,
    kept as an oracle: the same result, or the same ``NotApplicable``."""
    if g.n == 0:
        return NotApplicable("empty graph")
    degs = g.degrees()
    high = sorted({d for d in degs if d != 2})
    if not high:
        return NotApplicable("degrees (2,2); 2 is not 2k+1 with k >= 1")
    if len(high) > 1:
        return NotApplicable(f"more than two degree values: {high}")
    b = high[0]
    if b % 2 == 0 or b < 3:
        return NotApplicable(f"high-side degree {b} is not 2k+1 with k >= 1")
    xs = frozenset(v for v in range(g.n) if degs[v] == 2)
    if not xs:
        return NotApplicable("no degree-2 side")
    for u, v in g.edges():
        if (u in xs) == (v in xs):
            return NotApplicable(f"edge ({u},{v}) stays inside one degree class")
    return (b - 1) // 2


def reference_build_reduced(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The contraction (ends, xs) of ``build_reduced`` made vertex by vertex
    over the tuple rows of ``adjacency(g)``, kept as its oracle: every
    vertex of degree 2, in index order, becomes one edge between its two
    neighbours, numbered by their rank on the high side."""
    adj = adjacency(g)
    ys = [v for v in range(g.n) if len(adj[v]) != 2]
    local = {y: i for i, y in enumerate(ys)}
    xs, ends = [], []
    for x in range(g.n):
        if len(adj[x]) == 2:
            u, w = adj[x]
            xs.append(x)
            ends.append((local[u], local[w]))
    return np.array(ends, dtype=np.int64).reshape(-1, 2), np.array(xs, dtype=np.int64)


def reference_owners(cs) -> tuple[tuple[int, ...], ...]:
    """For each vertex u, the unwaived vertices v (ascending) whose scope
    holds u: the transpose of ``cs.scopes``, kept as the oracle of
    ``_Search.owners``."""
    owners: list[list[int]] = [[] for _ in range(cs.n)]
    for v in range(cs.n):
        if v not in cs.waived:
            for u in cs.scopes[v]:
                owners[u].append(v)
    return tuple(tuple(o) for o in owners)


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a ``python -O`` subprocess (asserts stripped) that
    imports this checkout's lb2p and these helpers."""
    path = [str(Path(lb2p.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=60,
    )


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


def reference_from_clauses(n: int, clauses) -> NaeInstance:
    """The per-clause ``NaeInstance.from_clauses``, kept as an oracle: same
    instance, or the same error kind and message."""
    if n < 1:
        raise NaeFormatError("empty", "instance must have at least one variable")
    norm = []
    counts: Counter[int] = Counter()
    for c in clauses:
        if len(c) != 3 or len(set(c)) != 3:
            raise NaeFormatError(
                "duplicate-variable", f"clause {tuple(c)} must hold 3 distinct variables"
            )
        if not all(isinstance(x, (int, np.integer)) for x in c):
            raise NaeFormatError("malformed", f"non-integer variable in clause {tuple(c)}")
        for x in c:
            if not (0 <= x < n):
                raise NaeFormatError("range", f"variable {x + 1} out of range")
        norm.append(tuple(sorted(c)))
        counts.update(c)
    for x in range(n):
        if counts[x] != 4:
            raise NaeFormatError(
                "occurrence-count",
                f"variable {x + 1} occurs {counts[x]} times, expected 4",
            )
    return NaeInstance(n, tuple(norm))


def reference_parse_nae(text: str) -> NaeInstance:
    """The line-by-line formula parser, kept as an oracle for ``parse_nae``:
    same instance, or the same error kind, line and message."""
    lines = text.splitlines()
    if not lines:
        raise NaeFormatError("header", "empty document", 1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "p" or head[1] != "nae3":
        raise NaeFormatError("header", "expected header 'p nae3 n k'", 1)
    try:
        n, k = int(head[2]), int(head[3])
    except ValueError:
        raise NaeFormatError("header", "non-integer counts in header", 1) from None
    clauses = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise NaeFormatError("malformed", f"expected 3 variables, got {raw!r}", lineno)
        try:
            lits = [int(p) for p in parts]
        except ValueError:
            raise NaeFormatError("malformed", f"non-integer variable in {raw!r}", lineno) from None
        if len(set(lits)) != 3:
            raise NaeFormatError("duplicate-variable", f"repeated variable in clause {raw!r}", lineno)
        for x in lits:
            if not (1 <= x <= n):
                raise NaeFormatError("range", f"variable {x} out of range 1..{n}", lineno)
        clauses.append(tuple(x - 1 for x in lits))
    if len(clauses) != k:
        raise NaeFormatError("truncated", f"header promises {k} clauses, found {len(clauses)}", lineno)
    return reference_from_clauses(n, clauses)


_BIG = 2**63
# Formula documents each reader must reject or accept alike: headers,
# line boundaries, token forms, widths, ranges and counts.  The fuzz tests
# start from these and from valid formulas.
NAE_CORPUS = [
    "",
    "\n",
    " \n",
    "\n" + CANONICAL_N3,
    "p nae3 3\n",
    "p nae3 3 4 5\n",
    "p cnf 3 4\n",
    "P nae3 3 4\n",
    "p nae3 x 4\n",
    "p nae3 3 4.0\n",
    "p nae3 +3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 0_3 0_4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 0 0\n",
    "p nae3 -1 0\n",
    "p nae3 0 1\n1 2 3\n",
    "p nae3 3 0\n",
    "p nae3 1000000000000 0\n",
    f"p nae3 {10**30} 1\n1 2 {10**25}\n",
    f"p nae3 {10**30} 1\n{10**25} {10**25 + 1} 3\n",
    f"p nae3 {10**30} 1\n{10**25} {10**25} 3\n",
    f"p nae3 {-(10**30)} 1\n1 2 3\n",
    CANONICAL_N3,
    CANONICAL_N3.rstrip("\n"),
    CANONICAL_N3.replace("\n", "\r\n"),
    CANONICAL_N3.replace("\n", "\r"),
    CANONICAL_N3.replace("\n", "\n\r"),
    CANONICAL_N3.replace("\n", "\n\n"),
    CANONICAL_N3.replace("\n", " \n\t"),
    CANONICAL_N3.replace(" ", "\t"),
    CANONICAL_N3.replace(" ", "\x0c"),
    *(CANONICAL_N3.replace("\n", eol) for eol in ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]),
    CANONICAL_N3.replace(" ", "\xa0"),
    CANONICAL_N3.replace(" ", "\u3000"),
    CANONICAL_N3 + "\n\n  \n",
    CANONICAL_N3 + "1 2 3\n",
    CANONICAL_N3[: -len("1 2 3\n")],
    CANONICAL_N3[:-3],
    "p nae3 3 4\n1 2 3\n1 2\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n1 2 3 1\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3 4 5 6\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n123\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n+1 2 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n+7 2 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n0_1 2 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n01 002 3\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n1 x 3\n1 2 3\n1 2\n",
    "p nae3 3 4\n1 2 3\n1 2\n1 x 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n1 2 \u0663\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n1 2 3.0\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 1 2\n1 2 3\n1 2 3\n2 3 3\n",
    "p nae3 3 4\n1 2 5\n1 1 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 1 5\n1 2 3\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n0 1 2\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n-1 1 2\n1 2 3\n1 2 3\n",
    "p nae3 3 4\n1 2 3\n1 2 5\n1 x\n1 2 3\n",
    f"p nae3 3 4\n1 2 {_BIG}\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n1 2 {_BIG - 1}\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n{-_BIG} 1 2\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n{-_BIG - 1} 1 2\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n{10**20} {10**20 + 1} 2\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n{10**20} {10**20} 2\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n-1 {10**20} 2\n1 2 3\n1 2 3\n1 2 3\n",
    f"p nae3 3 4\n1 2 3\n1 2 3\n{'9' * 19} 1 2\n1 2\n",
    "p nae3 4 4\n1 2 3\n1 2 3\n1 2 4\n1 3 4\n",
    "p nae3 6 8\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n4 5 6\n4 5 6\n4 5 6\n4 5 6\n",
    "p nae3 6 8\n4 5 6\n1 2 3\n6 5 4\n3 2 1\n1 2 3\n4 5 6\n1 3 2\n5 4 6\n",
    "p nae3 7 8\n4 5 6\n1 2 3\n6 5 4\n3 2 1\n1 2 3\n4 5 6\n1 3 2\n5 4 6\n",
    "p nae3 6 8\n4 5 6\n1 2 3\n6 5 4\n3 2 1\n1 2 3\n4 5 6\n1 3 2\n5 4 1\n",
]


def occurrence_slot(inst: NaeInstance, var: int, clause_index: int) -> int:
    """1-based occurrence number of ``var`` at ``clause_index``, by a scan of
    the clauses in input order; the reference for ``nae.occurrence_slots``.
    A variable appears at most once per clause, so the slot is well defined.
    """
    slot = 0
    for j, c in enumerate(inst.clauses):
        if var in c:
            slot += 1
            if j == clause_index:
                return slot
    raise ValueError(f"variable {var} does not occur in clause {clause_index}")


def planted_nae_instance(n: int, rng: random.Random) -> tuple[NaeInstance, tuple[int, ...]]:
    """A valid instance (n a multiple of 3) and a balanced assignment that
    satisfies it: random occurrence triples, repaired by random swaps until
    every clause holds three distinct variables of both values."""
    planted = [0] * (n // 2) + [1] * (n - n // 2)
    rng.shuffle(planted)
    slots = [i for i in range(n) for _ in range(4)]
    rng.shuffle(slots)

    def bad(j: int) -> bool:
        clause = slots[3 * j : 3 * j + 3]
        return len(set(clause)) < 3 or len({planted[x] for x in clause}) < 2

    while broken := [j for j in range(len(slots) // 3) if bad(j)]:
        p, q = 3 * rng.choice(broken) + rng.randrange(3), rng.randrange(len(slots))
        slots[p], slots[q] = slots[q], slots[p]
    clauses = [tuple(slots[3 * j : 3 * j + 3]) for j in range(len(slots) // 3)]
    return NaeInstance.from_clauses(n, clauses), tuple(planted)


def reference_roles(art) -> list[tuple[str, tuple[int, ...]]]:
    """The role of every vertex of a reduction artifact: the layout spelled
    out block by block, as each construction places its vertices."""
    name, n, k, r = art.name, art.n_vars, art.n_clauses, art.r
    if name == "bireg":
        roles = [("p", (i,)) for i in range(n)]
        return roles + [("q", (j, l)) for j in range(k) for l in range(1, 2 * r + 1)]
    if name == "even":
        roles = [("p", (i, t)) for i in range(n) for t in range(1, 5)]
        roles += [("g", (i, j)) for i in range(n) for j in range(1, 13)]
        roles += [("q", (j, l)) for j in range(k) for l in (1, 2)]
        return roles + [("v", (j,)) for j in range(k)]
    inputs = gadget_forcing().inputs
    roles = [
        ("p", (i, inputs.index(local) + 1)) if local in inputs else ("g", (i, local))
        for i in range(n)
        for local in range(30)
    ]
    roles += [("q", (j,)) for j in range(k)]
    if name == "odd":
        roles += [(tag, (j, t)) for j in range(k) for t in range(1, 4) for tag in "yzb"]
    return roles


def reference_reduce(name: str, inst: NaeInstance, r: int = 1) -> Graph:
    """The graph of each reduction built edge by edge in Python, as the
    constructors did before they became array arithmetic; the oracle of
    ``reduce_by_name(name, inst, r).graph``."""
    n, k = inst.n, inst.k
    members = list(zip(inst.clauses, occurrence_slots(inst)))
    edges = []
    if name == "bireg":
        for j, clause in enumerate(inst.clauses):
            edges += [(var, n + 2 * r * j + l) for var in clause for l in range(2 * r)]
        return Graph.from_edges(n + 2 * r * k, edges)
    if name == "even":
        p = lambda i, t: 4 * i + (t - 1)
        u = lambda i, j: 4 * n + 12 * i + (j - 1)
        q = lambda j, l: 16 * n + 2 * j + (l - 1)
        v = lambda j: 16 * n + 2 * k + j
        for i in range(n):
            for l in range(1, 5):
                edges.append((p(i, l), u(i, 3 * l - 2)))
                edges.append((u(i, 3 * l - 2), u(i, 3 * l - 1)))
                edges.append((u(i, 3 * l - 1), u(i, 3 * l)))
                edges.append((u(i, 3 * l), p(i, l % 4 + 1)))
        for j, (clause, slots) in enumerate(members):
            for var, t in zip(clause, slots):
                edges.append((p(var, t), q(j, 1)))
                edges.append((p(var, t), q(j, 2)))
            edges.append((q(j, 1), v(j)))
            edges.append((q(j, 2), v(j)))
        return Graph.from_edges(16 * n + 3 * k, edges)
    gamma, f4 = gadget_forcing(), gadget_f4()
    edges = [(30 * i + a, 30 * i + b) for i in range(n) for a, b in gamma.graph.edges()]
    for j, (clause, slots) in enumerate(members):
        f4_base = 30 * n + k + f4.graph.n * j
        for t, (var, slot) in enumerate(zip(clause, slots)):
            p_vertex = 30 * var + gamma.inputs[slot - 1]
            edges.append((p_vertex, 30 * n + j))
            if name == "odd":
                edges.append((f4_base + 3 * t, p_vertex))
        if name == "odd":
            edges.extend((f4_base + a, f4_base + b) for a, b in f4.graph.edges())
    return Graph.from_edges(30 * n + (10 * k if name == "odd" else k), edges)


def reference_artifact_text(art) -> tuple[str, str]:
    """The .graph and .roles text of an artifact, formatted line by line
    from its edges and its header fields."""
    g = art.graph
    graph_text = "".join([f"{g.n} {g.m}\n", *(f"{u} {v}\n" for u, v in g.edges())])
    return graph_text, f"reduction={art.name} mode={art.mode} n={art.n_vars} k={art.n_clauses} r={art.r}\n"


_REFERENCE_HEADER_RE = re.compile(r"^reduction=(\w+) mode=(\w+) n=(\d+) k=(\d+) r=(\d+)$")


def reference_read_roles(text: str, graph_n: int) -> None:
    """The role-map checks of ``read_artifact`` made line by line on
    ``text.splitlines()``, for a graph of ``graph_n`` vertices: the header
    line, then no record.  Returns when the text is accepted, else raises
    the same ``RoleMapError``."""
    lines = text.splitlines()
    if not lines:
        raise RoleMapError("empty role map")
    m = _REFERENCE_HEADER_RE.match(lines[0])
    if not m:
        raise RoleMapError(f"bad role-map header: {lines[0]!r}")
    name, mode = m.group(1, 2)
    n, k, r = map(int, m.group(3, 4, 5))
    modes = {"bireg": "open", "even": "open", "subcubic": "closed", "odd": "closed"}
    if name not in modes:
        raise RoleMapError(f"unknown reduction {name!r}")
    if mode != modes[name]:
        raise RoleMapError(f"reduction {name} has mode {modes[name]}, not {mode}")
    if (r > 0) != (name == "bireg"):
        raise RoleMapError(f"r={r}: r is at least 1 for bireg and 0 otherwise")
    if r > graph_n:
        raise RoleMapError(f"r={r} exceeds the graph's {graph_n} vertices")
    order = {"bireg": n + 2 * r * k, "even": 16 * n + 3 * k, "subcubic": 30 * n + k, "odd": 30 * n + 10 * k}[name]
    if order != graph_n:
        raise RoleMapError(f"the header gives {order} vertices, the graph has {graph_n}")
    if len(lines) > 1:
        raise RoleMapError(f"line 2: expected end of file, found {lines[1]!r}")


def reference_role_index(art) -> dict[tuple[str, tuple[int, ...]], int]:
    """The vertex of every role: ``reference_roles`` inverted."""
    return {role: v for v, role in enumerate(reference_roles(art))}


def _reference_clause_pvars(art, roles, index) -> list[list[tuple[int, int]]]:
    """Per clause, the (p vertex, variable) pairs around its clause vertex."""
    adj, out = adjacency(art.graph), []
    for j in range(art.n_clauses):
        qv = index[("q", (j,) if art.mode == "closed" else (j, 1))]
        out.append([(w, roles[w][1][0]) for w in adj[qv] if roles[w][0] == "p"])
    return out


def reference_lift(art, assignment) -> TwoPartition:
    """The lift through the per-vertex role tuples: each vertex's label is
    its role's rule, called once per vertex with scalar indices; the oracle
    of ``assignment_to_partition``.  The rules take the arrays the lift
    passes: the assignment (uint8), ``cancel`` per clause and the (k, 3)
    clause variables."""
    roles = reference_roles(art)
    clause_pvars = _reference_clause_pvars(art, roles, reference_role_index(art))
    if any(len({assignment[var] for _, var in pvars}) == 1 for pvars in clause_pvars):
        raise UnsatAssignmentError("some clause is monochrome under the assignment")
    cancel = [int(sum(2 * assignment[var] - 1 for _, var in pvars) < 0) for pvars in clause_pvars]
    clause_vars = np.array([[var for _, var in pvars] for pvars in clause_pvars], dtype=np.int64)
    a = np.array(assignment, dtype=np.uint8)
    rules = REDUCTIONS[art.name].rules(a, np.array(cancel, dtype=np.uint8), clause_vars.reshape(-1, 3))
    return TwoPartition(tuple(int(rules[tag](*idx)) for tag, idx in roles))


def reference_extract(art, partition: TwoPartition) -> tuple[int, ...]:
    """The labels of each variable's p vertices, found through the role
    tuples, which must agree; the oracle of ``partition_to_assignment`` on
    valid partitions."""
    values: dict[int, set[int]] = {}
    for v, (tag, idx) in enumerate(reference_roles(art)):
        if tag == "p":
            values.setdefault(idx[0], set()).add(partition.labels[v])
    if any(len(labels) != 1 for labels in values.values()):
        raise ValueError("the inputs of some variable disagree")
    return tuple(values[i].pop() for i in range(art.n_vars))


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
    adj = adjacency(g)
    scopes = [adj[v] if mode == "open" else adj[v] + (v,) for v in range(g.n)]
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


def _multigraph_odd_cycle(n: int, ends: list):
    """First odd cycle under BFS 2-coloring, or None if 2-colorable.

    Returns (vertex list, edge-index list) with edge i joining vertex i to
    vertex i+1 (cyclically).  Parallel edges are even 2-cycles and never
    trigger a conflict.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(ends):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    color = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, eid in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    parent_edge[w] = eid
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return _lca_cycle(u, w, eid, parent, parent_edge, depth)
    return None


def _lca_cycle(u, w, closing_edge, parent, parent_edge, depth):
    path_u, path_w = [u], [w]
    edges_u: list[int] = []
    edges_w: list[int] = []
    pu, pw = u, w
    while depth[pu] > depth[pw]:
        edges_u.append(parent_edge[pu])
        pu = parent[pu]
        path_u.append(pu)
    while depth[pw] > depth[pu]:
        edges_w.append(parent_edge[pw])
        pw = parent[pw]
        path_w.append(pw)
    while pu != pw:
        edges_u.append(parent_edge[pu])
        pu = parent[pu]
        path_u.append(pu)
        edges_w.append(parent_edge[pw])
        pw = parent[pw]
        path_w.append(pw)
    verts = path_u + list(reversed(path_w[:-1]))
    edges = edges_u + list(reversed(edges_w)) + [closing_edge]
    if len(verts) != len(edges) or len(verts) % 2 == 0:
        raise AssertionError(f"not an odd cycle: {len(verts)} vertices, {len(edges)} edges")
    return verts, edges


def _lift_walk(ys: list[int], xs: list[int], verts: list[int], edges: list[int]) -> list[int]:
    walk = []
    for i in range(len(verts)):
        walk.append(ys[verts[i]])
        walk.append(xs[edges[i]])
    return walk


def reference_solve_biregular(g: Graph):
    """The contraction route, kept as an oracle for ``solve_biregular``:
    build the whole contracted multigraph, BFS 2-colour it, lift its first
    odd cycle; otherwise colour each component by distance (mod 4) from its
    smallest high-side vertex.  For validated graphs only; returns
    (result, whether the graph has a cycle of length 2 mod 4)."""
    ends, xs = reference_build_reduced(g)
    ys = [v for v in range(g.n) if g.degree(v) != 2]
    odd = _multigraph_odd_cycle(len(ys), ends.tolist())
    if odd is not None:
        cycle = extract_cycle_2mod4(_lift_walk(ys, xs.tolist(), *odd))
        return Certificate(_check_certificate(g, cycle)), True
    factor = set(kk1_factor(len(ys), ends).tolist())
    labels = [0] * g.n
    for eid, x in enumerate(xs.tolist()):
        labels[x] = 1 if eid in factor else 0
    for comp in connected_components(g):
        comp_ys = [v for v in comp if g.degree(v) != 2]
        dist = bfs_distances(g, comp_ys[0])
        for y in comp_ys:
            labels[y] = 1 if dist[y] % 4 == 0 else 0
    return Witness(TwoPartition(tuple(labels))), False
