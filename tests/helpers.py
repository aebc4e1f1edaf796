"""Seeded generators and small graph builders shared by the test modules."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import lb2p
from lb2p import Graph, GraphFormatError, MultiGraph, TwoPartition
from lb2p.biregular import (
    Certificate,
    Witness,
    _check_certificate,
    build_reduced,
    extract_cycle_2mod4,
    kk1_factor,
    validate_2odd_biregular,
)
from lb2p.graphs import bfs_distances, connected_components
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


def subdivide_multigraph(mg: MultiGraph) -> Graph:
    """The (2,r)-biregular graph of an r-regular multigraph: high side
    0..n-1, then one degree-2 vertex per edge, in edge order."""
    edges = [(u, mg.n + i) for i, uv in enumerate(mg.edges) for u in uv]
    return Graph.from_edges(mg.n + len(mg.edges), edges)


def random_biregular(m: int, b: int, rng: random.Random) -> Graph:
    """A (2,b)-biregular graph: high side 0..m-1, one degree-2 vertex per
    edge of a sampled b-regular multigraph."""
    return subdivide_multigraph(random_regular_multigraph(m, b, rng))


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


def _multigraph_odd_cycle(m: MultiGraph):
    """First odd cycle under BFS 2-coloring, or None if 2-colorable.

    Returns (vertex list, edge-index list) with edge i joining vertex i to
    vertex i+1 (cyclically).  Parallel edges are even 2-cycles and never
    trigger a conflict.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m.n)]
    for eid, (u, v) in enumerate(m.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    color = [-1] * m.n
    parent = [-1] * m.n
    parent_edge = [-1] * m.n
    depth = [0] * m.n
    for root in range(m.n):
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
    assert len(verts) == len(edges) and len(verts) % 2 == 1
    return verts, edges


def _lift_walk(red, verts: list[int], edges: list[int]) -> list[int]:
    walk = []
    for i in range(len(verts)):
        walk.append(red.y_vertices[verts[i]])
        walk.append(red.x_of_edge[edges[i]])
    return walk


def reference_solve_biregular(g: Graph):
    """The contraction route, kept as an oracle for ``solve_biregular``:
    build the whole contracted multigraph, BFS 2-colour it, lift its first
    odd cycle; otherwise colour each component by distance (mod 4) from its
    smallest high-side vertex.  For validated graphs only; returns
    (result, has_bad_cycle)."""
    bip, k = validate_2odd_biregular(g)
    red = build_reduced(g, bip, k)
    odd = _multigraph_odd_cycle(red.graph)
    if odd is not None:
        cycle = extract_cycle_2mod4(_lift_walk(red, *odd))
        return Certificate(_check_certificate(g, cycle)), True
    factor = kk1_factor(red.graph, red.k)
    labels = [0] * g.n
    for eid, x in enumerate(red.x_of_edge):
        labels[x] = 1 if eid in factor.edges else 0
    for comp in connected_components(g):
        comp_ys = [v for v in comp if v in bip.side_y]
        dist = bfs_distances(g, comp_ys[0])
        for y in comp_ys:
            labels[y] = 1 if dist[y] % 4 == 0 else 0
    return Witness(TwoPartition(tuple(labels))), False
