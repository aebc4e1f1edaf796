"""Seeded generators and small graph builders shared by the test modules."""

from __future__ import annotations

import random
from itertools import combinations

from lb2p import Graph, MultiGraph
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
