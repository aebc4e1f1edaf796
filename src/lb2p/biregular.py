"""Constructive solver for bipartite graphs with one side of degree 2 and the
other of odd degree 2k+1 (k >= 1).

Contracting every degree-2 vertex x into a single edge between its two
neighbors yields a (2k+1)-regular multigraph on the high-degree side.  When
that multigraph is 2-colorable the graph admits a valid open-mode partition,
built from a [k,k+1]-factor plus a distance-mod-4 coloring; otherwise an odd
multigraph cycle lifts to a simple cycle of length ≡ 2 (mod 4), a
certificate that no valid partition exists.  Cycles of the original graph
alternate sides, so their length is twice the number of high-side vertices
they visit: length ≡ 2 (mod 4) exactly when that count is odd.

Both branches start from one breadth-first search over the graph itself
(``_bfs``), rooted at each component's smallest high-side vertex; it reads
the graph's CSR arrays ``indptr``/``nbrs``, its only representation.  A
degree-2 vertex whose two neighbours share a depth closes an odd cycle of
the contraction; the certificate path stops at the first one and lifts it
along the parent pointers to a simple cycle, without building the
contraction.  Otherwise the search runs to completion and its depths
(mod 4) colour the high side, in one pass however many components the
graph has.

Every step of ``solve_biregular`` is linear in the size of the graph;
loading the graph (``parse_graph``) adds one O(m log m) numpy sort.  The
[k,k+1]-factor (Petersen's Euler-circuit argument, ``kk1_factor``) walks
Euler circuits of the contraction and keeps alternate edges.  No step
recurses.  The contraction is two arrays (``build_reduced``): its edge
ends, as ranks on the high side, and the degree-2 vertex behind each edge;
``kk1_factor`` validates the ends once and returns the kept edge indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Union

import numpy as np

from .balance import TwoPartition, check
from .graphs import Graph
# Not called here: perfbench/tracer.py wraps these two by their names in this module.
from .graphs import bfs_distances, connected_components  # noqa: F401

__all__ = [
    "CycleCertificate",
    "Witness",
    "Certificate",
    "NotApplicable",
    "validate_2odd_biregular",
    "build_reduced",
    "kk1_factor",
    "solve_biregular",
    "extract_cycle_2mod4",
]


@dataclass(frozen=True)
class CycleCertificate:
    """Simple cycle, as a vertex sequence, of length ≡ 2 (mod 4)."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Witness:
    partition: TwoPartition


@dataclass(frozen=True)
class Certificate:
    cycle: CycleCertificate


@dataclass(frozen=True)
class NotApplicable:
    reason: str


def validate_2odd_biregular(g: Graph) -> Union[int, NotApplicable]:
    """k if g is in the class, else why not.

    Succeeds iff every vertex has degree 2 or a common odd degree 2k+1
    (k >= 1) and every edge joins the two degree classes, which are then
    the two sides: the degree-2 side and the high side.  Both tests run in
    numpy; a failure names the first edge inside a class, as ``edges`` sorts.
    """
    if g.n == 0:
        return NotApplicable("empty graph")
    degs = np.diff(g.indptr)
    high = np.unique(degs[degs != 2]).tolist()
    if not high:
        return NotApplicable("degrees (2,2); 2 is not 2k+1 with k >= 1")
    if len(high) > 1:
        return NotApplicable(f"more than two degree values: {high}")
    b = high[0]
    if b % 2 == 0 or b < 3:
        return NotApplicable(f"high-side degree {b} is not 2k+1 with k >= 1")
    high_side = degs != 2
    if high_side.all():
        return NotApplicable("no degree-2 side")
    inside = np.flatnonzero(np.repeat(high_side, degs) == high_side[g.nbrs])  # tail and head classes
    if len(inside):
        return NotApplicable(f"edge ({g.tails()[inside[0]]},{g.nbrs[inside[0]]}) stays inside one degree class")
    return (b - 1) // 2


def build_reduced(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Contract each degree-2 vertex of a graph that
    ``validate_2odd_biregular`` accepts into an edge between its two
    neighbors: (ends, xs), with ``ends`` the (m, 2) int64 edge ends as
    ranks on the high side and ``xs[e]`` the degree-2 vertex behind edge e,
    both sides taken in ascending order."""
    high_side = np.diff(g.indptr) != 2
    xs = np.flatnonzero(~high_side)
    rank = np.cumsum(high_side) - 1
    first = g.indptr[xs]
    return rank[g.nbrs[np.stack((first, first + 1), axis=1)]], xs


def kk1_factor(n: int, ends: np.ndarray) -> np.ndarray:
    """The edge indices, ascending, of a spanning subgraph of an r-regular
    multigraph (r >= 2) with every degree in [k, k+1], k = r // 2: the
    factor that ``solve_biregular`` takes of its (2k+1)-regular contraction.

    The multigraph has vertices 0..n-1 and edge e joining ``ends[e]``, an
    (m, 2) array: parallel edges are allowed, self-loops are not.  Alternate
    edges of Euler circuits (``_round_half_edges``), in time linear in its
    size; their degrees are checked by a raise.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError(f"edge ends must have shape (m, 2), got {ends.shape}")
    out = ((ends < 0) | (ends >= n)).any(axis=1)
    bad = np.flatnonzero(out | (ends[:, 0] == ends[:, 1]))
    if bad.size:  # the first bad edge, as the edges come
        u, v = ends[bad[0]].tolist()
        raise ValueError(f"edge ({u},{v}) out of range for n={n}" if out[bad[0]] else f"self-loop at vertex {u}")
    if n == 0:
        raise ValueError("empty multigraph is not r-regular with r >= 2")
    degs = np.bincount(ends.ravel(), minlength=n)
    r = int(degs[0])
    if (degs != r).any():
        raise ValueError(f"multigraph is not regular (degrees {np.unique(degs).tolist()})")
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    k = r // 2
    kept = np.sort(np.asarray(_round_half_edges(ends, degs), dtype=np.int64))
    final = np.bincount(ends[kept].ravel(), minlength=n)
    if final.min() < k or final.max() > k + 1:
        raise AssertionError(f"factor degrees {np.unique(final).tolist()} leave [{k}, {k + 1}]")
    return kept


def _round_half_edges(ends: np.ndarray, degs: np.ndarray) -> list[int]:
    """Every other edge of the multigraph along Euler circuits: a vertex of
    degree d keeps ⌊d/2⌋ or ⌊d/2⌋ + 1 of its edges.

    A hub (vertex len(degs)) is joined to every vertex of odd degree, so all
    degrees become even.  Hierholzer's walk covers each component in one
    circuit; alternate edges are kept.  Each pass through a vertex enters
    on one colour and leaves on the other, so a vertex of degree d that
    the walk only passes through keeps d/2 edges, or (d-1)/2 or (d+1)/2
    once its hub edge is dropped.  Circuits through the hub start there.
    A circuit without the hub keeps the colour of its first edge, so its
    start vertex keeps d/2 or, on an odd circuit, d/2 + 1.  Linear time
    and memory.
    """
    hub, size = len(degs), len(ends)
    pairs = ends.tolist()
    pairs += [(hub, v) for v in np.flatnonzero(degs % 2).tolist()]
    incident: list[list[int]] = [[] for _ in range(hub + 1)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    other = [u ^ v for u, v in pairs]  # the far end of edge e from v is v ^ other[e]
    used = bytearray(len(pairs))
    kept = []
    for start in chain((hub,), range(hub)):
        walk, arrivals = [start], [-1]  # the open walk and the edge into each vertex
        circuit = []  # edges in the order Hierholzer closes them
        while walk:
            v = walk[-1]
            inc = incident[v]
            while inc and used[inc[-1]]:
                inc.pop()
            if inc:
                e = inc.pop()
                used[e] = 1
                walk.append(v ^ other[e])
                arrivals.append(e)
            else:
                walk.pop()
                circuit.append(arrivals.pop())
        circuit.pop()  # the -1 of the start vertex
        kept.extend(e for e in circuit[::2] if e < size)
    return kept


def extract_cycle_2mod4(walk: list[int]) -> list[int]:
    """Reduce a closed walk of length ≡ 2 (mod 4) in a bipartite graph to a
    simple cycle of the same length class.

    Splitting a closed walk at a repeated vertex yields two closed sub-walks
    of even length summing to the original, so exactly one is ≡ 2 (mod 4);
    recursing on it terminates in a simple cycle.
    """
    walk = list(walk)
    if len(walk) % 4 != 2:
        raise ValueError(f"walk has length {len(walk)}, not 2 (mod 4)")
    while True:
        pos: dict[int, int] = {}
        split = None
        for j, v in enumerate(walk):
            if v in pos:
                split = (pos[v], j)
                break
            pos[v] = j
        if split is None:
            return walk
        i, j = split
        inner = walk[i:j]
        outer = walk[:i] + walk[j:]
        pick = inner if len(inner) % 4 == 2 else outer
        if len(pick) % 4 != 2 or len(pick) < 6:
            raise AssertionError(f"sub-walk has length {len(pick)}, not 2 (mod 4) and >= 6")
        walk = pick


def _check_certificate(g: Graph, cycle: list[int]) -> CycleCertificate:
    """The cycle as a certificate, or AssertionError if it is not a simple
    cycle of g of length ≡ 2 (mod 4).  A raise, not an assert, so that it
    also holds under ``python -O``."""
    length = len(cycle)
    if length % 4 != 2 or length < 6:
        raise AssertionError(f"certificate cycle has length {length}, not 2 (mod 4) and >= 6")
    if len(set(cycle)) != length:
        raise AssertionError("certificate cycle is not simple")
    for i in range(length):
        u, v = cycle[i], cycle[(i + 1) % length]
        if not g.has_edge(u, v):
            raise AssertionError(f"certificate pair ({u},{v}) is not an edge")
    return CycleCertificate(tuple(cycle))


def _bfs(g: Graph) -> tuple[list[int], list[int], int]:
    """Breadth-first search of a validated graph from each unreached
    high-side vertex in index order; stops at the first conflict.

    Returns (depth, parent, x).  x is the first degree-2 vertex popped whose
    other neighbour (not ``parent[x]``) lies one level above it, or -1 when
    the search ran to completion.  High-side depths are twice the depths of
    the same search on the contraction, and the neighbours of y list the
    degree-2 vertices in the order of the contraction's edge ids, so x
    closes the odd cycle that a BFS 2-colouring of the contraction meets
    first.  The search reads ``indptr`` and ``nbrs`` through memoryviews:
    flat reads with no copy and no numpy call per vertex.
    """
    ptr, nbrs = memoryview(g.indptr), memoryview(g.nbrs)
    depth = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if depth[root] >= 0 or ptr[root + 1] - ptr[root] == 2:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:  # the loop also visits what it appends
            d = depth[v] + 1
            if d % 2:  # v is a high-side vertex
                for x in nbrs[ptr[v] : ptr[v + 1]]:
                    if depth[x] < 0:
                        depth[x] = d
                        parent[x] = v
                        queue.append(x)
            else:
                w = nbrs[ptr[v]]
                if w == parent[v]:
                    w = nbrs[ptr[v] + 1]
                if depth[w] < 0:
                    depth[w] = d
                    parent[w] = v
                    queue.append(w)
                elif depth[w] == d - 2:
                    return depth, parent, v
    return depth, parent, -1


def _conflict_walk(g: Graph, parent: list[int], x: int) -> list[int]:
    """The simple cycle through the conflict x of ``_bfs``: from
    ``parent[x]`` up the tree to the lowest common ancestor, down to x's
    other neighbour, then through x.  Both ends of x are distinct high-side
    vertices of the same even depth, so the two tree paths climb the same
    even number h >= 2 of levels and meet only at their lowest common
    ancestor, and x lies one level below both paths; the cycle is simple
    and its length 2h + 2 is ≡ 2 (mod 4).  ``solve_biregular`` still checks
    it with raises."""
    u = parent[x]
    w, other = g.nbrs[g.indptr[x] : g.indptr[x] + 2].tolist()
    if w == u:
        w = other
    up, down = [u], [w]
    while u != w:
        u, w = parent[u], parent[w]
        up.append(u)
        down.append(w)
    return up + down[-2::-1] + [x]


def solve_biregular(g: Graph) -> Union[Witness, Certificate, NotApplicable]:
    """Witness partition or certificate cycle for a degree-(2,2k+1) graph.

    Exactly one of the two is returned on validated inputs.  Each is checked
    before it is released (the witness against the open-mode checker), by
    raises that also hold under ``python -O``.
    """
    va = validate_2odd_biregular(g)
    if isinstance(va, NotApplicable):
        return va
    depth, parent, x = _bfs(g)
    if x >= 0:
        return Certificate(_check_certificate(g, _conflict_walk(g, parent, x)))

    # Each component's root is its smallest high-side vertex; a high-side
    # vertex at distance 0 (mod 4) from it gets label 1, every other 0.
    # Degree-2 vertices have odd depth and get 1 exactly on factor edges.
    ends, xs = build_reduced(g)
    labels = (np.asarray(depth) % 4 == 0).astype(np.uint8)
    labels[xs[kk1_factor(g.n - len(xs), ends)]] = 1
    partition = TwoPartition(tuple(labels.tobytes()))
    violations = check(g, partition, "open")
    if violations:
        raise AssertionError(f"constructed witness failed the checker (violations at {violations})")
    return Witness(partition)
