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
(``_bfs``), rooted at each component's smallest high-side vertex.  A
degree-2 vertex whose two neighbours share a depth closes an odd cycle of
the contraction; the certificate path stops at the first one and lifts it
along the parent pointers, without building the contraction.  Otherwise
the search runs to completion and its depths (mod 4) colour the high side,
in one pass however many components the graph has.

Every step of ``solve_biregular`` is linear in the size of the graph;
loading the graph (``parse_graph``) adds one O(m log m) numpy sort.  The
factor (Petersen's Euler-circuit argument) joins a hub to every vertex of
the (2k+1)-regular contraction, walks an Euler circuit from the hub and
keeps alternate edges; each vertex is passed through k+1 times, so it keeps k or k+1 real edges.
``kk1_factor`` also serves every other k < r by folding k perfect matchings
of the bipartite double cover into kept and half edges and rounding the
half edges the same way.  No step recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence, Union

from .balance import TwoPartition, check
from .graphs import Bipartition, Graph, MultiGraph
# Not called here: perfbench/tracer.py wraps these two by their names in this module.
from .graphs import bfs_distances, connected_components  # noqa: F401

__all__ = [
    "ReducedMultigraph",
    "FactorResult",
    "CycleCertificate",
    "Witness",
    "Certificate",
    "NotApplicable",
    "validate_2odd_biregular",
    "build_reduced",
    "kk1_factor",
    "solve_biregular",
    "has_bad_cycle",
    "extract_cycle_2mod4",
]


@dataclass(frozen=True)
class ReducedMultigraph:
    """Multigraph on the high-degree side; one edge per degree-2 vertex.

    ``y_vertices[i]`` is the original vertex behind local index i and
    ``x_of_edge[e]`` the degree-2 vertex contracted into edge e.
    """

    graph: MultiGraph
    y_vertices: tuple[int, ...]
    x_of_edge: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class FactorResult:
    """Spanning subgraph (edge-index subset) with all degrees in [k, k+1]."""

    edges: frozenset[int]
    degrees: tuple[int, ...]


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


def validate_2odd_biregular(
    g: Graph,
) -> Union[tuple[Bipartition, int], NotApplicable]:
    """Check membership in the class; side_x is the degree-2 side.

    Succeeds iff every vertex has degree 2 or a common odd degree 2k+1
    (k >= 1) and every edge joins the two degree classes.
    """
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
    xs = [v for v in range(g.n) if degs[v] == 2]
    if not xs:
        return NotApplicable("no degree-2 side")
    ys = [v for v in range(g.n) if degs[v] == b]
    # No edge lies inside X iff every neighbor of X has degree b.  Then the
    # 2|X| edges leaving X fill all b|Y| edge ends on Y iff none lies inside Y.
    x_neighbors = chain.from_iterable(map(g.adj.__getitem__, xs))
    if b * len(ys) != 2 * len(xs) or set(map(degs.__getitem__, x_neighbors)) != {b}:
        u, v = next((u, v) for u, v in g.edges() if (degs[u] == 2) == (degs[v] == 2))
        return NotApplicable(f"edge ({u},{v}) stays inside one degree class")
    return Bipartition(frozenset(xs), frozenset(ys)), (b - 1) // 2


def build_reduced(g: Graph, bip: Bipartition, k: int) -> ReducedMultigraph:
    """Contract each degree-2 vertex into an edge between its two neighbors."""
    ys = sorted(bip.side_y)
    local = [0] * g.n
    for i, y in enumerate(ys):
        local[y] = i
    provenance = tuple(sorted(bip.side_x))
    ends = list(map(local.__getitem__, chain.from_iterable(map(g.adj.__getitem__, provenance))))
    mg = MultiGraph(len(ys), tuple(zip(ends[::2], ends[1::2])))
    r = 2 * k + 1
    assert all(d == r for d in mg.degrees()), "reduced multigraph is not regular"
    return ReducedMultigraph(mg, tuple(ys), provenance, k)


def kk1_factor(m: MultiGraph, k: int) -> FactorResult:
    """A spanning subgraph with every degree in [k, k+1] of an r-regular
    multigraph (1 <= k < r), which always exists.

    For r in {2k, 2k+1}, the only case ``solve_biregular`` needs, every edge
    is a half edge: a hub is joined to each odd-degree vertex, Euler
    circuits are walked from the hub and alternate edges are kept
    (``_round_half_edges``), in time linear in the size of m.  For any other
    k, k disjoint perfect matchings of the bipartite double cover (vertices
    v+ and v-; an edge uv becomes u+v- and v+u-) give each vertex 2k edge
    copies.  Folded back, an edge with both copies matched is kept outright
    and one with a single copy is a half edge.  A vertex with h half edges
    then has k - h/2 kept ones and h is even, so the same rounding lands it
    in [k, k+1].  The matchings come from augmenting paths, in O(k·n·m).
    """
    degs = m.degrees()
    if m.n == 0:
        raise ValueError("empty multigraph is not r-regular with r > k >= 1")
    r = degs[0]
    if any(d != r for d in degs):
        raise ValueError(f"multigraph is not regular (degrees {sorted(set(degs))})")
    if not 1 <= k < r:
        raise ValueError(f"need 1 <= k < r, got k={k}, r={r}")

    if r in (2 * k, 2 * k + 1):
        full: list[int] = []
        half: Sequence[int] = range(len(m.edges))
    else:
        copies = _double_cover_copies(m, k)
        full = [e for e, c in enumerate(copies) if c == 2]
        half = [e for e, c in enumerate(copies) if c == 1]
    picked = frozenset(_round_half_edges(m, full, half))
    final = [0] * m.n
    for i in picked:
        u, v = m.edges[i]
        final[u] += 1
        final[v] += 1
    assert all(k <= d <= k + 1 for d in final)
    return FactorResult(picked, tuple(final))


def _round_half_edges(m: MultiGraph, full: Sequence[int], half: Sequence[int]) -> list[int]:
    """The ``full`` edges plus every other ``half`` edge along Euler circuits.

    A hub (vertex m.n) is joined to every vertex of odd half-degree, so all
    degrees become even.  Hierholzer's walk covers each component in one
    circuit; alternate edges are kept.  Each pass through a vertex enters
    on one colour and leaves on the other, so a vertex of half-degree h
    that the walk only passes through keeps h/2 half edges, or (h-1)/2 or
    (h+1)/2 once its hub edge is dropped.  Circuits through the hub start
    there.  A circuit without the hub keeps the colour of its first edge,
    so its start vertex keeps h/2 or, on an odd circuit, h/2 + 1.  Linear
    time and memory.
    """
    hub = m.n
    ends = [m.edges[e] for e in half]
    half_deg = [0] * m.n
    for u, v in ends:
        half_deg[u] += 1
        half_deg[v] += 1
    ends += [(hub, v) for v in range(m.n) if half_deg[v] % 2]
    incident: list[list[int]] = [[] for _ in range(hub + 1)]
    for i, (u, v) in enumerate(ends):
        incident[u].append(i)
        incident[v].append(i)
    other = [u ^ v for u, v in ends]  # the far end of edge e from v is v ^ other[e]
    used = bytearray(len(ends))
    kept = list(full)
    for start in chain((hub,), range(m.n)):
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
        kept.extend(half[e] for e in circuit[::2] if e < len(half))
    return kept


def _double_cover_copies(m: MultiGraph, k: int) -> list[int]:
    """For each edge, how many of its two copies lie in k disjoint perfect
    matchings of the bipartite double cover (augmenting paths, iterative).

    Arc 2e joins u+ to v- and arc 2e+1 joins v+ to u-, for edge e = (u, v).
    The double cover of an r-regular multigraph is r-regular and bipartite,
    so after any j < r disjoint perfect matchings another one exists.
    """
    tail = [x for uv in m.edges for x in uv]  # the + end of each arc
    head = [x for u, v in m.edges for x in (v, u)]  # the - end
    out: list[list[int]] = [[] for _ in range(m.n)]
    for a, x in enumerate(tail):
        out[x].append(a)
    used = [False] * len(tail)
    for _ in range(k):
        match = [-1] * m.n  # arc matched into each - vertex
        for root in range(m.n):
            seen = [False] * m.n
            stack = [iter(out[root])]
            path: list[int] = []  # path[i] leaves the vertex of stack[i]
            while stack:
                for a in stack[-1]:
                    w = head[a]
                    if used[a] or seen[w]:
                        continue
                    seen[w] = True
                    path.append(a)
                    if match[w] < 0:
                        for b in path:
                            match[head[b]] = b
                        stack = []
                    else:
                        stack.append(iter(out[tail[match[w]]]))
                    break
                else:
                    stack.pop()
                    if path:
                        path.pop()
            assert path, "double cover has no perfect matching"
        for a in match:
            used[a] = True
    return [used[2 * e] + used[2 * e + 1] for e in range(len(m.edges))]


def extract_cycle_2mod4(walk: list[int]) -> list[int]:
    """Reduce a closed walk of length ≡ 2 (mod 4) in a bipartite graph to a
    simple cycle of the same length class.

    Splitting a closed walk at a repeated vertex yields two closed sub-walks
    of even length summing to the original, so exactly one is ≡ 2 (mod 4);
    recursing on it terminates in a simple cycle.
    """
    walk = list(walk)
    while True:
        assert len(walk) % 4 == 2
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
        assert len(pick) % 4 == 2 and len(pick) >= 6
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
    the same search on the contraction, and ``g.adj[y]`` lists the degree-2
    vertices in the order of the contraction's edge ids, so x closes the
    odd cycle that a BFS 2-colouring of the contraction meets first.
    """
    adj = g.adj
    depth = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if depth[root] >= 0 or len(adj[root]) == 2:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:  # the loop also visits what it appends
            d = depth[v] + 1
            if d % 2:  # v is a high-side vertex
                for x in adj[v]:
                    if depth[x] < 0:
                        depth[x] = d
                        parent[x] = v
                        queue.append(x)
            else:
                w, other = adj[v]
                if w == parent[v]:
                    w = other
                if depth[w] < 0:
                    depth[w] = d
                    parent[w] = v
                    queue.append(w)
                elif depth[w] == d - 2:
                    return depth, parent, v
    return depth, parent, -1


def _conflict_walk(g: Graph, parent: list[int], x: int) -> list[int]:
    """The closed walk through the conflict x of ``_bfs``: from
    ``parent[x]`` up the tree to the lowest common ancestor, down to x's
    other neighbour, then through x.  Both ends of x have the same even
    depth, so the walk climbs an even number h of levels and its length
    2h + 2 is ≡ 2 (mod 4)."""
    u = parent[x]
    w, other = g.adj[x]
    if w == u:
        w = other
    up, down = [u], [w]
    while u != w:
        u, w = parent[u], parent[w]
        up.append(u)
        down.append(w)
    return up + down[-2::-1] + [x]


def has_bad_cycle(g: Graph) -> bool:
    """True iff the validated graph has a cycle of length ≡ 2 (mod 4).

    Equivalent to the reduced multigraph having an odd cycle; this
    equivalence depends on the degree-2 side and holds only for this class.
    """
    va = validate_2odd_biregular(g)
    if isinstance(va, NotApplicable):
        raise ValueError(f"not applicable: {va.reason}")
    return _bfs(g)[2] >= 0


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
        cycle = extract_cycle_2mod4(_conflict_walk(g, parent, x))
        return Certificate(_check_certificate(g, cycle))

    # Each component's root is its smallest high-side vertex; a high-side
    # vertex at distance 0 (mod 4) from it gets label 1, every other 0.
    # Degree-2 vertices have odd depth and get 1 exactly on factor edges.
    bip, k = va
    red = build_reduced(g, bip, k)
    factor = kk1_factor(red.graph, red.k)
    labels = [1 if d % 4 == 0 else 0 for d in depth]
    for e in factor.edges:
        labels[red.x_of_edge[e]] = 1
    partition = TwoPartition(tuple(labels))
    violations = check(g, partition, "open")
    if violations:
        raise AssertionError(f"constructed witness failed the checker (violations at {violations})")
    return Witness(partition)
