"""Seeded input generators.

Every function draws only from the ``random.Random`` it is given, so one
seed gives byte-identical input files.  Formulas are clause lists of
0-based variable triples; multigraphs are edge lists that may hold parallel
edges but no self-loops.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

Clause = tuple[int, int, int]
Edge = tuple[int, int]


def balanced_assignment(n: int, rng: random.Random) -> list[int]:
    """Half zeros, half ones, shuffled: every NAE-E4 formula shape admits a
    planting, since each clause needs a 0 and a 1 among its variables."""
    x = [0] * (n // 2) + [1] * (n - n // 2)
    rng.shuffle(x)
    return x


def nae_formula(
    n: int, rng: random.Random, planted: Optional[Sequence[int]] = None
) -> list[Clause]:
    """Random monotone NAE-3-SAT formula with every variable in exactly four
    clauses (n divisible by 3, so 3k = 4n).

    A shuffled configuration model (four slots per variable, cut into
    triples) is repaired by random slot swaps until every clause holds three
    distinct variables and, when ``planted`` is given, is not monochrome
    under it.
    """
    if n < 3 or n % 3:
        raise ValueError(f"variable count must be a positive multiple of 3, got {n}")
    slots = [v for v in range(n) for _ in range(4)]
    rng.shuffle(slots)
    k = len(slots) // 3

    def bad(j: int) -> bool:
        a, b, c = slots[3 * j : 3 * j + 3]
        if a == b or b == c or a == c:
            return True
        return planted is not None and planted[a] == planted[b] == planted[c]

    broken = {j for j in range(k) if bad(j)}
    for _ in range(1000 * len(slots)):
        if not broken:
            return [tuple(slots[3 * j : 3 * j + 3]) for j in range(k)]
        j = rng.choice(sorted(broken))
        p = 3 * j + rng.randrange(3)
        q = rng.randrange(len(slots))
        slots[p], slots[q] = slots[q], slots[p]
        for i in (j, q // 3):
            if bad(i):
                broken.add(i)
            else:
                broken.discard(i)
    raise RuntimeError(f"could not repair a {n}-variable formula")


def formula_text(n: int, clauses: Sequence[Sequence[int]]) -> str:
    lines = [f"p nae3 {n} {len(clauses)}"]
    lines.extend(" ".join(str(x + 1) for x in c) for c in clauses)
    return "\n".join(lines) + "\n"


def relabel(
    clauses: Sequence[Clause], n: int, rng: random.Random
) -> tuple[list[Clause], list[int]]:
    """Randomly rename variables and shuffle clause order; returns the new
    clauses and the map old variable -> new variable."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(perm[x] for x in c) for c in clauses]
    rng.shuffle(out)
    return out, perm


def disjoint_union(blocks: Sequence[Sequence[Clause]], sizes: Sequence[int]) -> list[Clause]:
    """Concatenate formulas on disjoint variable ranges, in block order."""
    out: list[Clause] = []
    offset = 0
    for clauses, n in zip(blocks, sizes):
        out.extend(tuple(x + offset for x in c) for c in clauses)
        offset += n
    return out


def bipartite_regular_multigraph(half: int, b: int, rng: random.Random) -> list[Edge]:
    """b-regular bipartite multigraph on sides 0..half-1 and half..2*half-1."""
    right = [half + v for v in range(half) for _ in range(b)]
    rng.shuffle(right)
    left = [v for v in range(half) for _ in range(b)]
    return list(zip(left, right))


def regular_multigraph(m: int, b: int, rng: random.Random) -> list[Edge]:
    """Loop-free b-regular multigraph (configuration model, self-loops
    removed by swapping with a random other stub)."""
    if (m * b) % 2:
        raise ValueError("m*b must be even")
    stubs = [v for v in range(m) for _ in range(b)]
    rng.shuffle(stubs)
    for _ in range(1000 * len(stubs)):
        loops = [i for i in range(0, len(stubs), 2) if stubs[i] == stubs[i + 1]]
        if not loops:
            return [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        for i in loops:
            q = rng.randrange(len(stubs))
            stubs[i], stubs[q] = stubs[q], stubs[i]
    raise RuntimeError(f"could not remove self-loops from a {b}-regular multigraph on {m}")


def subdivide(m: int, mg_edges: Sequence[Edge], rng: random.Random) -> tuple[int, list[Edge]]:
    """The (2,b)-biregular graph of a b-regular multigraph: one degree-2
    vertex per multigraph edge.  All vertex labels are shuffled, which also
    shuffles the edge order of the contracted multigraph, and the edge lines
    are shuffled."""
    n = m + len(mg_edges)
    perm = list(range(n))
    rng.shuffle(perm)
    edges: list[Edge] = []
    for i, (u, v) in enumerate(mg_edges):
        x = perm[m + i]
        edges.append((perm[u], x))
        edges.append((x, perm[v]))
    rng.shuffle(edges)
    return n, edges


def c4s_then_c6(j: int, rng: random.Random) -> tuple[int, list[Edge]]:
    """j disjoint 4-cycles followed by one 6-cycle on the highest indices;
    vertex order inside each cycle is shuffled."""
    edges: list[Edge] = []
    base = 0
    for length in [4] * j + [6]:
        order = [base + i for i in range(length)]
        rng.shuffle(order)
        edges.extend((order[i], order[(i + 1) % length]) for i in range(length))
        base += length
    return base, edges


def graph_text(n: int, edges: Sequence[Edge]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
