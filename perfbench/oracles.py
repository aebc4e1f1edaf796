"""Answer checks that share no code path with the answers they check.

Balance validity is recomputed here with numpy straight from the graph
file, never through ``lb2p``'s parser or checker.  Assignments are checked
with ``lb2p.nae.nae_eval`` against the formula the generator built, UNSAT
blocks with ``lb2p.nae.brute_sat``, and witness-vs-certificate with
``networkx.is_bipartite`` on the multigraph the generator built.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np


def read_graph(path: Path) -> tuple[int, np.ndarray]:
    """(n, edges as an m x 2 int array) of an edge-list file."""
    values = np.array(Path(path).read_text(encoding="ascii").split(), dtype=np.int64)
    n, m = int(values[0]), int(values[1])
    edges = values[2:].reshape(-1, 2)
    if len(edges) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edges)}")
    return n, edges


def violators(n: int, edges: np.ndarray, line: str, mode: str) -> list[int]:
    """Vertices whose open/closed balance leaves [-1, 1] under a 0/1 line."""
    labels = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    if len(labels) != n or np.any(labels > 1):
        raise ValueError(f"expected {n} labels from 0/1, got {line[:40]!r}...")
    phi = 2 * labels.astype(np.int64) - 1
    u, v = edges[:, 0], edges[:, 1]
    bal = np.bincount(u, weights=phi[v], minlength=n) + np.bincount(v, weights=phi[u], minlength=n)
    if mode == "closed":
        bal += phi
    return [int(x) for x in np.flatnonzero(np.abs(bal) > 1)]


def c6_open_unsat() -> bool:
    """The 6-cycle has no valid open partition (all 64 labelings tried)."""
    edges = np.array([(i, (i + 1) % 6) for i in range(6)])
    return all(
        violators(6, edges, "".join(map(str, bits)), "open") for bits in product((0, 1), repeat=6)
    )


def cycle_2mod4(n: int, edges: np.ndarray, cycle: Sequence[int]) -> bool:
    """A simple cycle of the graph whose length is 2 (mod 4)."""
    length = len(cycle)
    if length < 6 or length % 4 != 2 or len(set(cycle)) != length:
        return False
    if any(not (0 <= v < n) for v in cycle):
        return False
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    keys = set((lo * n + hi).tolist())
    for i in range(length):
        a, b = cycle[i], cycle[(i + 1) % length]
        if min(a, b) * n + max(a, b) not in keys:
            return False
    return True


def reduced_is_bipartite(m: int, mg_edges: np.ndarray) -> bool:
    """networkx's verdict on the contracted multigraph: bipartite means the
    (2,2k+1) graph has a witness, otherwise a 2-mod-4 cycle certificate.
    Parallel edges close only even cycles, so a simple graph suffices."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(m))
    g.add_edges_from(mg_edges.tolist())
    return nx.is_bipartite(g)


def nae_satisfied(n: int, clauses, assignment: Sequence[int]) -> bool:
    from lb2p.nae import NaeInstance, nae_eval

    return nae_eval(NaeInstance.from_clauses(n, clauses), list(assignment))


def nae_unsat(n: int, clauses) -> bool:
    from lb2p.nae import NaeInstance, brute_sat

    return brute_sat(NaeInstance.from_clauses(n, clauses)) is None
