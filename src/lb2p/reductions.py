"""Executable reductions from the four-occurrence monotone NAE-3-SAT problem
to locally-balanced 2-partition existence on four restricted graph classes,
the rows of the ``REDUCTIONS`` table:

* ``bireg``     open mode, (3,8r)-biregular bipartite, n + 2rk vertices
* ``even``      open mode, even bipartite with max degree 4, 16n + 3k vertices
* ``subcubic``  closed mode, bipartite with max degree 3, 30n + k vertices
* ``odd``       closed mode, all degrees odd, max degree 3, 30n + 10k vertices

Every constructor verifies its gadget contracts first and checks its class
postconditions on one ``classify`` report, which the artifact keeps.  The
table row's layout is the role map: its blocks, placed one after another,
give every vertex a tagged role by offset.  So a ``.roles`` file is one
header line, ``reduction=... mode=... n=... k=... r=...``, and
``read_artifact`` refuses any line below it.  The role map supports the
two directional maps: a satisfying assignment lifts to a checker-valid
partition, and a valid partition projects back to a satisfying
assignment.  Both maps check their result and raise, never assert, when
the graph disagrees with its roles.  Every step is block arithmetic over
numpy arrays, with no Python step per vertex or edge: a constructor
broadcasts its template edges over the copies, the lift fills each
template slot's strided slice of one label array, and the extract
reshapes block 0.

Vertex layout is chosen so the exact solver's index-order branching performs
well: variable vertices (or whole gadget blocks, in the closed
constructions) come first, letting clause conflicts surface during
propagation before any free chain vertices are branched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .balance import TwoPartition, check
from .gadgets import ensure_verified, gadget_f1, gadget_f4, gadget_forcing
from .graphs import ClassReport, Graph, classify, parse_graph, serialize_graph
from .graphs import bipartition  # noqa: F401  (a layer that perfbench/tracer.py wraps here)
from .nae import NaeInstance, occurrence_slots

__all__ = [
    "ReductionArtifact",
    "UnsatAssignmentError",
    "InvalidPartitionError",
    "RoleMapError",
    "REDUCTIONS",
    "REDUCTION_NAMES",
    "reduce_open_biregular",
    "reduce_open_even",
    "reduce_closed_subcubic",
    "reduce_closed_odd",
    "reduce_by_name",
    "summary",
    "assignment_to_partition",
    "partition_to_assignment",
    "artifact_paths",
    "write_artifact",
    "read_artifact",
]

GAMMA_SIZE = 30


class UnsatAssignmentError(ValueError):
    """The assignment leaves some clause monochrome; no lift is defined."""


class InvalidPartitionError(ValueError):
    """The partition fails the balance checker in the artifact's mode."""


class RoleMapError(ValueError):
    """A role-map document is malformed or inconsistent."""


_MISMATCH = "the graph does not match its role map"


Role = tuple[str, tuple[int, ...]]
Block = tuple[int, Sequence[Role], int]  # (first vertex, template, count)


@dataclass(frozen=True)
class ReductionArtifact:
    """Reduction output: the graph and the instance shape, which with the
    table row's layout give every vertex its role."""

    name: str
    mode: str
    graph: Graph
    n_vars: int
    n_clauses: int
    r: int = 0
    # the report a constructor checked; None when read_artifact loaded it
    classes: Optional[ClassReport] = field(default=None, compare=False, repr=False)


@cache
def _gamma_template() -> tuple[Role, ...]:
    """The roles of one forcing gadget: ("p", (slot,)) or ("g", (local,))."""
    slot = {local: t for t, local in enumerate(gadget_forcing().inputs, start=1)}
    return tuple([("p", (slot[x],)) if x in slot else ("g", (x,)) for x in range(GAMMA_SIZE)])


def _blocks(name: str, n: int, k: int, r: int) -> tuple[list[Block], int]:
    """The layout's blocks as (first vertex, template, count), and the vertex
    count.  A block repeats its template once per variable (count n) or
    clause (count k): copy i of the template role (tag, rest) at slot s is
    vertex first + len(template)*i + s, and its role is (tag, (i, *rest))."""
    blocks, first = [], 0
    for template, count in REDUCTIONS[name].layout(n, k, r):
        blocks.append((first, template, count))
        first += len(template) * count
    return blocks, first


def _pairs(u, v) -> np.ndarray:
    """The pairs (u, v) of two index arrays broadcast together, as rows."""
    u, v = np.broadcast_arrays(u, v)
    return np.stack((u.ravel(), v.ravel()), axis=1)


def _copies(local, first: int, width: int, count: int) -> np.ndarray:
    """A template's local edges once per copy, copy i shifted by first + width*i."""
    local = np.asarray(local, dtype=np.int64).reshape(1, -1, 2)
    return (first + width * np.arange(count)[:, None, None] + local).reshape(-1, 2)


def _clause_inputs(inst: NaeInstance, width: int, inputs: Sequence[int]) -> np.ndarray:
    """Per clause (k, 3), the input vertex carrying each member's occurrence:
    slot t of its copy of the ``width``-vertex block-0 template is ``inputs[t - 1]``."""
    clauses = np.array(inst.clauses, dtype=np.int64).reshape(-1, 3)
    slots = np.array(occurrence_slots(inst), dtype=np.int64).reshape(-1, 3)
    return width * clauses + np.asarray(inputs, dtype=np.int64)[slots - 1]


def _artifact(name: str, inst: NaeInstance, parts: list, r: int = 0) -> ReductionArtifact:
    """The artifact of the reduction's edge arrays (``parts``, emptied before ``classify``) and layout,
    once its graph passes the class postcondition (a raise, so that it also holds under python -O)."""
    edges = np.concatenate([np.asarray(part, dtype=np.int64).reshape(-1, 2) for part in parts])
    parts.clear()
    graph = Graph.from_edges(_blocks(name, inst.n, inst.k, r)[1], edges)
    del edges
    classes = classify(graph)
    if not REDUCTIONS[name].in_class(classes, r):
        raise AssertionError(f"{name} reduction built a graph outside its class: {classes}")
    return ReductionArtifact(name, REDUCTIONS[name].mode, graph, inst.n, inst.k, r, classes)


def reduce_open_biregular(inst: NaeInstance, r: int = 1) -> ReductionArtifact:
    """One vertex per variable, 2r per clause, complete joins on membership."""
    if r < 1:
        raise ValueError("r must be at least 1")
    clauses = np.array(inst.clauses, dtype=np.int64).reshape(-1, 3)
    q = inst.n + 2 * r * np.arange(inst.k)[:, None] + np.arange(2 * r)
    return _artifact("bireg", inst, [_pairs(clauses[:, :, None], q[:, None, :])], r)


def reduce_open_even(inst: NaeInstance) -> ReductionArtifact:
    """Per variable a 16-cycle forcing gadget, per clause two degree-4
    vertices and one degree-2 absorber."""
    ensure_verified(gadget_f1())
    n, k = inst.n, inst.k
    p = lambda i, t: 4 * i + (t - 1)
    u = lambda i, j: 4 * n + 12 * i + (j - 1)
    q = lambda j, l: 16 * n + 2 * j + (l - 1)
    v = lambda j: 16 * n + 2 * k + j
    i, j, l = np.arange(n)[:, None], np.arange(k)[:, None], np.arange(1, 5)
    return _artifact("even", inst, [
        _pairs(p(i, l), u(i, 3 * l - 2)),
        _pairs(u(i, 3 * l - 2), u(i, 3 * l - 1)),
        _pairs(u(i, 3 * l - 1), u(i, 3 * l)),
        _pairs(u(i, 3 * l), p(i, l % 4 + 1)),
        _pairs(_clause_inputs(inst, 4, range(4))[:, :, None], q(j, l[:2])[:, None, :]),
        _pairs(q(j, l[:2]), v(j)),
    ])


def _gamma_edges(n: int, gamma) -> np.ndarray:
    """One copy of the forcing gadget per variable, copy i at GAMMA_SIZE*i."""
    return _copies(gamma.graph.edges(), 0, GAMMA_SIZE, n)


def _subcubic_parts(inst: NaeInstance) -> tuple[list[np.ndarray], np.ndarray]:
    """The subcubic edges, one forcing gadget per variable and clause j's vertex
    GAMMA_SIZE*n + j joined to its three gadget inputs, and those inputs."""
    gamma = gadget_forcing()
    ensure_verified(gamma)
    inputs = _clause_inputs(inst, GAMMA_SIZE, gamma.inputs)
    clause = GAMMA_SIZE * inst.n + np.arange(inst.k)[:, None]
    return [_gamma_edges(inst.n, gamma), _pairs(clause, inputs)], inputs


def reduce_closed_subcubic(inst: NaeInstance) -> ReductionArtifact:
    """Per variable one 30-vertex forcing gadget, per clause one degree-3
    vertex joined to the inputs that carry its variables' occurrences."""
    return _artifact("subcubic", inst, _subcubic_parts(inst)[0])


def reduce_closed_odd(inst: NaeInstance) -> ReductionArtifact:
    """Subcubic construction plus one triangle widget per clause, making
    every degree odd (each input gains a pendant strand)."""
    parts, inputs = _subcubic_parts(inst)
    f4 = gadget_f4()
    ensure_verified(f4)
    # clause j's widget is copy j from GAMMA_SIZE*n + k; strand t starts at its local 3t
    first = GAMMA_SIZE * inst.n + inst.k
    widget = first + f4.graph.n * np.arange(inst.k)[:, None]
    parts += [_pairs(widget + 3 * np.arange(3), inputs), _copies(f4.graph.edges(), first, f4.graph.n, inst.k)]
    return _artifact("odd", inst, parts)


def _closed_rules(a, cancel, clause_vars) -> dict[str, Callable[..., int]]:
    completion = np.array([gadget_forcing().completion(beta) for beta in (0, 1)], dtype=np.uint8)
    return {
        "p": lambda i, t: a[i],
        "g": lambda i, local: completion[a[i], local],
        "q": lambda j: cancel[j],
        "y": lambda j, t: 1 - cancel[j],
        "z": lambda j, t: cancel[j],
        # strand t of clause j hangs off the input of its t-th variable
        "b": lambda j, t: 1 - a[clause_vars[j, t - 1]],
    }


@dataclass(frozen=True)
class Reduction:
    """One row of ``REDUCTIONS``.  ``build`` calls the constructor by its
    module-level name, where a tracing wrapper sees the call.  ``layout``
    gives the (template, count) blocks that ``_blocks`` places one after
    another from vertex 0, the first holding the input ("p") roles.
    ``rules(a, cancel, clause_vars)`` gives each tag's label rule over arrays:
    the lift calls a rule once per template slot, on every copy at once."""

    mode: str
    build: Callable[[NaeInstance, int], ReductionArtifact]
    layout: Callable[[int, int, int], list[tuple[Sequence[Role], int]]]
    in_class: Callable[[ClassReport, int], bool]
    rules: Callable[..., dict[str, Callable[..., int]]]
    describe: Callable[[ClassReport], str]


REDUCTIONS = {
    "bireg": Reduction(
        mode="open",
        build=lambda inst, r: reduce_open_biregular(inst, r),
        layout=lambda n, k, r: [([("p", ())], n), ([("q", (l,)) for l in range(1, 2 * r + 1)], k)],
        in_class=lambda c, r: c.biregular == (3, 8 * r),
        rules=lambda a, cancel, clause_vars: {"p": lambda i: a[i], "q": lambda j, l: l % 2},
        describe=lambda c: "({},{})-biregular".format(*c.biregular),
    ),
    "even": Reduction(
        mode="open",
        build=lambda inst, r: reduce_open_even(inst),
        layout=lambda n, k, r: [
            ([("p", (t,)) for t in range(1, 5)], n),
            ([("g", (j,)) for j in range(1, 13)], n),
            ([("q", (1,)), ("q", (2,))], k),
            ([("v", ())], k),
        ],
        in_class=lambda c, r: c.is_even and c.max_degree == 4 and c.is_bipartite,
        rules=lambda a, cancel, clause_vars: {
            "p": lambda i, t: a[i],
            "g": lambda i, j: a[i] if j % 3 == 1 else 1 - a[i],
            "q": lambda j, l: 1 if l == 1 else 0,
            "v": lambda j: cancel[j],
        },
        describe=lambda c: f"even bipartite maxdeg {c.max_degree}",
    ),
    "subcubic": Reduction(
        mode="closed",
        build=lambda inst, r: reduce_closed_subcubic(inst),
        layout=lambda n, k, r: [(_gamma_template(), n), ([("q", ())], k)],
        in_class=lambda c, r: c.max_degree == 3 and c.is_bipartite,
        rules=_closed_rules,
        describe=lambda c: f"bipartite maxdeg {c.max_degree}",
    ),
    "odd": Reduction(
        mode="closed",
        build=lambda inst, r: reduce_closed_odd(inst),
        layout=lambda n, k, r: [
            (_gamma_template(), n),
            ([("q", ())], k),
            ([(tag, (t,)) for t in range(1, 4) for tag in "yzb"], k),
        ],
        in_class=lambda c, r: c.is_odd and c.max_degree == 3 and not c.is_bipartite,
        rules=_closed_rules,
        describe=lambda c: f"odd maxdeg {c.max_degree}",
    ),
}
REDUCTION_NAMES = tuple(REDUCTIONS)


def reduce_by_name(name: str, inst: NaeInstance, r: int = 1) -> ReductionArtifact:
    if name not in REDUCTIONS:
        raise ValueError(f"unknown reduction {name!r}")
    return REDUCTIONS[name].build(inst, r)


def summary(artifact: ReductionArtifact) -> str:
    """The line ``lb2p reduce`` prints: the vertex count and the class."""
    return f"{artifact.graph.n} vertices {REDUCTIONS[artifact.name].describe(artifact.classes)}"


def _clause_pvars(artifact: ReductionArtifact, blocks: Sequence[Block]) -> np.ndarray:
    """The (k, 3) variables of the p vertices adjacent to each clause vertex,
    in vertex order, read in one gather of the clause vertices' rows;
    RoleMapError, for the first clause vertex, unless there are three.
    Clause j's vertex opens copy j of the first block of q roles; a p vertex
    w lies in block 0 at a p slot, of variable w // width."""
    (_, inputs, _), *rest = blocks
    width, end = len(inputs), len(inputs) * artifact.n_vars
    is_p = np.array([tag == "p" for tag, _ in inputs])
    first, clause_template, _ = next(block for block in rest if block[1][0][0] == "q")
    g = artifact.graph
    qv = first + len(clause_template) * np.arange(artifact.n_clauses)
    lo, sizes = g.indptr[qv], g.indptr[qv + 1] - g.indptr[qv]
    clause = np.repeat(np.arange(len(qv)), sizes)
    w = g.nbrs[lo[clause] + np.arange(len(clause)) - (np.cumsum(sizes) - sizes)[clause]]
    keep = (w < end) & is_p[w % width]
    counts = np.bincount(clause[keep], minlength=len(qv))
    if (counts != 3).any():
        j = (counts != 3).argmax()
        raise RoleMapError(f"clause vertex {qv[j]} has {counts[j]} variable neighbours, expected 3")
    return (w[keep] // width).reshape(-1, 3)


def assignment_to_partition(artifact: ReductionArtifact, assignment: Sequence[int]) -> TwoPartition:
    """Lift a satisfying assignment to a partition valid in the artifact's
    mode, checked against the checker before it is returned.

    Raises UnsatAssignmentError when some clause is monochrome; the clause
    vertices' completion rule is undefined in that case.  Raises
    RoleMapError when the lift fails the checker, which happens only when
    the graph is not the one its role map describes.
    """
    if len(assignment) != artifact.n_vars:
        raise ValueError(f"assignment has {len(assignment)} entries for n={artifact.n_vars}")
    if not set(assignment) <= {0, 1}:
        raise ValueError("assignment entries must be 0 or 1")
    a = np.array(assignment, dtype=np.uint8)
    blocks, order = _blocks(artifact.name, artifact.n_vars, artifact.n_clauses, artifact.r)
    clause_vars = _clause_pvars(artifact, blocks)
    values = a[clause_vars]
    monochrome = np.flatnonzero(values.min(axis=1) == values.max(axis=1))
    if len(monochrome):
        raise UnsatAssignmentError(f"clause {monochrome[0]} is monochrome under the assignment")
    # 1 where at most one variable is 1 (phi_star sum -1): the label that cancels it
    cancel = (values.sum(axis=1) < 2).astype(np.uint8)
    rules = REDUCTIONS[artifact.name].rules(a, cancel, clause_vars)
    labels = np.empty(order, dtype=np.uint8)
    for first, template, count in blocks:
        copies = np.arange(count)
        for s, (tag, rest) in enumerate(template):
            labels[first + s : first + len(template) * count : len(template)] = rules[tag](copies, *rest)
    partition = TwoPartition(tuple(labels.tolist()))
    violations = check(artifact.graph, partition, artifact.mode)
    if violations:
        raise RoleMapError(f"lifted partition violates balance at {violations}: {_MISMATCH}")
    return partition


def partition_to_assignment(artifact: ReductionArtifact, partition: TwoPartition) -> tuple[int, ...]:
    """Read an assignment off the input vertices of every variable.

    Raises InvalidPartitionError when the partition fails the checker.  On
    valid partitions the gadget forcing makes all of a variable's inputs
    agree and the clause-vertex balance makes the result satisfying; both
    are checked, and RoleMapError says the graph is not the one its role
    map describes.
    """
    violations = check(artifact.graph, partition, artifact.mode)
    if violations:
        raise InvalidPartitionError(f"partition violates balance at {violations}")
    blocks, _ = _blocks(artifact.name, artifact.n_vars, artifact.n_clauses, artifact.r)
    _, template, _ = blocks[0]
    slots = [s for s, (tag, _) in enumerate(template) if tag == "p"]
    n, width = artifact.n_vars, len(template)
    # row i: the labels of variable i's inputs, its copy's p slots in block 0
    inputs = np.frombuffer(bytes(partition.labels), dtype=np.uint8)[: width * n].reshape(n, width)[:, slots]
    disagree = np.flatnonzero((inputs != inputs[:, :1]).any(axis=1))
    if len(disagree):
        raise RoleMapError(f"the inputs of variable {disagree[0]} disagree: {_MISMATCH}")
    values = inputs[:, 0][_clause_pvars(artifact, blocks)]
    monochrome = np.flatnonzero(values.min(axis=1) == values.max(axis=1))
    if len(monochrome):
        raise RoleMapError(f"clause {monochrome[0]} is monochrome: {_MISMATCH}")
    return tuple(inputs[:, 0].tolist())


_HEADER_RE = re.compile(r"reduction=(\w+) mode=(\w+) n=(\d+) k=(\d+) r=(\d+)")


def artifact_paths(base: Union[str, Path]) -> tuple[Path, Path]:
    """The artifact's files <base>.graph and <base>.roles."""
    base = Path(base)
    return base.with_name(base.name + ".graph"), base.with_name(base.name + ".roles")


def write_artifact(artifact: ReductionArtifact, base: Union[str, Path]) -> tuple[Path, Path]:
    """Write <base>.graph (canonical edge list) and <base>.roles, the one
    header line that, with the table row's layout, gives every vertex its role."""
    graph_path, roles_path = artifact_paths(base)
    graph_path.write_text(serialize_graph(artifact.graph), encoding="ascii")
    a = artifact
    roles_path.write_text(f"reduction={a.name} mode={a.mode} n={a.n_vars} k={a.n_clauses} r={a.r}\n", encoding="ascii")
    return graph_path, roles_path


def read_artifact(base: Union[str, Path]) -> ReductionArtifact:
    """Read <base>.graph and <base>.roles.  The role map is its header line alone, as
    str.splitlines cuts the text: any line below it, such as a per-vertex record of an older
    artifact, is refused.  Only two "\\n" lines of .roles are read: they hold the first two."""
    graph_path, roles_path = artifact_paths(base)
    graph = parse_graph(graph_path.read_text(encoding="ascii"))
    with roles_path.open(encoding="ascii") as file:  # universal newlines: no "\r" is left
        lines = (file.readline() + file.readline()).splitlines()
    m = _HEADER_RE.fullmatch(lines[0]) if lines else None
    if not m:
        raise RoleMapError(f"bad role-map header: {lines[0]!r}" if lines else "empty role map")
    name, mode = m.group(1, 2)
    n, k, r = map(int, m.group(3, 4, 5))
    if name not in REDUCTIONS:
        raise RoleMapError(f"unknown reduction {name!r}")
    if mode != REDUCTIONS[name].mode:
        raise RoleMapError(f"reduction {name} has mode {REDUCTIONS[name].mode}, not {mode}")
    if (r > 0) != (name == "bireg"):
        raise RoleMapError(f"r={r}: r is at least 1 for bireg and 0 otherwise")
    # The bireg layout builds a template of 2r roles.  Every bireg artifact
    # has n + 2rk >= 3 + 8r vertices, so a larger r is refused before that.
    if r > graph.n:
        raise RoleMapError(f"r={r} exceeds the graph's {graph.n} vertices")
    order = _blocks(name, n, k, r)[1]
    if order != graph.n:
        raise RoleMapError(f"the header gives {order} vertices, the graph has {graph.n}")
    if len(lines) > 1:
        raise RoleMapError(f"line 2: expected end of file, found {lines[1]!r}")
    return ReductionArtifact(name, mode, graph, n, k, r)
