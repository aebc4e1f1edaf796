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
give every vertex a tagged role by offset, so a ``.roles`` file is its
header plus the records the header determines, and ``read_artifact``
accepts exactly those records.  The role map supports the two directional
maps: a satisfying assignment lifts to a checker-valid partition, and a
valid partition projects back to a satisfying assignment.  Both maps check
their result and raise, never assert, when the graph disagrees with its
roles.  Constructors, lift and extract do O(n + k) work, apart from the one
numpy sort that builds or loads the graph.

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

from .balance import TwoPartition, check, phi_star
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


def _records(blocks: Sequence[Block]) -> list[str]:
    """The role-map lines below the header, 'vertex tag i' plus the role's
    further indices, built block by block from each slot's tag and tail."""
    records = []
    for first, template, count in blocks:
        width = len(template)
        slots = [(s, f" {tag} ", "".join(f" {x}" for x in rest)) for s, (tag, rest) in enumerate(template)]
        records += [f"{first + width * i + s}{tag}{i}{tail}" for i in range(count) for s, tag, tail in slots]
    return records


def _artifact(name: str, inst: NaeInstance, edges, r: int = 0) -> ReductionArtifact:
    """The artifact of the reduction's edges and layout, once its graph passes
    the class postcondition (a raise, so that it also holds under python -O)."""
    graph = Graph.from_edges(_blocks(name, inst.n, inst.k, r)[1], edges)
    classes = classify(graph)
    if not REDUCTIONS[name].in_class(classes, r):
        raise AssertionError(f"{name} reduction built a graph outside its class: {classes}")
    return ReductionArtifact(name, REDUCTIONS[name].mode, graph, inst.n, inst.k, r, classes)


def reduce_open_biregular(inst: NaeInstance, r: int = 1) -> ReductionArtifact:
    """One vertex per variable, 2r per clause, complete joins on membership."""
    if r < 1:
        raise ValueError("r must be at least 1")
    n = inst.n
    edges = [
        (var, n + 2 * r * j + l)
        for j, clause in enumerate(inst.clauses)
        for var in clause
        for l in range(2 * r)
    ]
    return _artifact("bireg", inst, edges, r)


def reduce_open_even(inst: NaeInstance) -> ReductionArtifact:
    """Per variable a 16-cycle forcing gadget, per clause two degree-4
    vertices and one degree-2 absorber."""
    ensure_verified(gadget_f1())
    n, k = inst.n, inst.k
    p = lambda i, t: 4 * i + (t - 1)
    u = lambda i, j: 4 * n + 12 * i + (j - 1)
    q = lambda j, l: 16 * n + 2 * j + (l - 1)
    v = lambda j: 16 * n + 2 * k + j
    edges = []
    for i in range(n):
        for l in range(1, 5):
            edges.append((p(i, l), u(i, 3 * l - 2)))
            edges.append((u(i, 3 * l - 2), u(i, 3 * l - 1)))
            edges.append((u(i, 3 * l - 1), u(i, 3 * l)))
            edges.append((u(i, 3 * l), p(i, l % 4 + 1)))
    for j, (clause, slots) in enumerate(zip(inst.clauses, occurrence_slots(inst))):
        for var, t in zip(clause, slots):
            edges.append((p(var, t), q(j, 1)))
            edges.append((p(var, t), q(j, 2)))
        edges.append((q(j, 1), v(j)))
        edges.append((q(j, 2), v(j)))
    return _artifact("even", inst, edges)


def _gamma_edges(n: int, gamma) -> list[tuple[int, int]]:
    """One copy of the forcing gadget per variable, copy i at GAMMA_SIZE*i."""
    local = gamma.graph.edges()
    return [(GAMMA_SIZE * i + a, GAMMA_SIZE * i + b) for i in range(n) for a, b in local]


def reduce_closed_subcubic(inst: NaeInstance) -> ReductionArtifact:
    """Per variable one 30-vertex forcing gadget, per clause one degree-3
    vertex joined to the inputs that carry its variables' occurrences."""
    gamma = gadget_forcing()
    ensure_verified(gamma)
    n = inst.n
    edges = _gamma_edges(n, gamma)
    for j, (clause, slots) in enumerate(zip(inst.clauses, occurrence_slots(inst))):
        for var, t in zip(clause, slots):
            edges.append((GAMMA_SIZE * var + gamma.inputs[t - 1], GAMMA_SIZE * n + j))
    return _artifact("subcubic", inst, edges)


def reduce_closed_odd(inst: NaeInstance) -> ReductionArtifact:
    """Subcubic construction plus one triangle widget per clause, making
    every degree odd (each input gains a pendant strand)."""
    gamma = gadget_forcing()
    ensure_verified(gamma)
    f4 = gadget_f4()
    ensure_verified(f4)
    n, k = inst.n, inst.k
    f4_local = f4.graph.edges()
    edges = _gamma_edges(n, gamma)
    for j, (clause, slots) in enumerate(zip(inst.clauses, occurrence_slots(inst))):
        q = GAMMA_SIZE * n + j
        f4_base = GAMMA_SIZE * n + k + f4.graph.n * j
        for t, (var, slot) in enumerate(zip(clause, slots)):
            p_vertex = GAMMA_SIZE * var + gamma.inputs[slot - 1]
            edges.append((q, p_vertex))
            edges.append((f4_base + 3 * t, p_vertex))
        edges.extend((f4_base + a, f4_base + b) for a, b in f4_local)
    return _artifact("odd", inst, edges)


def _closed_rules(a, cancel, clause_pvars) -> dict[str, Callable[..., int]]:
    completion = [gadget_forcing().completion(beta) for beta in (0, 1)]
    return {
        "p": lambda i, t: a[i],
        "g": lambda i, local: completion[a[i]][local],
        "q": lambda j: cancel[j],
        "y": lambda j, t: 1 - cancel[j],
        "z": lambda j, t: cancel[j],
        # strand t of clause j hangs off the input of its t-th variable
        "b": lambda j, t: 1 - a[clause_pvars[j][t - 1][1]],
    }


@dataclass(frozen=True)
class Reduction:
    """One row of ``REDUCTIONS``.  ``build`` calls the constructor by its
    module-level name, where a tracing wrapper sees the call.  ``layout``
    gives the (template, count) blocks that ``_blocks`` places one after
    another from vertex 0, the first holding the input ("p") roles."""

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
        rules=lambda a, cancel, clause_pvars: {"p": lambda i: a[i], "q": lambda j, l: l % 2},
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
        rules=lambda a, cancel, clause_pvars: {
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


def _clause_pvars(artifact: ReductionArtifact, blocks: Sequence[Block]) -> list[list[tuple[int, int]]]:
    """Per clause, the (p vertex, variable) pairs adjacent to its clause
    vertex, in vertex order; RoleMapError unless there are three.  Clause j's
    vertex opens copy j of the first block of q roles; a p vertex w lies in
    block 0 at a p slot, of variable w // width."""
    (_, inputs, _), *rest = blocks
    width, end = len(inputs), len(inputs) * artifact.n_vars
    is_p = [tag == "p" for tag, _ in inputs]
    first, clause_template, _ = next(block for block in rest if block[1][0][0] == "q")
    ptr, nbrs = memoryview(artifact.graph.indptr), memoryview(artifact.graph.nbrs)
    out = []
    for j in range(artifact.n_clauses):
        qv = first + len(clause_template) * j
        around = nbrs[ptr[qv] : ptr[qv + 1]]
        members = [(w, w // width) for w in around if w < end and is_p[w % width]]
        if len(members) != 3:
            raise RoleMapError(
                f"clause vertex {qv} has {len(members)} variable neighbours, expected 3"
            )
        out.append(members)
    return out


def assignment_to_partition(
    artifact: ReductionArtifact, assignment: Sequence[int]
) -> TwoPartition:
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
    a = assignment
    blocks, _ = _blocks(artifact.name, artifact.n_vars, artifact.n_clauses, artifact.r)
    clause_pvars = _clause_pvars(artifact, blocks)
    for j, pvars in enumerate(clause_pvars):
        if len({a[var] for _, var in pvars}) == 1:
            raise UnsatAssignmentError(f"clause {j} is monochrome under the assignment")
    # 1 where the clause's three variables sum to -1 under phi_star: the
    # label that cancels the clause's surplus
    cancel = [int(sum(phi_star(a[var]) for _, var in pvars) < 0) for pvars in clause_pvars]
    rules = REDUCTIONS[artifact.name].rules(a, cancel, clause_pvars)
    labels = []
    for _, template, count in blocks:
        slots = [(rules[tag], rest) for tag, rest in template]
        labels += [rule(i, *rest) for i in range(count) for rule, rest in slots]
    partition = TwoPartition(tuple(labels))
    violations = check(artifact.graph, partition, artifact.mode)
    if violations:
        raise RoleMapError(
            f"lifted partition violates balance at {violations}: "
            "the graph does not match its role map"
        )
    return partition


def partition_to_assignment(
    artifact: ReductionArtifact, partition: TwoPartition
) -> tuple[int, ...]:
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
    labels = partition.labels
    blocks, _ = _blocks(artifact.name, artifact.n_vars, artifact.n_clauses, artifact.r)
    _, inputs, _ = blocks[0]
    slots = [s for s, (tag, _) in enumerate(inputs) if tag == "p"]
    assignment = []
    for i in range(artifact.n_vars):
        values = {labels[len(inputs) * i + s] for s in slots}
        if len(values) != 1:
            raise RoleMapError(
                f"the inputs of variable {i} disagree: the graph does not match its role map"
            )
        assignment.append(values.pop())
    for j, pvars in enumerate(_clause_pvars(artifact, blocks)):
        if len({assignment[var] for _, var in pvars}) != 2:
            raise RoleMapError(
                f"clause {j} is monochrome: the graph does not match its role map"
            )
    return tuple(assignment)


_HEADER_RE = re.compile(r"^reduction=(\w+) mode=(\w+) n=(\d+) k=(\d+) r=(\d+)$")


def write_artifact(artifact: ReductionArtifact, base: Union[str, Path]) -> tuple[Path, Path]:
    """Write <base>.graph (canonical edge list) and <base>.roles sidecar."""
    base = Path(base)
    graph_path = base.with_name(base.name + ".graph")
    roles_path = base.with_name(base.name + ".roles")
    graph_path.write_text(serialize_graph(artifact.graph), encoding="ascii")
    header = (
        f"reduction={artifact.name} mode={artifact.mode} "
        f"n={artifact.n_vars} k={artifact.n_clauses} r={artifact.r}"
    )
    records = _records(_blocks(artifact.name, artifact.n_vars, artifact.n_clauses, artifact.r)[0])
    roles_path.write_text("\n".join([header, *records]) + "\n", encoding="ascii")
    return graph_path, roles_path


def read_artifact(base: Union[str, Path]) -> ReductionArtifact:
    """Read <base>.graph and <base>.roles.  The header fixes every record,
    so the records must be exactly those write_artifact writes; they are
    compared with the header's layout, not parsed."""
    base = Path(base)
    graph = parse_graph(base.with_name(base.name + ".graph").read_text(encoding="ascii"))
    lines = base.with_name(base.name + ".roles").read_text(encoding="ascii").splitlines()
    if not lines:
        raise RoleMapError("empty role map")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise RoleMapError(f"bad role-map header: {lines[0]!r}")
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
    blocks, order = _blocks(name, n, k, r)
    if order != graph.n:
        raise RoleMapError(f"the header gives {order} vertices, the graph has {graph.n}")
    expected, records = _records(blocks), lines[1:]
    if records != expected:
        i = next(
            (i for i, (a, b) in enumerate(zip(records, expected)) if a != b),
            min(len(records), len(expected)),
        )
        want = repr(expected[i]) if i < len(expected) else "end of file"
        found = repr(records[i]) if i < len(records) else "end of file"
        raise RoleMapError(f"line {i + 2}: expected {want}, found {found}")
    return ReductionArtifact(name, mode, graph, n, k, r)
