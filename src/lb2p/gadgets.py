"""Reduction gadgets and their machine-checked contracts.

A gadget is a graph with an ordered input list and a mode.  Its forcing
contract says every labeling that is valid on all internal (non-input)
vertices assigns the inputs one common value; its completion contract says
for either input value there is an internal completion whose internal
balances are all zero.  ``verify_gadget`` checks both by exact enumeration
with the input constraints waived, and must pass before a reduction uses
the gadget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .balance import TwoPartition, balance_report, check
from .graphs import Graph
from .solver import decide, enumerate_partitions

__all__ = [
    "Gadget",
    "GadgetReport",
    "GadgetContractError",
    "gadget_f1",
    "gadget_f2",
    "gadget_forcing",
    "gadget_f4",
    "verify_gadget",
    "verify_f4_harness",
    "verify_contract",
    "ensure_verified",
    "f4_harness",
]


@dataclass(frozen=True)
class Gadget:
    """Graph plus ordered inputs, a mode, and an optional completion rule.

    ``completion(beta)`` returns a full labeling with every input set to
    beta and every internal balance zero.
    """

    name: str
    mode: str
    graph: Graph
    inputs: tuple[int, ...]
    completion: Optional[Callable[[int], tuple[int, ...]]] = None


@dataclass(frozen=True)
class GadgetReport:
    passed: bool
    failure: Optional[str]
    counterexample: Optional[tuple[int, ...]]
    internally_valid: int


class GadgetContractError(RuntimeError):
    """A gadget failed verification and cannot be used in a reduction."""


def gadget_f1() -> Gadget:
    """Open-mode forcing gadget: a 16-cycle with four equally spaced inputs.

    Cycle order is input, three chain vertices, input, ... so every second
    neighbor constraint propagates one input's label to the next.
    """
    n = 16
    edges = [(i, (i + 1) % n) for i in range(n)]
    inputs = (0, 4, 8, 12)

    def completion(beta: int) -> tuple[int, ...]:
        labels = []
        for block in range(4):
            labels.extend([beta, beta, 1 - beta, 1 - beta])
        return tuple(labels)

    return Gadget("f1", "open", Graph.from_edges(n, edges), inputs, completion)


def gadget_f2() -> Gadget:
    """Closed-mode gadget: 6-vertex tree whose two inputs are forced equal.

    Inputs 0,1 hang off vertex 2; 2-3 is a bridge; leaves 4,5 hang off 3.
    Every valid labeling gives the center pair 2,3 the opposite label of
    the inputs and the leaves the input label.
    """
    edges = [(2, 0), (2, 1), (2, 3), (3, 4), (3, 5)]

    def completion(beta: int) -> tuple[int, ...]:
        return (beta, beta, 1 - beta, 1 - beta, beta, beta)

    return Gadget("f2", "closed", Graph.from_edges(6, edges), (0, 1), completion)


# Locals of the 30-vertex closed-mode forcing gadget.  Four blocks of five
# (two leaves, their support b, a, the input p), then junctions, feeders with
# leaves, and a bridge with a same-color feeder and its leaves.  Block leaves
# come first so index-order branching cascades through the whole tree.
_GAMMA_J = (20, 21)
_GAMMA_R = (22, 23)
_GAMMA_LR = (24, 25)
_GAMMA_S = 26
_GAMMA_T = 27
_GAMMA_LT = (28, 29)


def _gamma_block(m: int) -> tuple[int, int, int, int, int]:
    base = 5 * m
    return base, base + 1, base + 2, base + 3, base + 4  # l1, l2, b, a, p


def gadget_forcing() -> Gadget:
    """Closed-mode forcing gadget on 30 vertices (a tree, all degrees odd).

    Four leaf blocks force a_m = b_m and then p_m = j = 1 - a_m; the two
    junctions are tied together through the feeders and the bridge, so all
    four inputs agree in every internally-valid labeling.
    """
    edges = []
    inputs = []
    for m in range(4):
        l1, l2, b, a, p = _gamma_block(m)
        j = _GAMMA_J[m // 2]
        edges += [(a, b), (b, l1), (b, l2), (a, p), (a, j)]
        inputs.append(p)
    for h in range(2):
        edges += [(_GAMMA_J[h], _GAMMA_R[h]), (_GAMMA_R[h], _GAMMA_LR[h]), (_GAMMA_R[h], _GAMMA_S)]
    edges += [(_GAMMA_S, _GAMMA_T), (_GAMMA_T, _GAMMA_LT[0]), (_GAMMA_T, _GAMMA_LT[1])]

    def completion(beta: int) -> tuple[int, ...]:
        labels = [0] * 30
        for m in range(4):
            l1, l2, b, a, p = _gamma_block(m)
            labels[l1] = labels[l2] = beta
            labels[b] = labels[a] = 1 - beta
            labels[p] = beta
        for h in range(2):
            labels[_GAMMA_J[h]] = beta
            labels[_GAMMA_R[h]] = beta
            labels[_GAMMA_LR[h]] = 1 - beta
        labels[_GAMMA_S] = 1 - beta
        labels[_GAMMA_T] = 1 - beta
        labels[_GAMMA_LT[0]] = labels[_GAMMA_LT[1]] = beta
        return tuple(labels)

    return Gadget("forcing", "closed", Graph.from_edges(30, edges), tuple(inputs), completion)


def gadget_f4() -> Gadget:
    """Closed-mode clause widget: three leaf/support/triangle strands.

    Locals per strand t: y=3t (input), z=3t+1 (leaf on y), b=3t+2; the three
    b vertices form a triangle, so the gadget is not bipartite and is only
    used in the all-odd-degrees reduction.
    """
    edges = []
    for t in range(3):
        y, z, b = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(y, z), (y, b)]
    edges += [(2, 5), (5, 8), (2, 8)]
    return Gadget("f4", "closed", Graph.from_edges(9, edges), (0, 3, 6), None)


def verify_gadget(gadget: Gadget) -> GadgetReport:
    """Exact check of the forcing and completion contracts.

    Enumerates every labeling valid on internal vertices (input constraints
    waived): all of them must label the inputs equally, and for each input
    value a completion must exist; a declared completion rule must itself be
    internally valid with all internal balances zero.
    """
    g = gadget.graph
    sols = enumerate_partitions(g, gadget.mode, waived=gadget.inputs)
    count = len(sols)
    for sol in sols:
        values = {sol.labels[i] for i in gadget.inputs}
        if len(values) > 1:
            return GadgetReport(False, "inputs not forced equal", sol.labels, count)
    internal = [v for v in range(g.n) if v not in gadget.inputs]
    for beta in (0, 1):
        matching = [s for s in sols if all(s.labels[i] == beta for i in gadget.inputs)]
        if not matching:
            return GadgetReport(False, f"no completion for input value {beta}", None, count)
        if gadget.completion is not None:
            lab = gadget.completion(beta)
            part = TwoPartition(lab)
            if any(lab[i] != beta for i in gadget.inputs):
                return GadgetReport(False, f"completion({beta}) mislabels an input", lab, count)
            bad = [v for v in check(g, part, gadget.mode) if v in internal]
            if bad:
                return GadgetReport(False, f"completion({beta}) invalid at {bad}", lab, count)
            rep = balance_report(g, part)
            bal = rep.open_balance if gadget.mode == "open" else rep.closed_balance
            off = [v for v in internal if bal[v] != 0]
            if off:
                return GadgetReport(
                    False, f"completion({beta}) has nonzero internal balance at {off}", lab, count
                )
    return GadgetReport(True, None, None, count)


def f4_harness() -> tuple[Graph, dict[str, list[int]]]:
    """A clause surroundings for the triangle widget: three stand-in variable
    vertices, one clause vertex adjacent to all three, and the widget with
    each input attached to one stand-in.  Widget vertex i is vertex 4 + i."""
    widget = gadget_f4()
    offset = 4
    edges = [(0, 3), (1, 3), (2, 3)]
    edges += [(u + offset, v + offset) for u, v in widget.graph.edges()]
    edges += [(p, offset + y) for p, y in enumerate(widget.inputs)]
    layout = {
        "p": [0, 1, 2],
        "q": [3],
        "y": [offset + 0, offset + 3, offset + 6],
        "z": [offset + 1, offset + 4, offset + 7],
        "b": [offset + 2, offset + 5, offset + 8],
    }
    return Graph.from_edges(offset + widget.graph.n, edges), layout


def verify_f4_harness() -> GadgetReport:
    """Check the clause semantics of the triangle widget inside its harness.

    For every non-constant labeling of the three stand-ins the canonical
    completion must be valid everywhere; for the two constant labelings no
    completion may exist at all.
    """
    harness, lay = f4_harness()
    completions = 0
    for betas in product((0, 1), repeat=3):
        if len(set(betas)) == 1:
            outcome = decide(
                harness,
                "closed",
                waived=lay["p"],
                fixed={lay["p"][t]: betas[t] for t in range(3)},
            )
            if outcome.status != "unsat":
                return GadgetReport(
                    False,
                    f"constant stand-in labels {betas} admit a completion",
                    outcome.witness.labels if outcome.witness else None,
                    completions,
                )
            continue
        labels = [0] * harness.n
        s = sum(1 if b else -1 for b in betas)
        q = 1 if s == -1 else 0
        labels[lay["q"][0]] = q
        for t in range(3):
            labels[lay["p"][t]] = betas[t]
            labels[lay["y"][t]] = 1 - q
            labels[lay["z"][t]] = q
            labels[lay["b"][t]] = 1 - betas[t]
        part = TwoPartition(tuple(labels))
        bad = check(harness, part, "closed")
        if bad:
            return GadgetReport(
                False, f"completion for stand-ins {betas} invalid at {bad}", part.labels, completions
            )
        completions += 1
    return GadgetReport(True, None, None, completions)


def verify_contract(gadget: Gadget) -> GadgetReport:
    """``verify_gadget``, then for the triangle widget ``verify_f4_harness``."""
    report = verify_gadget(gadget)
    if report.passed and gadget.name == "f4":
        report = verify_f4_harness()
    return report


_VERIFIED: dict[tuple, GadgetReport] = {}


def ensure_verified(gadget: Gadget) -> GadgetReport:
    """Verify once per process; raise if the contract fails.  Reports are
    cached by what the check reads (name, mode, graph, inputs and both
    completion labelings), so a changed gadget is verified afresh."""
    labelings = None if gadget.completion is None else tuple(tuple(gadget.completion(b)) for b in (0, 1))
    key = (gadget.name, gadget.mode, gadget.graph, tuple(gadget.inputs), labelings)
    report = _VERIFIED.get(key)
    if report is None:
        report = _VERIFIED[key] = verify_contract(gadget)
    if not report.passed:
        raise GadgetContractError(f"gadget {gadget.name!r} failed verification: {report.failure}")
    return report
