"""2-partitions and neighborhood balance values.

A 2-partition labels every vertex 0 or 1.  Recoding labels as -1/+1
(``phi_star``), a vertex's open balance is the sum over its open
neighborhood and its closed balance adds the vertex itself.  A partition is
locally balanced in a mode when every balance has absolute value at most 1.

Balances here are phi-star sums; the count-difference convention
(#zeros - #ones) is the negation, which leaves validity unchanged.
Isolated vertices have open balance 0 and are vacuously valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph

__all__ = [
    "MODES",
    "TwoPartition",
    "BalanceReport",
    "phi_star",
    "balance_report",
    "check",
    "parse_partition",
]

MODES = ("open", "closed")


def phi_star(label: int) -> int:
    """The ±1 recoding of a label: 0 -> -1, 1 -> +1."""
    if label == 0:
        return -1
    if label == 1:
        return 1
    raise ValueError(f"label must be 0 or 1, got {label!r}")


@dataclass(frozen=True)
class TwoPartition:
    """A total labeling V -> {0,1}, stored per vertex index."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not set(self.labels) <= {0, 1}:
            raise ValueError("labels must be 0 or 1")

    def to_line(self) -> str:
        return "".join(map(str, self.labels))


def parse_partition(text: str, n: int) -> TwoPartition:
    """One line of n characters from {0,1}, newline-terminated."""
    line = text.strip("\n")
    if "\n" in line:
        raise ValueError("partition file must be a single line")
    if len(line) != n:
        raise ValueError(f"expected {n} labels, got {len(line)}")
    if line.strip("01"):
        raise ValueError("labels must be characters 0 or 1")
    return TwoPartition(tuple(map(int, line)))


@dataclass(frozen=True)
class BalanceReport:
    """Per-vertex open/closed balances plus the two validity flags.

    Invariants: closed_balance(v) - open_balance(v) = phi_star(v);
    open_balance(v) ≡ deg(v) (mod 2) and closed_balance(v) ≡ deg(v)+1 (mod 2).
    """

    open_balance: tuple[int, ...]
    closed_balance: tuple[int, ...]
    open_valid: bool
    closed_valid: bool


def _balances(g: Graph, p: TwoPartition, mode: str) -> list[int]:
    """Per-vertex phi-star balances in one mode."""
    if len(p.labels) != g.n:
        raise ValueError(f"partition has {len(p.labels)} labels for {g.n} vertices")
    phi = [1 if x else -1 for x in p.labels]
    bal = [sum(map(phi.__getitem__, nbrs)) for nbrs in g.adj]
    if mode == "closed":
        bal = [b + f for b, f in zip(bal, phi)]
    return bal


def balance_report(g: Graph, p: TwoPartition) -> BalanceReport:
    open_b = _balances(g, p, "open")
    closed_b = [b + (1 if x else -1) for b, x in zip(open_b, p.labels)]
    return BalanceReport(
        tuple(open_b),
        tuple(closed_b),
        all(abs(b) <= 1 for b in open_b),
        all(abs(b) <= 1 for b in closed_b),
    )


def check(g: Graph, p: TwoPartition, mode: str) -> list[int]:
    """Violating vertices in the given mode; empty iff locally balanced."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return [v for v, b in enumerate(_balances(g, p, mode)) if abs(b) > 1]
