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

import numpy as np

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
        return bytes(self.labels).translate(bytes.maketrans(b"\0\1", b"01")).decode("ascii")


def parse_partition(text: str, n: int) -> TwoPartition:
    """One line of n characters from {0,1}, newline-terminated."""
    line = text.strip("\n")
    if "\n" in line:
        raise ValueError("expected a single line")
    if len(line) != n:
        raise ValueError(f"expected {n} characters, got {len(line)}")
    if line.strip("01"):
        raise ValueError("characters must be 0 or 1")
    return TwoPartition(tuple(line.encode("ascii").translate(bytes.maketrans(b"01", b"\0\1"))))


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


def _open_balances(g: Graph, p: TwoPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex open phi-star balances, one segment sum over ``phi[nbrs]``,
    and phi-star of each label."""
    if len(p.labels) != g.n:
        raise ValueError(f"partition has {len(p.labels)} labels for {g.n} vertices")
    phi = np.frombuffer(bytes(p.labels), dtype=np.uint8).astype(np.int64) * 2 - 1
    sums = np.zeros(len(g.nbrs) + 1, dtype=np.int64)
    np.cumsum(phi[g.nbrs], out=sums[1:])
    return sums[g.indptr[1:]] - sums[g.indptr[:-1]], phi


def balance_report(g: Graph, p: TwoPartition) -> BalanceReport:
    open_b, phi = _open_balances(g, p)
    closed_b = open_b + phi
    return BalanceReport(
        tuple(open_b.tolist()),
        tuple(closed_b.tolist()),
        bool((np.abs(open_b) <= 1).all()),
        bool((np.abs(closed_b) <= 1).all()),
    )


def check(g: Graph, p: TwoPartition, mode: str) -> list[int]:
    """Violating vertices in the given mode; empty iff locally balanced."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bal, phi = _open_balances(g, p)
    if mode == "closed":
        bal += phi
    return np.flatnonzero(np.abs(bal) > 1).tolist()
