"""Monotone not-all-equal 3-SAT instances where every variable occurs in
exactly four clauses.

Clauses are 3-element sets of variable indices (1-based in files, 0-based
internally); repeated clauses are permitted, each occurrence counting
separately toward the four-occurrence requirement (so 3k = 4n).  A clause is
satisfied when its variables are not all equal.

``parse_nae`` reads a formula with ``graphs._scan``, the numpy scanner of
graph files too, and it and ``NaeInstance.from_clauses`` check the clauses
in numpy, allocating nothing by the variable count n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import _int64_rows, _scan

__all__ = [
    "NaeInstance",
    "NaeFormatError",
    "parse_nae",
    "serialize_nae",
    "nae_eval",
    "brute_sat",
    "occurrence_slots",
]

BRUTE_SAT_CAP = 25


class NaeFormatError(ValueError):
    """Malformed or invalid formula document; ``kind`` names the failure."""

    def __init__(self, kind: str, message: str, line: Optional[int] = None):
        self.kind = kind
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _suspects(rows: np.ndarray, lo: int, hi: int) -> list[int]:
    """The rows that repeat a value or leave lo..hi, and the rows with a value
    beyond int64 (read as -1), which callers test again on exact values."""
    a, b, c = rows.T
    out = ((rows < lo) | (rows > hi)).any(axis=1)
    return np.flatnonzero((a == b) | (a == c) | (b == c) | out).tolist()


@dataclass(frozen=True)
class NaeInstance:
    """n variables, clauses as sorted 3-tuples of distinct 0-based indices."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_clauses(cls, n: int, clauses: Sequence[Sequence[int]]) -> "NaeInstance":
        """The instance of ``clauses``.  Raises for the first clause that is
        not 3 distinct integer variables of 0..n-1, else for the first
        variable that does not occur 4 times."""
        if n < 1:
            raise NaeFormatError("empty", "instance must have at least one variable")
        wrong = np.flatnonzero(np.fromiter(map(len, clauses), np.int64, len(clauses)) != 3)
        rows = _int64_rows(clauses[: wrong[0] if len(wrong) else len(clauses)], 3)
        # ``rows`` stops at the first clause of another length or with a non-integer.
        for i in _suspects(rows, 0, n - 1) + [len(rows)] * (len(rows) < len(clauses)):
            c = clauses[i]
            if len(c) != 3 or len(set(c)) != 3:
                raise NaeFormatError(
                    "duplicate-variable", f"clause {tuple(c)} must hold 3 distinct variables"
                )
            if i == len(rows):  # 3 distinct values, not all integers
                raise NaeFormatError("malformed", f"non-integer variable in clause {tuple(c)}")
            for x in c:
                if not (0 <= x < n):
                    raise NaeFormatError("range", f"variable {x + 1} out of range")
        return cls._counted(n, rows)

    @classmethod
    def _counted(cls, n: int, rows: np.ndarray) -> "NaeInstance":
        """The instance of (k, 3) int64 ``rows`` of distinct variables of
        0..n-1 (negative for one beyond int64) if each occurs 4 times.  At
        most 3k variables occur, so the first that does not occur 4 times
        is below 3k + 1, and counts go no further, however large n is."""
        limit = min(n, 3 * len(rows) + 1)
        flat = rows.ravel()
        counts = np.bincount(flat[(flat >= 0) & (flat < limit)], minlength=limit)
        off = np.flatnonzero(counts != 4)
        if len(off):
            x = int(off[0])
            raise NaeFormatError("occurrence-count", f"variable {x + 1} occurs {counts[x]} times, expected 4")
        return cls(n, tuple(map(tuple, np.sort(rows, axis=1).tolist())))

    @property
    def k(self) -> int:
        return len(self.clauses)


def parse_nae(text: str) -> NaeInstance:
    """Parse 'p nae3 n k' followed by k clause lines of 1-based indices;
    an error names the first offending line."""
    if not text:
        raise NaeFormatError("header", "empty document", 1)
    scan = _scan(text, 3)
    head = scan.head
    if len(head) != 4 or head[0] != "p" or head[1] != "nae3":
        raise NaeFormatError("header", "expected header 'p nae3 n k'", 1)
    try:
        n, k = int(head[2]), int(head[3])
    except ValueError:
        raise NaeFormatError("header", "non-integer counts in header", 1) from None
    for i in _suspects(scan.rows, 1, n):  # rows before the scan's bad line, so they come first
        line = int(scan.lines[i])
        lits = scan.ints(line)
        if len(set(lits)) != 3:
            raise NaeFormatError("duplicate-variable", f"repeated variable in clause {scan.line(line)!r}", line)
        for x in lits:
            if not (1 <= x <= n):
                raise NaeFormatError("range", f"variable {x} out of range 1..{n}", line)
    if scan.bad is not None:
        raw = scan.line(scan.bad)
        message = f"expected 3 variables, got {raw!r}" if scan.bad_width else f"non-integer variable in {raw!r}"
        raise NaeFormatError("malformed", message, scan.bad)
    if len(scan.rows) != k:
        raise NaeFormatError("truncated", f"header promises {k} clauses, found {len(scan.rows)}", scan.nlines)
    if n < 1:
        raise NaeFormatError("empty", "instance must have at least one variable")
    return NaeInstance._counted(n, scan.rows - 1)


def serialize_nae(inst: NaeInstance) -> str:
    out = [f"p nae3 {inst.n} {inst.k}"]
    out.extend(" ".join(str(x + 1) for x in c) for c in inst.clauses)
    return "\n".join(out) + "\n"


def nae_eval(inst: NaeInstance, assignment: Sequence[int]) -> bool:
    """True iff every clause sees both labels among its variables."""
    if len(assignment) != inst.n:
        raise ValueError(f"assignment has {len(assignment)} entries for n={inst.n}")
    for c in inst.clauses:
        values = {assignment[x] for x in c}
        if len(values) == 1:
            return False
    return True


def brute_sat(inst: NaeInstance) -> Optional[tuple[int, ...]]:
    """Lexicographically first satisfying assignment, or None."""
    n = inst.n
    if n > BRUTE_SAT_CAP:
        raise ValueError(f"brute search capped at {BRUTE_SAT_CAP} variables, got {n}")
    cmasks = [sum(1 << (n - 1 - x) for x in c) for c in inst.clauses]
    for m in range(1 << n):
        if all(0 < (m & cm) < cm for cm in cmasks):
            return tuple((m >> (n - 1 - i)) & 1 for i in range(n))
    return None


def occurrence_slots(inst: NaeInstance) -> list[tuple[int, int, int]]:
    """Per clause, the 1-based occurrence number of each member, counting
    each variable's occurrences in clause order, in one pass with one
    counter per variable."""
    seen = [0] * inst.n
    out = []
    for a, b, c in inst.clauses:
        seen[a] += 1
        seen[b] += 1
        seen[c] += 1
        out.append((seen[a], seen[b], seen[c]))
    return out
