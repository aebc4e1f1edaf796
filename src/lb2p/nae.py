"""Monotone not-all-equal 3-SAT instances where every variable occurs in
exactly four clauses.

Clauses are 3-element sets of variable indices (1-based in files, 0-based
internally); repeated clauses are permitted, each occurrence counting
separately toward the four-occurrence requirement (so 3k = 4n).  A clause is
satisfied when its variables are not all equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class NaeInstance:
    """n variables, clauses as sorted 3-tuples of distinct 0-based indices."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_clauses(cls, n: int, clauses: Sequence[Sequence[int]]) -> "NaeInstance":
        if n < 1:
            raise NaeFormatError("empty", "instance must have at least one variable")
        norm = []
        counts: Counter[int] = Counter()
        for c in clauses:
            if len(c) != 3 or len(set(c)) != 3:
                raise NaeFormatError(
                    "duplicate-variable", f"clause {tuple(c)} must hold 3 distinct variables"
                )
            for x in c:
                if not (0 <= x < n):
                    raise NaeFormatError("range", f"variable {x + 1} out of range")
            norm.append(tuple(sorted(c)))
            counts.update(c)
        for x in range(n):
            if counts[x] != 4:
                raise NaeFormatError(
                    "occurrence-count",
                    f"variable {x + 1} occurs {counts[x]} times, expected 4",
                )
        return cls(n, tuple(norm))

    @property
    def k(self) -> int:
        return len(self.clauses)


def parse_nae(text: str) -> NaeInstance:
    """Parse 'p nae3 n k' followed by k clause lines of 1-based indices."""
    lines = text.splitlines()
    if not lines:
        raise NaeFormatError("header", "empty document", 1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "p" or head[1] != "nae3":
        raise NaeFormatError("header", "expected header 'p nae3 n k'", 1)
    try:
        n, k = int(head[2]), int(head[3])
    except ValueError:
        raise NaeFormatError("header", "non-integer counts in header", 1) from None
    clauses = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise NaeFormatError("malformed", f"expected 3 variables, got {raw!r}", lineno)
        try:
            lits = [int(p) for p in parts]
        except ValueError:
            raise NaeFormatError("malformed", f"non-integer variable in {raw!r}", lineno) from None
        if len(set(lits)) != 3:
            raise NaeFormatError("duplicate-variable", f"repeated variable in clause {raw!r}", lineno)
        for x in lits:
            if not (1 <= x <= n):
                raise NaeFormatError("range", f"variable {x} out of range 1..{n}", lineno)
        clauses.append(tuple(x - 1 for x in lits))
    if len(clauses) != k:
        raise NaeFormatError("truncated", f"header promises {k} clauses, found {len(clauses)}", lineno)
    return NaeInstance.from_clauses(n, clauses)


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
