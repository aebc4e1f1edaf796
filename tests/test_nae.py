import random
from collections import Counter

import numpy as np
import pytest

from helpers import (
    CANONICAL_N3,
    NAE_CORPUS,
    occurrence_slot,
    planted_nae_instance,
    random_nae_instance,
    reference_from_clauses,
    reference_parse_nae,
)
from lb2p import NaeFormatError, brute_sat, nae_eval, parse_nae, serialize_nae
from lb2p.nae import NaeInstance, occurrence_slots


def test_parse_canonical():
    inst = parse_nae(CANONICAL_N3)
    assert inst.n == 3 and inst.k == 4
    assert inst.clauses == ((0, 1, 2),) * 4


def test_roundtrip():
    inst = parse_nae(CANONICAL_N3)
    assert parse_nae(serialize_nae(inst)) == inst


def test_occurrence_count_violation_names_variable():
    text = "p nae3 4 4\n1 2 3\n1 2 3\n1 2 4\n1 3 4\n"
    with pytest.raises(NaeFormatError) as exc:
        parse_nae(text)
    assert exc.value.kind == "occurrence-count"


def test_duplicate_variable_in_clause():
    with pytest.raises(NaeFormatError) as exc:
        parse_nae("p nae3 3 4\n1 1 2\n1 2 3\n1 2 3\n2 3 3\n")
    assert exc.value.kind == "duplicate-variable"


def test_bad_header():
    with pytest.raises(NaeFormatError) as exc:
        parse_nae("p cnf 3 4\n")
    assert exc.value.kind == "header"


def test_empty_instance_rejected():
    with pytest.raises(NaeFormatError) as exc:
        parse_nae("p nae3 0 0\n")
    assert exc.value.kind == "empty"


def test_out_of_range_variable():
    with pytest.raises(NaeFormatError) as exc:
        parse_nae("p nae3 3 4\n1 2 5\n1 2 3\n1 2 3\n1 2 3\n")
    assert exc.value.kind == "range"


def test_nae_eval():
    inst = parse_nae(CANONICAL_N3)
    assert nae_eval(inst, (0, 0, 1)) is True
    assert nae_eval(inst, (1, 1, 1)) is False
    assert nae_eval(inst, (0, 0, 0)) is False


def test_nae_eval_all_ones_false_on_any_instance():
    rng = random.Random(1)
    for n in (3, 6):
        inst = random_nae_instance(n, rng)
        assert nae_eval(inst, (1,) * n) is False


def test_brute_sat_canonical():
    inst = parse_nae(CANONICAL_N3)
    assert brute_sat(inst) == (0, 0, 1)


def test_brute_sat_absent_means_all_fail():
    inst = parse_nae(CANONICAL_N3)
    result = brute_sat(inst)
    if result is None:
        for m in range(1 << inst.n):
            a = tuple((m >> (inst.n - 1 - i)) & 1 for i in range(inst.n))
            assert not nae_eval(inst, a)
    else:
        assert nae_eval(inst, result)


def test_brute_sat_cap():
    rng = random.Random(2)
    inst = random_nae_instance(27, rng)
    with pytest.raises(ValueError):
        brute_sat(inst)


def test_occurrence_slots_scan_in_clause_order():
    inst = parse_nae(CANONICAL_N3)
    for var in range(3):
        assert [occurrence_slot(inst, var, j) for j in range(4)] == [1, 2, 3, 4]
    rng = random.Random(3)
    inst = random_nae_instance(6, rng)
    for var in range(6):
        slots = [occurrence_slot(inst, var, j) for j, c in enumerate(inst.clauses) if var in c]
        assert slots == [1, 2, 3, 4]



def _instance_with_repeats(rng):
    """A random instance on m variables next to blocks of three fresh
    variables whose one clause is repeated four times, clauses shuffled."""
    m, blocks = 3 * rng.randint(0, 4), rng.randint(1, 3)
    clauses = list(random_nae_instance(m, rng).clauses) if m else []
    for b in range(m, m + 3 * blocks, 3):
        clauses += [(b, b + 1, b + 2)] * 4
    rng.shuffle(clauses)
    return NaeInstance.from_clauses(m + 3 * blocks, clauses)


def test_occurrence_slots_match_occurrence_slot():
    rng = random.Random(8)
    repeated = 0
    for trial in range(300):
        if trial % 2:
            inst = random_nae_instance(3 * rng.randint(1, 8), rng)
        else:
            inst = _instance_with_repeats(rng)
        repeated += len(set(inst.clauses)) < inst.k
        expected = [
            tuple(occurrence_slot(inst, var, j) for var in clause)
            for j, clause in enumerate(inst.clauses)
        ]
        assert occurrence_slots(inst) == expected
    assert repeated >= 150

def test_generator_produces_valid_instances():
    rng = random.Random(4)
    for n in (3, 6, 9):
        inst = random_nae_instance(n, rng)
        assert isinstance(inst, NaeInstance)
        assert 3 * inst.k == 4 * inst.n


def _outcome(read, *args):
    try:
        return read(*args)
    except NaeFormatError as exc:
        return exc.kind, exc.line, str(exc)


def test_parse_matches_line_by_line_reference_on_corpus():
    kinds = set()
    for text in NAE_CORPUS:
        got = _outcome(parse_nae, text)
        assert got == _outcome(reference_parse_nae, text), text
        kinds.add(got[0] if isinstance(got, tuple) else "ok")
    assert kinds == {
        "ok", "header", "empty", "malformed", "duplicate-variable", "range", "truncated", "occurrence-count"
    }


# Characters of one-character edits: digits, separators, every kind of line
# boundary, signs and non-digits.
_EDIT_CHARS = "0123456789" * 3 + " \t\n\r\x0b\x0c\x1c\x85\xa0\u2028+-_x.\u0663"
_EOLS = ["\n", "\n", "\n", "\r\n", "\r"]


def _edited_formula(rng: random.Random) -> str:
    """A valid formula of 3 to 18 variables, its lines ended by LF, CR LF or
    CR, with one character inserted, deleted or replaced."""
    n = 3 * rng.randint(1, 6)
    inst = random_nae_instance(n, rng) if rng.random() < 0.5 else planted_nae_instance(n, rng)[0]
    eol = rng.choice(_EOLS)
    text = serialize_nae(inst).replace("\n", eol)
    at = rng.randrange(len(text) + 1)
    edit = rng.choice(["insert", "delete", "replace"])
    if edit == "insert":
        return text[:at] + rng.choice(_EDIT_CHARS) + text[at:]
    if edit == "delete" or at == len(text):
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(_EDIT_CHARS) + text[at + 1 :]


def test_parse_matches_line_by_line_reference_on_edits():
    rng = random.Random(33)
    kinds = Counter()
    for _ in range(2400):
        text = _edited_formula(rng)
        got = _outcome(parse_nae, text)
        assert got == _outcome(reference_parse_nae, text), text
        kinds[got[0] if isinstance(got, tuple) else "ok"] += 1
    # every outcome but the empty instance is reached many times
    assert min(kinds[k] for k in ("ok", "header", "malformed", "duplicate-variable", "range", "truncated", "occurrence-count")) >= 20


_BIG = 2**63
CLAUSE_LISTS = [
    (3, []),
    (0, []),
    (-2, [(0, 1, 2)]),
    (0, [(0, 1, 2)] * 4),
    (3, [(0, 1, 2)] * 4),
    (3, [(2, 1, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2)]),
    (3, [(0, 1, 2)] * 3),
    (3, [(0, 1, 2)] * 5),
    (4, [(0, 1, 2)] * 4),
    (3, [(0, 1, 2), (0, 1), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1, 2, 0), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1, 3), (0, 1), (0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1), (0, 1, 3), (0, 1, 2)]),
    (3, [(0, 1, 2), (), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 0, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 5), (0, 0, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 0, 5), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (-1, 0, 1), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, _BIG), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(-_BIG - 1, 0, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(10**20, 10**20 + 1, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(10**20, 10**20, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (10**30, [(0, 1, 10**25)]),
    (10**30, [(10**25, 10**25 + 1, 3)]),
    (10**12, []),
    (6, [[3, 4, 5], [0, 1, 2], [5, 4, 3], [2, 1, 0], [0, 1, 2], [3, 4, 5], [0, 2, 1], [4, 3, 5]]),
    (6, [(3, 4, 5), (0, 1, 2), (5, 4, 3), (2, 1, 0), (0, 1, 2), (3, 4, 5), (0, 2, 1), (4, 3, 0)]),
    (6, np.array([(3, 4, 5), (0, 1, 2), (5, 4, 3), (2, 1, 0), (0, 1, 2), (3, 4, 5), (0, 2, 1), (4, 3, 5)])),
    (3, [(0.5, 1, 2)] * 4),
    (3, [(0, 1, 2), ("0", "1", "2"), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1, 2.0), (0, 1, 5), (0, 1)]),
    (3, [(0, 1, 5), (0.5, 1, 2), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (0.5, 0.5, 1), (0, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1), (None, 1, 2), (0, 1, 2)]),
    (3, [(0, 1, 2), (10**20, 1, 0.5), (0, 1, 2), (0, 1, 2)]),
    (3, np.array([(0, 1, 2)] * 4, dtype=float)),
]


@pytest.mark.parametrize("case", range(len(CLAUSE_LISTS)))
def test_from_clauses_matches_reference(case):
    n, clauses = CLAUSE_LISTS[case]
    assert _outcome(NaeInstance.from_clauses, n, clauses) == _outcome(reference_from_clauses, n, clauses)


def test_from_clauses_matches_reference_on_edits():
    """Valid clause lists with one clause shortened, lengthened or given a
    repeated, negative or too large variable, and the count changed."""
    rng = random.Random(34)
    for _ in range(600):
        n = 3 * rng.randint(1, 6)
        clauses = [list(c) for c in random_nae_instance(n, rng).clauses]
        j = rng.randrange(len(clauses))
        edit = rng.randrange(6)
        if edit == 0:
            clauses[j].pop()
        elif edit == 1:
            clauses[j].append(rng.randrange(n))
        elif edit == 2:
            clauses[j][rng.randrange(3)] = rng.choice([-1, n, n + 1, 2**64])
        elif edit == 3:
            clauses[j][0] = clauses[j][1]
        elif edit == 4:
            del clauses[j]
        n += rng.choice([0, 0, 0, -1, 1])
        got = _outcome(NaeInstance.from_clauses, n, clauses)
        assert got == _outcome(reference_from_clauses, n, clauses), (n, clauses)

