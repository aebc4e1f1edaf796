"""The reduction artifacts on disk: the layout fixed by the header, the
one header line read_artifact accepts, and what lift/extract do when the
graph or role map has been edited."""

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lb2p
from helpers import (
    CANONICAL_N3,
    planted_nae_instance,
    random_nae_instance,
    reference_artifact_text,
    reference_extract,
    reference_lift,
    reference_read_roles,
    reference_reduce,
    reference_role_index,
    reference_roles,
)
from lb2p import Graph, TwoPartition, check, parse_nae, serialize_graph
from lb2p.cli import main
from lb2p.reductions import (
    REDUCTIONS,
    RoleMapError,
    UnsatAssignmentError,
    assignment_to_partition,
    partition_to_assignment,
    read_artifact,
    reduce_by_name,
    write_artifact,
)

ALL_REDUCTIONS = ["bireg", "even", "subcubic", "odd"]
SRC = str(Path(lb2p.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_roles_match_layout_and_constructors(tmp_path, name):
    rng = random.Random(21)
    for inst in (parse_nae(CANONICAL_N3), random_nae_instance(6, rng), random_nae_instance(9, rng)):
        for r in (1, 2) if name == "bireg" else (0,):
            art = reduce_by_name(name, inst, r)
            assert art.r == r
            _, roles_path = write_artifact(art, tmp_path / name)
            mode = REDUCTIONS[name].mode
            assert roles_path.read_text() == f"reduction={name} mode={mode} n={inst.n} k={inst.k} r={r}\n"


# sha256 prefixes of the .graph bytes, recorded while .roles still held a
# record per vertex below its header
DIGESTS = {
    (6, "bireg"): "c985835b5c9d9fb3",
    (6, "even"): "a87fb8c04235c7fd",
    (6, "subcubic"): "63a6722449fe2ea7",
    (6, "odd"): "bd67b3d470a0a492",
    (24, "bireg"): "81ab16b40a0f50af",
    (24, "even"): "057938b3d7c3fd82",
    (24, "subcubic"): "4cdbf39f06375f87",
    (24, "odd"): "02c623d83fb6f221",
    (96, "bireg"): "3c187e6e86b9ba85",
    (96, "even"): "e0891b38bfb78731",
    (96, "subcubic"): "411df2fa1a085033",
    (96, "odd"): "cef2c338b2441804",
}


@pytest.mark.parametrize("n, name", sorted(DIGESTS))
def test_artifact_bytes_unchanged(tmp_path, n, name):
    inst = random_nae_instance(n, random.Random(f"digest:{n}"))
    art = reduce_by_name(name, inst)
    graph_path, roles_path = write_artifact(art, tmp_path / name)
    assert hashlib.sha256(graph_path.read_bytes()).hexdigest()[:16] == DIGESTS[(n, name)]
    r = 1 if name == "bireg" else 0
    assert roles_path.read_text() == f"reduction={name} mode={art.mode} n={n} k={inst.k} r={r}\n"


def _lines_edit(edit):
    def tamper(graph_text, roles_text):
        lines = roles_text.splitlines()
        edit(lines)
        return graph_text, "\n".join(lines) + "\n"

    return tamper


def _graph_n_plus_one(graph_text, roles_text):
    head, _, rest = graph_text.partition("\n")
    n, m = map(int, head.split())
    return f"{n + 1} {m}\n{rest}", roles_text


def _old_body(graph_text, roles_text):
    """The role map as older versions wrote it: below the header, one record
    'vertex tag i ...' per vertex of the subcubic artifact of CANONICAL_N3."""
    roles = reference_roles(reduce_by_name("subcubic", parse_nae(CANONICAL_N3)))
    records = (" ".join([str(v), tag, *map(str, idx)]) + "\n" for v, (tag, idx) in enumerate(roles))
    return graph_text, roles_text + "".join(records)


# each edit applies to the subcubic artifact of CANONICAL_N3, whose role map
# is its header line alone: "missing-record" drops that line
TAMPERS = {
    "old-body": _old_body,
    "extra-record": _lines_edit(lambda lines: lines.append(f"{len(lines) - 1} q 4")),
    "missing-record": _lines_edit(lambda lines: lines.pop()),
    "blank-line": _lines_edit(lambda lines: lines.insert(3, "")),
    "name": _lines_edit(lambda lines: lines.__setitem__(0, lines[0].replace("subcubic", "odd"))),
    "mode": _lines_edit(lambda lines: lines.__setitem__(0, lines[0].replace("closed", "open"))),
    "unknown-name": _lines_edit(lambda lines: lines.__setitem__(0, lines[0].replace("subcubic", "cubic"))),
    "r": _lines_edit(lambda lines: lines.__setitem__(0, lines[0].replace("r=0", "r=1"))),
    "n": _lines_edit(lambda lines: lines.__setitem__(0, lines[0].replace("n=3", "n=4"))),
    "header": _lines_edit(lambda lines: lines.__setitem__(0, lines[0] + " ")),
    "empty": lambda graph_text, roles_text: (graph_text, ""),
    "graph-n": _graph_n_plus_one,
}


@pytest.fixture()
def subcubic(tmp_path):
    """A subcubic artifact of CANONICAL_N3 with a lifted partition and the
    assignment it came from, as files."""
    art = reduce_by_name("subcubic", parse_nae(CANONICAL_N3))
    base = tmp_path / "art"
    write_artifact(art, base)
    (tmp_path / "asg").write_text("001\n")
    (tmp_path / "part").write_text(assignment_to_partition(art, (0, 0, 1)).to_line() + "\n")
    return base


def _apply(base, tamper):
    graph_path, roles_path = Path(f"{base}.graph"), Path(f"{base}.roles")
    graph_text, roles_text = tamper(graph_path.read_text(), roles_path.read_text())
    graph_path.write_text(graph_text)
    roles_path.write_text(roles_text)


@pytest.mark.parametrize("kind", sorted(TAMPERS))
def test_tampered_artifact_rejected(subcubic, capsys, kind):
    _apply(subcubic, TAMPERS[kind])
    with pytest.raises(RoleMapError):
        read_artifact(subcubic)
    tmp = subcubic.parent
    for argv in (["lift", str(subcubic), str(tmp / "asg")], ["extract", str(subcubic), str(tmp / "part")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_huge_r_header_rejected_before_any_layout(tmp_path, capsys):
    """A bireg header's r sizes a template of 2r roles; an r above the
    graph's vertex count is refused before that template is built."""
    (tmp_path / "a.graph").write_text("1 0\n")
    (tmp_path / "a.roles").write_text(f"reduction=bireg mode=open n=0 k=0 r={10**12}\n")
    (tmp_path / "asg").write_text("\n")
    (tmp_path / "part").write_text("0\n")
    start = time.perf_counter()
    with pytest.raises(RoleMapError, match="exceeds the graph's 1 vertices"):
        read_artifact(tmp_path / "a")
    assert time.perf_counter() - start < 1.0
    base = str(tmp_path / "a")
    for argv in (["lift", base, str(tmp_path / "asg")], ["extract", base, str(tmp_path / "part")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(ALL_REDUCTIONS),
    n=st.integers(0, 10**18),
    k=st.integers(0, 10**18),
    r=st.integers(0, 10**18),
)
def test_any_header_over_a_small_graph_reads_or_raises_quickly(tmp_path, name, n, k, r):
    base = tmp_path / "art"
    write_artifact(reduce_by_name("bireg", parse_nae(CANONICAL_N3)), base)
    Path(f"{base}.roles").write_text(f"reduction={name} mode={REDUCTIONS[name].mode} n={n} k={k} r={r}\n")
    start = time.perf_counter()
    try:
        read_artifact(base)
    except RoleMapError:
        pass
    assert time.perf_counter() - start < 1.0


def test_artifact_with_old_body_refused(subcubic, capsys):
    """An artifact whose role map holds the per-vertex records older versions
    wrote is refused at its first record: by read_artifact, and by lb2p lift
    and extract with exit 2 and nothing on stdout, also under python -O."""
    _apply(subcubic, TAMPERS["old-body"])
    message = "line 2: expected end of file, found '0 g 0 0'"
    with pytest.raises(RoleMapError, match=f"^{message}$"):
        read_artifact(subcubic)
    tmp = subcubic.parent
    for argv in (["lift", str(subcubic), str(tmp / "asg")], ["extract", str(subcubic), str(tmp / "part")]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "lb2p.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_crlf_role_map_reads(tmp_path):
    for name in ALL_REDUCTIONS:
        art = reduce_by_name(name, parse_nae(CANONICAL_N3))
        _, roles_path = write_artifact(art, tmp_path / name)
        roles_path.write_bytes(roles_path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_artifact(tmp_path / name) == art


def _bireg_with_extra_edge(tmp_path):
    """The bireg artifact of CANONICAL_N3 plus an edge between two clause
    vertices that the lift of 001 labels 0 and that have balance -1: the
    lift then has balance -2 at both, yet the role map still reads."""
    art = reduce_by_name("bireg", parse_nae(CANONICAL_N3))
    part = assignment_to_partition(art, (0, 0, 1))
    index = reference_role_index(art)
    a, b = index[("q", (0, 2))], index[("q", (1, 2))]
    assert part.labels[a] == part.labels[b] == 0 and not art.graph.has_edge(a, b)
    base = tmp_path / "extra"
    write_artifact(art, base)
    tampered = Graph.from_edges(art.graph.n, art.graph.edges() + [(a, b)])
    Path(f"{base}.graph").write_text(serialize_graph(tampered))
    (tmp_path / "asg").write_text("001\n")
    return base, (a, b)


def test_lift_rejects_graph_that_breaks_its_check(tmp_path, capsys):
    base, (a, b) = _bireg_with_extra_edge(tmp_path)
    art = read_artifact(base)
    with pytest.raises(RoleMapError, match=rf"violates balance at \[{a}, {b}\]"):
        assignment_to_partition(art, (0, 0, 1))
    assert main(["lift", str(base), str(tmp_path / "asg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_lift_under_optimize_flag(tmp_path):
    """Under python -O a lift of an edited artifact still exits 2 and prints
    no partition: no check of the lift rests on an assert."""
    base, _ = _bireg_with_extra_edge(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "lb2p.cli", "lift", str(base), str(tmp_path / "asg")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_extract_rejects_graph_with_moved_input(tmp_path, capsys):
    """Swap a variable's input with a gadget vertex of the other label in
    both the graph and a valid partition: the partition stays valid on the
    edited graph, but the inputs the role map names now disagree.  With two
    variables moved (2 at its second input, 1 at its fourth), the message
    names the lower variable."""
    art = reduce_by_name("even", parse_nae(CANONICAL_N3))
    index, roles = reference_role_index(art), reference_roles(art)
    for moves, first in (([(0, 1)], 0), ([(2, 2), (1, 4)], 1)):
        labels = list(assignment_to_partition(art, (0, 0, 1)).labels)
        swap = {}
        for i, t in moves:
            a = index[("p", (i, t))]
            b = next(v for v, (tag, _) in enumerate(roles) if tag == "g" and labels[v] != labels[a] and v not in swap)
            swap.update({a: b, b: a})
            labels[a], labels[b] = labels[b], labels[a]
        moved = Graph.from_edges(art.graph.n, [(swap.get(u, u), swap.get(v, v)) for u, v in art.graph.edges()])
        partition = TwoPartition(tuple(labels))
        assert not check(moved, partition, "open")
        base = tmp_path / "moved"
        write_artifact(art, base)
        Path(f"{base}.graph").write_text(serialize_graph(moved))
        with pytest.raises(RoleMapError, match=f"^the inputs of variable {first} disagree"):
            partition_to_assignment(read_artifact(base), partition)
        (tmp_path / "part").write_text(partition.to_line() + "\n")
        assert main(["extract", str(base), str(tmp_path / "part")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_lift_and_extract_match_role_tuple_route(name):
    """The lift and the extract read the layout's blocks by offset; on
    planted formulas they give exactly what the per-vertex role tuples give,
    for the planted assignment, its complement and the flipped partitions."""
    rng = random.Random(f"blocks:{name}")
    for n in (6, 12, 24, 48, 96):
        inst, planted = planted_nae_instance(n, rng)
        for r in (1, 2, 3) if name == "bireg" else (0,):
            art = reduce_by_name(name, inst, r)
            for a in (planted, tuple(1 - x for x in planted)):
                part = assignment_to_partition(art, a)
                assert part == reference_lift(art, a)
                flipped = TwoPartition(tuple(1 - x for x in part.labels))
                assert partition_to_assignment(art, part) == reference_extract(art, part) == a
                assert partition_to_assignment(art, flipped) == reference_extract(art, flipped)
            monochrome = (0,) * n
            with pytest.raises(UnsatAssignmentError):
                reference_lift(art, monochrome)
            with pytest.raises(UnsatAssignmentError, match="^clause 0 is monochrome under the assignment$"):
                assignment_to_partition(art, monochrome)
            # the planted assignment with two variables flipped: the first
            # of its monochrome clauses is named
            a = list(planted)
            while len(mono := [j for j, c in enumerate(inst.clauses) if len({a[x] for x in c}) == 1]) < 2:
                a[rng.randrange(n)] ^= 1
            with pytest.raises(UnsatAssignmentError, match=f"^clause {mono[0]} is monochrome under the assignment$"):
                assignment_to_partition(art, tuple(a))


# (instance, bireg r): CANONICAL_N3, with its repeated clause, at every r,
# and 7 seeded instances per n = 3, 6, ..., 96, r cycling through 1, 2, 3
INSTANCES = [(parse_nae(CANONICAL_N3), r) for r in (1, 2, 3)] + [
    (random_nae_instance(n, random.Random(f"oracle:{n}:{seed}")), 1 + (n // 3 + seed) % 3)
    for n in range(3, 97, 3)
    for seed in range(7)
]


def test_constructors_match_per_edge_reference(tmp_path):
    """The array constructors build the same graph as the per-edge Python
    constructors, and write the same .graph and .roles bytes as a line-by-line
    formatter, on 227 instances of 3 to 96 variables for every target, bireg
    at r = 1, 2 and 3 for every size."""
    assert len(INSTANCES) >= 200
    for inst, bireg_r in INSTANCES:
        for name in ALL_REDUCTIONS:
            art = reduce_by_name(name, inst, bireg_r)
            assert art.graph == reference_reduce(name, inst, bireg_r), (name, inst.n, bireg_r)
            graph_path, roles_path = write_artifact(art, tmp_path / "art")
            graph_text, roles_text = reference_artifact_text(art)
            assert graph_path.read_bytes() == graph_text.encode("ascii")
            assert roles_path.read_bytes() == roles_text.encode("ascii")


def _edit_line(edit):
    """An edit of the file's lines and of the separator after each (all
    newlines before the edit) at line i (0 is the header), then the text."""

    def apply(lines, seps, i):
        edit(lines, seps, i)
        return "".join(line + sep for line, sep in zip(lines, seps))

    return apply


def _insert(lines, seps, i, line):
    lines.insert(i, line)
    seps.insert(i, "\n")


def _delete(lines, seps, i):
    del lines[i]
    del seps[i]


def _swap(lines, seps, i):
    j = i + 1 if i + 1 < len(lines) else i - 1
    lines[i], lines[j] = lines[j], lines[i]


def _plus_one(lines, seps, i):
    head, _, rest = lines[i].partition(" ")
    lines[i] = f"{int(head) + 1} {rest}" if head.isdigit() else head + "1 " + rest


ROLE_EDITS = {
    "leading-zero": _edit_line(lambda L, S, i: L.__setitem__(i, "0" + L[i])),
    "plus-sign": _edit_line(lambda L, S, i: L.__setitem__(i, "+" + L[i])),
    "plus-one": _edit_line(_plus_one),
    "double-space": _edit_line(lambda L, S, i: L.__setitem__(i, L[i].replace(" ", "  ", 1))),
    "trailing-space": _edit_line(lambda L, S, i: L.__setitem__(i, L[i] + " ")),
    "leading-space": _edit_line(lambda L, S, i: L.__setitem__(i, " " + L[i])),
    "tab": _edit_line(lambda L, S, i: L.__setitem__(i, L[i].replace(" ", "\t", 1))),
    "zero-index": _edit_line(lambda L, S, i: L.__setitem__(i, L[i].replace(" ", " 0", 1))),
    "crlf": _edit_line(lambda L, S, i: S.__setitem__(i, "\r\n")),
    "cr": _edit_line(lambda L, S, i: S.__setitem__(i, "\r")),
    "crlf-everywhere": _edit_line(lambda L, S, i: S.__setitem__(slice(None), ["\r\n"] * len(S))),
    "formfeed-separator": _edit_line(lambda L, S, i: S.__setitem__(i, "\x0c")),
    "vtab-separator": _edit_line(lambda L, S, i: S.__setitem__(i, "\x0b")),
    "fs-separator": _edit_line(lambda L, S, i: S.__setitem__(i, "\x1c")),
    "rs-separator": _edit_line(lambda L, S, i: S.__setitem__(i, "\x1e")),
    "formfeed-in-line": _edit_line(lambda L, S, i: L.__setitem__(i, L[i] + "\x0c")),
    "two-newlines": _edit_line(lambda L, S, i: S.__setitem__(i, "\n\n")),
    "missing-final-newline": _edit_line(lambda L, S, i: S.__setitem__(-1, "")),
    "space-after-final-newline": _edit_line(lambda L, S, i: S.__setitem__(-1, "\n ")),
    "trailing-space-no-final-newline": _edit_line(lambda L, S, i: (L.__setitem__(i, L[i] + " "), S.__setitem__(-1, ""))),
    "dropped-line": _edit_line(_delete),
    "duplicated-line": _edit_line(lambda L, S, i: _insert(L, S, i, L[i])),
    "swapped-lines": _edit_line(_swap),
    "trailing-blank-line": _edit_line(lambda L, S, i: _insert(L, S, len(L), "")),
    "leading-blank-line": _edit_line(lambda L, S, i: _insert(L, S, 0, "")),
    "joined-lines": _edit_line(lambda L, S, i: S.__setitem__(i, "")),
    "empty": lambda lines, seps, i: "",
}


def _read_outcome(read, *args):
    try:
        read(*args)
    except RoleMapError as exc:
        return str(exc)
    return "accepted"


@pytest.mark.parametrize("edit", sorted(ROLE_EDITS))
def test_read_artifact_accepts_exactly_what_the_line_compare_accepts(tmp_path, edit):
    """Each edit of a written role map at its one line, the header, is
    accepted by read_artifact exactly when the line-by-line reference
    accepts it; otherwise both raise the same RoleMapError message."""
    for name, r in (("bireg", 1), ("bireg", 2), ("even", 0), ("subcubic", 0), ("odd", 0)):
        art = reduce_by_name(name, parse_nae(CANONICAL_N3), max(r, 1))
        base = tmp_path / name
        _, roles_path = write_artifact(art, base)
        lines = roles_path.read_text().splitlines()
        text = ROLE_EDITS[edit](list(lines), ["\n"] * len(lines), 0)
        roles_path.write_bytes(text.encode("ascii"))
        want = _read_outcome(reference_read_roles, roles_path.read_text(encoding="ascii"), art.graph.n)
        assert _read_outcome(read_artifact, base) == want, (name, r)


def test_read_artifact_matches_the_line_compare_on_random_edits(tmp_path):
    """2000 seeded one-character edits (insert, delete or replace, from
    digits, tags, spaces and every ASCII line boundary) of written role
    maps: read_artifact accepts exactly what the reference accepts, and
    otherwise raises the same message."""
    rng = random.Random(2814)
    alphabet = "0123456789 pqgvyzb+-\t\n\r\x0b\x0c\x1c\x1d\x1e"
    accepted = 0
    for name in ALL_REDUCTIONS:
        art = reduce_by_name(name, random_nae_instance(6, rng))
        base = tmp_path / name
        _, roles_path = write_artifact(art, base)
        clean = roles_path.read_text()
        for _ in range(500):
            at = rng.randrange(len(clean) + 1)
            kind = rng.randrange(3)
            char = rng.choice(alphabet)
            text = clean[:at] + (char if kind != 1 else "") + clean[at + (kind != 0) :]
            roles_path.write_bytes(text.encode("ascii"))
            want = _read_outcome(reference_read_roles, roles_path.read_text(encoding="ascii"), art.graph.n)
            assert _read_outcome(read_artifact, base) == want, (name, at, kind, char)
            accepted += want == "accepted"
    assert 0 < accepted < 2000


def test_read_artifact_cuts_lines_as_splitlines(tmp_path):
    """read_artifact cuts only the first two lines out of the role map, at
    the line boundaries of str.splitlines: every boundary that survives
    universal-newline reading, alone, doubled and before a second line, with
    and without a final boundary, gives the reference's outcome."""
    art = reduce_by_name("even", parse_nae(CANONICAL_N3))
    base = tmp_path / "even"
    _, roles_path = write_artifact(art, base)
    header = roles_path.read_text().rstrip("\n")
    outcomes = set()
    for end in "\n\x0b\x0c\x1c\x1d\x1e":
        for tail in ("", end, end + end, end + "rec", end + "rec" + end, end + "rec" + end + "more", end + " " + end):
            for text in (header + tail, header[:-1] + tail):
                roles_path.write_bytes(text.encode("ascii"))
                want = _read_outcome(reference_read_roles, roles_path.read_text(encoding="ascii"), art.graph.n)
                assert _read_outcome(read_artifact, base) == want, text
                outcomes.add(want.split(":")[0])
    assert outcomes == {"accepted", "line 2", "bad role-map header"}


def _bireg_with_monochrome_clauses(rng):
    """A bireg (r = 1) artifact, an assignment with two monochrome clauses
    j1 < j2, and the lift-rule partition of that assignment (p labels from
    it, q(j, l) = l % 2).  The graph is edited so that partition is valid:
    each clause vertex of a monochrome clause gains two clause-vertex
    neighbours of the label it lacks, taken from clauses whose own balance
    the new edge brings to 0."""
    inst, planted = planted_nae_instance(24, rng)
    art = reduce_by_name("bireg", inst, 1)
    a = list(planted)
    while len(mono := [j for j, c in enumerate(inst.clauses) if len({a[x] for x in c}) == 1]) != 2:
        a = list(planted)
        for x in rng.sample(range(inst.n), 2):
            a[x] ^= 1
    index = reference_role_index(art)
    labels = [a[i] for i in range(inst.n)] + [l % 2 for _ in range(inst.k) for l in (1, 2)]
    sums = {j: sum(2 * a[x] - 1 for x in c) for j, c in enumerate(inst.clauses)}
    free = {s: [j for j in sums if sums[j] == s] for s in (-1, 1)}
    edges = art.graph.edges()
    for j in mono:
        value = a[inst.clauses[j][0]]
        # all 0: join label-1 helpers q(h, 1); all 1: label-0 helpers q(h, 2)
        slot = 1 if value == 0 else 2
        for l, sign in ((1, -1), (2, 1)):
            for _ in range(2):
                h = free[sign].pop()
                edges.append((index[("q", (j, l))], index[("q", (h, slot))]))
    graph = Graph.from_edges(art.graph.n, edges)
    partition = TwoPartition(tuple(labels))
    assert not check(graph, partition, "open")
    return art, graph, tuple(a), partition, mono


def test_extract_names_the_first_monochrome_clause(tmp_path):
    """On a graph edited so that a partition is valid although two clauses
    read monochrome, the extract names the first of them, and so does the
    lift of the assignment behind that partition."""
    rng = random.Random(41)
    for _ in range(5):
        art, graph, a, partition, (j1, j2) = _bireg_with_monochrome_clauses(rng)
        base = tmp_path / "mono"
        write_artifact(art, base)
        Path(f"{base}.graph").write_text(serialize_graph(graph))
        edited = read_artifact(base)
        with pytest.raises(RoleMapError, match=f"^clause {j1} is monochrome: the graph does not match"):
            partition_to_assignment(edited, partition)
        with pytest.raises(UnsatAssignmentError, match=f"^clause {j1} is monochrome under the assignment$"):
            assignment_to_partition(edited, a)


@pytest.mark.parametrize("counts", [(2, 4), (4, 2)])
def test_clause_vertex_count_names_the_first_clause(tmp_path, counts):
    """Two clause vertices with the wrong number of variable neighbours (an
    edge to a variable removed at one, added at the other): the lift names
    the first clause vertex and its count."""
    inst = random_nae_instance(12, random.Random(17))
    art = reduce_by_name("bireg", inst, 1)
    index = reference_role_index(art)
    edges = set(art.graph.edges())
    q = [index[("q", (j, 1))] for j in (3, 7)]
    for qv, j, count in zip(q, (3, 7), counts):
        if count == 2:
            edges.discard((inst.clauses[j][0], qv))
        else:
            edges.add((next(x for x in range(inst.n) if x not in inst.clauses[j]), qv))
    base = tmp_path / "count"
    write_artifact(art, base)
    Path(f"{base}.graph").write_text(serialize_graph(Graph.from_edges(art.graph.n, sorted(edges))))
    with pytest.raises(RoleMapError, match=rf"^clause vertex {q[0]} has {counts[0]} variable neighbours, expected 3$"):
        assignment_to_partition(read_artifact(base), (0, 1) * 6)
