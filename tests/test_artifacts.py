"""The reduction artifacts on disk: the layout fixed by the header, the
exact records read_artifact accepts, and what lift/extract do when the
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
    reference_extract,
    reference_lift,
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
            records = roles_path.read_text().splitlines()[1:]
            assert records == [
                " ".join([str(v), tag, *map(str, idx)]) for v, (tag, idx) in enumerate(reference_roles(art))
            ]


# sha256 prefixes of the .graph bytes followed by the .roles bytes, recorded
# before the constructors read occurrence_slots and the role layout
DIGESTS = {
    (6, "bireg"): "3f8080a0fa5c62b5",
    (6, "even"): "8627acfeaa81ed0d",
    (6, "subcubic"): "c9e027791ddf67d6",
    (6, "odd"): "cc270f66ed809bde",
    (24, "bireg"): "d9fdfe2fed30b302",
    (24, "even"): "eeda733abc63ea62",
    (24, "subcubic"): "699ca351ca5c55b3",
    (24, "odd"): "c0dd54fda19c36b9",
    (96, "bireg"): "1890d3dc3f68d5db",
    (96, "even"): "4f557cf4b0110cc5",
    (96, "subcubic"): "e24903aea835751e",
    (96, "odd"): "7278b136ceb77aa8",
}


@pytest.mark.parametrize("n, name", sorted(DIGESTS))
def test_artifact_bytes_unchanged(tmp_path, n, name):
    inst = random_nae_instance(n, random.Random(f"digest:{n}"))
    graph_path, roles_path = write_artifact(reduce_by_name(name, inst), tmp_path / name)
    digest = hashlib.sha256(graph_path.read_bytes() + roles_path.read_bytes()).hexdigest()
    assert digest[:16] == DIGESTS[(n, name)]


def _lines_edit(edit):
    def tamper(graph_text, roles_text):
        lines = roles_text.splitlines()
        edit(lines)
        return graph_text, "\n".join(lines) + "\n"

    return tamper


def _swap(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]


def _graph_n_plus_one(graph_text, roles_text):
    head, _, rest = graph_text.partition("\n")
    n, m = map(int, head.split())
    return f"{n + 1} {m}\n{rest}", roles_text


# each edit applies to the subcubic artifact of CANONICAL_N3; line 2 is
# '0 g 0 0' and line 6 is '4 p 0 1'
TAMPERS = {
    "tag": _lines_edit(lambda lines: lines.__setitem__(5, "4 g 0 1")),
    "index": _lines_edit(lambda lines: lines.__setitem__(5, "4 p 0 2")),
    "vertex": _lines_edit(lambda lines: lines.__setitem__(5, "5 p 0 1")),
    "extra-record": _lines_edit(lambda lines: lines.append(f"{len(lines) - 1} q 4")),
    "missing-record": _lines_edit(lambda lines: lines.pop()),
    "reordered": _lines_edit(lambda lines: _swap(lines, 1, 2)),
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


def test_role_map_error_names_first_difference(subcubic):
    _apply(subcubic, TAMPERS["tag"])
    with pytest.raises(RoleMapError, match=r"^line 6: expected '4 p 0 1', found '4 g 0 1'$"):
        read_artifact(subcubic)


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


@pytest.mark.parametrize("edit", ["tag", "extra-edge"])
def test_lift_under_optimize_flag(tmp_path, edit):
    """Under python -O a lift of an edited artifact still exits 2 and prints
    no partition: no check of the lift rests on an assert."""
    if edit == "tag":
        art = reduce_by_name("even", parse_nae(CANONICAL_N3))
        base = tmp_path / "even"
        write_artifact(art, base)
        roles = Path(f"{base}.roles")
        roles.write_text(roles.read_text().replace("\n0 p 0 1\n", "\n0 q 0 1\n"))
        (tmp_path / "asg").write_text("001\n")
    else:
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
    """Swap a variable's first input with a gadget vertex of the other label
    in both the graph and a valid partition: the partition stays valid on
    the edited graph, but the inputs the role map names now disagree."""
    art = reduce_by_name("even", parse_nae(CANONICAL_N3))
    labels = list(assignment_to_partition(art, (0, 0, 1)).labels)
    a = reference_role_index(art)[("p", (0, 1))]
    b = next(v for v, (tag, _) in enumerate(reference_roles(art)) if tag == "g" and labels[v] != labels[a])
    swap = {a: b, b: a}
    moved = Graph.from_edges(art.graph.n, [(swap.get(u, u), swap.get(v, v)) for u, v in art.graph.edges()])
    labels[a], labels[b] = labels[b], labels[a]
    partition = TwoPartition(tuple(labels))
    assert not check(moved, partition, "open")
    base = tmp_path / "moved"
    write_artifact(art, base)
    Path(f"{base}.graph").write_text(serialize_graph(moved))
    with pytest.raises(RoleMapError, match="inputs of variable 0 disagree"):
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
            with pytest.raises(UnsatAssignmentError):
                assignment_to_partition(art, monochrome)
