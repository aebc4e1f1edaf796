import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    CANONICAL_N3,
    bipartite_witness_graph,
    complete,
    complete_bipartite,
    cycle,
    cycle_union_multigraph,
    random_nae_instance,
    subdivide,
    subdivide_multigraph,
)
from lb2p import parse_graph, parse_partition, serialize_graph
from lb2p import cli
from lb2p.cli import main
from lb2p.nae import brute_sat, parse_nae, serialize_nae
from lb2p.reductions import read_artifact, reduce_open_biregular


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["c4"] = tmp_path / "c4.graph"
    paths["c4"].write_text(serialize_graph(cycle(4)))
    paths["c6"] = tmp_path / "c6.graph"
    paths["c6"].write_text(serialize_graph(cycle(6)))
    paths["bireg"] = tmp_path / "bireg.graph"
    paths["bireg"].write_text(serialize_graph(reduce_open_biregular(parse_nae(CANONICAL_N3)).graph))
    paths["k23"] = tmp_path / "k23.graph"
    paths["k23"].write_text(serialize_graph(complete_bipartite(2, 3)))
    paths["sk4"] = tmp_path / "sk4.graph"
    paths["sk4"].write_text(serialize_graph(subdivide(complete(4))))
    paths["part"] = tmp_path / "c4.part"
    paths["part"].write_text("0011\n")
    paths["badpart"] = tmp_path / "bad.part"
    paths["badpart"].write_text("0101\n")
    paths["nae"] = tmp_path / "inst.nae"
    paths["nae"].write_text(CANONICAL_N3)
    paths["assign"] = tmp_path / "assign.txt"
    paths["assign"].write_text("001\n")
    paths["tmp"] = tmp_path
    return paths


def test_check_valid(files, capsys):
    code = main(["check", "--mode", "open", str(files["c4"]), str(files["part"])])
    assert code == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_invalid_lists_violations(files, capsys):
    code = main(["check", "--mode", "open", str(files["c4"]), str(files["badpart"])])
    assert code == 1
    assert capsys.readouterr().out == "INVALID 0 1 2 3\n"


def test_solve_unsat(files, capsys):
    code = main(["solve", "--mode", "open", str(files["c6"])])
    assert code == 0
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_sat_prints_partition(files, capsys):
    code = main(["solve", "--mode", "open", str(files["c4"])])
    assert code == 0
    assert capsys.readouterr().out == "SAT\n0011\n"


def test_solve_brute_method(files, capsys):
    code = main(["solve", "--mode", "open", "--method", "brute", str(files["c6"])])
    assert code == 0
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_timeout_exit_code(files, capsys):
    code = main(["solve", "--mode", "open", "--budget", "1", str(files["bireg"])])
    assert code == 3
    assert capsys.readouterr().out == "TIMEOUT\n"


@pytest.mark.parametrize(
    "name, extra",
    [("c4", []), ("c6", []), ("bireg", ["--budget", "1"]), ("c4", ["--method", "brute"])],
)
def test_solve_stats_line_leaves_stdout_unchanged(files, capsys, name, extra):
    argv = ["solve", "--mode", "open", *extra, str(files[name])]
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv[:1] + ["--stats"] + argv[1:]) == code
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out and plain.err == ""
    assert with_stats.err.count("\n") == 1  # one line
    stats = json.loads(with_stats.err)
    assert list(stats) == [
        "status", "nodes", "propagations", "conflicts", "probes", "components", "seconds"
    ]
    assert stats["status"] == plain.out.split()[0].lower()
    assert stats["nodes"] >= 1 and stats["seconds"] >= 0
    if name == "c6":
        assert stats["conflicts"] == 1


def test_check_loads_a_large_cycle_once(files, capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "parse_graph", lambda text: loaded.append(parse_graph(text)) or loaded[-1])
    big = files["tmp"] / "c10000.graph"
    big.write_text(serialize_graph(cycle(10**4)))
    part = files["tmp"] / "c10000.part"
    part.write_text("0011" * (10**4 // 4) + "\n")
    assert main(["check", "--mode", "open", str(big), str(part)]) == 0
    assert capsys.readouterr().out == "VALID\n"
    assert len(loaded) == 1 and loaded[0].n == 10**4


def test_graph_too_large_to_allocate_is_exit_2(files, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError("Unable to allocate 1.49 GiB")

    monkeypatch.setattr(cli, "parse_graph", exhausted)
    huge = files["tmp"] / "huge.graph"
    huge.write_text("200000000 0\n")
    assert main(["solve", "--mode", "open", str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 1.49 GiB\n"


def test_formula_with_huge_variable_count_is_format_error(tmp_path, capsys):
    """A header promising 10**12 variables and no clause allocates nothing
    by that count: the first variable's count is reported."""
    formula = tmp_path / "huge.nae"
    formula.write_text("p nae3 1000000000000 0\n")
    assert main(["reduce", "--target", "even", "--out", str(tmp_path / "f"), str(formula)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "format error: variable 1 occurs 0 times, expected 4\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.nae"]


@pytest.mark.parametrize("budget", ["0", "-5", "ten"])
def test_solve_nonpositive_budget_is_usage_error(files, capsys, budget):
    code = main(["solve", "--mode", "open", "--budget", budget, str(files["c4"])])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget: must be a positive integer" in captured.err


def test_biregular_sat(files, capsys):
    code = main(["biregular", str(files["k23"])])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "SAT"
    g = parse_graph(files["k23"].read_text())
    parse_partition(out[1] + "\n", g.n)


def test_biregular_certificate(files, capsys):
    code = main(["biregular", str(files["sk4"])])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "CERT"
    cyc = [int(x) for x in out[1].split()]
    assert len(cyc) % 4 == 2


def test_biregular_not_applicable(files, capsys):
    code = main(["biregular", str(files["c6"])])
    assert code == 2
    assert capsys.readouterr().out.startswith("NOTAPPLICABLE ")


# the first line of `reduce` on CANONICAL_N3, per target
SUMMARIES = {
    "bireg": "11 vertices (3,8)-biregular",
    "even": "60 vertices even bipartite maxdeg 4",
    "subcubic": "94 vertices bipartite maxdeg 3",
    "odd": "130 vertices odd maxdeg 3",
}


@pytest.mark.parametrize("target", SUMMARIES)
def test_reduce_summary_and_files(files, capsys, target):
    base = files["tmp"] / f"out_{target}"
    code = main(
        ["reduce", "--target", target, "--r", "1", "--out", str(base), str(files["nae"])]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == SUMMARIES[target]
    art = read_artifact(base)
    assert art.name == target and art.graph.n == int(SUMMARIES[target].split()[0])
    # the graph file is re-readable by the parser
    parse_graph((files["tmp"] / f"out_{target}.graph").read_text())


# sha256 prefixes of the partition line `lift` prints for each target, on a
# seeded 12-variable formula and its lexicographically first satisfying
# assignment; recorded before the reductions became rows of one table
LIFT_DIGESTS = {
    "bireg": "2cbb674959dd02fa",
    "even": "59a26ea6e58cfdcd",
    "subcubic": "1ebdbef294c444ea",
    "odd": "ad2fc23939cc5e2e",
}


@pytest.mark.parametrize("target", LIFT_DIGESTS)
def test_lift_partition_digest(tmp_path, capsys, target):
    inst = random_nae_instance(12, random.Random(7))
    (tmp_path / "f.nae").write_text(serialize_nae(inst))
    (tmp_path / "a.txt").write_text("".join(map(str, brute_sat(inst))) + "\n")
    base = tmp_path / target
    assert main(["reduce", "--target", target, "--out", str(base), str(tmp_path / "f.nae")]) == 0
    capsys.readouterr()
    assert main(["lift", str(base), str(tmp_path / "a.txt")]) == 0
    line = capsys.readouterr().out.strip()
    assert hashlib.sha256(line.encode()).hexdigest()[:16] == LIFT_DIGESTS[target]


# sha256 prefixes of the whole stdout of `biregular` on seeded (2,b) graphs:
# a witness graph with 80 high-side vertices, or a subdivided 60-vertex
# cycle-union multigraph, which has a certificate
BIREGULAR_DIGESTS = {
    (3, "witness"): "09f229592c7082c2",
    (3, "certificate"): "387d27004b699dad",
    (5, "witness"): "b85304ef50593910",
    (5, "certificate"): "5c2c506799e90a4e",
    (9, "witness"): "6d387054c13d09a5",
    (9, "certificate"): "35411436799ce8e9",
}


@pytest.mark.parametrize("b,kind", BIREGULAR_DIGESTS)
def test_biregular_output_digest(tmp_path, capsys, b, kind):
    rng = random.Random(1000 * b + (kind == "certificate"))
    if kind == "witness":
        g = bipartite_witness_graph(40, b, rng)
    else:
        g = subdivide_multigraph(cycle_union_multigraph(60, b, rng))
    (tmp_path / "g.graph").write_text(serialize_graph(g))
    assert main(["biregular", str(tmp_path / "g.graph")]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0] == ("SAT" if kind == "witness" else "CERT")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == BIREGULAR_DIGESTS[b, kind]


@pytest.mark.parametrize("target", ["bireg", "even", "subcubic", "odd"])
def test_reduce_lift_extract_pipeline(files, capsys, target):
    base = files["tmp"] / f"out_{target}"
    assert main(["reduce", "--target", target, "--out", str(base), str(files["nae"])]) == 0
    capsys.readouterr()
    part_file = files["tmp"] / f"part_{target}.txt"
    code = main(["lift", "--out", str(part_file), str(base), str(files["assign"])])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert part_file.read_text() == line + "\n"
    code = main(["extract", str(base), str(part_file)])
    assert code == 0
    assert capsys.readouterr().out == "001\n"


def test_lift_rejects_unsat_assignment(files, capsys):
    base = files["tmp"] / "out_rej"
    assert main(["reduce", "--target", "even", "--out", str(base), str(files["nae"])]) == 0
    capsys.readouterr()
    bad = files["tmp"] / "allones.txt"
    bad.write_text("111\n")
    code = main(["lift", str(base), str(bad)])
    assert code == 1
    assert "UNSATASSIGNMENT" in capsys.readouterr().err


def test_extract_rejects_invalid_partition(files, capsys):
    base = files["tmp"] / "out_inv"
    assert main(["reduce", "--target", "bireg", "--out", str(base), str(files["nae"])]) == 0
    capsys.readouterr()
    art = read_artifact(base)
    bad = files["tmp"] / "badbig.part"
    bad.write_text("1" * art.graph.n + "\n")
    code = main(["extract", str(base), str(bad)])
    assert code == 1
    assert "INVALIDPARTITION" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".graph", ".roles"])
@pytest.mark.parametrize("out", [False, True])
def test_reduce_refuses_to_overwrite_its_formula(tmp_path, capsys, suffix, out):
    """A formula stored at BASE.graph or BASE.roles, with the default base or
    with --out spelled through another directory, is refused with exit 2
    before anything is written."""
    formula = tmp_path / f"foo{suffix}"
    formula.write_text(CANONICAL_N3)
    (tmp_path / "sub").mkdir()
    extra = ["--out", str(tmp_path / "sub" / ".." / "foo")] if out else []
    assert main(["reduce", "--target", "even", *extra, str(formula)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert formula.read_text() == CANONICAL_N3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([formula.name, "sub"])


@pytest.mark.parametrize("target", ["f.graph", "f.roles", "asg", "sub/../f.graph"])
def test_lift_refuses_to_overwrite_its_inputs(tmp_path, capsys, target):
    """``lift --out`` naming the artifact's graph, its role map or the
    assignment, also through another directory, exits 2 before anything is
    written, and the artifact still extracts."""
    (tmp_path / "f.nae").write_text(CANONICAL_N3)
    (tmp_path / "asg").write_text("001\n")
    (tmp_path / "sub").mkdir()
    assert main(["reduce", "--target", "even", str(tmp_path / "f.nae")]) == 0
    capsys.readouterr()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    base, out = str(tmp_path / "f"), str(tmp_path / target)
    assert main(["lift", "--out", out, base, str(tmp_path / "asg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "would overwrite" in captured.err
    assert "Traceback" not in captured.err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before
    assert main(["lift", "--out", str(tmp_path / "part"), base, str(tmp_path / "asg")]) == 0
    capsys.readouterr()
    assert main(["extract", base, str(tmp_path / "part")]) == 0
    assert capsys.readouterr().out == "001\n"


def test_cli_import_loads_only_lb2p_and_numpy():
    """``import lb2p.cli`` in a fresh process loads no third-party module
    besides numpy, and not ``json`` (imported only by ``solve --stats``):
    the benchmark's setup_s is mostly this import."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lb2p.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)), 'json' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['lb2p', 'numpy'] False\n"


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    """``main`` builds its argparse parser on its first call only: a later
    call adds no argument, and each call still parses its own command."""
    assert main(["check", "--mode", "open", str(files["c4"]), str(files["part"])]) == 0
    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_argument", lambda self, *a, **k: added.append(a) or add_argument(self, *a, **k)
    )
    capsys.readouterr()
    assert main(["solve", "--mode", "open", str(files["c6"])]) == 0
    assert main(["solve", "--mode", "sideways", "x.graph"]) == 2
    assert main(["check", "--mode", "open", str(files["c4"]), str(files["part"])]) == 0
    assert capsys.readouterr().out == "UNSAT\nVALID\n"
    assert added == []


@pytest.mark.parametrize("name", ["f1", "f2", "forcing", "f4"])
def test_gadget_verify(name, capsys):
    code = main(["gadget", "verify", "--name", name])
    assert code == 0
    assert capsys.readouterr().out == "PASS\n"


def test_usage_error_exit_2(capsys):
    assert main(["solve", "--mode", "sideways", "x.graph"]) == 2


def test_format_error_exit_2(files, capsys):
    broken = files["tmp"] / "broken.graph"
    broken.write_text("2 1\n0 1\n0 1\n")
    code = main(["solve", "--mode", "open", str(broken)])
    assert code == 2
    assert "format error" in capsys.readouterr().err


def test_huge_endpoint_is_format_error(files, capsys):
    huge = files["tmp"] / "huge.graph"
    huge.write_text(f"3 2\n0 1\n2 {10**30}\n")
    assert main(["biregular", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error: line 3: vertex out of range")
    assert "Traceback" not in err


def test_missing_file_exit_2(files, capsys):
    assert main(["solve", "--mode", "open", str(files["tmp"] / "nope.graph")]) == 2


def test_output_is_byte_deterministic(files, capsys):
    runs = []
    for _ in range(2):
        base = files["tmp"] / "det"
        main(["reduce", "--target", "odd", "--out", str(base), str(files["nae"])])
        runs.append(
            (
                capsys.readouterr().out,
                (files["tmp"] / "det.graph").read_bytes(),
                (files["tmp"] / "det.roles").read_bytes(),
            )
        )
    assert runs[0] == runs[1]
