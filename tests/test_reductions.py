import random

import pytest

from helpers import (
    CANONICAL_N3,
    occurrence_slot,
    random_nae_instance,
    reference_role_index,
    reference_roles,
    run_optimized,
    traced_peak,
)
from lb2p import (
    InvalidPartitionError,
    TwoPartition,
    UnsatAssignmentError,
    assignment_to_partition,
    balance_report,
    bipartition,
    brute_sat,
    check,
    classify,
    decide,
    nae_eval,
    parse_nae,
    partition_to_assignment,
    read_artifact,
    reduce_closed_odd,
    reduce_closed_subcubic,
    reduce_open_biregular,
    reduce_open_even,
    write_artifact,
)
from lb2p.reductions import GAMMA_SIZE, RoleMapError, reduce_by_name


@pytest.fixture(scope="module")
def n3():
    return parse_nae(CANONICAL_N3)


ALL_REDUCTIONS = ["bireg", "even", "subcubic", "odd"]


def test_bireg_counts_and_degrees(n3):
    art = reduce_open_biregular(n3, 1)
    g = art.graph
    assert g.n == 3 + 2 * 1 * 4 == 11
    assert all(g.degree(v) == 8 for v, (tag, _) in enumerate(reference_roles(art)) if tag == "p")
    assert all(g.degree(v) == 3 for v, (tag, _) in enumerate(reference_roles(art)) if tag == "q")
    assert classify(g).biregular == (3, 8)


def test_bireg_r2(n3):
    art = reduce_open_biregular(n3, 2)
    assert art.graph.n == 3 + 2 * 2 * 4
    assert classify(art.graph).biregular == (3, 16)
    part = assignment_to_partition(art, (0, 0, 1))
    assert not check(art.graph, part, "open")
    assert partition_to_assignment(art, part) == (0, 0, 1)


def test_even_counts_and_degrees(n3):
    art = reduce_open_even(n3)
    g = art.graph
    assert g.n == 16 * 3 + 3 * 4 == 60
    degs = {"p": set(), "g": set(), "q": set(), "v": set()}
    for v, (tag, _) in enumerate(reference_roles(art)):
        degs[tag].add(g.degree(v))
    assert degs == {"p": {4}, "g": {2}, "q": {4}, "v": {2}}
    rep = classify(g)
    assert rep.is_even and rep.max_degree == 4
    assert bipartition(g) is not None


def test_even_gadget_cycle_positions_two_colorable(n3):
    art = reduce_open_even(n3)
    bip = bipartition(art.graph)
    idx = reference_role_index(art)
    for i in range(n3.n):
        side_of_first = idx[("p", (i, 1))] in bip.side_x
        for t in range(2, 5):
            assert (idx[("p", (i, t))] in bip.side_x) == side_of_first


def test_subcubic_counts(n3):
    art = reduce_closed_subcubic(n3)
    g = art.graph
    assert g.n == GAMMA_SIZE * 3 + 4 == 94
    rep = classify(g)
    assert rep.max_degree == 3
    assert bipartition(g) is not None
    assert all(
        g.degree(v) == 3 for v, (tag, _) in enumerate(reference_roles(art)) if tag == "q"
    )
    assert all(
        g.degree(v) == 2 for v, (tag, _) in enumerate(reference_roles(art)) if tag == "p"
    )


def test_odd_counts(n3):
    art = reduce_closed_odd(n3)
    g = art.graph
    assert g.n == GAMMA_SIZE * 3 + 10 * 4 == 130
    rep = classify(g)
    assert rep.is_odd and rep.max_degree == 3
    assert bipartition(g) is None


def test_class_postconditions_on_seeded_instances():
    rng = random.Random(99)
    for n in (3, 6, 9):
        inst = random_nae_instance(n, rng)
        k = inst.k
        art = reduce_open_biregular(inst, 1)
        assert art.graph.n == n + 2 * k and classify(art.graph).biregular == (3, 8)
        art = reduce_open_even(inst)
        rep = classify(art.graph)
        assert art.graph.n == 16 * n + 3 * k and rep.is_even and rep.max_degree == 4
        art = reduce_closed_subcubic(inst)
        rep = classify(art.graph)
        assert art.graph.n == 30 * n + k and rep.max_degree == 3
        assert bipartition(art.graph) is not None
        art = reduce_closed_odd(inst)
        rep = classify(art.graph)
        assert art.graph.n == 30 * n + 10 * k and rep.is_odd and rep.max_degree == 3


def test_class_postcondition_raises_under_optimize_flag():
    """Without its forcing gadgets the odd reduction's graph has even
    degrees; the constructor refuses it under python -O too: the class
    check is a raise, not an assert."""
    proc = run_optimized(
        "import lb2p.reductions as r\n"
        "from helpers import CANONICAL_N3\n"
        "from lb2p.nae import parse_nae\n"
        "r._gamma_edges = lambda n, gamma: []\n"
        "print(r.reduce_closed_odd(parse_nae(CANONICAL_N3)).graph.n)\n"
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "AssertionError: odd reduction built a graph outside its class" in proc.stderr


def test_odd_reduction_memory_is_a_few_times_its_graph():
    """Building the 1200-variable odd reduction peaks (tracemalloc) at no
    more than 4.5x the bytes of its graph's CSR arrays: no part array or
    concatenated edge array is alive while ``classify`` runs (the build
    peaked above 5x while they were)."""
    inst = random_nae_instance(1200, random.Random(1200))
    reduce_by_name("odd", inst)  # a first call verifies and caches the gadgets
    art, peak = traced_peak(lambda: reduce_by_name("odd", inst))
    csr = art.graph.indptr.nbytes + art.graph.nbrs.nbytes
    assert peak <= 4.5 * csr, peak / csr


def _rebuild_edges_from_roles(art, inst):
    """Re-derive the edge set from the construction rules and the role map."""
    idx = reference_role_index(art)
    edges = set()
    if art.name == "bireg":
        for j, clause in enumerate(inst.clauses):
            for var in clause:
                for l in range(1, 2 * art.r + 1):
                    edges.add(frozenset((idx[("p", (var,))], idx[("q", (j, l))])))
        return edges
    if art.name == "even":
        for i in range(inst.n):
            for l in range(1, 5):
                p = idx[("p", (i, l))]
                edges.add(frozenset((p, idx[("g", (i, 3 * l - 2))])))
                edges.add(frozenset((idx[("g", (i, 3 * l - 2))], idx[("g", (i, 3 * l - 1))])))
                edges.add(frozenset((idx[("g", (i, 3 * l - 1))], idx[("g", (i, 3 * l))])))
                edges.add(frozenset((idx[("g", (i, 3 * l))], idx[("p", (i, l % 4 + 1))])))
        for j, clause in enumerate(inst.clauses):
            for var in clause:
                t = occurrence_slot(inst, var, j)
                for l in (1, 2):
                    edges.add(frozenset((idx[("p", (var, t))], idx[("q", (j, l))])))
        for j in range(inst.k):
            for l in (1, 2):
                edges.add(frozenset((idx[("q", (j, l))], idx[("v", (j,))])))
        return edges
    # closed constructions: gadget blocks plus clause wiring
    from lb2p.gadgets import gadget_f4, gadget_forcing

    gamma = gadget_forcing()
    glocal = {}
    for v, (tag, role_idx) in enumerate(reference_roles(art)):
        if tag == "g":
            glocal[role_idx] = v
        elif tag == "p":
            i, t = role_idx
            glocal[(i, gamma.inputs[t - 1])] = v
    for i in range(inst.n):
        for a, b in gamma.graph.edges():
            edges.add(frozenset((glocal[(i, a)], glocal[(i, b)])))
    for j, clause in enumerate(inst.clauses):
        for pos, var in enumerate(clause, start=1):
            t = occurrence_slot(inst, var, j)
            p = idx[("p", (var, t))]
            edges.add(frozenset((idx[("q", (j,))], p)))
            if art.name == "odd":
                edges.add(frozenset((idx[("y", (j, pos))], p)))
    if art.name == "odd":
        f4 = gadget_f4()
        tag_of_local = {0: "y", 1: "z", 2: "b"}
        for j in range(inst.k):
            wid = {}
            for local in range(9):
                tag = tag_of_local[local % 3]
                wid[local] = idx[(tag, (j, local // 3 + 1))]
            for a, b in f4.graph.edges():
                edges.add(frozenset((wid[a], wid[b])))
    return edges


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_role_map_soundness(name, n3):
    rng = random.Random(7)
    for inst in (n3, random_nae_instance(6, rng)):
        art = reduce_by_name(name, inst)
        derived = _rebuild_edges_from_roles(art, inst)
        actual = {frozenset(e) for e in art.graph.edges()}
        assert derived == actual


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_lift_and_extract_roundtrip(name, n3):
    art = reduce_by_name(name, n3)
    part = assignment_to_partition(art, (0, 0, 1))
    assert not check(art.graph, part, art.mode)
    back = partition_to_assignment(art, part)
    assert nae_eval(n3, back)
    assert back == (0, 0, 1)


def test_bireg_lift_p_balance_zero(n3):
    art = reduce_open_biregular(n3, 1)
    part = assignment_to_partition(art, (0, 0, 1))
    rep = balance_report(art.graph, part)
    for v, (tag, _) in enumerate(reference_roles(art)):
        if tag == "p":
            assert rep.open_balance[v] == 0


def test_even_lift_absorber_cancels(n3):
    art = reduce_open_even(n3)
    part = assignment_to_partition(art, (0, 0, 1))
    rep = balance_report(art.graph, part)
    idx = reference_role_index(art)
    for j in range(n3.k):
        assert rep.open_balance[idx[("q", (j, 1))]] == 0
        assert rep.open_balance[idx[("q", (j, 2))]] == 0
        assert rep.open_balance[idx[("v", (j,))]] == 0


def test_odd_lift_triangle_rule(n3):
    art = reduce_closed_odd(n3)
    part = assignment_to_partition(art, (0, 0, 1))
    rep = balance_report(art.graph, part)
    idx = reference_role_index(art)
    for j in range(n3.k):
        qv = idx[("q", (j,))]
        assert rep.closed_balance[qv] == 0
        for t in range(1, 4):
            yv = idx[("y", (j, t))]
            bv = idx[("b", (j, t))]
            assert part.labels[yv] == 1 - part.labels[qv]
            assert rep.closed_balance[yv] == 0
            assert rep.closed_balance[bv] == 0


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_unsat_assignment_rejected(name, n3):
    art = reduce_by_name(name, n3)
    with pytest.raises(UnsatAssignmentError):
        assignment_to_partition(art, (1, 1, 1))


@pytest.mark.parametrize("name", ["even", "subcubic", "odd"])
def test_flipping_one_gadget_input_rejected(name, n3):
    art = reduce_by_name(name, n3)
    part = assignment_to_partition(art, (0, 0, 1))
    idx = reference_role_index(art)
    labels = list(part.labels)
    labels[idx[("p", (0, 1))]] = 1 - labels[idx[("p", (0, 1))]]
    with pytest.raises(InvalidPartitionError):
        partition_to_assignment(art, TwoPartition(tuple(labels)))


def test_bireg_mutated_clause_vertex_rejected(n3):
    # no gadget to violate here, so unbalance a variable vertex instead by
    # flipping one of its clause neighbors
    art = reduce_open_biregular(n3, 1)
    part = assignment_to_partition(art, (0, 0, 1))
    idx = reference_role_index(art)
    labels = list(part.labels)
    labels[idx[("q", (0, 1))]] = 0
    with pytest.raises(InvalidPartitionError):
        partition_to_assignment(art, TwoPartition(tuple(labels)))


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_equisatisfiability_small(name, n3):
    rng = random.Random(5)
    for inst in (n3, random_nae_instance(6, rng)):
        expected = "sat" if brute_sat(inst) is not None else "unsat"
        art = reduce_by_name(name, inst)
        assert decide(art.graph, art.mode).status == expected


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_monochrome_inputs_refuted(name):
    # pinning every variable's first input to one label makes each clause
    # monochrome through the gadget forcing, so the search must refute
    rng = random.Random(6)
    inst = random_nae_instance(6, rng)
    art = reduce_by_name(name, inst)
    idx = reference_role_index(art)
    for beta in (0, 1):
        if name == "bireg":
            fixed = {idx[("p", (i,))]: beta for i in range(inst.n)}
        else:
            fixed = {idx[("p", (i, 1))]: beta for i in range(inst.n)}
        out = decide(art.graph, art.mode, fixed=fixed)
        assert out.status == "unsat"
        assert out.nodes < 100_000


@pytest.mark.parametrize("name", ALL_REDUCTIONS)
def test_artifact_file_roundtrip(tmp_path, name, n3):
    art = reduce_by_name(name, n3)
    base = tmp_path / f"art_{name}"
    write_artifact(art, base)
    loaded = read_artifact(base)
    assert loaded == art


def test_read_artifact_rejects_partial_roles(tmp_path, n3):
    art = reduce_open_biregular(n3)
    base = tmp_path / "art"
    _, roles_path = write_artifact(art, base)
    lines = roles_path.read_text().splitlines()
    # the role map is its header line alone, so this drops the header
    roles_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(RoleMapError, match="^bad role-map header: ''$"):
        read_artifact(base)


def test_reduce_rejects_bad_r(n3):
    with pytest.raises(ValueError):
        reduce_open_biregular(n3, 0)
