import re
from itertools import product

import pytest

from lb2p import (
    Graph,
    TwoPartition,
    balance_report,
    bipartition,
    check,
    enumerate_partitions,
    verify_gadget,
)
from lb2p.gadgets import (
    Gadget,
    GadgetContractError,
    ensure_verified,
    f4_harness,
    gadget_f1,
    gadget_f2,
    gadget_f4,
    gadget_forcing,
    verify_f4_harness,
)


def test_f1_structure():
    f1 = gadget_f1()
    assert f1.graph.n == 16
    assert all(d == 2 for d in f1.graph.degrees())
    assert f1.inputs == (0, 4, 8, 12)
    assert f1.mode == "open"


def test_f1_verifies():
    rep = verify_gadget(gadget_f1())
    assert rep.passed
    assert rep.internally_valid == 32


def test_f1_completion_pattern():
    f1 = gadget_f1()
    for beta in (0, 1):
        lab = f1.completion(beta)
        for block in range(4):
            assert lab[4 * block] == beta          # input
            assert lab[4 * block + 1] == beta      # first chain vertex
            assert lab[4 * block + 2] == 1 - beta
            assert lab[4 * block + 3] == 1 - beta
        rep = balance_report(f1.graph, TwoPartition(lab))
        assert all(b == 0 for b in rep.open_balance)


def test_f2_forced_equalities_by_full_enumeration():
    f2 = gadget_f2()
    assert f2.graph.n == 6
    assert sorted(f2.graph.edges()) == [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]
    internal = [v for v in range(6) if v not in f2.inputs]
    valid = []
    for labels in product((0, 1), repeat=6):
        part = TwoPartition(labels)
        bad = [v for v in check(f2.graph, part, "closed") if v in internal]
        if not bad:
            valid.append(labels)
    assert valid
    for l in valid:
        assert l[0] == l[1] == l[4] == l[5]
        assert l[2] == l[3] == 1 - l[0]
    # the solver's waived enumeration agrees with the 64-case scan
    sols = [p.labels for p in enumerate_partitions(f2.graph, "closed", waived=f2.inputs)]
    assert sorted(sols) == sorted(valid)


def test_f2_degree3_vertex_forces_zero_balance():
    f2 = gadget_f2()
    for labels in product((0, 1), repeat=6):
        part = TwoPartition(labels)
        if not check(f2.graph, part, "closed"):
            rep = balance_report(f2.graph, part)
            assert rep.closed_balance[3] == 0


def test_f2_verifies_with_completions():
    rep = verify_gadget(gadget_f2())
    assert rep.passed


def test_forcing_gadget_shape():
    gamma = gadget_forcing()
    g = gamma.graph
    assert g.n == 30
    assert g.m == 29  # tree
    assert bipartition(g) is not None
    assert all(d % 2 == 1 for d in g.degrees())
    assert max(g.degrees()) == 3
    assert all(g.degree(p) == 1 for p in gamma.inputs)


def test_forcing_gadget_exactly_two_internal_labelings():
    gamma = gadget_forcing()
    rep = verify_gadget(gamma)
    assert rep.passed
    assert rep.internally_valid == 2
    sols = enumerate_partitions(gamma.graph, "closed", waived=gamma.inputs)
    for sol in sols:
        assert len({sol.labels[p] for p in gamma.inputs}) == 1


def test_forcing_gadget_completion_balances():
    gamma = gadget_forcing()
    internal = [v for v in range(30) if v not in gamma.inputs]
    for beta in (0, 1):
        lab = gamma.completion(beta)
        rep = balance_report(gamma.graph, TwoPartition(lab))
        assert all(rep.closed_balance[v] == 0 for v in internal)
        # internal contribution at each input cancels
        for p in gamma.inputs:
            assert rep.closed_balance[p] == 0


def test_forcing_mutation_fails():
    # each leaf block forces its support pair equal; deleting one block leaf
    # (local 16, the second leaf of the fourth block) breaks the chain
    gamma = gadget_forcing()
    keep = [v for v in range(30) if v != 16]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in gamma.graph.edges()
        if u != 16 and v != 16
    ]
    mutated = Gadget(
        "forcing-mutated",
        "closed",
        Graph.from_edges(29, edges),
        tuple(remap[p] for p in gamma.inputs),
        None,
    )
    rep = verify_gadget(mutated)
    assert not rep.passed
    assert rep.counterexample is not None


def test_f4_structure():
    f4 = gadget_f4()
    assert f4.graph.n == 9
    assert f4.inputs == (0, 3, 6)
    degs = f4.graph.degrees()
    assert [degs[v] for v in (0, 3, 6)] == [2, 2, 2]  # inputs gain a host edge
    assert [degs[v] for v in (1, 4, 7)] == [1, 1, 1]
    assert [degs[v] for v in (2, 5, 8)] == [3, 3, 3]
    assert bipartition(f4.graph) is None  # triangle


def test_f4_standalone_verifies():
    assert verify_gadget(gadget_f4()).passed


def test_f4_harness_layout():
    harness, lay = f4_harness()
    assert harness.n == 13
    degs = harness.degrees()
    assert all(degs[v] == 3 for v in lay["y"])
    assert all(degs[v] == 1 for v in lay["z"])
    assert all(degs[v] == 3 for v in lay["b"])
    assert degs[lay["q"][0]] == 3
    # stand-in variable vertices lack their gadget-internal edge, so only
    # the widget and clause vertices are degree-odd here
    assert all(degs[v] % 2 == 1 for v in range(harness.n) if v not in lay["p"])


def test_f4_harness_verifies():
    rep = verify_f4_harness()
    assert rep.passed
    assert rep.internally_valid == 6  # one completion per non-constant labeling


def test_ensure_verified_raises_on_broken_gadget():
    broken = Gadget("broken", "open", Graph.from_edges(2, [(0, 1)]), (0, 1), None)
    with pytest.raises(GadgetContractError):
        ensure_verified(broken)


def test_ensure_verified_caches_pass():
    rep1 = ensure_verified(gadget_forcing())
    rep2 = ensure_verified(gadget_forcing())
    assert rep1 is rep2 and rep1.passed


def test_ensure_verified_caches_by_content_not_name():
    f1 = gadget_f1()
    assert ensure_verified(f1).passed
    path16 = Graph.from_edges(16, [(i, i + 1) for i in range(15)])
    broken = Gadget("f1", "open", path16, (0, 4, 8, 12), f1.completion)
    failure = "completion(0) has nonzero internal balance at [15]"
    assert verify_gadget(broken).failure == failure
    with pytest.raises(GadgetContractError, match=re.escape(failure)):
        ensure_verified(broken)
    assert ensure_verified(gadget_f1()).passed
