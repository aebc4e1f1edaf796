import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CANONICAL_N3,
    adjacency,
    complete,
    cycle,
    disjoint_union,
    erdos_renyi,
    path,
    random_nae_instance,
    reference_owners,
    reference_propagate,
    run_optimized,
    with_twins,
)
from lb2p import (
    BudgetExceededError,
    ConstraintSystem,
    Graph,
    TwoPartition,
    brute_force,
    check,
    decide,
    enumerate_partitions,
    propagate,
)
from lb2p.gadgets import gadget_f2
from lb2p.nae import parse_nae
from lb2p.reductions import partition_to_assignment, reduce_by_name, reduce_open_biregular
from lb2p.solver import _Search


def test_propagate_open_path_forces_far_end():
    cs = ConstraintSystem.from_graph(path(3), "open")
    result = propagate(cs, [0, None, None])
    assert result.conflict is None
    assert result.assignment == (0, None, 1)
    assert result.forced == 1


def test_propagate_closed_k2_forces_other():
    cs = ConstraintSystem.from_graph(path(2), "closed")
    result = propagate(cs, [0, None])
    assert result.conflict is None
    assert result.assignment == (0, 1)


def test_propagate_closed_c3_two_zeros_force_one():
    cs = ConstraintSystem.from_graph(cycle(3), "closed")
    result = propagate(cs, [0, 0, None])
    assert result.conflict is None
    assert result.assignment == (0, 0, 1)


def test_propagate_conflict_reports_vertex():
    cs = ConstraintSystem.from_graph(cycle(4), "open")
    # the two assigned vertices share a label, so the scopes of both of
    # their common neighbors (1 and 3) are unsatisfiable
    result = propagate(cs, [0, None, 0, None])
    assert result.conflict in (1, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
def test_scopes_are_the_open_and_closed_neighbourhoods(n, pairs):
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
    nbhd: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbhd[u].add(v)
        nbhd[v].add(u)
    g = Graph.from_edges(n, edges)
    assert ConstraintSystem.from_graph(g, "open").scopes == tuple(tuple(sorted(a)) for a in nbhd)
    closed = tuple(tuple(sorted(a | {v})) for v, a in enumerate(nbhd))
    assert ConstraintSystem.from_graph(g, "closed").scopes == closed


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    st.sets(st.integers(0, 11)),
)
def test_owners_are_the_transpose_of_the_scopes(n, pairs, waived):
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
    g = Graph.from_edges(n, edges)
    for wv in (frozenset(), frozenset(v for v in waived if v < n)):
        for mode in ("open", "closed"):
            cs = ConstraintSystem.from_graph(g, mode, wv)
            assert _Search(cs, 0).owners == reference_owners(cs)


def test_propagate_matches_reference_tset_rule():
    # the count-against-cap kernel and the T-set rule reach the same
    # fixpoint, and conflict on the same inputs
    rng = random.Random(4040)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        g = erdos_renyi(rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]), rng)
        for mode in ("open", "closed"):
            waived = frozenset(v for v in range(g.n) if rng.random() < 0.2)
            labelled = rng.choice([0.1, 0.3, 0.5])
            partial = [rng.randint(0, 1) if rng.random() < labelled else None for _ in range(g.n)]
            result = propagate(ConstraintSystem.from_graph(g, mode, waived), partial)
            labels, conflict = reference_propagate(g, mode, partial, waived)
            assert (result.conflict is not None) == conflict
            if conflict:
                assert result.conflict not in waived
            else:
                assert list(result.assignment) == labels
            outcomes[conflict] += 1
    assert min(outcomes.values()) >= 100


def test_decide_k2_open_deterministic():
    out = decide(path(2), "open")
    assert out.status == "sat"
    assert out.witness.labels == (0, 0)


def test_decide_c6_open_unsat():
    assert decide(cycle(6), "open").status == "unsat"


def test_decide_c4_open_witness():
    out = decide(cycle(4), "open")
    assert out.status == "sat"
    assert out.witness.labels == (0, 0, 1, 1)


def test_decide_is_deterministic():
    g = erdos_renyi(9, 0.4, random.Random(42))
    a = decide(g, "open")
    b = decide(g, "open")
    assert a.witness == b.witness and a.nodes == b.nodes


def test_enumerate_k2_closed():
    sols = enumerate_partitions(path(2), "closed")
    assert [p.labels for p in sols] == [(0, 1), (1, 0)]


def test_enumerate_c3_closed_all_nonconstant():
    sols = enumerate_partitions(cycle(3), "closed")
    assert len(sols) == 6
    assert all(len(set(p.labels)) == 2 for p in sols)


def test_enumerate_is_lexicographic_and_duplicate_free():
    rng = random.Random(9)
    for _ in range(25):
        g = erdos_renyi(rng.randint(1, 8), 0.4, rng)
        for mode in ("open", "closed"):
            sols = [p.labels for p in enumerate_partitions(g, mode)]
            assert sols == sorted(set(sols))


def test_enumerate_f2_waived_satisfies_forced_equalities():
    f2 = gadget_f2()
    sols = enumerate_partitions(f2.graph, "closed", waived=f2.inputs)
    assert sols
    for p in sols:
        l = p.labels
        assert l[0] == l[1] == l[4] == l[5]
        assert l[2] == l[3] == 1 - l[0]


def test_brute_force_cycles():
    assert brute_force(cycle(4), "open").status == "sat"
    assert brute_force(cycle(6), "open").status == "unsat"
    out = brute_force(cycle(8), "open")
    assert out.status == "sat"
    assert out.witness.labels == (0, 0, 1, 1, 0, 0, 1, 1)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force(erdos_renyi(26, 0.1, random.Random(0)), "open")


def test_decide_agrees_with_brute_force():
    rng = random.Random(123)
    for _ in range(40):
        g = erdos_renyi(rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]), rng)
        for mode in ("open", "closed"):
            fast = decide(g, mode)
            slow = brute_force(g, mode)
            assert fast.status == slow.status
            if fast.status == "sat":
                assert not check(g, fast.witness, mode)


def test_waiver_monotonicity():
    rng = random.Random(321)
    for _ in range(40):
        g = erdos_renyi(rng.randint(1, 8), 0.5, rng)
        for mode in ("open", "closed"):
            base = decide(g, mode).status
            if g.n == 0:
                continue
            waived = {v for v in range(g.n) if rng.random() < 0.4}
            bigger = decide(g, mode, waived=waived).status
            if base == "sat":
                assert bigger == "sat"


def test_cycle_characterization_under_24():
    for length in range(4, 25, 2):
        expected = "sat" if length % 4 == 0 else "unsat"
        assert decide(cycle(length), "open").status == expected


def test_witness_respects_waived_only():
    g = cycle(3)
    out = decide(g, "closed", waived={0})
    assert out.status == "sat"
    bad = check(g, out.witness, "closed")
    assert set(bad) <= {0}


def test_timeout_outcome():
    art = reduce_open_biregular(parse_nae(CANONICAL_N3))
    out = decide(art.graph, "open", node_budget=1)
    assert out.status == "timeout"
    assert out.witness is None


def test_enumerate_budget_error():
    with pytest.raises(BudgetExceededError):
        enumerate_partitions(cycle(8), "open", node_budget=1)


def test_fixed_labels_respected():
    out = decide(path(2), "closed", fixed={0: 1})
    assert out.status == "sat"
    assert out.witness.labels == (1, 0)
    assert decide(cycle(3), "closed", fixed={0: 0, 1: 0, 2: 0}).status == "unsat"


def test_fixed_one_rules_out_complement_symmetry():
    # vertex 0's scope {1, 2, 3} holds only the fixed 1, and every witness
    # labels vertex 0 with 1, so the component {0, 1, 2} must branch on both
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert decide(g, "open", fixed={3: 1}).witness.labels == (1, 0, 0, 1)


def test_solver_stats_populated():
    out = decide(cycle(8), "open")
    assert out.nodes > 0 and out.propagations > 0
    assert out.conflicts == 0
    # the 6-cycle is refuted in one node: its only branch value conflicts
    c6 = decide(cycle(6), "open")
    assert c6.conflicts == c6.nodes == 1


# status, nodes (probes included) and the sha256 prefix of the witness
# line; instances from random_nae_instance(n, random.Random(404)) drawn in
# this order.  The subcubic/odd digests were recorded with the T-set
# propagator that the counting kernel replaced.  The bireg rows reached the
# 5000-node budget before the twin order and probing; the search without
# them finds the same five witnesses in 6219 to 1427794 nodes.
PINNED_REDUCTIONS = [
    ("bireg", 12, "sat", 289, "c896738cbdba53cc"),
    ("subcubic", 12, "sat", 152, "21ddfc426813e623"),
    ("odd", 12, "sat", 222, "3368c88b4d56ad58"),
    ("bireg", 15, "sat", 2185, "d391fb0cdfd14edb"),
    ("subcubic", 15, "sat", 187, "bf8ecaa6fd5c8774"),
    ("odd", 15, "sat", 277, "a6c39d22ba7956e0"),
    ("bireg", 18, "sat", 264, "1022d8d76612a79b"),
    ("subcubic", 18, "sat", 219, "6e5b2db2420a7c3e"),
    ("odd", 18, "sat", 317, "817f45e0d884c7eb"),
    ("bireg", 21, "sat", 1172, "4f4c7e6d8ae6f6bb"),
    ("subcubic", 21, "sat", 344, "43aebe9f8d63a63f"),
    ("odd", 21, "sat", 484, "ad97a9e3a8adeb4b"),
    ("bireg", 24, "sat", 1372, "e66b5f60dccf489d"),
    ("subcubic", 24, "sat", 288, "533a35cae2409e70"),
    ("odd", 24, "sat", 414, "27f0d65e993fbe95"),
]


def test_decide_pinned_on_reductions():
    rng = random.Random(404)
    mode = {"bireg": "open", "subcubic": "closed", "odd": "closed"}
    inst = None
    for target, n, status, nodes, digest in PINNED_REDUCTIONS:
        if target == "bireg":
            inst = random_nae_instance(n, rng)
        out = decide(reduce_by_name(target, inst, 1).graph, mode[target], node_budget=5000)
        line = out.witness.to_line() if out.witness else None
        got = hashlib.sha256(line.encode()).hexdigest()[:16] if line else None
        assert (target, n, out.status, out.nodes, got) == (target, n, status, nodes, digest)


# (status, nodes, propagations, conflicts, probes, components) of decide on
# the PINNED_REDUCTIONS graphs, in their order: the forcing queue may skip
# entries that cannot force or conflict, but no counter may move.
PINNED_COUNTERS = [
    ("sat", 289, 1206, 43, 193, 2),
    ("sat", 152, 849, 0, 147, 1),
    ("sat", 222, 2334, 0, 217, 1),
    ("sat", 2185, 11115, 447, 1273, 2),
    ("sat", 187, 1032, 0, 178, 1),
    ("sat", 277, 2913, 0, 268, 1),
    ("sat", 264, 1356, 28, 193, 2),
    ("sat", 219, 1266, 0, 212, 1),
    ("sat", 317, 3375, 0, 310, 1),
    ("sat", 1172, 5769, 178, 795, 2),
    ("sat", 344, 2079, 1, 331, 1),
    ("sat", 484, 5337, 1, 471, 1),
    ("sat", 1372, 8132, 241, 867, 2),
    ("sat", 288, 1690, 0, 280, 1),
    ("sat", 414, 4483, 0, 406, 1),
]


def test_decide_counters_pinned_on_reductions():
    rng = random.Random(404)
    mode = {"bireg": "open", "subcubic": "closed", "odd": "closed"}
    inst = None
    for (target, n, *_), counters in zip(PINNED_REDUCTIONS, PINNED_COUNTERS, strict=True):
        if target == "bireg":
            inst = random_nae_instance(n, rng)
        out = decide(reduce_by_name(target, inst, 1).graph, mode[target], node_budget=5000)
        got = (out.status, out.nodes, out.propagations, out.conflicts, out.probes, out.components)
        assert got == counters, (target, n)


@pytest.mark.parametrize(
    "g, mode, partial, conflict, forced",
    [
        (complete(4), "closed", [0, 0, 0, None], 3, 0),
        (cycle(6), "open", [0, None, 0, None, None, None], 1, 1),
        (cycle(5), "closed", [0, 0, None, 1, 1], 1, 1),
        (path(4), "open", [0, None, 0, None], 1, 0),
        (complete(5), "open", [1, 1, 1, None, None], 4, 0),
    ],
)
def test_propagate_conflict_vertex_pinned(g, mode, partial, conflict, forced):
    result = propagate(ConstraintSystem.from_graph(g, mode), partial)
    assert (result.conflict, result.forced) == (conflict, forced)


def test_decide_closed_reductions_of_96_variables_within_budget():
    # the plain search reaches the 5000-node budget on all four; failed
    # literals of the forcing gadgets are found by probing instead
    rng = random.Random(96)
    for _ in range(2):
        inst = random_nae_instance(96, rng)
        for target in ("subcubic", "odd"):
            art = reduce_by_name(target, inst)
            out = decide(art.graph, "closed", node_budget=5000)
            assert out.status == "sat" and out.probes > 0
            assignment = partition_to_assignment(art, out.witness)
            assert all(len({assignment[v] for v in c}) == 2 for c in inst.clauses)


def test_twin_order_and_probing_keep_first_witness():
    # neighbourhood copies make twin classes, also next to fixed and
    # waived vertices; decide must still return the first partition in
    # lexicographic order
    rng = random.Random(1996)
    cases = {"twins": 0, "probed": 0, "sat": 0}
    for _ in range(1000):
        base = erdos_renyi(rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]), rng)
        g = with_twins(base, rng.randint(1, 4), rng)
        for mode in ("open", "closed"):
            waived = {v for v in range(g.n) if rng.random() < 0.2}
            fixed = {v: rng.randint(0, 1) for v in range(g.n) if rng.random() < 0.15}
            sols = enumerate_partitions(g, mode, waived=waived, fixed=fixed)
            out = decide(g, mode, waived=waived, fixed=fixed)
            assert out.witness == (sols[0] if sols else None)
            assert out.status == ("sat" if sols else "unsat")
            assert out == decide(g, mode, waived=waived, fixed=fixed)
            # the active scopes containing u are those of u's (closed) neighbours
            adj = adjacency(g)
            nbhd = adj if mode == "open" else [a + (u,) for u, a in enumerate(adj)]
            owner_sets = [
                frozenset(v for v in nbhd[u] if v not in waived) for u in range(g.n) if u not in fixed
            ]
            cases["twins"] += len(set(s for s in owner_sets if s)) < sum(1 for s in owner_sets if s)
            cases["probed"] += out.probes > 0
            cases["sat"] += out.status == "sat"
    assert min(cases.values()) >= 1000


def test_probes_are_charged_to_the_node_budget():
    inst = random_nae_instance(15, random.Random(5))
    for target, mode in (("bireg", "open"), ("odd", "closed")):
        g = reduce_by_name(target, inst).graph
        full = decide(g, mode)
        assert full.status == "sat" and 0 < full.probes < full.nodes
        for budget in range(1, full.nodes + 3):
            out = decide(g, mode, node_budget=budget)
            assert out.nodes <= budget + 1
            if budget < full.nodes:
                assert out.status == "timeout" and out.nodes == budget + 1
            else:
                assert out == full


def test_empty_graph_is_sat():
    g = path(1)
    for mode in ("open", "closed"):
        assert decide(g, mode).status == "sat"
        assert brute_force(g, mode).status == "sat"


def test_split_witness_is_lexicographically_first():
    # interleaved disjoint unions: the per-component first labelings must
    # combine into the first labeling of the whole graph
    rng = random.Random(2000)
    sat = 0
    for _ in range(150):
        parts = [erdos_renyi(rng.randint(1, 4), rng.choice([0.3, 0.5, 0.8]), rng)
                 for _ in range(rng.randint(2, 3))]
        g = disjoint_union(parts, rng)
        for mode in ("open", "closed"):
            for waived in (set(), {v for v in range(g.n) if rng.random() < 0.3}):
                fast = decide(g, mode, waived=waived)
                slow = brute_force(g, mode, waived=waived)
                assert fast.status == slow.status
                assert fast.witness == slow.witness
                sat += fast.status == "sat"
    assert sat >= 150


def test_split_refutes_c4s_then_c6():
    g = disjoint_union([cycle(4)] * 12 + [cycle(6)])
    assert g.n == 54
    out = decide(g, "open", node_budget=1000)
    assert out.status == "unsat"
    assert out.components == 26
    assert brute_force(cycle(4), "open").components == 0


def test_split_with_fixed_labels_matches_unsplit_enumeration():
    # a fixed label next to a component rules out its complement symmetry
    rng = random.Random(77)
    for _ in range(100):
        g = disjoint_union([erdos_renyi(rng.randint(1, 5), 0.5, rng) for _ in range(2)], rng)
        fixed = {v: rng.randint(0, 1) for v in rng.sample(range(g.n), min(g.n, 2))}
        for mode in ("open", "closed"):
            sols = enumerate_partitions(g, mode, fixed=fixed)
            out = decide(g, mode, fixed=fixed)
            assert out.witness == (sols[0] if sols else None)


def test_search_is_iterative_on_long_cycle():
    limit = sys.getrecursionlimit()
    g = cycle(20000)
    for mode in ("open", "closed"):
        assert decide(g, mode).status == "sat"
    assert len(enumerate_partitions(g, "open")) == 4
    with pytest.raises(BudgetExceededError):
        # closed mode branches on about two of every three vertices, so this
        # descends thousands of levels before the budget runs out
        enumerate_partitions(g, "closed", node_budget=5000)
    assert sys.getrecursionlimit() == limit


def test_unsound_witness_raises_under_optimize_flag():
    """With a search that labels nothing, decide's own check still refuses
    the all-zero labelling of C4 under python -O: it is a raise, not an
    assert."""
    proc = run_optimized(
        "import lb2p.solver as s\n"
        "from helpers import cycle\n"
        "def search(self, order, symmetric=False):\n"
        "    yield\n"
        "s._Search.search = search\n"
        "print(s.decide(cycle(4), 'open'))\n"
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "AssertionError: solver produced an invalid witness" in proc.stderr
