import random
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    adjacency,
    bipartite_witness_graph,
    complete,
    complete_bipartite,
    cycle,
    cycle_union_multigraph,
    disjoint_union,
    random_biregular,
    random_regular_multigraph,
    reference_build_reduced,
    reference_solve_biregular,
    reference_validate_2odd_biregular,
    run_optimized,
    subdivide,
    subdivide_multigraph,
)
from lb2p import (
    Certificate,
    Graph,
    NotApplicable,
    Witness,
    balance_report,
    brute_force,
    build_reduced,
    check,
    kk1_factor,
    solve_biregular,
    validate_2odd_biregular,
)
from lb2p.biregular import extract_cycle_2mod4


def test_validate_k23():
    g = complete_bipartite(2, 3)
    k = validate_2odd_biregular(g)
    assert k == 1
    _, xs = build_reduced(g)
    assert xs.tolist() == [2, 3, 4]  # the degree-2 side


def test_validate_c6_not_applicable():
    res = validate_2odd_biregular(cycle(6))
    assert isinstance(res, NotApplicable)


def test_validate_subdivided_k4():
    g = subdivide(complete(4))
    k = validate_2odd_biregular(g)
    assert k == 1
    ends, xs = build_reduced(g)
    assert xs.tolist() == list(range(4, 10))
    assert np.unique(ends).tolist() == [0, 1, 2, 3]


def test_validate_rejects_even_high_degree():
    assert isinstance(validate_2odd_biregular(complete_bipartite(2, 4)), NotApplicable)


def test_validate_rejects_degree2_adjacency():
    # path of degree-2 and degree-3 vertices mixing inside a class
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert isinstance(validate_2odd_biregular(g), NotApplicable)


@pytest.mark.parametrize(
    "edges",
    [
        # an edge inside the degree-3 side only: the edge-end count fails
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        # one edge inside each side: the counts balance, the neighbor test fails
        [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3)],
    ],
)
def test_validate_rejects_edges_inside_a_class(edges):
    g = Graph.from_edges(max(max(e) for e in edges) + 1, edges)
    res = validate_2odd_biregular(g)
    assert res == NotApplicable("edge (0,1) stays inside one degree class")


def test_build_reduced_k23():
    g = complete_bipartite(2, 3)
    ends, xs = build_reduced(g)
    assert ends.dtype == np.int64 and ends.tolist() == [[0, 1], [0, 1], [0, 1]]
    assert xs.tolist() == [2, 3, 4]


def test_build_reduced_subdivided_k4_is_k4():
    g = subdivide(complete(4))
    ends, _ = build_reduced(g)
    assert np.unique(ends).tolist() == [0, 1, 2, 3]
    assert sorted(tuple(sorted(e)) for e in ends.tolist()) == list(
        combinations(range(4), 2)
    )


def test_build_reduced_k25_theta():
    g = complete_bipartite(2, 5)
    k = validate_2odd_biregular(g)
    assert k == 2
    ends, _ = build_reduced(g)
    assert np.unique(ends).tolist() == [0, 1] and len(ends) == 5
    assert all(tuple(sorted(e)) == (0, 1) for e in ends.tolist())


def _factor_ok(m, k, edges):
    n, pairs = m
    degs = [0] * n
    for i in edges:
        u, v = pairs[i]
        degs[u] += 1
        degs[v] += 1
    return all(k <= d <= k + 1 for d in degs)


def test_kk1_three_parallel_edges():
    m = (2, [(0, 1), (0, 1), (0, 1)])
    res = kk1_factor(*m)
    assert _factor_ok(m, 1, res)
    assert len(res) in (1, 2)


def test_kk1_k4_matching_is_valid():
    m = (4, list(combinations(range(4), 2)))
    res = kk1_factor(*m)
    assert _factor_ok(m, 1, res)


def test_kk1_c4_two_regular():
    m = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = kk1_factor(*m)
    assert _factor_ok(m, 1, res)


def test_kk1_returns_ascending_int64_indices():
    m = (6, list(combinations(range(6), 2)) * 2)
    res = kk1_factor(*m)
    assert res.dtype == np.int64 and res.ndim == 1
    assert res.tolist() == sorted(set(res.tolist()))
    assert _factor_ok(m, 5, res)


def _edges(*pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def test_kk1_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        kk1_factor(0, _edges())
    with pytest.raises(ValueError, match=r"need r >= 2, got r=1"):
        kk1_factor(2, _edges((0, 1)))
    with pytest.raises(ValueError, match=r"not regular \(degrees \[1, 2\]\)"):
        kk1_factor(3, _edges((0, 1), (1, 2)))
    for n, ends, message in [
        (2, _edges((0, 1), (1, 2)), r"^edge \(1,2\) out of range for n=2$"),
        (3, _edges((0, 1), (-1, 2)), r"^edge \(-1,2\) out of range for n=3$"),
        (3, _edges((0, 1), (2, 2)), r"^self-loop at vertex 2$"),
        (0, _edges((0, 1)), r"^edge \(0,1\) out of range for n=0$"),
        # the first bad edge decides, and range comes before the loop
        (3, _edges((1, 1), (0, 5)), r"^self-loop at vertex 1$"),
        (3, _edges((0, 5), (1, 1)), r"^edge \(0,5\) out of range for n=3$"),
        (3, _edges((4, 4)), r"^edge \(4,4\) out of range for n=3$"),
        # the ends are checked before regularity
        (3, _edges((0, 1), (1, 2), (2, 2)), r"^self-loop at vertex 2$"),
        (3, np.array([[0, 1, 2]]), r"shape \(m, 2\), got \(1, 3\)"),
        (3, np.array([0, 1]), r"shape \(m, 2\), got \(2,\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            kk1_factor(n, ends)


def _exhaustive_factor_exists(m, k):
    n, pairs = m
    n_edges = len(pairs)
    for mask in range(1 << n_edges):
        degs = [0] * n
        for i in range(n_edges):
            if mask >> i & 1:
                u, v = pairs[i]
                degs[u] += 1
                degs[v] += 1
        if all(k <= d <= k + 1 for d in degs):
            return True
    return False


def test_kk1_against_subset_oracle_small():
    rng = random.Random(77)
    for _ in range(15):
        r = rng.randint(2, 4)
        n = rng.choice([2, 4, 6])
        m = random_regular_multigraph(n, r, rng)
        if len(m[1]) > 14:
            continue
        k = r // 2
        res = kk1_factor(*m)
        assert _factor_ok(m, k, res)
        assert _exhaustive_factor_exists(m, k)


def _sample_regular(n, r, rng):
    # the configuration model rarely avoids loops at large r*n
    if r <= 4 and n <= 20:
        return random_regular_multigraph(n, r, rng)
    return cycle_union_multigraph(n, r, rng)


def test_kk1_on_random_regular_multigraphs():
    rng = random.Random(8128)
    odd_edge_counts = disconnected = 0
    for _ in range(2000):
        r = rng.randint(2, 9)
        sizes = [rng.randint(2, 19)]
        if rng.random() < 0.3:
            sizes.append(rng.randint(2, 19))
        sizes = [s + (s * r) % 2 for s in sizes]  # odd r needs an even size
        edges, offset = [], 0
        for size in sizes:
            edges += [(u + offset, v + offset) for u, v in _sample_regular(size, r, rng)[1]]
            offset += size
        m = (offset, edges)
        odd_edge_counts += len(edges) % 2
        disconnected += len(sizes) > 1
        assert _factor_ok(m, r // 2, kk1_factor(*m)), (r, m)
    assert odd_edge_counts and disconnected


@pytest.mark.parametrize("half,b", [(100, 3), (1000, 3), (100, 9), (1000, 9)])
def test_solve_large_witnesses(half, b):
    limit = sys.getrecursionlimit()
    g = bipartite_witness_graph(half, b, random.Random(half * b))
    res = solve_biregular(g)
    assert isinstance(res, Witness)
    assert not check(g, res.partition, "open")
    assert sys.getrecursionlimit() == limit


def test_solve_k23_witness_matches_example():
    res = solve_biregular(complete_bipartite(2, 3))
    assert isinstance(res, Witness)
    labels = res.partition.labels
    assert labels[0] == 1 and labels[1] == 0  # distance 0 and 2 from the low y
    assert not check(complete_bipartite(2, 3), res.partition, "open")


def test_certificate_path_and_class_test_verdicts():
    rng = random.Random(29)
    g = random_biregular(200, 9, rng)
    assert isinstance(solve_biregular(g), Certificate)
    assert reference_solve_biregular(g)[1]
    inside = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert isinstance(validate_2odd_biregular(inside), NotApplicable)


def test_solve_subdivided_k4_certificate():
    g = subdivide(complete(4))
    res = solve_biregular(g)
    assert isinstance(res, Certificate)
    cyc = res.cycle.vertices
    assert len(cyc) == 6
    for i in range(6):
        assert g.has_edge(cyc[i], cyc[(i + 1) % 6])


def test_solve_c6_not_applicable():
    assert isinstance(solve_biregular(cycle(6)), NotApplicable)


def test_has_bad_cycle_examples():
    """A cycle of length 2 (mod 4) gives a certificate, its absence a
    witness; C6 is outside the class."""
    assert isinstance(solve_biregular(complete_bipartite(2, 3)), Witness)
    assert isinstance(solve_biregular(subdivide(complete(4))), Certificate)
    assert isinstance(solve_biregular(subdivide(complete_bipartite(3, 3))), Witness)
    assert isinstance(solve_biregular(cycle(6)), NotApplicable)


def test_dichotomy_and_mutual_exclusion():
    rng = random.Random(2024)
    for _ in range(30):
        b = rng.choice([3, 5])
        m = rng.choice([2, 4]) if b == 5 else rng.choice([4, 6])
        g = random_biregular(m, b, rng)
        res = solve_biregular(g)
        bad = reference_solve_biregular(g)[1]
        if bad:
            assert isinstance(res, Certificate)
            assert len(res.cycle.vertices) % 4 == 2
        else:
            assert isinstance(res, Witness)
            assert not check(g, res.partition, "open")


def test_factor_arithmetic_on_witnesses():
    rng = random.Random(555)
    for _ in range(20):
        g = random_biregular(4, 3, rng)
        res = solve_biregular(g)
        if not isinstance(res, Witness):
            continue
        k = validate_2odd_biregular(g)
        rep = balance_report(g, res.partition)
        adj = adjacency(g)
        for y in (v for v in range(g.n) if len(adj[v]) != 2):  # the high side
            ones = sum(res.partition.labels[x] for x in adj[y])
            assert rep.open_balance[y] == 2 * ones - (2 * k + 1)
            assert rep.open_balance[y] in (-1, 1)


def test_cross_validation_against_brute_force():
    rng = random.Random(31337)
    for _ in range(20):
        b = rng.choice([3, 5])
        m = 2 if b == 5 else 4
        g = random_biregular(m, b, rng)
        res = solve_biregular(g)
        verdict = "sat" if isinstance(res, Witness) else "unsat"
        assert brute_force(g, "open").status == verdict


def test_extract_cycle_already_simple():
    walk = [0, 1, 2, 3, 4, 5]
    assert extract_cycle_2mod4(walk) == walk


def test_extract_cycle_figure_eight():
    # a 4-cycle and a 6-cycle sharing vertex 0, traversed in sequence
    walk = [0, 1, 2, 3, 0, 4, 5, 6, 7, 8]
    out = extract_cycle_2mod4(walk)
    assert out == [0, 4, 5, 6, 7, 8]
    assert len(out) % 4 == 2


def test_even_multigraph_cycle_lifts_to_0_mod_4():
    # a pair of parallel reduced edges (an even 2-cycle) lifts to a 4-cycle
    g = complete_bipartite(2, 3)
    _, xs = build_reduced(g)
    x0, x1 = xs[:2].tolist()
    y0, y1 = (v for v in range(g.n) if g.degree(v) != 2)
    lifted = [y0, x0, y1, x1]
    for i in range(4):
        assert g.has_edge(lifted[i], lifted[(i + 1) % 4])
    assert len(lifted) % 4 == 0


def test_cycle_length_is_twice_high_side_count():
    # certificates alternate sides, so their length is twice the number of
    # high-degree vertices they visit, which must be odd
    rng = random.Random(9999)
    seen = 0
    for _ in range(40):
        g = random_biregular(4, 3, rng)
        res = solve_biregular(g)
        if isinstance(res, Certificate):
            seen += 1
            ys = [v for v in res.cycle.vertices if g.degree(v) != 2]
            assert len(res.cycle.vertices) == 2 * len(ys)
            assert len(ys) % 2 == 1
    assert seen > 0


def _interleaved_graphs(rng, count):
    """(2,b)-biregular graphs, b in {3, 5, 9}, with witnesses, certificates,
    parallel contracted edges, and parts that interleave in index order;
    yields each with its number of parts."""
    for _ in range(count):
        b = rng.choice([3, 5, 9])
        parts = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            if rng.random() < 0.5:
                parts.append(bipartite_witness_graph(rng.randint(1, 4), b, rng))
            else:
                m = rng.randint(2, 10)
                m += m % 2  # odd b needs an even high side
                parts.append(subdivide_multigraph(_sample_regular(m, b, rng)))
        yield disjoint_union(parts, rng if rng.random() < 0.8 else None), len(parts)


def test_search_matches_contraction_route():
    """The one BFS over the graph gives the same certificate cycle and the
    same witness as BFS 2-colouring the whole contraction, on graphs whose
    parts interleave in index order."""
    seen = {"cert": 0, "witness": 0, "disconnected": 0, "parallel": 0}
    for g, parts in _interleaved_graphs(random.Random(4099), 2000):
        expected, bad = reference_solve_biregular(g)
        assert solve_biregular(g) == expected
        seen["cert" if bad else "witness"] += 1
        seen["disconnected"] += parts > 1
        pairs = [a for a in adjacency(g) if len(a) == 2]
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 300, seen


def test_build_reduced_matches_vertex_by_vertex_reference():
    """The numpy contraction equals one built from the tuple rows, vertex
    by vertex, on the witness graphs above: the same high-side order, the
    same provenance of each edge and the same edge ends."""
    seen = {"witness": 0, "parallel": 0}
    for g, _ in _interleaved_graphs(random.Random(4099), 1000):
        if isinstance(solve_biregular(g), Certificate):
            continue
        ends, xs = build_reduced(g)
        expected_ends, expected_xs = reference_build_reduced(g)
        assert xs.tolist() == expected_xs.tolist()
        assert ends.dtype == np.int64 and ends.tolist() == expected_ends.tolist()
        seen["witness"] += 1
        pairs = list(map(tuple, ends.tolist()))
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 100, seen


def test_validate_matches_edge_by_edge_reference():
    """The degree-sum class test agrees with testing every edge, on the
    graphs above and on two edits of each: swapping the ends of two edges,
    which keeps every degree, and joining two degree-2 vertices."""
    seen = {"valid": 0, "swapped": 0, "joined": 0}
    rng = random.Random(4100)
    for g, _ in _interleaved_graphs(random.Random(4099), 2000):
        assert validate_2odd_biregular(g) == reference_validate_2odd_biregular(g)
        seen["valid"] += 1
        edges = g.edges()
        (y1, x1), (y2, x2) = (sorted(e, key=g.degree, reverse=True) for e in rng.sample(edges, 2))
        if x1 == x2 or y1 == y2:
            continue
        swapped = [e for e in edges if {*e} not in ({y1, x1}, {y2, x2})] + [(y1, y2), (x1, x2)]
        for kind, edited in (("swapped", swapped), ("joined", edges + [(x1, x2)])):
            h = Graph.from_edges(g.n, edited)
            expected = reference_validate_2odd_biregular(h)
            assert isinstance(expected, NotApplicable)
            assert validate_2odd_biregular(h) == expected
            seen[kind] += 1
    assert min(seen.values()) >= 1000, seen


def test_search_matches_contraction_route_at_1e5_vertices():
    g = subdivide_multigraph(cycle_union_multigraph(40_000, 3, random.Random(61)))
    assert g.n == 100_000
    expected, bad = reference_solve_biregular(g)
    assert bad and isinstance(expected, Certificate)
    assert solve_biregular(g) == expected


def test_many_components_witness_is_linear():
    """20000 disjoint K_{2,3}: one search colours every component; a
    distance pass per component would be quadratic in their number."""
    g = disjoint_union([complete_bipartite(2, 3)] * 20_000)
    start = time.perf_counter()
    res = solve_biregular(g)
    elapsed = time.perf_counter() - start
    assert isinstance(res, Witness)
    assert not check(g, res.partition, "open")
    assert elapsed < 3.0, f"solve_biregular took {elapsed:.2f} s on 20000 components"


@pytest.mark.parametrize(
    "broken,graph,message",
    [
        (
            "b.kk1_factor = lambda n, ends: []",
            "complete_bipartite(2, 3)",
            "constructed witness failed the checker",
        ),
        (
            "b._round_half_edges = lambda ends, degs: []",
            "complete_bipartite(2, 3)",
            "factor degrees [0] leave [1, 2]",
        ),
        (
            "w = b._conflict_walk\n"
            "b._conflict_walk = lambda g, parent, x: w(g, parent, x) + w(g, parent, x)[:4]",
            "subdivide(complete(4))",
            "certificate cycle is not simple",
        ),
    ],
    ids=["witness", "factor", "certificate"],
)
def test_unchecked_answer_raises_under_optimize_flag(broken, graph, message):
    """With a step broken, solve_biregular still refuses to release the
    answer under python -O: its checks are raises, not asserts."""
    proc = run_optimized(
        "import lb2p.biregular as b\n"
        "from helpers import complete, complete_bipartite, subdivide\n"
        f"{broken}\n"
        f"print(b.solve_biregular({graph}))\n"
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert f"AssertionError: {message}" in proc.stderr
