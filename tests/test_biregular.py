import random
import sys
import time
from itertools import combinations

import pytest

from helpers import (
    bipartite_witness_graph,
    complete,
    complete_bipartite,
    cycle,
    cycle_union_multigraph,
    disjoint_union,
    random_biregular,
    random_regular_multigraph,
    reference_solve_biregular,
    run_optimized,
    subdivide,
    subdivide_multigraph,
)
from lb2p import (
    Certificate,
    Graph,
    MultiGraph,
    NotApplicable,
    Witness,
    balance_report,
    brute_force,
    build_reduced,
    check,
    has_bad_cycle,
    kk1_factor,
    solve_biregular,
    validate_2odd_biregular,
)
from lb2p.biregular import extract_cycle_2mod4


def test_validate_k23():
    bip, k = validate_2odd_biregular(complete_bipartite(2, 3))
    assert k == 1
    assert bip.side_x == frozenset({2, 3, 4})  # the degree-2 side
    assert bip.side_y == frozenset({0, 1})


def test_validate_c6_not_applicable():
    res = validate_2odd_biregular(cycle(6))
    assert isinstance(res, NotApplicable)


def test_validate_subdivided_k4():
    g = subdivide(complete(4))
    bip, k = validate_2odd_biregular(g)
    assert k == 1
    assert bip.side_x == frozenset(range(4, 10))
    assert len(bip.side_y) == 4


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
    bip, k = validate_2odd_biregular(g)
    red = build_reduced(g, bip, k)
    assert red.graph.n == 2
    assert red.graph.edges == ((0, 1), (0, 1), (0, 1))
    assert red.x_of_edge == (2, 3, 4)


def test_build_reduced_subdivided_k4_is_k4():
    g = subdivide(complete(4))
    bip, k = validate_2odd_biregular(g)
    red = build_reduced(g, bip, k)
    assert red.graph.n == 4
    assert sorted(tuple(sorted(e)) for e in red.graph.edges) == list(
        combinations(range(4), 2)
    )


def test_build_reduced_k25_theta():
    g = complete_bipartite(2, 5)
    bip, k = validate_2odd_biregular(g)
    assert k == 2
    red = build_reduced(g, bip, k)
    assert red.graph.n == 2 and len(red.graph.edges) == 5
    assert all(tuple(sorted(e)) == (0, 1) for e in red.graph.edges)


def _factor_ok(m, k, result):
    degs = [0] * m.n
    for i in result.edges:
        u, v = m.edges[i]
        degs[u] += 1
        degs[v] += 1
    return all(k <= d <= k + 1 for d in degs)


def test_kk1_three_parallel_edges():
    m = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
    res = kk1_factor(m, 1)
    assert _factor_ok(m, 1, res)
    assert len(res.edges) in (1, 2)


def test_kk1_k4_matching_is_valid():
    m = MultiGraph(4, tuple(combinations(range(4), 2)))
    res = kk1_factor(m, 1)
    assert _factor_ok(m, 1, res)


def test_kk1_c4_two_regular():
    m = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    res = kk1_factor(m, 1)
    assert _factor_ok(m, 1, res)


def test_kk1_rejects_bad_inputs():
    m = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        kk1_factor(m, 3)
    with pytest.raises(ValueError):
        kk1_factor(MultiGraph(3, ((0, 1), (1, 2))), 1)


def _exhaustive_factor_exists(m, k):
    n_edges = len(m.edges)
    for mask in range(1 << n_edges):
        degs = [0] * m.n
        for i in range(n_edges):
            if mask >> i & 1:
                u, v = m.edges[i]
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
        if len(m.edges) > 14:
            continue
        k = rng.randint(1, r - 1)
        res = kk1_factor(m, k)
        assert _factor_ok(m, k, res)
        assert _exhaustive_factor_exists(m, k)


def _sample_regular(n, r, rng):
    # the configuration model rarely avoids loops at large r*n
    if r <= 4 and n <= 20:
        return random_regular_multigraph(n, r, rng)
    return cycle_union_multigraph(n, r, rng)


def test_kk1_every_k_on_random_regular_multigraphs():
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
            edges += [(u + offset, v + offset) for u, v in _sample_regular(size, r, rng).edges]
            offset += size
        m = MultiGraph(offset, tuple(edges))
        odd_edge_counts += len(edges) % 2
        disconnected += len(sizes) > 1
        for k in range(1, r):
            assert _factor_ok(m, k, kk1_factor(m, k)), (r, k, m)
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
    assert has_bad_cycle(complete_bipartite(2, 3)) is False
    assert has_bad_cycle(subdivide(complete(4))) is True
    assert has_bad_cycle(subdivide(complete_bipartite(3, 3))) is False
    with pytest.raises(ValueError):
        has_bad_cycle(cycle(6))


def test_dichotomy_and_mutual_exclusion():
    rng = random.Random(2024)
    for _ in range(30):
        b = rng.choice([3, 5])
        m = rng.choice([2, 4]) if b == 5 else rng.choice([4, 6])
        g = random_biregular(m, b, rng)
        res = solve_biregular(g)
        bad = has_bad_cycle(g)
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
        bip, k = validate_2odd_biregular(g)
        rep = balance_report(g, res.partition)
        for y in bip.side_y:
            ones = sum(res.partition.labels[x] for x in g.adj[y])
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
    bip, k = validate_2odd_biregular(g)
    red = build_reduced(g, bip, k)
    x0, x1 = red.x_of_edge[0], red.x_of_edge[1]
    y0, y1 = red.y_vertices
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
            bip, _ = validate_2odd_biregular(g)
            ys = [v for v in res.cycle.vertices if v in bip.side_y]
            assert len(res.cycle.vertices) == 2 * len(ys)
            assert len(ys) % 2 == 1
    assert seen > 0


def test_search_matches_contraction_route():
    """The one BFS over the graph gives the same certificate cycle, the same
    witness and the same has_bad_cycle verdict as BFS 2-colouring the whole
    contraction, on graphs whose parts interleave in index order."""
    rng = random.Random(4099)
    seen = {"cert": 0, "witness": 0, "disconnected": 0, "parallel": 0}
    for _ in range(2000):
        b = rng.choice([3, 5, 9])
        parts = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            if rng.random() < 0.5:
                parts.append(bipartite_witness_graph(rng.randint(1, 4), b, rng))
            else:
                m = rng.randint(2, 10)
                m += m % 2  # odd b needs an even high side
                parts.append(subdivide_multigraph(_sample_regular(m, b, rng)))
        g = disjoint_union(parts, rng if rng.random() < 0.8 else None)
        expected, bad = reference_solve_biregular(g)
        assert solve_biregular(g) == expected
        assert has_bad_cycle(g) is bad
        seen["cert" if bad else "witness"] += 1
        seen["disconnected"] += len(parts) > 1
        pairs = [g.adj[x] for x in range(g.n) if len(g.adj[x]) == 2]
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 300, seen


def test_search_matches_contraction_route_at_1e5_vertices():
    g = subdivide_multigraph(cycle_union_multigraph(40_000, 3, random.Random(61)))
    assert g.n == 100_000
    expected, bad = reference_solve_biregular(g)
    assert bad and isinstance(expected, Certificate)
    assert solve_biregular(g) == expected
    assert has_bad_cycle(g)


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
            "b.kk1_factor = lambda m, k: b.FactorResult(frozenset(), ())",
            "complete_bipartite(2, 3)",
            "constructed witness failed the checker",
        ),
        (
            "b.extract_cycle_2mod4 = lambda walk: walk + walk[:4]",
            "subdivide(complete(4))",
            "certificate cycle is not simple",
        ),
    ],
    ids=["witness", "certificate"],
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
