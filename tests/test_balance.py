import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import adjacency, cycle, erdos_renyi, path
from lb2p import TwoPartition, balance_report, brute_force, check, phi_star
from lb2p.balance import parse_partition


def test_phi_star():
    assert phi_star(0) == -1
    assert phi_star(1) == 1
    for x in (0, 1):
        assert phi_star(x) * phi_star(x) == 1
    with pytest.raises(ValueError):
        phi_star(2)


def test_balance_c4_blocked_labeling_open_valid():
    rep = balance_report(cycle(4), TwoPartition((0, 0, 1, 1)))
    assert rep.open_balance == (0, 0, 0, 0)
    assert rep.open_valid


def test_balance_k2_closed_valid():
    rep = balance_report(path(2), TwoPartition((0, 1)))
    assert rep.closed_balance == (0, 0)
    assert rep.closed_valid


def test_balance_c4_alternating_open_invalid():
    rep = balance_report(cycle(4), TwoPartition((0, 1, 0, 1)))
    assert all(abs(b) == 2 for b in rep.open_balance)
    assert not rep.open_valid


def test_check_k2_closed():
    assert check(path(2), TwoPartition((0, 1)), "closed") == []


def test_check_c3_constant_closed():
    rep = balance_report(cycle(3), TwoPartition((0, 0, 0)))
    assert rep.closed_balance == (-3, -3, -3)
    assert check(cycle(3), TwoPartition((0, 0, 0)), "closed") == [0, 1, 2]


def test_c6_open_always_violated():
    g = cycle(6)
    for labels in product((0, 1), repeat=6):
        assert check(g, TwoPartition(labels), "open")
    assert brute_force(g, "open").status == "unsat"


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        balance_report(cycle(4), TwoPartition((0, 1)))
    with pytest.raises(ValueError):
        check(cycle(4), TwoPartition((0, 1)), "open")


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        check(path(2), TwoPartition((0, 1)), "both")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_closed_minus_open_is_phi_star(seed):
    rng = random.Random(seed)
    g = erdos_renyi(rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]), rng)
    labels = tuple(rng.randint(0, 1) for _ in range(g.n))
    rep = balance_report(g, TwoPartition(labels))
    for v in range(g.n):
        assert rep.closed_balance[v] - rep.open_balance[v] == phi_star(labels[v])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_balance_parity(seed):
    rng = random.Random(seed)
    g = erdos_renyi(rng.randint(1, 10), 0.5, rng)
    labels = tuple(rng.randint(0, 1) for _ in range(g.n))
    rep = balance_report(g, TwoPartition(labels))
    for v in range(g.n):
        d = g.degree(v)
        assert rep.open_balance[v] % 2 == d % 2
        assert rep.closed_balance[v] % 2 == (d + 1) % 2


def _valid_partitions(g, mode):
    return [
        TwoPartition(labels)
        for labels in product((0, 1), repeat=g.n)
        if not check(g, TwoPartition(labels), mode)
    ]


def test_degree_two_neighbors_differ_when_open_valid():
    rng = random.Random(3)
    for _ in range(30):
        g = erdos_renyi(rng.randint(2, 7), 0.5, rng)
        adj = adjacency(g)
        for p in _valid_partitions(g, "open"):
            for v in range(g.n):
                if g.degree(v) == 2:
                    u1, u2 = adj[v]
                    assert p.labels[u1] != p.labels[u2]


def test_leaf_differs_from_support_when_closed_valid():
    rng = random.Random(4)
    for _ in range(30):
        g = erdos_renyi(rng.randint(2, 7), 0.4, rng)
        adj = adjacency(g)
        for p in _valid_partitions(g, "closed"):
            for v in range(g.n):
                if g.degree(v) == 1:
                    assert p.labels[v] != p.labels[adj[v][0]]


def test_parity_corollary_zero_balances():
    rng = random.Random(5)
    for _ in range(30):
        g = erdos_renyi(rng.randint(1, 7), 0.5, rng)
        for mode in ("open", "closed"):
            for p in _valid_partitions(g, mode):
                rep = balance_report(g, p)
                for v in range(g.n):
                    if mode == "open" and g.degree(v) % 2 == 0:
                        assert rep.open_balance[v] == 0
                    if mode == "closed" and g.degree(v) % 2 == 1:
                        assert rep.closed_balance[v] == 0


def test_isolated_vertex_vacuously_open_valid():
    g = cycle(4)
    g2 = type(g).from_edges(5, g.edges())
    rep = balance_report(g2, TwoPartition((0, 0, 1, 1, 0)))
    assert rep.open_balance[4] == 0
    assert rep.open_valid


def test_parse_partition():
    p = parse_partition("0011\n", 4)
    assert p.labels == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        parse_partition("001\n", 4)
    with pytest.raises(ValueError):
        parse_partition("00x1\n", 4)


def _per_vertex_balances(n, edges, labels, mode):
    """The phi-star balances by a per-vertex sum over a pure-Python adjacency."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    phi = [1 if x else -1 for x in labels]
    return [sum(phi[u] for u in adj[v]) + (phi[v] if mode == "closed" else 0) for v in range(n)]


def test_segment_sums_match_per_vertex_sums():
    rng = random.Random(6)
    for trial in range(400):
        n = 0 if trial == 0 else rng.randint(1, 40)
        g = erdos_renyi(n, rng.choice([0.05, 0.2, 0.6]), rng)  # sparse draws leave isolated vertices
        labels = tuple(rng.randint(0, 1) for _ in range(n))
        p = TwoPartition(labels)
        edges = g.edges()
        rep = balance_report(g, p)
        open_b = _per_vertex_balances(n, edges, labels, "open")
        closed_b = _per_vertex_balances(n, edges, labels, "closed")
        assert rep.open_balance == tuple(open_b) and rep.closed_balance == tuple(closed_b)
        assert rep.open_valid == all(abs(b) <= 1 for b in open_b)
        assert rep.closed_valid == all(abs(b) <= 1 for b in closed_b)
        assert all(type(b) is int for b in rep.open_balance + rep.closed_balance)
        for mode, bal in (("open", open_b), ("closed", closed_b)):
            bad = check(g, p, mode)
            assert bad == [v for v, b in enumerate(bal) if abs(b) > 1]
            assert all(type(v) is int for v in bad)
        for wrong in {0, n + 1, max(n - 1, 0)} - {n}:
            message = f"partition has {wrong} labels for {n} vertices"
            with pytest.raises(ValueError, match=message):
                balance_report(g, TwoPartition((0,) * wrong))
            for mode in ("open", "closed"):
                with pytest.raises(ValueError, match=message):
                    check(g, TwoPartition((1,) * wrong), mode)
