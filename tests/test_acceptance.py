"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
checked at its stated tolerance and time budget; randomized inputs are
seeded, so the suite is deterministic.
"""

import random
import time
from itertools import product

import numpy as np

from helpers import (
    CANONICAL_N3,
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi,
    random_biregular,
    random_nae_instance,
    random_regular_multigraph,
    subdivide,
)
from lb2p import (
    Certificate,
    TwoPartition,
    Witness,
    assignment_to_partition,
    balance_report,
    bipartition,
    brute_force,
    brute_sat,
    check,
    classify,
    decide,
    kk1_factor,
    nae_eval,
    parse_nae,
    partition_to_assignment,
    phi_star,
    solve_biregular,
    verify_gadget,
)
from lb2p.gadgets import Gadget, gadget_f1, gadget_f2, gadget_f4, gadget_forcing, verify_f4_harness
from lb2p.graphs import Graph
from lb2p.reductions import reduce_by_name


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s / {budget:.0f}s) {detail}")


def _sample_graphs(count=200, max_n=12, seed=20240501):
    rng = random.Random(seed)
    densities = (0.15, 0.3, 0.5, 0.75)
    graphs = []
    for i in range(count):
        n = 1 + (i % max_n)
        graphs.append(erdos_renyi(n, densities[i % len(densities)], rng))
    return graphs


def test_criterion_1_definition_suite():
    budget = 5.0
    t0 = time.time()
    ok = True
    valid_seen = 0
    for g in _sample_graphs():
        rng = random.Random(g.n * 7919 + g.m)
        labels = tuple(rng.randint(0, 1) for _ in range(g.n))
        rep = balance_report(g, TwoPartition(labels))
        for v in range(g.n):
            if rep.closed_balance[v] - rep.open_balance[v] != phi_star(labels[v]):
                ok = False
            if rep.open_balance[v] % 2 != g.degree(v) % 2:
                ok = False
            if rep.closed_balance[v] % 2 != (g.degree(v) + 1) % 2:
                ok = False
            # validity pins the balance to zero at matching-parity degrees
            if rep.open_valid and g.degree(v) % 2 == 0 and rep.open_balance[v] != 0:
                ok = False
            if rep.closed_valid and g.degree(v) % 2 == 1 and rep.closed_balance[v] != 0:
                ok = False
        valid_seen += rep.open_valid + rep.closed_valid
    elapsed = time.time() - t0
    _report(1, ok and elapsed < budget and valid_seen > 0, elapsed, budget,
            f"balance identity and parity corollaries on 200 seeded graphs ({valid_seen} valid samples)")
    assert ok and valid_seen > 0 and elapsed < budget


def test_criterion_2_oracle_equivalence():
    budget = 60.0
    t0 = time.time()
    ok = True
    for g in _sample_graphs():
        for mode in ("open", "closed"):
            fast = decide(g, mode)
            slow = brute_force(g, mode)
            if fast.status != slow.status:
                ok = False
            if fast.status == "sat" and check(g, fast.witness, mode):
                ok = False
    elapsed = time.time() - t0
    _report(2, ok and elapsed < budget, elapsed, budget,
            "decide agrees with brute force on 200 graphs in both modes")
    assert ok and elapsed < budget


def test_criterion_3_cycle_characterization():
    budget = 30.0
    t0 = time.time()
    ok = True
    for length in range(4, 25):
        status = decide(cycle(length), "open").status
        expected = "sat" if length % 4 == 0 else "unsat"
        if status != expected:
            ok = False
    elapsed = time.time() - t0
    _report(3, ok, elapsed, budget, "C4..C24 open-SAT iff length divisible by 4")
    assert ok


def _random_bipartite_regular_multigraph(half, b, rng):
    """b-regular bipartite multigraph (n, edges) on 2*half vertices (b matchings)."""
    edges = []
    for _ in range(b):
        perm = list(range(half))
        rng.shuffle(perm)
        edges.extend((i, half + perm[i]) for i in range(half))
    return 2 * half, edges


def _biregular_from_multigraph(mg):
    n, pairs = mg
    edges = []
    for i, (u, v) in enumerate(pairs):
        x = n + i
        edges += [(u, x), (v, x)]
    return Graph.from_edges(n + len(pairs), edges)


def test_criterion_4_biregular_dichotomy():
    budget = 120.0
    t0 = time.time()
    ok = True

    for g in (complete_bipartite(2, 3), subdivide(complete_bipartite(3, 3))):
        res = solve_biregular(g)
        if not (isinstance(res, Witness) and not check(g, res.partition, "open")):
            ok = False
    res = solve_biregular(subdivide(complete(4)))
    if not (isinstance(res, Certificate) and len(res.cycle.vertices) % 4 == 2):
        ok = False

    rng = random.Random(424242)
    instances = []
    for i in range(50):  # (2,3): n = 10, 15, 20
        m = (4, 6, 8)[i % 3]
        if i % 2 == 0:
            instances.append(random_biregular(m, 3, rng))
        else:
            instances.append(_biregular_from_multigraph(
                _random_bipartite_regular_multigraph(m // 2, 3, rng)))
    for i in range(50):  # (2,5): n = 7, 14
        m = (2, 4)[i % 2]
        if i % 2 == 0:
            instances.append(random_biregular(m, 5, rng))
        else:
            instances.append(_biregular_from_multigraph(
                _random_bipartite_regular_multigraph(m // 2, 5, rng)))

    witnesses = certificates = 0
    for g in instances:
        assert g.n <= 20
        res = solve_biregular(g)
        if isinstance(res, Witness):
            witnesses += 1
            verdict = "sat"
            if check(g, res.partition, "open"):
                ok = False
        else:
            certificates += 1
            verdict = "unsat"
            if len(res.cycle.vertices) % 4 != 2:
                ok = False
        if brute_force(g, "open").status != verdict:
            ok = False
    if witnesses == 0 or certificates == 0:
        ok = False
    elapsed = time.time() - t0
    _report(4, ok and elapsed < budget, elapsed, budget,
            f"dichotomy vs brute force on 100 instances ({witnesses} witnesses, {certificates} certificates)")
    assert ok and elapsed < budget


def _subset_factor_exists(m, k):
    n, pairs = m
    n_edges = len(pairs)
    inc = np.zeros((n_edges, n), dtype=np.float32)
    for i, (u, v) in enumerate(pairs):
        inc[i, u] += 1.0
        inc[i, v] += 1.0
    shifts = np.arange(n_edges, dtype=np.int64)
    total = 1 << n_edges
    chunk = 1 << 16
    for base in range(0, total, chunk):
        masks = np.arange(base, min(base + chunk, total), dtype=np.int64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float32)
        degs = bits @ inc
        if np.any(np.all((degs >= k - 0.5) & (degs <= k + 1.5), axis=1)):
            return True
    return False


def test_criterion_5_factor_contract():
    budget = 120.0
    t0 = time.time()
    ok = True
    rng = random.Random(55555)
    checked = oracled = 0
    while checked < 100:
        r = rng.randint(2, 5)
        n = rng.randint(2, 10)
        if (n * r) % 2:
            continue
        m = random_regular_multigraph(n, r, rng)
        edges = m[1]
        k = r // 2
        result = kk1_factor(n, np.array(edges, dtype=np.int64))
        degs = [0] * n
        for i in result.tolist():
            u, v = edges[i]
            degs[u] += 1
            degs[v] += 1
        if not all(k <= d <= k + 1 for d in degs):
            ok = False
        checked += 1
        if len(edges) <= 20:
            oracled += 1
            if not _subset_factor_exists(m, k):
                ok = False
    elapsed = time.time() - t0
    _report(5, ok and oracled > 0, elapsed, budget,
            f"factor degrees within bounds on 100 multigraphs ({oracled} oracle-checked)")
    assert ok and oracled > 0


def test_criterion_6_gadget_contracts():
    budget = 30.0
    t0 = time.time()
    ok = True

    if not verify_gadget(gadget_f1()).passed:
        ok = False

    # full 64-case enumeration for the 6-vertex gadget, then the verifier
    f2 = gadget_f2()
    internal = [v for v in range(6) if v not in f2.inputs]
    forced = []
    for labels in product((0, 1), repeat=6):
        bad = [v for v in check(f2.graph, TwoPartition(labels), "closed") if v in internal]
        if not bad:
            forced.append(labels)
    if not forced or any(
        not (l[0] == l[1] == l[4] == l[5] and l[2] == l[3] == 1 - l[0]) for l in forced
    ):
        ok = False
    if not verify_gadget(f2).passed:
        ok = False

    gamma_report = verify_gadget(gadget_forcing())
    if not gamma_report.passed or gamma_report.internally_valid != 2:
        ok = False

    if not verify_f4_harness().passed:
        ok = False

    # mutation: delete one block leaf of the forcing gadget
    gamma = gadget_forcing()
    keep = [v for v in range(30) if v != 16]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in gamma.graph.edges() if 16 not in (u, v)]
    mutated = Gadget("mutated", "closed", Graph.from_edges(29, edges),
                     tuple(remap[p] for p in gamma.inputs), None)
    if verify_gadget(mutated).passed:
        ok = False

    elapsed = time.time() - t0
    _report(6, ok and elapsed < budget, elapsed, budget,
            "gadget contracts verified, mutation detected")
    assert ok and elapsed < budget


def test_criterion_7_reduction_postconditions():
    budget = 60.0
    t0 = time.time()
    ok = True
    rng = random.Random(777)
    instances = [parse_nae(CANONICAL_N3)]
    for i in range(20):
        instances.append(random_nae_instance((3, 6, 9)[i % 3], rng))
    for inst in instances:
        n, k = inst.n, inst.k
        art = reduce_by_name("bireg", inst)
        if art.graph.n != n + 2 * k or classify(art.graph).biregular != (3, 8):
            ok = False
        art = reduce_by_name("even", inst)
        rep = classify(art.graph)
        if art.graph.n != 16 * n + 3 * k or not rep.is_even or rep.max_degree != 4:
            ok = False
        if bipartition(art.graph) is None:
            ok = False
        art = reduce_by_name("subcubic", inst)
        rep = classify(art.graph)
        if art.graph.n != 30 * n + k or rep.max_degree != 3 or bipartition(art.graph) is None:
            ok = False
        art = reduce_by_name("odd", inst)
        rep = classify(art.graph)
        if art.graph.n != 30 * n + 10 * k or not rep.is_odd or rep.max_degree != 3:
            ok = False
    elapsed = time.time() - t0
    _report(7, ok and elapsed < budget, elapsed, budget,
            "class assertions and exact vertex counts on 21 instances")
    assert ok and elapsed < budget


def test_criterion_8_end_to_end_equisatisfiability():
    budget = 600.0
    t0 = time.time()
    ok = True

    rng = random.Random(888)
    instances = [parse_nae(CANONICAL_N3)]
    for _ in range(8):
        instances.append(random_nae_instance(6, rng))
    for inst in instances:
        expected = "sat" if brute_sat(inst) is not None else "unsat"
        for name in ("bireg", "even", "subcubic", "odd"):
            art = reduce_by_name(name, inst)
            got = decide(art.graph, art.mode).status
            if got != expected:
                ok = False

    inst = parse_nae(CANONICAL_N3)
    for name in ("bireg", "even", "subcubic", "odd"):
        art = reduce_by_name(name, inst)
        part = assignment_to_partition(art, (0, 0, 1))
        if check(art.graph, part, art.mode):
            ok = False
        back = partition_to_assignment(art, part)
        if not nae_eval(inst, back):
            ok = False

    elapsed = time.time() - t0
    _report(8, ok and elapsed < budget, elapsed, budget,
            "brute_sat matches solver verdicts on all four reductions; lift/extract round trip")
    assert ok and elapsed < budget
