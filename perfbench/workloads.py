"""The four workloads.

Each is chosen so that one layer does most of its work and the others
little: a change to that layer should move this workload's end-to-end
metrics and leave the other workloads where they were.  A round is a fixed
list of cases: the sizes are fixed, the contents are drawn from the seed
and the round number.  A run plays a fixed number of rounds, so a seed
fixes the exact cases on every commit.

solve-sat (node budget 5000)
    Planted NAE-3-SAT-E4 formulas with 6-96 variables (a random formula
    repaired until a balanced random assignment satisfies it), each sent
    through ``reduce`` for all four targets, ``solve``, then ``extract``.
    First-witness search dominates: most ``bireg`` cases from 15 variables
    and most ``subcubic``/``odd`` cases from 36 end at the budget.  ``even``
    and the small formulas finish in milliseconds, so CLI, reduction and
    parsing show there.  Never calls ``kk1_factor``.

solve-unsat (node budget 30000)
    Variable-disjoint unions of j = 0, 0, 0, 1, 2, 2 planted 6-variable blocks and
    one unsatisfiable 9-variable block placed last (found by ``brute_sat``
    rejection sampling), reduced to all four targets and solved; plus
    ``solve --mode open`` on j = 1..10 4-cycles followed by one 6-cycle.
    ``decide`` must refute every branch, with no early exit.  Never calls
    ``kk1_factor``; a change that trades refutation for first-witness speed
    shows against solve-sat.

biregular (wall cap 1 s on witness cases)
    ``biregular`` then ``check --mode open`` on (2,3), (2,5) and (2,9)
    graphs.  Witness cases subdivide bipartite regular multigraphs with
    10-60 high-side vertices and a shuffled edge order, and run
    ``kk1_factor``, whose time on them is heavy-tailed with no gap.  Of 450
    witness cases (``solve_biregular`` alone, 20 s cap) 427 finished
    within 2 s, 5 took 2.3-11 s and 18 ran past 20 s.  Of 900 witness
    cases through the CLI under a 2 s cap, 828 took under 0.8 s, 4 took
    0.8-1 s, 12 took 1-2 s and 56 hit the cap.  So no cap lies 10x above
    the slowest case that finishes under it, and a longer cap moves that
    case up with it.  The 1 s cap keeps the time of the slow cases that
    finish from swamping the run's total: under the 2 s cap, the spread
    of ``wall_s`` over ten seeds reached its bound.
    Certificate cases subdivide configuration-model multigraphs with
    10^3-10^5 vertices; they never call ``kk1_factor`` and exercise
    validation, contraction, the odd-cycle BFS and cycle extraction.  No
    search, no reductions.

lift-scale
    Planted formulas with 300-1200 variables, built as relabelled unions of
    6-variable blocks that ``brute_sat`` solved.  Each goes through
    ``reduce -> lift -> check -> extract`` for all four targets; two
    negative cases per round expect exit 1: ``check`` of a partition with
    flipped labels must list exactly the violators, and ``lift`` of a
    monochrome assignment must be rejected.  No search at all.

Which layer should move which end-to-end metric, on which workload, and
where it should not move:

    layer metrics                          moves               on           not on
    solver.decide/nodes/propagations/      ok_ratio, wall_s    solve-unsat  biregular,
      nodes_per_s/timeouts/decided_ratio   case_p90_s          solve-sat    lift-scale
    biregular.kk1_factor, wall_cap_hits    case_p90_s,         biregular    all others
                                           ok_ratio
    biregular.solve_biregular/validate/    case_p50_s          biregular    solve-*
      build_reduced/extract_cycle,
      graphs.bfs_distances/components
    reductions.reduce_*/lift/extract/      wall_s, case_p90_s  lift-scale   biregular
      read_artifact/write_artifact
    graphs.parse_graph/from_edges/         wall_s, case_p50_s, lift-scale   small share
      serialize_graph/classify/            peak_rss_mb                      on solve-sat
      bipartition, balance.check/
      parse_partition
    nae.parse_nae, cli.self                case_p50_s          solve-sat    solve-unsat
    gadgets.ensure_verified                setup_s             all          -

The failure share is reported as ``ok_ratio`` = 1 - fail_ratio among the
end-to-end metrics, because a bounded metric must never be 0 (lift-scale
has no failures), and as ``fail_ratio`` among the per-layer ones.

Known defects these workloads record, measured on a 2-vCPU VM at the
commit that added the benchmark:

* solve-unsat: 6 of the 32 cases of every round end at the node budget
  (``subcubic``/``odd`` with two SAT blocks; 8 and 10 4-cycles, where 6
  need 16382 nodes), so ok_ratio = 0.81: ``decide`` multiplies the work of
  independent components instead of adding it.
* biregular: about 8% of the witness cases hit the 1 s wall cap inside
  ``kk1_factor``, whose search over edge subsets is exponential although
  the paper's procedure is polynomial.
* solve-sat: about a third of the cases end at the budget.
* lift-scale: ``occurrence_slot`` rescans the clause list on every call,
  so ``reduce --target odd`` took 0.10, 0.69 and 3.8 s at 300, 1200 and
  3000 variables.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

import gen
import oracles
from cases import Case, Runner, expect

TARGETS = ("bireg", "even", "subcubic", "odd")
MODE = {"bireg": "open", "even": "open", "subcubic": "closed", "odd": "closed"}


def reduced_size(target: str, n: int, k: int) -> int:
    """Vertex count the paper gives for each reduction (r = 1 for bireg)."""
    return {"bireg": n + 2 * k, "even": 16 * n + 3 * k, "subcubic": 30 * n + k, "odd": 30 * n + 10 * k}[target]


def _graph_m(path: Path) -> int:
    with open(path, encoding="ascii") as f:
        return int(f.readline().split()[1])


class Workload:
    name = ""
    rounds = 1  # per run, sized to fill the run's seconds at the commit that added the benchmark
    node_budget = None
    wall_caps: dict[str, float] = {}

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *tag: Any) -> random.Random:
        return random.Random(":".join(str(x) for x in (self.name, self.seed, *tag)))

    def generate(self, rnd: int, indir: Path) -> list[tuple[str, str, dict]]:
        """Write round ``rnd``'s input files; return (case id, kind, inputs)."""
        raise NotImplementedError

    def run(self, runner: Runner, case: Case) -> str:
        """Run the case's CLI chain; return its status."""
        raise NotImplementedError

    def verify(self, case: Case) -> None:
        """Independent check of a case that ended with an answer."""
        raise NotImplementedError

    def cap(self, case: Case) -> float:
        return self.wall_caps[case.inputs["cap"]]

    def stamp(self) -> dict[str, Any]:
        return {"node_budget": self.node_budget, "wall_caps_s": self.wall_caps}

    def _formula(self, indir: Path, name: str, n: int, clauses) -> Path:
        path = indir / f"{name}.nae"
        path.write_text(gen.formula_text(n, clauses), encoding="ascii")
        return path

    def _reduce(self, runner: Runner, case: Case) -> Path:
        inp = case.inputs
        base = inp["out"] / case.cid
        rc, out, _ = runner.call(
            case, ["reduce", "--target", case.kind, "--out", str(base), str(inp["formula"])]
        )
        expect(rc == 0, case, f"reduce exited {rc}")
        size = reduced_size(case.kind, inp["n_vars"], 4 * inp["n_vars"] // 3)
        expect(out.startswith(f"{size} vertices "), case, f"reduce printed {out!r}, expected {size} vertices")
        case.n, case.m = size, _graph_m(Path(f"{base}.graph"))
        return base

    def _solve(self, runner: Runner, case: Case, graph: Path, mode: str) -> str:
        rc, out, _ = runner.call(
            case, ["solve", "--mode", mode, "--budget", str(self.node_budget), str(graph)]
        )
        expect(rc == 0, case, f"solve exited {rc}")
        return out


class SolveSat(Workload):
    name = "solve-sat"
    rounds = 6
    node_budget = 5_000
    wall_caps = {"case": 60.0}
    SIZES = (6, 9, 12, 15, 18, 21, 24, 30, 36, 48, 66, 96)

    def generate(self, rnd, indir):
        rng = self.rng(rnd)
        specs = []
        for i, n in enumerate(self.SIZES):
            planted = gen.balanced_assignment(n, rng)
            clauses = gen.nae_formula(n, rng, planted)
            formula = self._formula(indir, f"f{i}", n, clauses)
            inputs = {"formula": formula, "n_vars": n, "clauses": clauses, "planted": planted, "cap": "case"}
            specs += [(f"r{rnd}-f{i}-{t}", t, inputs) for t in TARGETS]
        return specs

    def run(self, runner, case):
        base = self._reduce(runner, case)
        out = self._solve(runner, case, Path(f"{base}.graph"), MODE[case.kind])
        lines = out.split("\n")
        expect(lines[0] == "SAT", case, f"solve printed {lines[0]!r} on a planted-SAT formula")
        expect(len(lines[1]) == case.n, case, "witness has the wrong length")
        case.out["witness"] = lines[1]
        Path(f"{base}.part").write_text(lines[1] + "\n", encoding="ascii")
        rc, out, _ = runner.call(case, ["extract", str(base), f"{base}.part"])
        expect(rc == 0, case, f"extract exited {rc}")
        case.out["assignment"] = out.strip()
        return "sat"

    def verify(self, case):
        base = case.inputs["out"] / case.cid
        n, edges = oracles.read_graph(Path(f"{base}.graph"))
        bad = oracles.violators(n, edges, case.out["witness"], MODE[case.kind])
        expect(not bad, case, f"SAT witness violates balance at {bad[:10]}")
        assignment = [int(c) for c in case.out["assignment"]]
        expect(
            oracles.nae_satisfied(case.inputs["n_vars"], case.inputs["clauses"], assignment),
            case,
            "extracted assignment does not satisfy the formula",
        )


class SolveUnsat(Workload):
    name = "solve-unsat"
    rounds = 4
    node_budget = 30_000
    wall_caps = {"case": 60.0}
    # Planted 6-variable blocks before the UNSAT block, and 4-cycles before
    # the 6-cycle.  Most cases are cheap, so the median lies well inside
    # them; the four budget timeouts (two blocks, subcubic/odd) hold p90.
    BLOCKS = (0, 0, 0, 1, 2, 2)
    CYCLES = (1, 2, 3, 4, 5, 6, 8, 10)
    POOL = 12

    def __init__(self, seed):
        super().__init__(seed)
        self._pool: list = []
        self._c6_unsat = None

    def unsat_pool(self) -> list:
        """Unsatisfiable 9-variable formulas found by rejection sampling
        (``brute_sat`` decides; a vectorised test skips the many satisfiable
        draws first).  Each case uses one under a fresh random relabelling."""
        if not self._pool:
            import numpy as np
            from lb2p.nae import NaeInstance, brute_sat

            bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
            rng = self.rng("pool")
            while len(self._pool) < self.POOL:
                clauses = gen.nae_formula(9, rng)
                ones = bits[:, np.array(clauses)].sum(axis=2)
                if np.any(np.all((ones > 0) & (ones < 3), axis=1)):
                    continue
                if brute_sat(NaeInstance.from_clauses(9, clauses)) is None:
                    self._pool.append(clauses)
        return self._pool

    def generate(self, rnd, indir):
        rng = self.rng(rnd)
        pool = self.unsat_pool()
        specs = []
        for i, j in enumerate(self.BLOCKS):
            blocks = [gen.nae_formula(6, rng, gen.balanced_assignment(6, rng)) for _ in range(j)]
            unsat, _ = gen.relabel(pool[rng.randrange(len(pool))], 9, rng)
            n = 6 * j + 9
            clauses = gen.disjoint_union(blocks + [unsat], [6] * j + [9])
            formula = self._formula(indir, f"u{i}", n, clauses)
            inputs = {
                "task": "union", "formula": formula, "n_vars": n, "clauses": clauses,
                "unsat_block": unsat, "cap": "case",
            }
            specs += [(f"r{rnd}-u{i}-{t}", t, inputs) for t in TARGETS]
        for j in self.CYCLES:
            n, edges = gen.c4s_then_c6(j, rng)
            graph = indir / f"c{j}.graph"
            graph.write_text(gen.graph_text(n, edges), encoding="ascii")
            specs.append((f"r{rnd}-c{j}", "open", {"task": "cycles", "graph": graph, "n": n, "m": len(edges), "cap": "case"}))
        return specs

    def run(self, runner, case):
        if case.inputs["task"] == "union":
            base = self._reduce(runner, case)
            out = self._solve(runner, case, Path(f"{base}.graph"), MODE[case.kind])
        else:
            case.n, case.m = case.inputs["n"], case.inputs["m"]
            out = self._solve(runner, case, case.inputs["graph"], "open")
        expect(out == "UNSAT\n", case, f"solve printed {out[:40]!r} on an unsatisfiable input")
        return "unsat"

    def verify(self, case):
        if case.inputs["task"] == "union":
            expect(oracles.nae_unsat(9, case.inputs["unsat_block"]), case, "UNSAT block is satisfiable")
        else:
            if self._c6_unsat is None:
                self._c6_unsat = oracles.c6_open_unsat()
            expect(self._c6_unsat, case, "C6 has a valid open partition")


class Biregular(Workload):
    name = "biregular"
    rounds = 2
    wall_caps = {"witness": 1.0, "certificate": 60.0}
    # Two witness cases per shape keep the median inside the many small
    # witness cases, away from the edge to the certificate sizes.
    WITNESS = tuple((m, b) for m in (10, 20, 30, 40, 60) for b in (3, 5, 9)) * 2
    # Certificate sizes: a geometric grid over 10^3..10^4.6 vertices, then
    # five of 10^5 vertices.  Those five are the slowest cases of a round
    # but for the rare slow witness, so p90 lies among cases of one size
    # and not on a step of the grid.
    CERTIFICATES = tuple(
        (round(10 ** (3 + 2 * (i + 0.5) / 7)), (3, 5, 9)[i % 3]) for i in range(6)
    ) + tuple((100_000, b) for b in (9, 3, 5, 9, 5))

    def __init__(self, seed):
        super().__init__(seed)
        self._bipartite: dict[Path, bool] = {}

    def generate(self, rnd, indir):
        rng = self.rng(rnd)
        specs = []
        shapes = [("witness", m, b) for m, b in self.WITNESS]
        shapes += [("certificate", size, b) for size, b in self.CERTIFICATES]
        for i, (family, size, b) in enumerate(shapes):
            if family == "witness":
                m = size
                mg = gen.bipartite_regular_multigraph(m // 2, b, rng)
            else:
                m = max(4, round(size / (1 + b / 2)))
                m += (m * b) % 2
                mg = gen.regular_multigraph(m, b, rng)
            n, edges = gen.subdivide(m, mg, rng)
            graph = indir / f"g{i}.graph"
            graph.write_text(gen.graph_text(n, edges), encoding="ascii")
            multigraph = indir / f"g{i}.mg"
            multigraph.write_text(gen.graph_text(m, mg), encoding="ascii")
            inputs = {"graph": graph, "multigraph": multigraph, "n": n, "m": len(edges), "cap": family}
            specs.append((f"r{rnd}-g{i}", f"(2,{b})", inputs))
        return specs

    def run(self, runner, case):
        graph = case.inputs["graph"]
        case.n, case.m = case.inputs["n"], case.inputs["m"]
        rc, out, _ = runner.call(case, ["biregular", str(graph)])
        expect(rc == 0, case, f"biregular exited {rc}")
        head, _, body = out.partition("\n")
        if head == "CERT":
            case.out["cycle"] = [int(v) for v in body.split()]
            return "cert"
        expect(head == "SAT", case, f"biregular printed {head!r}")
        line = body.strip()
        part = case.inputs["out"] / f"{case.cid}.part"
        part.write_text(line + "\n", encoding="ascii")
        rc, out, _ = runner.call(case, ["check", "--mode", "open", str(graph), str(part)])
        expect(rc == 0 and out == "VALID\n", case, f"check of the witness exited {rc}: {out[:40]!r}")
        case.out["witness"] = line
        return "witness"

    def verify(self, case):
        path = case.inputs["multigraph"]
        if path not in self._bipartite:  # both passes of a traced round share inputs
            self._bipartite[path] = oracles.reduced_is_bipartite(*oracles.read_graph(path))
        bipartite = self._bipartite[path]
        n, edges = oracles.read_graph(case.inputs["graph"])
        if case.status == "witness":
            expect(bipartite, case, "witness for a graph whose contraction has an odd cycle")
            bad = oracles.violators(n, edges, case.out["witness"], "open")
            expect(not bad, case, f"witness violates balance at {bad[:10]}")
        else:
            expect(not bipartite, case, "certificate for a graph whose contraction is bipartite")
            expect(oracles.cycle_2mod4(n, edges, case.out["cycle"]), case, "certificate is not a simple 2-mod-4 cycle")


def solved_block_union(n: int, rng: random.Random) -> tuple[list, list[int]]:
    """Relabelled union of 6-variable formulas, each solved by brute_sat;
    returns the clauses and the union of the solutions."""
    from lb2p.nae import NaeInstance, brute_sat

    blocks, solution = [], []
    for _ in range(n // 6):
        while True:
            clauses = gen.nae_formula(6, rng)
            sol = brute_sat(NaeInstance.from_clauses(6, clauses))
            if sol is not None:
                break
        blocks.append(clauses)
        solution.extend(sol)
    clauses, perm = gen.relabel(gen.disjoint_union(blocks, [6] * len(blocks)), n, rng)
    planted = [0] * n
    for old, new in enumerate(perm):
        planted[new] = solution[old]
    return clauses, planted


class LiftScale(Workload):
    name = "lift-scale"
    rounds = 2
    wall_caps = {"case": 120.0}
    SIZES = (300, 480, 750, 1200)

    def generate(self, rnd, indir):
        rng = self.rng(rnd)
        specs = []
        for i, n in enumerate(self.SIZES):
            clauses, planted = solved_block_union(n, rng)
            formula = self._formula(indir, f"f{i}", n, clauses)
            assignment = indir / f"f{i}.asg"
            assignment.write_text("".join(map(str, planted)) + "\n", encoding="ascii")
            inputs = {
                "task": "lift", "formula": formula, "assignment": assignment,
                "n_vars": n, "clauses": clauses, "planted": planted, "cap": "case",
            }
            specs += [(f"r{rnd}-f{i}-{t}", t, inputs) for t in TARGETS]
        # negatives reuse the artifacts of the first formula's positive cases
        target = TARGETS[rnd % len(TARGETS)]
        mono = indir / "f0.mono"
        mono.write_text("0" * self.SIZES[0] + "\n", encoding="ascii")
        specs.append((f"r{rnd}-neglift", target, {"task": "neg-lift", "of": f"r{rnd}-f0-{target}", "assignment": mono, "cap": "case"}))
        target = TARGETS[(rnd + 1) % len(TARGETS)]
        flip_seed = f"{self.name}:{self.seed}:{rnd}:flip"
        specs.append((f"r{rnd}-negcheck", target, {"task": "neg-check", "of": f"r{rnd}-f0-{target}", "flip_seed": flip_seed, "cap": "case"}))
        return specs

    def run(self, runner, case):
        task = case.inputs["task"]
        if task == "lift":
            return self._lift(runner, case)
        base = case.inputs["out"] / case.inputs["of"]
        n, edges = oracles.read_graph(Path(f"{base}.graph"))
        case.n, case.m = n, len(edges)
        if task == "neg-lift":
            rc, out, err = runner.call(case, ["lift", str(base), str(case.inputs["assignment"])])
            expect(rc == 1 and out == "" and err.startswith("UNSATASSIGNMENT"), case, f"monochrome lift exited {rc}: {err[:60]!r}")
            return "rejected"
        flipped = self._flip(Path(f"{base}.part").read_text(encoding="ascii").strip(), n, edges, case)
        path = case.inputs["out"] / f"{case.cid}.part"
        path.write_text(flipped + "\n", encoding="ascii")
        rc, out, _ = runner.call(case, ["check", "--mode", MODE[case.kind], f"{base}.graph", str(path)])
        expect(rc == 1 and out.startswith("INVALID "), case, f"check of a flipped partition exited {rc}: {out[:40]!r}")
        case.out["flipped"] = flipped
        case.out["listed"] = [int(v) for v in out.split()[1:]]
        return "rejected"

    def _lift(self, runner, case):
        base = self._reduce(runner, case)
        part = f"{base}.part"
        rc, out, _ = runner.call(case, ["lift", "--out", part, str(base), str(case.inputs["assignment"])])
        expect(rc == 0 and len(out.strip()) == case.n, case, f"lift exited {rc}")
        case.out["partition"] = out.strip()
        rc, out, _ = runner.call(case, ["check", "--mode", MODE[case.kind], f"{base}.graph", part])
        expect(rc == 0 and out == "VALID\n", case, f"check of the lifted partition exited {rc}: {out[:40]!r}")
        rc, out, _ = runner.call(case, ["extract", str(base), part])
        expect(rc == 0, case, f"extract exited {rc}")
        case.out["assignment"] = out.strip()
        return "lifted"

    def _flip(self, line: str, n: int, edges, case: Case) -> str:
        """Flip labels, in seeded random vertex order, until the partition
        is invalid; flipping one vertex can leave every balance in range."""
        rng = random.Random(case.inputs["flip_seed"])
        labels = list(line)
        for v in rng.sample(range(n), min(n, 64)):
            labels[v] = "1" if labels[v] == "0" else "0"
            flipped = "".join(labels)
            if oracles.violators(n, edges, flipped, MODE[case.kind]):
                return flipped
        raise RuntimeError(f"case {case.cid}: no flip made the partition invalid")

    def verify(self, case):
        task = case.inputs["task"]
        if task == "neg-lift":
            return
        base = case.inputs["out"] / (case.cid if task == "lift" else case.inputs["of"])
        n, edges = oracles.read_graph(Path(f"{base}.graph"))
        mode = MODE[case.kind]
        if task == "neg-check":
            bad = oracles.violators(n, edges, case.out["flipped"], mode)
            expect(bad == case.out["listed"], case, f"check listed {case.out['listed'][:10]}, violators are {bad[:10]}")
            return
        bad = oracles.violators(n, edges, case.out["partition"], mode)
        expect(not bad, case, f"lifted partition violates balance at {bad[:10]}")
        planted = case.inputs["planted"]
        expect(case.out["assignment"] == "".join(map(str, planted)), case, "extract did not return the lifted assignment")
        expect(oracles.nae_satisfied(case.inputs["n_vars"], case.inputs["clauses"], planted), case, "planted assignment does not satisfy")


WORKLOADS = {w.name: w for w in (SolveSat, SolveUnsat, Biregular, LiftScale)}
