"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

They check that one seed gives byte-identical inputs, that generated
formulas are valid NAE-3-SAT-E4 instances that their planted assignments
satisfy, that tracing leaves no wrapper behind, that a short run of every
workload succeeds with and without tracing, and that the benchmark refuses
to run without the program's sources.  The short runs take about a minute.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from cases import Runner  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, solved_block_union  # noqa: E402

from lb2p.nae import NaeInstance, brute_sat, nae_eval, parse_nae  # noqa: E402


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                a = fresh(SCRATCH / "a" / name)
                b = fresh(SCRATCH / "b" / name)
                c = fresh(SCRATCH / "c" / name)
                workload(7).generate(1, a)
                workload(7).generate(1, b)
                workload(8).generate(1, c)
                self.assertTrue(files(a))
                self.assertEqual(files(a), files(b))
                self.assertNotEqual(files(a), files(c))

    def test_generated_formulas_are_valid_nae_e4(self):
        for name, workload in WORKLOADS.items():
            indir = fresh(SCRATCH / "formulas" / name)
            for _, _, inputs in workload(3).generate(0, indir):
                if "formula" in inputs:
                    inst = parse_nae(inputs["formula"].read_text(encoding="ascii"))
                    self.assertEqual(inst.n, inputs["n_vars"])
                    self.assertEqual(inst, NaeInstance.from_clauses(inst.n, inputs["clauses"]))

    def test_planted_assignments_satisfy(self):
        rng = random.Random(5)
        for n in (6, 9, 48, 96):
            planted = gen.balanced_assignment(n, rng)
            inst = NaeInstance.from_clauses(n, gen.nae_formula(n, rng, planted))
            self.assertTrue(nae_eval(inst, planted))
        clauses, planted = solved_block_union(300, rng)
        self.assertTrue(nae_eval(NaeInstance.from_clauses(300, clauses), planted))
        indir = fresh(SCRATCH / "planted")
        for _, _, inputs in WORKLOADS["solve-sat"](4).generate(0, indir):
            inst = NaeInstance.from_clauses(inputs["n_vars"], inputs["clauses"])
            self.assertTrue(nae_eval(inst, inputs["planted"]))

    def test_unsat_blocks_are_unsat(self):
        indir = fresh(SCRATCH / "unsat")
        for _, _, inputs in WORKLOADS["solve-unsat"](4).generate(0, indir):
            if "unsat_block" in inputs:
                self.assertIsNone(brute_sat(NaeInstance.from_clauses(9, inputs["unsat_block"])))


class Tracing(unittest.TestCase):
    def test_wrappers_are_gone_after_a_traced_round(self):
        cli = probe.import_lb2p()
        tracer = Tracer()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.targets]
        workload = WORKLOADS["solve-sat"](1)
        work = fresh(SCRATCH / "traced")
        with redirect_stdout(io.StringIO()):
            rounds = run.run_rounds(workload, Runner(cli), tracer, 0.0, work)
        self.assertEqual(len(rounds), 1)
        self.assertFalse(tracer.installed())
        for owner, attr, original in originals:
            self.assertIs(owner.__dict__[attr], original)
        spans = {span[0]: span for span in tracer.spans}
        nested = [s for s in tracer.spans if s[1] is not None]
        self.assertTrue(nested)
        for span in nested:
            parent = spans[span[1]]
            self.assertEqual(parent[2], span[2])  # same case id
            self.assertLessEqual(parent[4], span[4])
            self.assertLessEqual(span[5], parent[5])


class Runs(unittest.TestCase):
    def bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_short_run_of_every_workload(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            for workload in spec["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    done = self.bench(
                        ROOT, "--workload", workload["name"], "--seed", "1",
                        "--seconds", "1", "--trace", str(trace),
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_refuses_without_program_sources(self):
        bare = fresh(SCRATCH / "bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = self.bench(bare, "--workload", "solve-sat", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
