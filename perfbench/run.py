"""Seeded end-to-end benchmark of the ``lb2p`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``lb2p`` from
``src`` and exits 2 without a result when that is missing.

Load: a closed loop with one client.  One process runs one case at a time,
calling ``lb2p.cli.main`` in-process with argv lists, with BLAS threads
pinned to 1.  Every run is a fresh process, so per-process state (the
gadget verification cache, the recursion limit ``decide`` and
``kk1_factor`` raise) cannot leak between workloads.  The workload seed is
an argument of the benchmark; the program sees only the generated files.

A run plays the workload's fixed number of rounds (a fixed case list drawn
from the seed and the round number), sized so that a run at the commit that
added the benchmark takes about ``--seconds``.  A seed therefore fixes the
exact set of cases on every commit.  As a safety stop, no round starts once
``SAFETY`` x ``--seconds`` have passed; the rounds run and planned are in
the environment stamp.  Then every answer is checked with the independent
oracles in ``oracles.py``.  A wrong answer makes the run print
``"correct": false`` and exit 1.

``--trace 0`` reports the end-to-end metrics, with tracing off:

    setup_s         median over 7 fresh processes of importing lb2p and
                    verifying the gadget contracts (the one-time work)
    wall_s          CLI time of all the run's timed cases
    verified_per_s  cases ending with an independently verified answer, per
                    second of wall_s
    case_p50_s, case_p90_s
                    per-case latency over the run's timed cases (the sample
                    count is printed)
    ok_ratio        1 - failed/attempted
    peak_rss_mb     peak RSS of the run's process after its timed rounds,
                    before the oracle checks

A timed case is one that ended by itself: with an answer, with the node
budget's TIMEOUT, or with a bad exit code.  A case stopped by the wall cap
is a failure in ``ok_ratio`` and a row with status ``wallcap``, but its time
is the cap, a constant of the benchmark, so it enters no time metric.

Only the CLI calls are timed, not the benchmark's input generation and
checks between them, so ``wall_s`` is less than the run's elapsed time.

``--trace 1`` runs every round twice, untraced and traced (alternating
which goes first), and reports the per-layer metrics of the traced passes
plus the tracing overhead.  Per-layer times are medians over rounds of the
per-round self time; counts come from round 0, which the seed fixes, so
solver counters repeat exactly from run to run.

Rows (one per case), the environment stamp and, when tracing, the spans are
written under ``.perfbench/results``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe
from cases import Case, Runner, WrongAnswer
from tracer import COUNTERS, LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7  # fresh processes timed for setup_s
SAFETY = 3  # no round starts after SAFETY x --seconds

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verified_per_s": "1/s",
    "case_p50_s": "s",
    "case_p90_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def setup_probe_samples(count: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return samples


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def run_rounds(workload, runner, tracer, seconds: float, work: Path) -> list[dict]:
    """The workload's rounds, each run to the end; the safety stop starts no
    round after ``SAFETY * seconds``."""
    rounds: list[dict] = []
    start = perf_counter()
    for rnd in range(workload.rounds):
        if rnd and perf_counter() - start > SAFETY * seconds:
            break
        indir = work / f"r{rnd}"
        indir.mkdir(parents=True)
        specs = workload.generate(rnd, indir)
        entry: dict = {"index": rnd, "passes": {}}
        rounds.append(entry)
        for traced in ([False] if tracer is None else [rnd % 2 == 1, rnd % 2 == 0]):
            outdir = indir / ("traced" if traced else "plain")
            outdir.mkdir()
            cases = [Case(cid, kind, {**inputs, "out": outdir}) for cid, kind, inputs in specs]
            entry["passes"][traced] = cases
            if traced:
                tracer.install()
            try:
                for case in cases:
                    if traced:
                        tracer.begin(case.cid)
                    runner.execute(case, workload.run, workload.cap(case))
                    if traced and tracer.counters[case.cid]["decide_calls"]:
                        case.nodes = tracer.counters[case.cid]["nodes"]
            finally:
                if traced:
                    tracer.uninstall()
    return rounds


def end_to_end(rounds: list[dict], setup: list[float], rss_mb: float) -> dict[str, dict]:
    cases = [c for entry in rounds for c in entry["passes"][False]]
    times = [c.seconds for c in cases if c.status != "wallcap"]
    ok = sum(not c.failed for c in cases)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times),
        "verified_per_s": ok / sum(times),
        "case_p50_s": statistics.median(times),
        "case_p90_s": statistics.quantiles(times, n=10)[8],
        "ok_ratio": ok / len(cases),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(rounds: list[dict], tracer) -> dict[str, dict]:
    traced = [entry["passes"][True] for entry in rounds]
    per_round = []
    for cases in traced:
        layers = {layer: [0.0, 0] for layer in LAYERS}
        counts = dict.fromkeys(COUNTERS, 0)
        for case in cases:
            for layer, (self_s, calls) in tracer.layer_totals[case.cid].items():
                layers[layer][0] += self_s
                layers[layer][1] += calls
            for name, value in tracer.counters[case.cid].items():
                counts[name] += value
        per_round.append((layers, counts))
    first_layers, first = per_round[0]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = (statistics.median(r[0][layer][0] for r in per_round), "s")
        out[f"{layer}_calls"] = (first_layers[layer][1], "count")
    decide_s = first_layers["solver.decide"][0]
    out["solver.nodes"] = (first["nodes"], "count")
    out["solver.propagations"] = (first["propagations"], "count")
    out["solver.nodes_per_s"] = (first["nodes"] / decide_s if decide_s else 0.0, "1/s")
    out["solver.timeouts"] = (first["timeouts"], "count")
    out["solver.decided_ratio"] = (first["decided"] / first["decide_calls"] if first["decide_calls"] else 0.0, "ratio")
    out["biregular.wall_cap_hits"] = (first["wall_cap_hits"], "count")
    setup = tracer.layer_totals.get("setup", {}).get("gadgets.ensure_verified", [0.0, 0])
    out["gadgets.ensure_verified_setup_s"] = (setup[0], "s")
    overhead = [
        sum(c.seconds for c in entry["passes"][True]) - sum(c.seconds for c in entry["passes"][False])
        for entry in rounds
    ]
    out["trace.overhead_s"] = (statistics.median(overhead), "s")
    cases = [c for entry in rounds for cs in entry["passes"].values() for c in cs]
    out["fail_ratio"] = (sum(c.failed for c in cases) / len(cases), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of the lb2p CLI.")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lb2p" / "cli.py").is_file():
        print(f"perfbench: no lb2p sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cli = probe.import_lb2p()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probe.verify_gadgets()
    if tracer:
        tracer.uninstall()
    setup = [] if tracer else setup_probe_samples(SETUP_PROBES)

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"work-{os.getpid()}"
    rounds: list[dict] = []
    wrong = None
    try:
        rounds = run_rounds(workload, Runner(cli), tracer, args.seconds, work)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for entry in rounds:
            for cases in entry["passes"].values():
                for case in cases:
                    if not case.failed:
                        workload.verify(case)
    except WrongAnswer as exc:
        wrong = str(exc)
        print(f"perfbench: wrong answer: {wrong}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if rounds and len(rounds) < workload.rounds:
        print(f"perfbench: safety stop after {len(rounds)} of {workload.rounds} rounds", file=sys.stderr)
    cases = [
        (entry["index"], traced, c)
        for entry in rounds for traced, cs in entry["passes"].items() for c in cs
    ]
    attempted = len(cases)
    failed = sum(c.failed for _, _, c in cases)
    metrics: dict = {}
    if wrong is None:
        metrics = per_layer(rounds, tracer) if tracer else end_to_end(rounds, setup, rss_mb)

    import networkx
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process, BLAS threads 1",
        **workload.stamp(),
        "rounds": len(rounds),
        "rounds_planned": workload.rounds,
        "safety_stop": len(rounds) < workload.rounds,
        "setup_samples_s": setup,
    }
    if tracer and "trace.overhead_s" in metrics:
        env["tracing_overhead_s"] = metrics["trace.overhead_s"]["value"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rows = [c.row(args.workload, traced, rnd) for rnd, traced, c in cases]
    (results / f"{stem}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "rows": rows}, indent=1) + "\n"
    )
    if tracer:
        with open(results / f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    timed = [c for _, traced, c in cases if not traced and c.status != "wallcap"]
    print("# env " + json.dumps(env))
    if timed:
        print(f"# {len(timed)} timed untraced cases; {len(timed) - int(0.9 * len(timed))} samples at or beyond p90")
    result = {"correct": wrong is None, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if wrong is None else 1


if __name__ == "__main__":
    sys.exit(main())
