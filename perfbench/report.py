"""Run every workload untraced and traced, each run in a fresh process, and
print every end-to-end and per-layer metric with its unit.

    python3 perfbench/report.py [--seed N]

Each run gets the ``run_seconds`` of ``BENCHMARK.json``.  Exits 1 if any run
fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:40s} {value['value']:12.6g} {value['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
