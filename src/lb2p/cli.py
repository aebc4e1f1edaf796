"""Command-line front end.

Exit codes: 0 definitive answer (SAT/UNSAT/VALID/PASS/CERT), 1 negative
verification (INVALID/FAIL/rejected input of a map), 2 usage or format
error (a graph too large to allocate included), 3 node budget exhausted.
Stdout is byte-deterministic for fixed inputs and flags; ``solve --stats``
adds one JSON line of search statistics on stderr and leaves stdout as is.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .balance import check, parse_partition
from .balance import parse_partition as parse_assignment  # lift's parse, traced by this name
from .biregular import Certificate, NotApplicable, solve_biregular
from .gadgets import gadget_f1, gadget_f2, gadget_f4, gadget_forcing, verify_contract
from .graphs import GraphFormatError, parse_graph
from .graphs import classify  # noqa: F401  (a layer that perfbench/tracer.py wraps here)
from .nae import NaeFormatError, parse_nae
from .reductions import (
    REDUCTION_NAMES,
    InvalidPartitionError,
    UnsatAssignmentError,
    artifact_paths,
    assignment_to_partition,
    partition_to_assignment,
    read_artifact,
    reduce_by_name,
    summary,
    write_artifact,
)
from .solver import DEFAULT_NODE_BUDGET, brute_force, decide

GRAPH_FORMAT = "graph file: header 'n m', then m lines 'u v' (0-based, simple)"
PARTITION_FORMAT = "partition file: one line of n characters from {0,1}"
ASSIGNMENT_FORMAT = "assignment file: one line of n characters from {0,1}, one per variable"
FORMULA_FORMAT = "formula file: header 'p nae3 n k', then k lines of 3 distinct 1-based variables"

GADGETS = {"f1": gadget_f1, "f2": gadget_f2, "forcing": gadget_forcing, "f4": gadget_f4}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _load_graph(path: str):
    return parse_graph(Path(path).read_text(encoding="ascii"))


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    partition = parse_partition(Path(args.partition).read_text(encoding="ascii"), g.n)
    bad = check(g, partition, args.mode)
    if bad:
        print("INVALID " + " ".join(str(v) for v in bad))
        return 1
    print("VALID")
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    start = time.perf_counter()
    if args.method == "brute":
        outcome = brute_force(g, args.mode)
    else:
        outcome = decide(g, args.mode, node_budget=args.budget)
    if args.stats:
        import json  # only here, so that runs without --stats do not import it

        fields = ("status", "nodes", "propagations", "conflicts", "probes", "components")
        stats = {field: getattr(outcome, field) for field in fields}
        stats["seconds"] = round(time.perf_counter() - start, 6)
        print(json.dumps(stats), file=sys.stderr)
    if outcome.status == "timeout":
        print("TIMEOUT")
        return 3
    if outcome.status == "unsat":
        print("UNSAT")
        return 0
    print("SAT")
    print(outcome.witness.to_line())
    return 0


def _cmd_biregular(args) -> int:
    g = _load_graph(args.graph)
    result = solve_biregular(g)
    if isinstance(result, NotApplicable):
        print(f"NOTAPPLICABLE {result.reason}")
        return 2
    if isinstance(result, Certificate):
        print("CERT")
        print(" ".join(str(v) for v in result.cycle.vertices))
        return 0
    print("SAT")  # the one remaining result type, a Witness
    print(result.partition.to_line())
    return 0


def _cmd_reduce(args) -> int:
    inst = parse_nae(args.formula.read_text(encoding="ascii"))
    base = Path(args.out) if args.out else args.formula.with_suffix("")
    for path in artifact_paths(base):
        if path.resolve() == args.formula.resolve():
            raise ValueError(f"{path} would overwrite the formula it is reduced from")
    artifact = reduce_by_name(args.target, inst, args.r)
    graph_path, roles_path = write_artifact(artifact, base)
    print(summary(artifact))
    print(f"wrote {graph_path} {roles_path}")
    return 0


def _cmd_lift(args) -> int:
    inputs = {Path(path).resolve() for path in (*artifact_paths(args.base), args.assignment)}
    if args.out and Path(args.out).resolve() in inputs:
        raise ValueError(f"{args.out} would overwrite an input of the lift")
    artifact = read_artifact(args.base)
    assignment = parse_assignment(Path(args.assignment).read_text(encoding="ascii"), artifact.n_vars).labels
    try:
        partition = assignment_to_partition(artifact, assignment)
    except UnsatAssignmentError as exc:
        print(f"UNSATASSIGNMENT {exc}", file=sys.stderr)
        return 1
    line = partition.to_line()
    if args.out:
        Path(args.out).write_text(line + "\n", encoding="ascii")
    print(line)
    return 0


def _cmd_extract(args) -> int:
    artifact = read_artifact(args.base)
    partition = parse_partition(Path(args.partition).read_text(encoding="ascii"), artifact.graph.n)
    try:
        assignment = partition_to_assignment(artifact, partition)
    except InvalidPartitionError as exc:
        print(f"INVALIDPARTITION {exc}", file=sys.stderr)
        return 1
    print("".join(str(x) for x in assignment))
    return 0


def _cmd_gadget(args) -> int:
    report = verify_contract(GADGETS[args.name]())
    if report.passed:
        print("PASS")
        return 0
    print(f"FAIL {report.failure}")
    if report.counterexample is not None:
        print("".join(str(x) for x in report.counterexample))
    return 1


@cache  # built on the first call, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lb2p",
        description="Locally-balanced 2-partition toolkit.",
        epilog="; ".join([GRAPH_FORMAT, PARTITION_FORMAT, ASSIGNMENT_FORMAT, FORMULA_FORMAT]),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a partition file against a graph")
    p.add_argument("--mode", choices=("open", "closed"), required=True)
    p.add_argument("graph", help=GRAPH_FORMAT)
    p.add_argument("partition", help=PARTITION_FORMAT)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="decide existence and print a witness")
    p.add_argument("--mode", choices=("open", "closed"), required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET, help="search node budget (> 0)"
    )
    p.add_argument(
        "--stats", action="store_true", help="print search statistics as one JSON line on stderr"
    )
    p.add_argument("graph", help=GRAPH_FORMAT)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "biregular",
        help="witness partition or 2-mod-4 cycle certificate for degree-(2,odd) bipartite graphs",
    )
    p.add_argument("graph", help=GRAPH_FORMAT)
    p.set_defaults(func=_cmd_biregular)

    p = sub.add_parser("reduce", help="build a reduction graph plus role-map sidecar")
    p.add_argument("--target", choices=REDUCTION_NAMES, required=True)
    p.add_argument("--r", type=int, default=1, help="half-width of clause blocks (bireg only)")
    p.add_argument("--out", help="output base path (default: formula path without extension)")
    p.add_argument("formula", type=Path, help=FORMULA_FORMAT)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lift", help="map a satisfying assignment to a valid partition")
    p.add_argument("--out", help="also write the partition to this file")
    p.add_argument("base", help="artifact base path (expects BASE.graph and BASE.roles)")
    p.add_argument("assignment", help=ASSIGNMENT_FORMAT)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("extract", help="map a valid partition back to an assignment")
    p.add_argument("base", help="artifact base path (expects BASE.graph and BASE.roles)")
    p.add_argument("partition", help=PARTITION_FORMAT)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("gadget", help="gadget utilities")
    gsub = p.add_subparsers(dest="gadget_command", required=True)
    pv = gsub.add_parser("verify", help="machine-check a gadget contract")
    pv.add_argument("--name", choices=tuple(GADGETS), required=True)
    pv.set_defaults(func=_cmd_gadget)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (GraphFormatError, NaeFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
