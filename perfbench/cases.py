"""One case = one user task: a chain of ``lb2p`` CLI calls on one input.

Each call goes through ``lb2p.cli.main`` in this process with an argv list,
exactly as a user would type it, with stdout and stderr captured.  A case's
time is the sum of its CLI calls; the benchmark's own file handling between
calls is not timed.

Outcomes:

* failure (counted in ``failed``): ``TIMEOUT`` (exit 3), the wall cap, an
  exit code outside 0/1/2/3, or an exception escaping ``main``;
* wrong answer (``WrongAnswer``): any other exit code or output than the
  one expected.  It aborts the benchmark.
"""

from __future__ import annotations

import io
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional


class WallCap(BaseException):
    """Raised by SIGALRM when a case outlives its wall cap.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class CaseFailure(Exception):
    """The case ended without a definitive answer; ``reason`` names why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


@dataclass
class Case:
    cid: str
    kind: str
    inputs: dict[str, Any]
    n: int = 0
    m: int = 0
    status: str = ""
    exit_code: Optional[int] = None
    seconds: float = 0.0
    failed: bool = False
    nodes: Optional[int] = None
    out: dict[str, Any] = field(default_factory=dict)

    def row(self, workload: str, traced: bool, rnd: int) -> dict[str, Any]:
        return {
            "workload": workload,
            "traced": traced,
            "round": rnd,
            "case": self.cid,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "status": self.status,
            "exit_code": self.exit_code,
            "seconds": self.seconds,
            "nodes": self.nodes,
        }


def expect(condition: bool, case: Case, what: str) -> None:
    if not condition:
        raise WrongAnswer(f"case {case.cid} ({case.kind}): {what}")


def _on_alarm(signum, frame):
    raise WallCap()


class Runner:
    """Calls ``cli.main`` for the cases of one pass and applies wall caps."""

    def __init__(self, cli_module):
        self.cli = cli_module
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, case: Case, argv: list[str]) -> tuple[int, str, str]:
        """Run one CLI call; returns (exit code, stdout, stderr).

        Audits the exit code against the 0/1/2/3 contract and turns exit 3
        into a TIMEOUT failure.
        """
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:
            raise CaseFailure(f"exception:{type(exc).__name__}") from exc
        finally:
            case.seconds += perf_counter() - start
        case.exit_code = rc
        if rc not in (0, 1, 2, 3):
            raise CaseFailure("exit-code")
        if rc == 3:
            expect(out.getvalue() == "TIMEOUT\n", case, f"exit 3 with output {out.getvalue()!r}")
            raise CaseFailure("timeout")
        return rc, out.getvalue(), err.getvalue()

    def execute(self, case: Case, chain: Callable[["Runner", Case], str], cap: float) -> None:
        """Run ``chain`` under a wall cap of ``cap`` seconds and record the
        outcome on the case.  WrongAnswer propagates."""
        case.seconds = 0.0
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                case.status = chain(self, case)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except WallCap:
            case.status, case.failed = "wallcap", True
        except CaseFailure as failure:
            case.status, case.failed = failure.reason, True
