"""Spans around the calls into each ``lb2p`` module, recorded from outside.

Each public function is replaced, while tracing is on, where its caller
looks it up: ``lb2p.cli.decide`` is the name ``cli`` calls, and
``lb2p.biregular.kk1_factor`` the name ``solve_biregular`` calls.  Spans
therefore nest the way the calls do, and a layer's self time is its span
minus its child spans.  Every span carries the id of the case it ran in.
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from cases import WallCap

# (owner, attribute, layer).  An owner is a module, or "module:Class".
TARGETS = (
    ("lb2p.cli", "main", "cli.self"),
    ("lb2p.cli", "decide", "solver.decide"),
    ("lb2p.cli", "check", "balance.check"),
    ("lb2p.cli", "parse_partition", "balance.parse_partition"),
    ("lb2p.cli", "solve_biregular", "biregular.solve_biregular"),
    ("lb2p.cli", "classify", "graphs.classify"),
    ("lb2p.cli", "parse_graph", "graphs.parse_graph"),
    ("lb2p.cli", "parse_nae", "nae.parse_nae"),
    ("lb2p.cli", "parse_assignment", "reductions.parse_assignment"),
    ("lb2p.cli", "assignment_to_partition", "reductions.lift"),
    ("lb2p.cli", "partition_to_assignment", "reductions.extract"),
    ("lb2p.cli", "read_artifact", "reductions.read_artifact"),
    ("lb2p.cli", "write_artifact", "reductions.write_artifact"),
    ("lb2p.reductions", "reduce_open_biregular", "reductions.reduce_bireg"),
    ("lb2p.reductions", "reduce_open_even", "reductions.reduce_even"),
    ("lb2p.reductions", "reduce_closed_subcubic", "reductions.reduce_subcubic"),
    ("lb2p.reductions", "reduce_closed_odd", "reductions.reduce_odd"),
    ("lb2p.reductions", "check", "balance.check"),
    ("lb2p.reductions", "classify", "graphs.classify"),
    ("lb2p.reductions", "bipartition", "graphs.bipartition"),
    ("lb2p.reductions", "parse_graph", "graphs.parse_graph"),
    ("lb2p.reductions", "serialize_graph", "graphs.serialize_graph"),
    ("lb2p.reductions", "ensure_verified", "gadgets.ensure_verified"),
    ("lb2p.gadgets", "ensure_verified", "gadgets.ensure_verified"),
    ("lb2p.solver", "check", "balance.check"),
    ("lb2p.biregular", "validate_2odd_biregular", "biregular.validate"),
    ("lb2p.biregular", "build_reduced", "biregular.build_reduced"),
    ("lb2p.biregular", "kk1_factor", "biregular.kk1_factor"),
    ("lb2p.biregular", "extract_cycle_2mod4", "biregular.extract_cycle"),
    ("lb2p.biregular", "check", "balance.check"),
    ("lb2p.biregular", "bfs_distances", "graphs.bfs_distances"),
    ("lb2p.biregular", "connected_components", "graphs.connected_components"),
    ("lb2p.graphs:Graph", "from_edges", "graphs.from_edges"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))
COUNTERS = ("nodes", "propagations", "decide_calls", "timeouts", "decided", "wall_cap_hits")


def _owner(spec: str) -> Any:
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers and keeps spans and per-case totals in memory."""

    def __init__(self) -> None:
        self.targets = []
        for spec, attr, layer in TARGETS:
            owner = _owner(spec)
            self.targets.append((owner, attr, layer, owner.__dict__[attr]))
        self.spans: list[tuple] = []  # (id, parent id, case, layer, start, end)
        self.layer_totals: dict[str, dict[str, list[float]]] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []
        self._case = "setup"
        self._next_id = 0

    def install(self) -> None:
        for owner, attr, layer, original in self.targets:
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(original.__func__, layer)))
            else:
                setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, _, original in self.targets:
            setattr(owner, attr, original)

    def installed(self) -> bool:
        return any(owner.__dict__[attr] is not original for owner, attr, _, original in self.targets)

    def begin(self, case_id: str) -> None:
        self._case = case_id
        self.layer_totals[case_id] = defaultdict(lambda: [0.0, 0])
        self.counters[case_id] = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        def traced(*args, **kwargs):
            return self._span(layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _span(self, layer: str, fn: Callable, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]  # id, time covered by child spans
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except WallCap as cap:
            if not cap.args:  # the innermost span names the layer the cap hit
                cap.args = (layer,)
                self._count("wall_cap_hits", layer.startswith("biregular."))
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            totals = self.layer_totals.setdefault(self._case, defaultdict(lambda: [0.0, 0]))[layer]
            totals[0] += duration - frame[1]
            totals[1] += 1
            self.spans.append((span_id, parent, self._case, layer, start, end))
        if layer == "solver.decide":
            self._count("decide_calls", 1)
            self._count("nodes", result.nodes)
            self._count("propagations", result.propagations)
            self._count("timeouts", result.status == "timeout")
            self._count("decided", result.status != "timeout")
        return result

    def _count(self, name: str, amount: int) -> None:
        self.counters.setdefault(self._case, dict.fromkeys(COUNTERS, 0))[name] += int(amount)
