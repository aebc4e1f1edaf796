"""The names the benchmark's tracer wraps stay bound where it looks them up.

``perfbench/tracer.py`` replaces each (owner, attribute) of its ``TARGETS``
in the owner's ``__dict__``, so a rename or a removal in ``lb2p`` breaks the
benchmark's ``--trace`` runs.  ``TARGETS`` is read from the file's source,
without importing the benchmark.
"""

import ast
import importlib
import random
from pathlib import Path

import pytest

import lb2p.biregular
from helpers import bipartite_witness_graph, complete, subdivide
from lb2p import Certificate, Witness, solve_biregular

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("spec,attr,layer", _targets())
def test_every_tracer_target_resolves(spec, attr, layer):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert attr in owner.__dict__, (spec, attr, layer)
    assert callable(getattr(owner, attr))


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(lb2p.biregular, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lb2p.biregular, name, wrapper)
    return calls


def test_solve_biregular_calls_the_traced_names(monkeypatch):
    """The witness path goes through ``lb2p.biregular.build_reduced`` and
    ``kk1_factor`` once each, as the tracer's spans count them; the
    certificate path calls neither."""
    calls = _count_calls(monkeypatch, ("build_reduced", "kk1_factor"))
    assert isinstance(solve_biregular(bipartite_witness_graph(20, 5, random.Random(3))), Witness)
    assert calls == {"build_reduced": 1, "kk1_factor": 1}
    assert isinstance(solve_biregular(subdivide(complete(4))), Certificate)
    assert calls == {"build_reduced": 1, "kk1_factor": 1}
