"""The benchmark's span tracer must find every name it wraps in the package.

`bench/spans.py` patches package functions and methods by name and reads
policies through their public attributes; a rename in the package would
otherwise only surface when a traced benchmark run fails.  A traced toy
training checks the whole round trip.  The file is read, not edited.
"""

import dataclasses
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import storagesddp as s
from storagesddp.stage_solver import TerminalSolution

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(spans):
    for mod_name, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_traced_methods_resolve(spans):
    for mod_name, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__[attr]), (mod_name, cls_name, attr)


def test_terminal_solution_reports_passes():
    # the tracer reads len(sol.gaps) of every terminal solve
    assert "gaps" in {f.name for f in dataclasses.fields(TerminalSolution)}


def traced_objects(spans):
    """Every (owner, name) -> object binding the tracer patches."""
    found = {}
    package = [m for n, m in list(sys.modules.items()) if n.startswith("storagesddp")]
    for mod_name, attr, _ in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(mod_name), attr)
        for module in package:
            for key, value in vars(module).items():
                if value is fn:
                    found[(module.__name__, key)] = fn
    for mod_name, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        found[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return found


def test_traced_training_and_decision(spans, toy_problem, toy_chain):
    # what a traced benchmark run calls: install, train, decide, then the
    # per-layer metrics and the active-cut share
    before = traced_objects(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        policy, _ = s.train(toy_problem, toy_chain, 5, 0)
        policy.decide(1, 0, (0.0, 0.0))
    finally:
        tracer.uninstall()
    assert traced_objects(spans) == before
    assert tracer.policies == [policy]
    layers = tracer.layer_metrics(1)
    assert layers and all(math.isfinite(value) for value, _ in layers.values()), layers
    assert layers["stage_solver.solve.calls"][0] > 0
    assert 0.0 <= spans.active_cut_fraction([policy], n_paths=5) <= 1.0
