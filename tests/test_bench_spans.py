"""The benchmark's span tracer must find every name it wraps in the package.

`bench/spans.py` patches package functions and methods by name; a rename in
the package would otherwise only surface when a traced benchmark run fails.
The file is read, not edited.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

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
