"""Static checks of the package source: no unused imports, a resolvable ``__all__``."""

import ast
from pathlib import Path

import storagesddp as s

PACKAGE = Path(s.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A read is a ``Name`` node anywhere in the module (attribute chains start
    with one) or a name inside a string annotation.  ``from __future__``
    imports are compiler directives and never count.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        else:
            # return annotations of functions, annotations of arguments and
            # annotated assignments
            ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                expr = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_finds_unused_and_ignores_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return osp.join(dumps(x))\n"
    )
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


def test_package_modules_have_no_unused_imports():
    # __init__ imports only to re-export; its names are checked below
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_every_exported_name_resolves():
    missing = [name for name in s.__all__ if not hasattr(s, name)]
    assert missing == []
    assert len(set(s.__all__)) == len(s.__all__)
