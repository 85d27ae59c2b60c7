"""Static checks of the package source.

No unused imports, no unreferenced private names, no error class that package
code never raises, catches or subclasses, no dataclass field that nothing
reads, no function parameter that its function never reads, a resolvable
``__all__`` whose every name the pipeline uses, and no public method of an
exported class that only tests call.
"""

import ast
from pathlib import Path

import storagesddp as s

PACKAGE = Path(s.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads: ``Name`` loads and names in string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        else:
            # return annotations of functions, annotations of arguments and
            # annotated assignments
            ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                expr = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A read is a ``Name`` node anywhere in the module (attribute chains start
    with one) or a name inside a string annotation.  ``from __future__``
    imports are compiler directives and never count.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that nothing references.

    ``sources`` maps module names to their source.  A private name defined
    at the top level of a module counts as referenced when that module reads
    it, another module imports it from there by name, or any module reads
    an attribute of that name.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    imported: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                imported.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = []
    for module, tree in trees.items():
        defined: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, node.lineno) for name in targets if _is_private(name))
        read = names_read(tree)
        unused += [
            f"{module}.{name} (line {line})"
            for name, line in defined.items()
            if name not in read and (module, name) not in imported and name not in attributes
        ]
    return sorted(unused)


def _named(expr: ast.AST) -> set[str]:
    """Names and attribute names in an expression: ``X`` and ``errors.X`` give ``X``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(expr)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def error_uses(source: str) -> set[str]:
    """Names a module raises, catches or subclasses.

    A raise counts the raised class (or the callable that builds it), not
    its arguments; an ``except`` counts every class it names.
    """
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            used |= _named(exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            used |= _named(node.type)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                used |= _named(base)
    return used


def dataclass_fields(source: str) -> list[str]:
    """``Class.field`` of every annotated field in a module's dataclasses."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in _named(d) for d in node.decorator_list
        ):
            fields += [
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def attributes_read(source: str) -> set[str]:
    """Names of every attribute a module loads (``x.name`` read, not assigned)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_parameters(source: str) -> list[str]:
    """``function.parameter (line n)`` of every parameter its function never reads.

    A read is a ``Name`` load anywhere in the function, nested functions
    included.  ``self`` and ``cls`` are left out: a method need not use its
    instance.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
            read = {
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{name}.{p.arg} (line {node.lineno})"
                for p in params
                if p.arg not in ("self", "cls", *read)
            ]
    return sorted(unread)


def span_rows(source: str, *tables: str) -> list[tuple]:
    """The rows of a span map's ``tables`` (``FUNCTIONS``, ``METHODS``), read as literals."""
    rows: list[tuple] = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in tables for t in node.targets
        ):
            rows += ast.literal_eval(node.value)
    return rows


def traced_names(source: str) -> set[str]:
    """Names a span map traces: entry 1 of every ``FUNCTIONS`` and ``METHODS`` row."""
    return {row[1] for row in span_rows(source, "FUNCTIONS", "METHODS")}


def unused_exports(exported: list[str], sources: dict[str, str], traced: set[str]) -> list[str]:
    """Exported names that no module of ``sources`` reads and that are not ``traced``."""
    read = set(traced)
    for text in sources.values():
        read |= names_read(ast.parse(text))
    return sorted(name for name in exported if name not in read)


def traced_methods(source: str) -> set[str]:
    """Method names a span map traces: entry 2 of every ``METHODS`` row."""
    return {row[2] for row in span_rows(source, "METHODS")}


def public_methods(source: str, classes: set[str]) -> list[str]:
    """``Class.name`` of every public method and property of ``classes`` in a module.

    A name that starts with an underscore, dunders included, is not public.
    """
    return [
        f"{node.name}.{stmt.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name in classes
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
    ]


def unread_methods(methods: list[str], sources: list[str], traced: set[str]) -> list[str]:
    """The ``methods`` whose name no source loads as an attribute and that are not ``traced``."""
    read = set(traced)
    for text in sources:
        read |= attributes_read(text)
    return sorted(m for m in methods if m.split(".")[1] not in read)


def test_export_detector_on_synthetic_modules():
    spans = (
        "FUNCTIONS = (('pkg.b', 'h', 'b.h'),)\n"
        "METHODS = (('pkg.b', 'K', 'solve', 'b.solve'),)\n"
        "OTHER = (('pkg.b', 'unused', 'b.unused'),)\n"
    )
    assert traced_names(spans) == {"h", "K"}
    sources = {
        "a": "from .b import f, g\ndef run(x: 'G') -> None:\n    return f(x)\n",
        "b": "def f(x):\n    return x\ndef g():\n    pass\nclass G:\n    pass\n",
    }
    exported = ["G", "K", "f", "g", "h", "unused"]
    assert unused_exports(exported, sources, traced_names(spans)) == ["g", "unused"]


def test_every_exported_name_is_used_by_the_pipeline():
    # a public name that only tests read is surface without a use: it
    # belongs in the tests; the benchmark's span map counts as a reader
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    traced = traced_names((REPO / "bench" / "spans.py").read_text(encoding="utf-8"))
    assert unused_exports(s.__all__, sources, traced) == []


def test_method_detector_on_synthetic_modules():
    spans = "METHODS = (('pkg.b', 'K', 'solve', 'b.solve'),)\n"
    assert traced_methods(spans) == {"solve"}
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def solve(self):\n"
        "        pass\n"
        "    def used(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n\n"
        "    def _private(self):\n"
        "        pass\n"
        "class Hidden:\n"
        "    def hidden(self):\n"
        "        pass\n"
        "def f(k):\n"
        "    k.unused = None\n"
        "    return k.used(), k.size\n"
    )
    methods = public_methods(source, {"K"})
    assert methods == ["K.solve", "K.used", "K.unused", "K.size"]
    assert unread_methods(methods, [source], traced_methods(spans)) == ["K.unused"]


def test_every_public_method_is_read_by_the_pipeline():
    # a method or property of an exported class that only tests call is
    # surface without a use; the benchmark reads some, through attributes
    # or its span map, so bench/ counts as a reader
    exported = set(s.__all__)
    methods = [
        method
        for path in sorted(PACKAGE.glob("*.py"))
        for method in public_methods(path.read_text(encoding="utf-8"), exported)
    ]
    sources = [
        path.read_text(encoding="utf-8")
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(REPO.glob("bench/*.py"))]
    ]
    traced = traced_methods((REPO / "bench" / "spans.py").read_text(encoding="utf-8"))
    assert unread_methods(methods, sources, traced) == []


def test_error_use_detector_on_synthetic_module():
    source = (
        "from . import errors\n"
        "from .errors import AError, BError, CError, DError\n"
        "class Local(DError):\n"
        "    pass\n"
        "def f(x):\n"
        "    try:\n"
        "        g(BError)\n"
        "    except (errors.CError, KeyError):\n"
        "        raise AError(f'{x}')\n"
    )
    assert error_uses(source) >= {"AError", "CError", "DError", "KeyError"}
    assert "BError" not in error_uses(source)


def test_every_error_class_is_used_by_package_code():
    # an error class nothing outside errors.py raises, catches or subclasses
    # is dead: the oracles define the errors only they raise
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            used |= error_uses(path.read_text(encoding="utf-8"))
    assert sorted(classes - used) == []


def test_dataclass_field_detectors_on_synthetic_module():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: float = 0.0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    z: int\n"
        "class C:\n"
        "    w: int\n"
        "def f(a, b):\n"
        "    b.z = a.x\n"
    )
    assert dataclass_fields(source) == ["A.x", "A.y", "B.z"]
    assert attributes_read(source) == {"dataclass", "x"}


def test_every_dataclass_field_is_read():
    # a field that no package, test or benchmark code reads is carried for
    # nothing; each caller would still have to fill it in
    fields = [
        field
        for path in sorted(PACKAGE.glob("*.py"))
        for field in dataclass_fields(path.read_text(encoding="utf-8"))
    ]
    read = set()
    for path in [*PACKAGE.glob("*.py"), *REPO.glob("tests/*.py"), *REPO.glob("bench/*.py")]:
        read |= attributes_read(path.read_text(encoding="utf-8"))
    assert [f for f in fields if f.split(".")[1] not in read] == []


def test_unread_parameter_detector_on_synthetic_module():
    source = (
        "class A:\n"
        "    def m(self, x, y=0):\n"
        "        return x\n"
        "def f(a, *args, b, **kw):\n"
        "    def inner():\n"
        "        return a + b\n"
        "    args = ()\n"
        "    return inner()\n"
        "g = lambda u, v: u\n"
    )
    assert unread_parameters(source) == [
        "<lambda>.v (line 9)",
        "f.args (line 4)",
        "f.kw (line 4)",
        "m.y (line 2)",
    ]


def test_every_parameter_is_read():
    # a parameter its function never reads is an input the caller fills in
    # for nothing
    found = {
        path.name: unread_parameters(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: params for name, params in found.items() if params} == {}


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


def test_private_name_detector_on_synthetic_modules():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED = 2\n"
            "_A, _B = 3, 4\n"
            "def _helper():\n"
            "    return _USED + _A\n"
            "def _orphan():\n"
            "    _LOCAL = 5\n"
            "    return _LOCAL\n"
            "class _Box:\n"
            "    pass\n"
            "class _Shelf:\n"
            "    pass\n"
            "def public() -> '_Shelf':\n"
            "    return _helper()\n"
            "__all__ = ['public']\n"
        ),
        "b": "from .a import _B\nfrom . import a\ndef f():\n    return _B, a._Box\n",
    }
    assert unused_private_names(sources) == ["a._UNUSED (line 2)", "a._orphan (line 6)"]


def test_package_has_no_unused_private_names():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unused_private_names(sources) == []


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
