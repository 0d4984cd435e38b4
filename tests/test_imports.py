"""Every module of the package uses each name it imports, so a deleted helper
cannot live on as a stale import.  ``__init__.py`` re-exports, so it is exempt.

Every public name has a caller in the package besides its own definition, or is
one that the benchmark's tracer wraps, so the surface holds what the commands run.
"""

import ast
from pathlib import Path

import pytest

import tdt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdt"
SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a plain name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import Iterable, Sequence\n"
        "def f(x: Sequence) -> int:\n    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _read_names(node: ast.AST) -> set[str]:
    """Names read inside a statement, as a plain name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


# module -> each top-level statement's (defined names, read names), __init__.py aside
STATEMENTS = {
    path.stem: [(_defined(node), _read_names(node))
                for node in ast.parse(path.read_text(encoding="utf-8")).body]
    for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
}


def _spanned() -> set[str]:
    """The function names that perfbench/spans.py's ``SPANNED`` table wraps."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if "SPANNED" in _defined(node):
            return {name for _, name in ast.literal_eval(node.value)}
    raise AssertionError(f"no SPANNED table in {SPANS}")


def test_read_names_skip_the_definition_but_not_other_reads():
    source = "def f():\n    return g.h(f)\nX = f\n"
    (f_defined, f_reads), (x_defined, x_reads) = [
        (_defined(node), _read_names(node)) for node in ast.parse(source).body
    ]
    assert (f_defined, x_defined) == ({"f"}, {"X"})
    assert f_reads == {"g", "h", "f"} and x_reads == {"X", "f"}


@pytest.mark.parametrize("name", sorted(tdt._MODULE_OF))
def test_public_name_is_reached_outside_its_definition(name):
    own = tdt._MODULE_OF[name]
    callers = [
        module for module, statements in STATEMENTS.items()
        for defined, reads in statements
        if name in reads and not (module == own and name in defined)
    ]
    assert callers or name in _spanned(), f"no module but __init__.py reaches {own}.{name}"
