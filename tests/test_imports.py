"""Import hygiene of the package: no module imports a name it never reads.

Every request process compiles the package from source when bytecode is
not written, so an import nothing reads costs each request its compile
time and, for a module import, its load.  The scan reads each module's
syntax tree: a name bound by ``import`` or ``from ... import`` must
appear somewhere in the module as a name that is read.  ``__future__``
imports and imports marked ``# noqa: F401`` (kept for their side
effect) are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliffbundle"


def unread_imports(source: str) -> list:
    """The names that source binds by import and never reads, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from math import gcd, lcm\n"
              "from . import side  # noqa: F401\n"
              "def f(x: lcm):\n    return os.sep\n")
    assert unread_imports(source) == ["regex", "gcd"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
