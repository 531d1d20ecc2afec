"""Every module-level import of gpelab's modules is used: each name that an
import binds in src/gpelab/*.py (but __init__.py, which only re-exports) is
read somewhere in that module or listed in its __all__.  `from __future__`
imports are exempt.  This reads the sources and runs nothing."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gpelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound(node):
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        return [a.asname or a.name for a in node.names]
    return [a.asname or a.name.partition(".")[0] for a in node.names]


def _exported(tree):
    """The strings of the module's __all__ list, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = read | _exported(tree)
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound(node) if name not in keep]
    assert unused == []
