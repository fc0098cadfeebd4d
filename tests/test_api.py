"""The public API: every exported name has a caller inside the package."""

import ast
from pathlib import Path

import ellsurf

PACKAGE = Path(ellsurf.__file__).resolve().parent


def _names_used_in_package():
    """Loaded names and attribute names in every module but __init__.py."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    used = _names_used_in_package()
    dead = sorted(name for name in ellsurf.__all__ if name not in used)
    assert not dead, f"exported but used only by the tests: {dead}"
