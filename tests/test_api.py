"""The public API: every exported name has a caller inside the package.

Each exported name is resolved to the module that __init__.py imports it
from.  A caller is `from .m import n`, `alias.n` where `alias` is bound to
`.m` by `from . import m [as alias]`, or a load of `n` inside m itself.
An attribute of the same name on another module does not count.
"""

import ast
from pathlib import Path

import ellsurf

PACKAGE = Path(ellsurf.__file__).resolve().parent


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _exported_from():
    """{exported name: defining module}, from the relative imports of __init__.py."""
    out = {}
    for node in ast.walk(_parse(PACKAGE / "__init__.py")):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _calls_in_package():
    """{(module, name)} of every caller in the modules other than __init__.py."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        used.add((node.module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    used.add((modules[node.value.id], node.attr))
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_from()
    assert set(ellsurf.__all__) <= set(exported), "every export is imported by __init__.py"
    used = _calls_in_package()
    dead = sorted(f"{exported[n]}.{n}" for n in ellsurf.__all__ if (exported[n], n) not in used)
    assert not dead, f"exported but used only by the tests: {dead}"
