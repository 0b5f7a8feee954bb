"""The package holds no code that only the tests use."""

from __future__ import annotations

import ast
from pathlib import Path

import bfdarcy

PACKAGE = Path(bfdarcy.__file__).parent

# Definitions that the standard library calls by name.
CALLED_BY_NAME = {"cli._Parser.error"}


def definitions(tree, module):
    """(qualified name, name) of every function, class and method in
    ``tree``, nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                found.append((qualified, child.name))
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_every_definition_is_used_by_the_package_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name in definitions(tree, module)
        if name not in used
        and name not in bfdarcy.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in CALLED_BY_NAME
    ]
    assert unused == [], f"defined in the package but used only outside it: {unused}"
