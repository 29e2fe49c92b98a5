"""Every public top-level function and class of the package, and every
public method and property of a public class, has a caller in ``src/`` or
``bench/``, so code that only tests reach does not pile up.

A definition counts as referenced when its name appears as a name, an
attribute or a string (``bench/spans.py`` names its targets by string)
anywhere in ``src/nonce_lab`` or ``bench/*.py``, outside the definition
itself. Tests do not count, and there is no allowlist.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _references(tree, skip=None):
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_definitions(tree):
    """Public top-level functions and classes, then the public methods and
    properties of those classes, as (qualified name, node) pairs."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_has_a_non_test_caller():
    modules = _parse(sorted((ROOT / "src" / "nonce_lab").glob("*.py")))
    others = _parse(sorted((ROOT / "bench").glob("*.py")))
    names = {path: _references(tree) for path, tree in {**modules, **others}.items()}
    unreferenced = []
    for path, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in names.items() if other != path))
        for qualified, node in _public_definitions(tree):
            if node.name not in elsewhere and node.name not in _references(tree, skip=node):
                unreferenced.append(f"{path.stem}.{qualified}")
    assert unreferenced == [], f"public definitions only tests reach: {unreferenced}"
