"""Every public top-level function and class of the package has a caller in
``src/`` or ``bench/``, so code that only tests reach does not pile up.

A definition counts as referenced when its name appears as a name, an
attribute or a string (``bench/spans.py`` names its targets by string)
anywhere in ``src/nonce_lab`` or ``bench/*.py``, outside the definition
itself. Tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public definitions kept without such a caller, each with its reason.
ALLOWED = {
    "ladder_step": "drives the 5-2-1-2-3-1-3-3 fingerprint test of one ladder step",
}


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


def test_every_public_definition_has_a_non_test_caller():
    modules = _parse(sorted((ROOT / "src" / "nonce_lab").glob("*.py")))
    others = _parse(sorted((ROOT / "bench").glob("*.py")))
    names = {path: _references(tree) for path, tree in {**modules, **others}.items()}
    defined = set()
    unreferenced = []
    for path, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in names.items() if other != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name.startswith("_") or node.name in ALLOWED:
                continue
            if node.name not in elsewhere and node.name not in _references(tree, skip=node):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == [], f"public definitions only tests reach: {unreferenced}"
    assert set(ALLOWED) <= defined, "an allowlist entry names no definition"
