"""Every import in a ``kinbench`` module is used there, and every private
module-level function is used somewhere in the package.

No linter ships with the test environment, so this reads each module's
syntax tree with ``ast``: an imported name counts as used when it appears
as a name anywhere in the module (``np`` in ``np.asarray`` included).
``__init__.py`` is skipped because its imports are the public API.  A
module-level ``def _name`` counts as used when ``_name`` appears as a
name, an attribute or an imported name anywhere in the package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kinbench"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [hit for p in modules for hit in unused_imports(p)] == []


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_functions():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    private = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__") and node.name not in used]
    assert private == []
