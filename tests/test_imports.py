"""Every import in a ``kinbench`` module is used there and comes from an
allowed dependency, and every private module-level function is used
somewhere in the package.

No linter ships with the test environment, so this reads each module's
syntax tree with ``ast``: an imported name counts as used when it appears
as a name anywhere in the module (``np`` in ``np.asarray`` included).
``__init__.py`` is skipped because its imports are the public API.  A
module-level ``def _name`` counts as used when ``_name`` appears as a
name, an attribute or an imported name anywhere in the package.
"""

import ast
import pathlib
import sys

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


# beyond the standard library and numpy, the package may import only these
ALLOWED_SCIPY = {"scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph"}


def _allowed(module):
    top = module.split(".")[0]
    return top in sys.stdlib_module_names or top == "numpy" or module in ALLOWED_SCIPY


def disallowed_imports(path):
    """Absolute imports anywhere in a module (function bodies included) that
    fall outside the allowed set; ``from m import x`` passes when m or m.x does."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, a.name) for a in node.names if not _allowed(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not _allowed(node.module):
            hits += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                     if not _allowed(f"{node.module}.{a.name}")]
    return [f"{path.name}:{line} {name}" for line, name in hits]


def test_imports_stay_within_dependency_surface():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for p in modules for hit in disallowed_imports(p)] == []


def test_dependency_check_flags_outside_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport numpy.polynomial\nfrom scipy import sparse\n"
                     "from . import fd\nimport scipy.linalg\n\n\n"
                     "def f():\n    from scipy.integrate import quad\n    return quad\n")
    assert disallowed_imports(probe) == ["probe.py:5 scipy.linalg",
                                         "probe.py:9 scipy.integrate.quad"]
