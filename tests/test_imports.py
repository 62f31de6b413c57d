"""Every import in a ``kinbench`` module is used there and comes from an
allowed dependency, and every private module-level function is used
somewhere in the package.

No linter ships with the test environment, so this reads each module's
syntax tree with ``ast``: an imported name counts as used when it appears
as a name anywhere in the module (``np`` in ``np.asarray`` included).
``__init__.py`` is skipped because its imports are the public API.  A
module-level ``def _name`` counts as used when ``_name`` appears as a
name, an attribute or an imported name anywhere in the package.  Every
module-level function or class must be named somewhere in the package
(an export from ``__init__.py`` counts), in ``benchmarks/`` or in
``scripts/``; a name only tests use belongs in ``tests/``.
``scipy.sparse`` and ``scipy.sparse.csgraph`` are the only scipy modules
the package may import, and only inside function bodies; ``from m import
x`` imports the module m.x when there is one, so ``from scipy.sparse import
linalg`` is flagged although ``scipy.sparse`` is allowed.  A subprocess
checks that ``import kinbench.cli``, a 2-D build, ``solve_invariant`` on a
reversible chain, ``h_curve`` and ``resolvent`` on a vector and on a block
load no ``scipy`` module at all, and that a chain off the lattice path
loads ``scipy.sparse.csgraph``.  (Earlier, ``scipy.sparse`` itself was
allowed at start-up and only the linalg and csgraph submodules were
checked; later ``scipy.sparse.linalg`` was allowed too, for a resolvent
that handed Q to ``spsolve``, and the first ``resolvent`` was checked to
load it.)
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
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


def unused_definitions(package, *consumers):
    """Top-level functions and classes of ``package`` that no module of it
    names (its ``__init__`` exports included) and no ``.py`` file under a
    ``consumers`` directory names."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    outside = [ast.parse(p.read_text()) for d in consumers for p in sorted(d.rglob("*.py"))]
    used = set().union(*(referenced_names(t) for t in [*trees.values(), *outside]))
    return [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_every_definition_is_used_outside_the_tests():
    # tests alone keep nothing alive: a helper only they need lives in tests/
    root = SRC.parent.parent
    assert unused_definitions(SRC, root / "benchmarks", root / "scripts") == []


def test_unused_definition_check_flags_a_probe(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .mod import Exported\n")
    (package / "mod.py").write_text(
        "class Exported:\n    def m(self):\n        return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\ndef benched():\n    return 2\n\n\n"
        "def orphan():\n    return 3\n\n\nclass Orphan:\n    pass\n")
    (bench / "run.py").write_text("from pkg.mod import benched\n")
    assert unused_definitions(package, bench) == ["mod.orphan", "mod.Orphan"]


# beyond the standard library and numpy, the package may import only these
ALLOWED_SCIPY = {"scipy.sparse", "scipy.sparse.csgraph"}


def _allowed(module):
    top = module.split(".")[0]
    return top in sys.stdlib_module_names or top == "numpy" or module in ALLOWED_SCIPY


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # the parent is a module, not a package
        return False


def disallowed_imports(path):
    """Absolute imports anywhere in a module (function bodies included) that
    fall outside the allowed set.  ``from m import x`` passes when m.x is
    allowed, or when m is and m.x is not a module of its own."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, a.name) for a in node.names if not _allowed(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                name = f"{node.module}.{a.name}"
                if not _allowed(name) and (not _allowed(node.module) or _is_module(name)):
                    hits.append((node.lineno, name))
    return [f"{path.name}:{line} {name}" for line, name in hits]


def test_imports_stay_within_dependency_surface():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for p in modules for hit in disallowed_imports(p)] == []


def test_dependency_check_flags_outside_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport numpy.polynomial\nfrom scipy import sparse\n"
                     "from . import bands\nimport scipy.linalg\n\n\n"
                     "def f():\n    from scipy.integrate import quad\n    return quad\n\n\n"
                     "def g():\n    import scipy.sparse.linalg as spla\n    return spla\n\n\n"
                     "def h():\n    from scipy.sparse import csr_matrix, linalg\n"
                     "    return csr_matrix, linalg\n")
    assert disallowed_imports(probe) == ["probe.py:5 scipy.linalg",
                                         "probe.py:9 scipy.integrate.quad",
                                         "probe.py:14 scipy.sparse.linalg",
                                         "probe.py:19 scipy.sparse.linalg"]


# scipy.sparse alone takes about 0.2 s and 22 MB (any scipy submodule loads
# numpy.f2py and numpy.testing through scipy's array-API layer), and the two
# others load scipy.linalg too; only the function that uses one may import
# it, so `import kinbench` stays free of scipy
DEFERRED = ("scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def _deferred(module):
    return any(module == m or module.startswith(m + ".") for m in DEFERRED)


def eager_deferred_imports(path):
    """Imports of a DEFERRED module that run when the module is imported:
    every statement outside a function body, class bodies included."""
    hits = []
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            hits += [(node.lineno, a.name) for a in node.names if _deferred(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hits += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                     if _deferred(node.module) or _deferred(f"{node.module}.{a.name}")]
        todo.extend(ast.iter_child_nodes(node))
    return [f"{path.name}:{line} {name}" for line, name in sorted(hits)]


def test_deferred_scipy_modules_load_only_in_function_bodies():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for p in modules for hit in eager_deferred_imports(p)] == []


def test_deferred_import_check_flags_module_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse\nfrom scipy.sparse import csgraph, csr_matrix\n"
                     "if True:\n    import scipy.sparse.linalg as spla\n\n\n"
                     "class C:\n    from scipy.sparse.csgraph import laplacian\n\n"
                     "    def m(self):\n        from scipy.sparse import linalg\n"
                     "        return linalg\n\n\n"
                     "def f():\n    import scipy.sparse.linalg\n    return scipy\n")
    assert eager_deferred_imports(probe) == ["probe.py:1 scipy.sparse",
                                             "probe.py:2 scipy.sparse.csgraph",
                                             "probe.py:2 scipy.sparse.csr_matrix",
                                             "probe.py:4 scipy.sparse.linalg",
                                             "probe.py:8 scipy.sparse.csgraph.laplacian"]


COLD_START = """
import sys

import numpy as np

import kinbench.cli
import kinbench as kb

HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def loaded():
    return [m for m in HEAVY if m in sys.modules]


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert scipy_modules() == [], scipy_modules()
domain = kb.DomainSpec("box", ((-2.0, 2.0), (-1.0, 1.0)))
spec = kb.GeneratorSpec(2, lambda p: np.diag([1.0 + p[0] ** 2, 2.0]), lambda p: -p, domain)
Q = kb.build_qmatrix(spec, kb.Grid.from_domain(domain, 9))
sol = kb.solve_invariant(Q)
nu0 = np.zeros(Q.size)
nu0[0] = 1.0
curve = kb.h_curve(Q, nu0, kb.HFunctional.from_name("xlogx"), [0.0, 0.5, 1.0], reference=sol)
assert curve.is_monotone(1e-12)
assert scipy_modules() == [], scipy_modules()

f = kb.resolvent(Q, 1.0, np.ones(Q.size))
assert np.allclose(f, 1.0)
F = kb.resolvent(Q, 2.0, np.column_stack([np.ones(Q.size), nu0]))
assert np.allclose(F[:, 0], 0.5) and F.shape == (Q.size, 2)
assert scipy_modules() == [], scipy_modules()

cycle = kb.solve_invariant([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
assert np.allclose(cycle.pi, 1.0 / 3.0) and cycle.unique
assert loaded() == list(HEAVY), loaded()
"""


def test_cold_start_loads_linalg_and_csgraph_on_first_use():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
