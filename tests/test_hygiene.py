"""Source hygiene: no module of the package imports a name it never reads,
no module defines a private function or class that nothing reads, no two
module-level functions share a body, the package runs without SciPy, and
every demo runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "postlie"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# __init__.py imports names to re-export them, so it is left out
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from .errors import (A, B as C)\n"
        "loads(os.sep)\n"
    )
    assert unused_imports(source) == ["A", "C", "dumps"]


def test_modules_found():
    assert {"flows.py", "cli.py", "rmatrix.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_definitions(sources):
    """Module-level private functions and classes of the sources that no
    source reads; a read inside the definition's own body does not count,
    so a function that only calls itself is reported."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    }
    read = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    read.add(name)
    return sorted(defined - read)


def test_scan_finds_an_unreferenced_private_definition():
    sources = [
        "def _used():\n    return 1\n"
        "def _self_only(n):\n    return _self_only(n - 1)\n"
        "class _Dead:\n    pass\n"
        "def public():\n    return _used()\n",
        "from .a import _imported\n",
        "def _imported():\n    pass\n"
        "def _by_attribute():\n    pass\n",
        "import b\nb._by_attribute()\n",
    ]
    assert unreferenced_private_definitions(sources) == ["_Dead", "_self_only"]


def test_no_unreferenced_private_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_definitions(sources) == []


def duplicate_functions(sources):
    """Groups of module-level functions, named module.function, whose bodies
    have identical ASTs once a leading docstring is dropped; sources maps a
    module name to its text."""
    bodies = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            key = ast.dump(ast.Module(body=body, type_ignores=[]))
            bodies.setdefault(key, []).append("%s.%s" % (module, node.name))
    return sorted(names for names in bodies.values() if len(names) > 1)


def test_scan_finds_duplicate_functions():
    sources = {
        "a": 'def norm(v):\n    """Largest entry."""\n    return max(v)\n'
             "def other(v):\n    return min(v)\n",
        "b": "def _norm(v):\n    return max(v)\n"
             "def renamed(w):\n    return max(w)\n"
             "class K:\n    def method(self, v):\n        return max(v)\n",
    }
    assert duplicate_functions(sources) == [["a.norm", "b._norm"]]


def test_no_duplicate_functions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert duplicate_functions(sources) == []


def run_python(*args):
    """A fresh interpreter with src/ first on its path."""
    paths = [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )


def test_float_paths_do_not_import_scipy():
    # SciPy is a test dependency only: the float flow, factorize and the
    # float kernel of check-rmatrix run on NumPy alone
    script = "\n".join([
        "import sys",
        "import postlie",
        "from postlie.cli import main",
        "assert main(['flow', '--toda', '3', '--offdiag', '0.3,0.2', '--steps', '3']) == 0",
        "assert main(['factorize', '--builtin', 'sl2-borel', '--x', '0.3,0,0.3']) == 0",
        "assert main(['check-rmatrix', '--builtin', 'split2', '--mode', 'float']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert "subalgebras ok: True; ideals ok: True" in result.stdout
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout
