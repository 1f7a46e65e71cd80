"""Source hygiene: no module of the package imports a name it never reads,
no module defines a private function or class that nothing reads, every
public function or class is read by the program, exported or listed with
its reason, no class has a method that nothing reads, no two module-level
functions share a body and no two methods of one class do, no parameter
has a default that no call overrides, no private function has a default
that every call overrides, every class of
errors.py is raised, warned or subclassed, every name a test or an oracle
imports from the package still exists, every module-level definition of
an oracle is read by a test or an oracle, the benchmark's tracer still finds
what it wraps and reads, the package runs without SciPy, no module
imports NumPy or SciPy at its top level and the exact subcommands run
without NumPy, the float paths run without the enveloping module, and
every demo runs."""

import ast
import importlib.util
import math
import os
import subprocess
import sys
from collections import defaultdict
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
    so a function that only calls itself is reported.  A __dunder__ name is
    not private: the interpreter reads it (a module's PEP 562 __getattr__)."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        name for name in _definitions(trees)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }
    return sorted(defined - _names_read(trees))


def _definitions(trees):
    """The names of the module-level functions and classes of the trees."""
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _names_read(trees):
    """The names the trees read, by name, attribute or import, leaving out
    a module-level definition's reads of its own name."""
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
    return read


def test_scan_finds_an_unreferenced_private_definition():
    sources = [
        "def _used():\n    return 1\n"
        "def _self_only(n):\n    return _self_only(n - 1)\n"
        "class _Dead:\n    pass\n"
        "def public():\n    return _used()\n",
        "from .a import _imported\n",
        "def _imported():\n    pass\n"
        "def _by_attribute():\n    pass\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def __dead():\n    pass\n",
        "import b\nb._by_attribute()\n",
    ]
    assert unreferenced_private_definitions(sources) == ["_Dead", "__dead", "_self_only"]


def test_no_unreferenced_private_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_definitions(sources) == []


def unread_public_definitions(definitions, readers, exported):
    """module.name for each public module-level function or class of the
    definitions (module name -> source) that no Name or Attribute load of
    the readers reads outside the definition itself and that exported does
    not hold.  An import is no read: a name a module imports and never
    calls is caught by the unused-import scan."""
    read = set()
    for source in readers:
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load) and _name(node) != own:
                    read.add(_name(node))
    return sorted(
        "%s.%s" % (module, node.name)
        for module, source in definitions.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | set(exported)
    )


def test_scan_finds_an_unread_public_definition():
    definitions = {
        "a": "def used():\n    pass\n"
             "def exported():\n    pass\n"
             "def self_only(n):\n    return self_only(n - 1)\n"
             "def imported():\n    pass\n"
             "class Unread:\n    pass\n"
             "def _private():\n    pass\n",
        "b": "def by_attribute():\n    pass\n",
    }
    readers = list(definitions.values()) + [
        "from a import imported\nused()\nb.by_attribute()\n",
    ]
    assert unread_public_definitions(definitions, readers, ["exported"]) == [
        "a.Unread", "a.imported", "a.self_only",
    ]


# Public names that no program code reads, with the reason each stays public.
UNREAD_PUBLIC = {
    "enveloping.exp_star": "the exponential of the star Hopf structure, the paper's exp*",
    "enveloping.log_star": "the logarithm of the star Hopf structure, inverse of exp_star",
    "enveloping.is_grouplike": "the grouplike test of the plain Hopf structure, for callers",
    "enveloping.is_primitive": "the primitive test of the plain Hopf structure, for callers",
    "enveloping.pbw_normalize": "the PBW normal form of one raw word, the basis of U(g)",
    "enveloping.phi_inverse": "the inverse of the paper's isomorphism phi into U(g-bar)",
    "enveloping.star_antipode": "the antipode of the paper's star Hopf structure",
    "enveloping.sts_product_check": "the paper's star product formula checked term by term",
    "flows.lax_vector_field": "the right side [x, R_minus x] of the Lax flow the paper solves",
    "liealg.algebra_to_json": "writes the files load_algebra reads",
    "magnus.graded_from_json": "reads the files graded_to_json writes",
    "products.lie_admissible": "the companion x o y + [x,y]/2, whose commutator is the R-bracket",
    "products.product_to_json": "writes the files load_product reads",
    "products.to_right": "the right post-Lie product x o y - [x,y] of a left one",
    "rmatrix.mcybe_defect": "the Yang-Baxter defect on one pair, which is_rmatrix scans",
    "rmatrix.rmatrix_to_json": "writes the files load_rmatrix reads",
}


def test_every_public_name_has_a_reader_or_a_reason():
    # a listed name that gains a reader fails too: its line goes
    definitions = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [
        p.read_text()
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    import postlie

    found = unread_public_definitions(definitions, readers, postlie.__all__)
    assert found == sorted(UNREAD_PUBLIC)


def orphaned_oracle_definitions(oracles, tests):
    """Module-level functions and classes of the oracle sources that no
    oracle or test source reads outside their own definition: an oracle
    that nothing cross-checks against."""
    trees = [ast.parse(source) for source in oracles + tests]
    return sorted(_definitions(trees[:len(oracles)]) - _names_read(trees))


def test_scan_finds_an_orphaned_oracle_definition():
    oracles = [
        "def reference(x):\n    return _helper(x)\n"
        "def _helper(x):\n    return x\n"
        "def orphan(n):\n    return orphan(n - 1)\n",
        "class Table:\n    pass\n"
        "def other(x):\n    return x\n",
    ]
    tests = [
        "from oracles.a import reference\nfrom oracles import b\n"
        "def test_it():\n    assert reference(1) == b.Table\n",
    ]
    assert orphaned_oracle_definitions(oracles, tests) == ["orphan", "other"]


def test_every_oracle_definition_is_read():
    tests = ROOT / "tests"
    oracles = [p.read_text() for p in sorted((tests / "oracles").glob("*.py"))]
    others = [p.read_text() for p in sorted(tests.glob("*.py"))]
    assert len(oracles) > 1
    assert orphaned_oracle_definitions(oracles, others) == []


def duplicate_functions(sources):
    """Groups of module-level functions, named module.function, whose bodies
    have identical ASTs once a leading docstring is dropped; sources maps a
    module name to its text."""
    bodies = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(_body_key(node), []).append("%s.%s" % (module, node.name))
    return sorted(names for names in bodies.values() if len(names) > 1)


def _body_key(node):
    """The AST dump of a def's body without its leading docstring."""
    body = node.body
    if ast.get_docstring(node) is not None:
        body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


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


def duplicate_methods(sources):
    """Groups of methods of one class, named module.Class.method, whose
    bodies have identical ASTs once a leading docstring is dropped; sources
    maps a module name to its text."""
    groups = []
    for module, source in sorted(sources.items()):
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            bodies = {}
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = "%s.%s.%s" % (module, cls.name, node.name)
                    bodies.setdefault(_body_key(node), []).append(name)
            groups += [names for names in bodies.values() if len(names) > 1]
    return sorted(groups)


def test_scan_finds_duplicate_methods():
    sources = {
        "a": "class K:\n"
             '    def first(self, v):\n        """Largest entry."""\n        return max(v)\n'
             "    def second(self, v):\n        return max(v)\n"
             "    def other(self, v):\n        return min(v)\n"
             "    def renamed(self, w):\n        return max(w)\n"
             "def top(self, v):\n    return max(v)\n",
        "b": "class J:\n    def first(self, v):\n        return max(v)\n"
             "    class Inner:\n        def one(self):\n            return 1\n"
             "        def two(self):\n            return 1\n",
    }
    assert duplicate_methods(sources) == [["a.K.first", "a.K.second"], ["b.Inner.one", "b.Inner.two"]]


def test_no_duplicate_methods():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert duplicate_methods(sources) == []


def _functions(node, owner=None):
    """(class name or None, def) for every function defined under node;
    the class name is set for a method of that class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name)
        elif isinstance(child, ast.FunctionDef):
            yield owner, child
            yield from _functions(child)
        else:
            yield from _functions(child, owner)


def _default_passes(definitions, callers):
    """(function name, module.[Class.]function(parameter), passes) for each
    parameter with a default of the definitions, where passes tells for
    each call of the function in the callers whether it passes the
    parameter; definitions maps a module name to its source, callers lists
    the sources read for calls.  A call f(...) or x.f(...) counts for every
    function named f, and a call of a class for its __init__; it passes a
    parameter by position (after self, for a method that is not static), by
    keyword, or through *args or **kwargs."""
    calls = defaultdict(list)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name].append((
                    math.inf if starred else len(node.args),
                    {k.arg for k in node.keywords},  # None for **kwargs
                ))
    for module, source in sorted(definitions.items()):
        for owner, node in _functions(ast.parse(source)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if owner and not static else 0
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (math.inf, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            callee = owner if node.name == "__init__" else node.name
            for slot, name in defaulted:
                label = "%s.%s%s(%s)" % (module, owner + "." if owner else "", node.name, name)
                passes = [
                    count > slot or name in keywords or None in keywords
                    for count, keywords in calls[callee]
                ]
                yield node.name, label, passes


def never_passed_defaults(definitions, callers):
    """Parameters with a default that no call passes, named
    module.[Class.]function(parameter), calls counted as _default_passes
    counts them."""
    return sorted(
        label for _, label, passes in _default_passes(definitions, callers) if not any(passes)
    )


def always_passed_defaults(definitions, callers):
    """Parameters of private functions and methods (one leading underscore)
    with a default that every call passes, there being at least one; calls
    counted as _default_passes counts them.  Such a default is dead code."""
    return sorted(
        label
        for function, label, passes in _default_passes(definitions, callers)
        if function.startswith("_") and not function.startswith("__") and passes and all(passes)
    )


def test_scan_finds_a_never_passed_default():
    definitions = {"m": (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(*args, k=None, **kw):\n    pass\n"
        "def h(a=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n"
        "    def s(p=1):\n        pass\n"
    )}
    callers = [
        definitions["m"],
        "f(0, 5)\nf(0, d=1)\ng(**{})\nh(*rest)\nK(1)\nK().m(q=3)\nk.s(1)\n",
    ]
    assert never_passed_defaults(definitions, callers) == [
        "m.K.__init__(y)", "m.K.m(p)", "m.f(c)", "m.f(e)",
    ]


def test_no_never_passed_defaults():
    definitions = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    callers = [
        p.read_text()
        for folder in ("src", "tests", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert never_passed_defaults(definitions, callers) == []


def defaults_only_tests_pass(definitions, program, tests):
    """Parameters with a default that a call among the tests passes and no
    call in the program does, calls counted as _default_passes counts them:
    a knob only tests turn."""
    return sorted(
        set(never_passed_defaults(definitions, program))
        - set(never_passed_defaults(definitions, program + tests))
    )


def test_scan_finds_a_default_only_tests_pass():
    definitions = {"m": (
        "def f(a, b=1, c=2, d=3):\n    pass\n"
        "class K:\n"
        "    def m(self, p=1, q=2):\n        pass\n"
    )}
    program = ["f(0, 1)\nk.m(q=3)\n"]
    tests = ["f(0, c=2)\nk.m(1)\nk.m(q=4)\n"]
    assert defaults_only_tests_pass(definitions, program, tests) == ["m.K.m(p)", "m.f(c)"]


def test_no_defaults_only_tests_pass():
    definitions = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    program = [
        p.read_text()
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    tests = [p.read_text() for p in sorted((ROOT / "tests").rglob("*.py"))]
    assert defaults_only_tests_pass(definitions, program, tests) == []


def test_scan_finds_an_always_passed_default():
    definitions = {"m": (
        "def _f(a, b=1, c=2, d=3):\n    pass\n"
        "def public(a=1):\n    pass\n"
        "def _sometimes(a=1):\n    pass\n"
        "def _uncalled(a=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, q=1):\n        pass\n"
        "    def _m(self, p=1):\n        pass\n"
    )}
    callers = [
        "_f(0, 1, d=4)\n_f(0, *rest)\n_f(0, 2, **kw)\npublic(2)\n"
        "_sometimes()\n_sometimes(a=2)\nK(1)\nk._m(3)\n",
    ]
    assert always_passed_defaults(definitions, callers) == ["m.K._m(p)", "m._f(b)", "m._f(d)"]


def test_no_always_passed_private_defaults():
    # the callers are the program's own; a test is no caller
    definitions = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    callers = [
        p.read_text()
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert always_passed_defaults(definitions, callers) == []


def _attribute_reads(node, inside=()):
    """(name, names of the enclosing functions) for every attribute access
    .name and every string constant under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute):
            yield child.attr, inside
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value, inside
        if isinstance(child, ast.FunctionDef):
            yield from _attribute_reads(child, inside + (child.name,))
        else:
            yield from _attribute_reads(child, inside)


def unread_methods(definitions, readers):
    """Methods and properties, named Class.method, of the classes of the
    definitions whose name no reader source reads as an
    attribute (x.name) or a string constant (getattr(x, "name")); dunders
    are left out, and a read inside a function of the same name does not
    count, so a method that only calls itself is reported.  The scan goes by
    name only: a method escapes it when any attribute of its name is read,
    as a LieAlgebra.zero would through the reads of GradedLieElement.zero."""
    defined = [
        (owner, node.name)
        for source in definitions
        for owner, node in _functions(ast.parse(source))
        if owner and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    read = {
        name
        for source in readers
        for name, inside in _attribute_reads(ast.parse(source))
        if name not in inside
    }
    return sorted("%s.%s" % pair for pair in defined if pair[1] not in read)


def test_scan_finds_an_unread_method():
    definitions = [
        "class K:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        pass\n"
        "    def by_name(self):\n        pass\n"
        "    def self_only(self):\n        return self.self_only()\n"
        "    @property\n"
        "    def dead(self):\n        pass\n"
        "    def shared(self):\n        pass\n"
        "class J:\n"
        "    def shared(self):\n        pass\n",
    ]
    readers = definitions + ["getattr(k, 'by_name')()\nj.shared()\n"]
    assert unread_methods(definitions, readers) == ["K.dead", "K.self_only"]


def test_no_unread_methods():
    definitions = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = [
        p.read_text()
        for folder in ("src", "tests", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert unread_methods(definitions, readers) == []


def _name(node):
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unused_error_classes(errors_source, sources):
    """Classes of the errors module that no source raises by name (raise E
    or raise E(...)), passes to a warn call or names as a base class."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found = [node.exc]
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                found = node.args
            elif isinstance(node, ast.ClassDef):
                found = node.bases
            else:
                continue
            used.update(_name(getattr(n, "func", n)) for n in found)
    return sorted(
        node.name for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef) and node.name not in used
    )


def test_scan_finds_an_unused_error_class():
    errors = "".join(
        "class %s(Exception):\n    pass\n" % name
        for name in ("Raised", "Bare", "Warned", "Base", "Passed", "Caught")
    )
    sources = [
        errors,
        "raise Raised('x')\n"
        "raise errors.Bare\n"
        "warnings.warn(Warned(1), stacklevel=2)\n"
        "class Mine(errors.Base):\n    pass\n"
        "def f(failure=Passed):\n    raise failure('y')\n"
        "try:\n    pass\nexcept Caught:\n    raise\n",
    ]
    assert unused_error_classes(errors, sources) == ["Caught", "Passed"]


def test_every_error_class_is_raised_warned_or_subclassed():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unused_error_classes((SRC / "errors.py").read_text(), sources) == []


def _top_level_names(source):
    """The names a module binds at its top level: definitions, assignment
    targets and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def stale_package_imports(sources, package):
    """'file: module.name' for each `from postlie[.module] import name` of
    the sources (a dict of file name to text) that the package does not
    bind; package maps each module name, 'postlie' and 'postlie.<stem>', to
    its text, and a submodule counts as bound by 'postlie'."""
    bound = {module: _top_level_names(text) for module, text in package.items()}
    bound["postlie"] |= {m.split(".")[1] for m in package if m != "postlie"}
    stale = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module in bound:
                stale += [
                    "%s: %s.%s" % (name, node.module, alias.name)
                    for alias in node.names
                    if alias.name not in bound[node.module]
                ]
    return stale


def package_sources():
    return {
        "postlie" + ("" if p.stem == "__init__" else "." + p.stem): p.read_text()
        for p in SRC.glob("*.py")
    }


def test_scan_finds_a_stale_package_import():
    package = {
        "postlie": "from .a import kept\n",
        "postlie.a": "import math\nX, (Y, Z) = 1, (2, 3)\ndef kept():\n    pass\n"
                     "class K:\n    def method(self):\n        pass\n",
    }
    sources = {
        "fresh.py": "from postlie import a, kept\nfrom postlie.a import X, Z, K, math\n",
        "stale.py": "from postlie.a import (kept, _moved, method)\n"
                    "from postlie import b\nfrom other import gone\n",
    }
    assert stale_package_imports(sources, package) == [
        "stale.py: postlie.a._moved", "stale.py: postlie.a.method", "stale.py: postlie.b",
    ]


def test_tests_import_only_names_the_package_binds():
    # a helper moved out of src/ while a test or an oracle still imports it
    # is a collection error, which a run that continues past collection
    # errors would not count as a failure; here it is one
    tests = ROOT / "tests"
    sources = {
        str(p.relative_to(tests)): p.read_text()
        for p in sorted(tests.glob("*.py")) + sorted((tests / "oracles").glob("*.py"))
    }
    assert "oracles/closed_forms.py" in sources
    assert stale_package_imports(sources, package_sources()) == []


def perfbench_spans():
    """The benchmark's span module, loaded from its file (perfbench/ is not
    a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_span_targets_exist():
    # a traced benchmark run wraps each (owner, attribute) of TARGETS
    missing = [
        "%s.%s" % (owner.__name__, attr)
        for owner, attr, _ in perfbench_spans().TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_perfbench_gauges_read_live_names():
    # record_gauges reads enveloping._lift_contexts, each lifted context's
    # _memo and each traced algebra's _pbw_cache; a star product fills all
    from postlie import enveloping, liealg, products, rmatrix

    tracer = perfbench_spans().Tracer()
    tracer.install()
    try:
        L = liealg.builtin("sl(2)")
        product = products.from_rmatrix(rmatrix.splitting_r(L, (0, 1), (2,)), "-")
        e, f = enveloping.letter(L, 3, 0), enveloping.letter(L, 3, 2)
        enveloping.star_mul(f, e, product)
        tracer.record_gauges()
    finally:
        tracer.uninstall()
    gauges = tracer.gauges[-1]
    assert gauges["enveloping.lift_contexts_alive"] >= 1, gauges
    assert gauges["enveloping.lift_memo_entries"] >= 1, gauges
    assert gauges["enveloping.pbw_cache_entries"] >= 1, gauges


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


def test_exact_paths_do_not_import_numpy():
    # NumPy is imported inside the float functions of flows and rmatrix, so
    # the exact subcommands start without it and the first float call loads it
    script = "\n".join([
        "import sys",
        "import postlie",
        "from postlie.cli import main",
        "for argv in [",
        "    ['check-algebra', '--builtin', 'sl(2)'],",
        "    ['check-rmatrix', '--builtin', 'split2'],",
        "    ['check-postlie', '--builtin', 'split2'],",
        "    ['magnus', '--builtin', 'sl2-borel', '--x', '1,0,1', '--order', '4'],",
        "    ['magnus', '--builtin', 'sl2-borel', '--x', '1,0,1', '--order', '4',",
        "     '--method', 'ode'],",
        "    ['hopf-suite', '--builtin', 'sl2-borel', '--cases', '3'],",
        "    ['bell', '--n', '4'],",
        "]:",
        "    assert main(argv) == 0, argv",
        "exact = 'numpy' in sys.modules",
        "assert main(['flow', '--toda', '3', '--offdiag', '0.3,0.2', '--steps', '3']) == 0",
        "print(exact, 'numpy' in sys.modules)",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False True"


def test_float_paths_do_not_import_enveloping():
    # the truncated U(g) is imported inside the functions that build words,
    # so the flows, factorize, float check-rmatrix and the ode chi start
    # without it, and postlie.enveloping loads it on first access
    script = "\n".join([
        "import sys",
        "import postlie",
        "from postlie.cli import main",
        "assert main(['flow', '--toda', '3', '--offdiag', '0.3,0.2', '--steps', '3']) == 0",
        "assert main(['factorize', '--builtin', 'sl2-borel', '--x', '0.3,0,0.3']) == 0",
        "assert main(['check-rmatrix', '--builtin', 'split2', '--mode', 'float']) == 0",
        "problem = postlie.toda_problem(3, [0.1, 0.0, -0.1], [0.3, 0.2], [0.0, 0.5], 6)",
        "assert len(postlie.factorized_solution(problem)) == 2",
        "ctx = postlie.builtin_rmatrix('split2', mode='float')",
        "product = postlie.from_rmatrix(ctx, '-')",
        "postlie.postlie_magnus(ctx.algebra, [0.3, 0.1, 0.2, 0.4], product, 6, method='ode')",
        "print('postlie.enveloping' in sys.modules)",
        "print(postlie.enveloping.EnvElement.__name__)",
    ])
    result = run_python("-W", "ignore", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-2:] == ["False", "EnvElement"]


def test_float_prelie_magnus_refused_without_enveloping():
    # prelie_magnus checks the mode itself: its chi is the g-level ode chi,
    # so a float call is refused by name without loading U(g)
    script = "\n".join([
        "import sys",
        "from postlie import liealg, magnus, products",
        "flat = liealg.new_lie_algebra(2, ['a', 'b'], [], mode='float')",
        "grow = products.BilinearProduct(flat, [(0, 0, 0, 2), (0, 1, 1, 1)])",
        "try:",
        "    magnus.prelie_magnus(flat, (1.0, -0.5), grow, 3)",
        "except Exception as exc:",
        "    print(type(exc).__name__, exc)",
        "print('postlie.enveloping' in sys.modules)",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines() == [
        "ModeMismatch prelie_magnus requires an exact-mode algebra",
        "False",
    ]


def test_enveloping_binds_on_first_access():
    # __init__ binds enveloping through its module __getattr__: a star
    # import still binds it, __all__ is the eager package's, and any other
    # missing name is an AttributeError
    script = "\n".join([
        "import sys",
        "import postlie",
        "names = {}",
        "exec('from postlie import *', names)",
        "print(names['enveloping'] is sys.modules['postlie.enveloping'])",
        "print(sorted(postlie.__all__) == sorted(set(names) - {'__builtins__'}))",
        "print(' '.join(postlie.__all__))",
        "try:",
        "    postlie.no_such_name",
        "except AttributeError as exc:",
        "    print(exc)",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines() == [
        "True",
        "True",
        "FlowProblem GradedLieElement PostLieError bch bracket builtin builtin_rmatrix "
        "check_postlie check_prelie chi_pm conservation_report enveloping errors "
        "factorized_solution flows from_rmatrix is_rmatrix liealg load_algebra magnus "
        "new_lie_algebra postlie_magnus prelie_magnus products rk4_reference rmatrix "
        "rmatrix_context scalars splitting_r toda_problem verify_chi_ode "
        "verify_grouplike_identity",
        "module 'postlie' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")], ids=["unset", "kept"])
def test_cli_holds_openblas_to_one_thread(monkeypatch, given, seen):
    # cli.main sets OPENBLAS_NUM_THREADS to 1 before its first float call
    # loads NumPy, unless the caller set it
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    script = "\n".join([
        "import os",
        "from postlie.cli import main",
        "assert main(['flow', '--toda', '3', '--offdiag', '0.3,0.2', '--steps', '3']) == 0",
        "print(os.environ['OPENBLAS_NUM_THREADS'])",
    ])
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == seen


def top_level_imports(source):
    """Top-level module names that importing the module imports: those of
    every import statement outside a function body."""
    names = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # if/try/with blocks and class bodies run on import too
            pending.extend(ast.iter_child_nodes(node))
    return names


def test_scan_finds_a_top_level_import():
    source = (
        "import os.path\n"
        "from numpy import linalg\n"
        "from . import flows\n"
        "try:\n"
        "    import scipy.linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    import json\n"
        "class C:\n"
        "    import csv\n"
        "    def g(self):\n"
        "        import gzip\n"
    )
    assert top_level_imports(source) == {"os", "numpy", "scipy", "csv"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_top_level_numpy_or_scipy(path):
    # importing the package stays free of NumPy and SciPy: a float function
    # imports NumPy itself, as flows and rmatrix do
    assert not top_level_imports(path.read_text()) & {"numpy", "scipy"}


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout
