"""Every name a package module imports is used in that module, no module
takes another module's underscore name, every name the package exports and
every public method of an exported class is used outside the tests, no
einsum builds a table of four or more indices, every function the benchmark
tracer wraps resolves and takes the parameter its hook reads, and ``verify``
and ``integrate`` run without loading scipy.

No lint tool ships with the package, so this reads the sources with ``ast``.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leibrack"
# outside the package, these keep a name in use
OUTSIDE = [*ROOT.glob("bench/*.py"), *ROOT.glob("bench/*.md"),
           ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def private_imports(source: str) -> list:
    """Underscore names, not dunders, that a module takes from the package:
    imported, or read as an attribute of a name it imported from there."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    tree = ast.parse(source)
    imported, taken = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "leibrack"):
            imported.update(a.asname or a.name for a in node.names)
            taken += [a.name for a in node.names if private(a.name)]
    taken += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and private(node.attr)
              and getattr(node.value, "id", None) in imported]
    return sorted(taken)


def test_private_imports_are_found():
    source = ("from __future__ import annotations\n"
              "from . import algebra\nfrom .racks import _table, check\n"
              "from leibrack.catalog import _keys\nimport numpy as np\n"
              "x = algebra._BLOCK + algebra.DEFAULT_TOL + np._core + check._y\n"
              "y = check.__doc__ + algebra.__name__\n")
    assert private_imports(source) == ["_BLOCK", "_keys", "_table", "_y"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_another_modules_private_name(path):
    # an underscore name is its module's own; a name another module needs is
    # public, or that module uses a public function that gives the same
    assert private_imports(path.read_text("utf-8")) == []


def read_names(source: str) -> set:
    """Names that an expression reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return {node.id for node in nodes if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)}


def test_read_names_skip_definitions_and_stores():
    source = "def f(x):\n    return g(x.y)\nclass C: pass\nz = 1\n"
    assert read_names(source) == {"g", "x", "y"}


def test_every_export_is_used_outside_the_tests():
    # an export that only the tests reach is dead code; a read in another
    # module of the package, a mention in bench/ or the README, or a use in
    # the acceptance tests keeps it
    import leibrack
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= read_names(path.read_text("utf-8"))
    for path in OUTSIDE:
        used |= set(re.findall(r"\w+", path.read_text("utf-8")))
    assert sorted(set(leibrack.__all__) - used) == []


def public_methods(cls) -> set:
    """Names of the methods and properties a class defines itself, without
    a leading underscore."""
    return {name for name, value in vars(cls).items()
            if not name.startswith("_") and (callable(value) or isinstance(
                value, (property, classmethod, staticmethod)))}


def test_public_methods_skip_fields_and_private_names():
    class C:
        field = 1

        def method(self):
            pass

        def _hidden(self):
            pass

        @property
        def prop(self):
            return 0

        @classmethod
        def make(cls):
            return cls()
    assert public_methods(C) == {"method", "prop", "make"}


def test_every_public_method_is_used_outside_the_tests():
    # a method or property that only the tests reach is dead code; an
    # attribute read in the package, or ``.name`` in bench/, the README or
    # the acceptance tests keeps it
    import leibrack
    used = set()
    for path in SRC.glob("*.py"):
        nodes = ast.walk(ast.parse(path.read_text("utf-8")))
        used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    for path in OUTSIDE:
        used |= set(re.findall(r"\.(\w+)", path.read_text("utf-8")))
    classes = [value for value in vars(leibrack).values() if isinstance(
        value, type) and value.__module__.startswith("leibrack")]
    unused = {f"{cls.__name__}.{name}" for cls in classes
              for name in public_methods(cls) - used}
    assert sorted(unused) == []


def einsum_outputs(source: str) -> list:
    """(line, output indices) of every einsum call; the indices are None
    when the subscripts are not a string literal."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) != "einsum":
            continue
        spec = node.args[0] if node.args else None
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            if "->" in spec.value:
                out = [c for c in spec.value.split("->")[1] if c.isalpha()]
            else:               # implicit mode: every index used once
                used = [c for c in spec.value if c.isalpha()]
                out = sorted(c for c in set(used) if used.count(c) == 1)
            calls.append((node.lineno, "".join(out)))
        else:
            calls.append((node.lineno, None))
    return sorted(calls, key=lambda call: call[0])


def test_einsum_outputs_are_read():
    source = ("np.einsum('ijm,mkl->ijkl', C, C)\n"
              "einsum('i,ijk->kj', x, C)\n"
              "np.einsum('...i,iab->...ab', c, M)\n"
              "np.einsum('ij,jk', a, b)\n"
              "np.einsum(spec, a)\n")
    assert einsum_outputs(source) == [(1, "ijkl"), (2, "kj"), (3, "ab"),
                                      (4, "ik"), (5, None)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_einsum_builds_a_four_index_table(path):
    # a two-tensor contraction to four indices costs d^5 in c_einsum and a
    # whole d^4 table; such laws are matrix products in row blocks instead
    assert [(line, out) for line, out in einsum_outputs(path.read_text("utf-8"))
            if out is None or len(out) >= 4] == []


def tracer_constant(name: str):
    """The literal value of ``name`` in bench/tracer.py, read without
    importing it; a ``frozenset({...})`` reads as its set."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text("utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == [name])
    return ast.literal_eval(value.args[0] if isinstance(value, ast.Call) else value)


def traced(module: str, path: str):
    """The package object at ``module.path``, or None."""
    owner = importlib.import_module(f"leibrack.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_every_traced_name_resolves():
    # bench/tracer.py wraps these names; a renamed or deleted one must show in
    # the tier-1 tests, not only in the bench suite.  ROADMAP item 1 takes the
    # three exempt names, gone from the package, out of the tracer.
    targets = tracer_constant("TARGETS")
    exempt = {("report", "merge_reports"), ("localgroup", "group_mul"),
              ("localgroup", "group_inverse")}
    missing = [f"{module}.{path}" for module, path in sorted(set(targets) - exempt)
               if not callable(traced(module, path))]
    assert len(targets) > 30 and missing == []


@pytest.mark.parametrize("group,param", [("SUITES", "samples"), ("STENCILS", "cfg")])
def test_every_traced_hook_finds_its_parameter(group, param):
    # the tracer counts samples off each suite call and stencil shrinks off
    # each stencil's cfg; a renamed parameter must show here, not only as a
    # "name(param)" entry in the traced run's missing list
    names = sorted(tracer_constant(group))
    lacking = [name for name in names if param not in inspect.signature(
        traced(*name.split(".", 1))).parameters]
    assert len(names) >= 2 and lacking == []


def test_verify_does_not_load_scipy():
    script = ("import sys\n"
              "from leibrack.cli import main\n"
              "code = main(['verify', '--builtin', 'sl2-adjoint'])\n"
              "print('scipy' in sys.modules, code)\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path),
                         check=True)
    assert run.stdout.splitlines()[-1] == "False 0"


def test_integrate_does_not_load_scipy():
    # the exponential is the package's own: scipy is a test dependency only
    script = ("import sys\n"
              "from leibrack.cli import main\n"
              "code = main(['integrate', '--builtin', 'sl2-adjoint'])\n"
              "print('scipy' in sys.modules, code)\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False 0"
