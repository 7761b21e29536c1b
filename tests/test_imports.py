"""Every name a package module imports is used in that module, and
``verify`` and ``integrate`` run without loading scipy.

No lint tool ships with the package, so this reads the sources with ``ast``.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leibrack"


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
