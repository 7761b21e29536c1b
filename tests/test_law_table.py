"""The README's law table names every law that a report of ``src/`` can
list or a constructor enforces, and no other.

The law names are read from the source with ``ast``: the first argument of
``Collector.scan``, ``table`` and ``add`` and of ``AxiomError``, and the
first entry of each ``tables`` tuple, when it is a string; the law argument
of ``scan_rows``; and the law tuples that a suite's ``trial`` returns.  Each
law is credited to the top-level function or class whose body reports it.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTION = "### Laws"


def _text(node) -> str | None:
    return node.value if isinstance(node, ast.Constant) and \
        isinstance(node.value, str) else None


def _laws_in(definition) -> set:
    """The laws the body of a function or class ``definition`` reports."""
    laws = set()
    for node in ast.walk(definition):
        if isinstance(node, ast.FunctionDef) and node.name == "trial":
            laws |= {_text(t.elts[0]) for t in ast.walk(node)
                     if isinstance(t, ast.Tuple) and len(t.elts) == 4}
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("scan", "table", "add", "AxiomError"):
            laws.add(_text(node.args[0]))
        elif name == "tables":
            laws |= {_text(t.elts[0]) for t in node.args
                     if isinstance(t, ast.Tuple)}
        elif name == "scan_rows":
            laws.add(_text(node.args[1]))
    return laws - {None}


def reported_laws() -> dict:
    """Each law name that a report can list or a constructor enforces -> the
    functions and classes reporting it."""
    laws = defaultdict(set)
    for path in sorted((ROOT / "src" / "leibrack").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for law in _laws_in(node):
                    laws[law].add(node.name)
    return laws


def table_rows() -> dict:
    """Law -> checker cell of the README law table."""
    text = (ROOT / "README.md").read_text()
    section = text.split(SECTION + "\n", 1)[1].split("\n#", 1)[0]
    return {m.group(1): m.group(2) for m in re.finditer(
        r"^\| `([^`]+)` \| ([^|]+) \|", section, re.M)}


def test_the_reader_finds_laws_of_every_kind():
    laws = reported_laws()
    assert laws["jacobi"] == {"check_lie_algebra"}                  # scan_rows
    assert laws["peiffer"] == {"check_lie_crossed_module",
                               "check_group_crossed_module"}       # scan, table
    assert laws["action-bijective"] == {"check_group_crossed_module"}   # tables
    assert laws["samples-used"] == {"_run_suite"}                  # add
    assert laws["left-translation-undo"] == {"check_local_rack_laws"}   # trial
    assert laws["group-inverse-law"] == {"FiniteGroup"}            # AxiomError


def test_the_readme_law_table_lists_every_reported_law():
    laws, rows = reported_laws(), table_rows()
    assert sorted(set(laws) - set(rows)) == []      # reported, not documented
    assert sorted(set(rows) - set(laws)) == []      # documented, not reported
    for law, functions in laws.items():
        missing = [f for f in sorted(functions) if f"`{f}`" not in rows[law]]
        assert missing == [], law
