"""Fuzz the spec loader: a valid spec with one node replaced by a generated
JSON value gives exit 0, 2, 3 or 4 under both commands, never a traceback
and never a raw Python warning."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from leibrack.cli import EXIT_AXIOM, EXIT_CAPABILITY, EXIT_PASS, \
    EXIT_STRUCTURAL, main
from test_cli import rack_doc, scaling_doc

SPECS = (
    scaling_doc(1.0, h_basis={"vectors": [[0.0, 1.0]]},
                config={"samples": 3, "seed": 1, "scheme": "central",
                        "step": 1e-4, "tolerance": 1e-4, "radius": 0.25},
                morphism={"target": scaling_doc(1.0),
                          "phi": np.eye(2).tolist(), "psi": [[1.0]]}),
    rack_doc(),
)

# small values only: algebra_from_doc allocates dim^3 entries
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=3))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=3))


def _paths(node, path=()):
    """The path of every object entry below ``node`` and of the first item
    of every list, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        [(0, node[0])] if isinstance(node, list) and node else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


CASES = [(k, path) for k, spec in enumerate(SPECS) for path in _paths(spec)]


def _replaced(spec: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(spec))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=VALUES)
def test_any_replaced_node_exits_with_a_known_code(case, value):
    k, path = case
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(_replaced(SPECS[k], path, value), fh)
        for argv in (["verify", spec], ["integrate", spec, "--samples", "1"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (EXIT_PASS, EXIT_AXIOM, EXIT_STRUCTURAL,
                            EXIT_CAPABILITY), (argv[0], path, value)
