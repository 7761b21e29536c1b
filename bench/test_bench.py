"""Tests of the benchmark's own machinery: case generation and tracing.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import pytest

import cases
import tracer as tr


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_gives_same_cases_and_inputs(workload, tmp_path):
    first = cases.generate(workload, 7, str(tmp_path / "a"))
    again = cases.generate(workload, 7, str(tmp_path / "b"))
    other = cases.generate(workload, 8, str(tmp_path / "c"))
    assert [c.id for c in first] == [c.id for c in again]
    assert cases.fingerprint(first, str(tmp_path / "a")) == \
        cases.fingerprint(again, str(tmp_path / "b"))
    assert cases.fingerprint(first, str(tmp_path / "a")) != \
        cases.fingerprint(other, str(tmp_path / "c"))


def test_runner_knows_every_workload():
    import run
    assert run.WORKLOADS == cases.WORKLOADS == tuple(cases.GENERATORS)


def test_gl_constants_are_matrix_commutators():
    n = 3
    C, E = cases.gl_constants(n), cases.matrix_units(n)
    for a in range(n * n):
        for b in range(n * n):
            comm = E[a] @ E[b] - E[b] @ E[a]
            assert (comm == (C[a, b, :, None, None] * E).sum(axis=0)).all()


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, False)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    spans = [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 4.0, 0),
             _span(2, 5.0, 9.0, 0), _span(3, 6.0, 7.0, 2)]
    assert tr.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    agg = tr.aggregate(["A", "B", "C", "D"], spans, lambda s: True)
    assert sum(row["self_s"] for row in agg.values()) == 10.0
    assert agg["C"] == {"calls": 1, "self_s": 3.0, "errors": 0}


def test_wrappers_record_nested_spans_and_restore(capsys):
    import leibrack.cli
    import leibrack.triples
    original = leibrack.triples.check_triple
    t = tr.Tracer()
    missing = t.install(targets=tr.TARGETS + (("racks", "no_such_checker"),
                                               ("gone", "anything")))
    try:
        assert missing == ["racks.no_such_checker", "gone.anything"]
        assert leibrack.cli.main(["verify", "--builtin", "sl2-adjoint"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert leibrack.triples.check_triple is original
    names = [t.names[s[tr.NAME]] for s in t.spans]
    assert names[0] == "cli.main"
    top = [s for s in t.spans if s[tr.PARENT] < 0]
    assert len(top) == 1
    assert {"triples.check_triple", "algebra.check_lie_algebra"} <= set(names)
    for s in t.spans[1:]:                   # every span hangs below cli.main
        while s[tr.PARENT] > 0:
            s = t.spans[s[tr.PARENT]]
        assert s[tr.PARENT] == 0
    own = tr.self_times(t.spans)
    assert sum(own) == pytest.approx(top[0][tr.END] - top[0][tr.START])


def test_wrapper_counts_raised_exceptions():
    from leibrack import localgroup
    from leibrack.errors import StructuralError
    t = tr.Tracer()
    t.install(targets=(("localgroup", "log_matrix"),))
    try:
        with pytest.raises(StructuralError):
            localgroup.log_matrix([[1.0, 2.0]])
    finally:
        t.uninstall()
    row = tr.aggregate(t.names, t.spans, lambda s: True)["localgroup.log_matrix"]
    assert (row["calls"], row["errors"]) == (1, 1)


def test_set_up_and_raising_names_are_traced():
    traced = {f"{m}.{a}" for m, a in tr.TARGETS}
    assert tr.SETUP <= traced and tr.RAISING <= traced
