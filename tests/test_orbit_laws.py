"""Jacobi is evaluated once per cyclic orbit of its index tuple, and the
module and representation laws once per pair of indices; their reports must
be the ones the whole tables give.

``tests/test_blocked_laws.py`` compares whole reports with the loop oracles
of ``test_algebra`` on integer entries, where every residual is exact.  Here
the entries are seeded floats with no antisymmetry, so a residual may move
by rounding: residuals must agree with the oracles to relative 1e-12, and
the listed positions and failure counts exactly, wherever no residual lies
within that band of the tolerance.  Further tests pin the comparison with
the tolerance (a residual equal to it passes and is not listed, and a box
that does not exceed it is not searched) and a NaN residual, which sticks
as the maximum however late its block comes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from leibrack import (LeibnizAlgebraData, MatrixRep, check_leibniz,
                      check_lie_algebra, check_module, check_rep, lie_algebra)
from leibrack import algebra, catalog
from leibrack.algebra import ModuleAction
from leibrack.report import MAX_LISTED_VIOLATIONS, Collector
from test_algebra import (jacobi_table_by_loops, leibniz_table_by_loops,
                          module_table_by_loops)
from test_blocked_laws import blocks, failure_counts  # noqa: F401 (fixtures)
from test_stacked_recovery import gl_parts

REL = 1e-12
SEEDS = range(6)


@lru_cache(maxsize=None)
def float_case(checker: str, seed: int):
    """The checker's argument and the oracle's ``(law, table)`` tables, for
    seeded N(0, 1) entries with no antisymmetry."""
    rng = np.random.default_rng([31, seed])
    if checker in ("lie", "leibniz"):
        d = (2, 5, 9)[seed % 3]
        C = rng.standard_normal((d, d, d))
        if checker == "leibniz":
            return LeibnizAlgebraData(d, C), [("leibniz-identity",
                                               leibniz_table_by_loops(C))]
        return lie_algebra(C), [("antisymmetry", C + C.swapaxes(0, 1)),
                                ("jacobi", jacobi_table_by_loops(C))]
    n, m = 2 + seed % 4, 2 + seed % 2       # m * m >= n: faithful
    C = rng.standard_normal((n, n, n))
    A = rng.standard_normal((n, m, m))
    table = module_table_by_loops(C, A)
    if checker == "module":
        return ModuleAction(lie_algebra(C), m, A), [("module-homomorphism", table)]
    return MatrixRep(lie_algebra(C), A), [("representation-homomorphism", table)]


def tolerance(tables):
    """All residuals of the tables, and a tolerance that a tenth exceed."""
    residuals = np.concatenate([np.abs(t).ravel() for _, t in tables])
    return residuals, float(np.quantile(residuals, 0.9))


CHECKERS = {"lie": check_lie_algebra, "leibniz": check_leibniz,
            "module": check_module, "rep": check_rep}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_float_reports_match_the_loop_oracle(checker, seed, blocks,
                                             failure_counts):
    arg, tables = float_case(checker, seed)
    residuals, tol = tolerance(tables)
    report = CHECKERS[checker](arg, tol)

    assert report.max_residual == pytest.approx(residuals.max(), rel=REL)
    for v in report.violations:
        table = dict(tables)[v.law]
        assert v.residual == pytest.approx(abs(table[v.where]), rel=REL)
    if np.any(np.abs(residuals - tol) <= REL * residuals):
        return                  # a residual at the tolerance may go either way
    hits = [(law, tuple(map(int, idx))) for law, t in tables
            for idx in zip(*np.nonzero(np.abs(t) > tol))]
    assert [(v.law, v.where) for v in report.violations] == hits[:MAX_LISTED_VIOLATIONS]
    assert failure_counts == [len(hits)]


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_the_float_cases_fail_past_the_listing_cap(checker):
    def hits(tables):
        residuals, tol = tolerance(tables)
        return np.count_nonzero(residuals > tol)

    assert any(hits(float_case(checker, seed)[1]) > MAX_LISTED_VIOLATIONS
               for seed in SEEDS)


def exact_gl3():
    """gl(3): its bracket, adjoint action and natural representation, with
    integer entries, so every residual of every law is exactly zero."""
    triple, rep = gl_parts(3)
    C = triple.algebra.structure_constants
    return [(check_lie_algebra, triple.algebra), (check_module, triple.action),
            (check_rep, rep), (check_leibniz, LeibnizAlgebraData(9, C))]


@pytest.fixture
def listed_pieces(monkeypatch):
    """The pieces of failing entries that the boxes hand to the listing."""
    pieces, entries = [], Collector.entries

    def spy(self, law, shape, found):
        found = list(found)
        pieces.extend(found)
        return entries(self, law, shape, found)

    monkeypatch.setattr(Collector, "entries", spy)
    return pieces


def test_a_residual_equal_to_the_tolerance_passes_unlisted(blocks, listed_pieces):
    # at tol = 0 the exact tables of gl(3) pass, list nothing, and no box
    # is searched for failing entries
    for check, arg in exact_gl3():
        report = check(arg, 0.0)
        assert report.passed and report.violations == (), check.__name__
    assert listed_pieces == []
    # integer tables whose residuals are 0, 1 and more, checked at tol = 1:
    # only the residuals above 1 are listed and counted
    rng = np.random.default_rng(5)
    C = rng.integers(-1, 2, (4, 4, 4)).astype(float)
    C -= C.swapaxes(0, 1)
    A = rng.integers(-1, 2, (4, 2, 2)).astype(float)
    for check, arg, table in [
            (check_lie_algebra, lie_algebra(C), jacobi_table_by_loops(C)),
            (check_module, ModuleAction(lie_algebra(C), 2, A),
             module_table_by_loops(C, A))]:
        res = np.abs(table)
        assert np.any(res == 1.0) and np.any(res > 1.0)
        report = check(arg, 1.0)
        want = [tuple(map(int, idx)) for idx in zip(*np.nonzero(res > 1.0))]
        assert [v.where for v in report.violations] == want[:MAX_LISTED_VIOLATIONS]
        assert all(v.residual > 1.0 for v in report.violations)


def test_a_nan_residual_in_a_late_block_sticks(monkeypatch):
    # 1e300 sl(2) on the last three of five basis vectors: every product of
    # two of its brackets overflows, so its Jacobi and module tables are NaN
    # from row 2 on, after two blocks of exact zeros
    monkeypatch.setattr(algebra, "_BLOCK", 1)
    C = np.zeros((5, 5, 5))
    C[2:, 2:, 2:] = 1e300 * catalog.algebra_by_name("sl2").structure_constants
    alg = lie_algebra(C)
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [check_lie_algebra(alg), check_module(alg.adjoint_action())]
    for report in reports:
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.violations == ()
